"""Source hygiene: no module under src/drwitt imports a name it never uses,
and none reads the process environment."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "drwitt"


def unused_imports(path):
    """Names a module binds by import and never reads (a bare Name load)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_dead_imports_in_src():
    # package __init__ files import only to re-export
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 10
    dead = {str(p.relative_to(SRC)): names for p in modules if (names := unused_imports(p))}
    assert dead == {}


def test_the_scan_sees_a_dead_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n\nprint(os, d)\n")
    assert unused_imports(mod) == ["b"]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """Lines where a module reads os.environ or os.getenv, or imports either from os."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in ENVIRONMENT for a in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    # drwitt's results depend on its arguments only
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    reads = {str(p.relative_to(SRC)): lines for p in modules if (lines := environment_reads(p))}
    assert reads == {}


def test_the_scan_sees_an_environment_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom os import getenv, path\n\na = os.environ.get('A')\nb = os.getenv('B')\nc = path\n")
    assert environment_reads(mod) == [2, 4, 5]
