"""Source hygiene: no module under src/drwitt imports a name it never uses,
none reads the process environment, no self-check is a bare assert, no
public name is dead or reached only from tests (beyond a named keep-list),
every error class is raised, and the GF(p^f) elimination keeps the one
name the benchmark's tracer wraps."""

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


def bare_asserts(path):
    """Lines of a module's assert statements, which python -O strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert))


def test_no_self_check_is_a_bare_assert():
    # a self-check raises AssertionError itself, so it also runs under -O
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = {str(p.relative_to(SRC)): lines for p in modules if (lines := bare_asserts(p))}
    assert found == {}


def test_the_scan_sees_a_bare_assert(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(x):\n    assert x, 'x'\n    if not x:\n        raise AssertionError('x')\n"
        "    return 'assert x'\n\n\nclass C:\n    def g(self):\n        assert self\n"
    )
    assert bare_asserts(mod) == [2, 10]


ROOT = SRC.parents[1]


def top_level_definitions(path):
    """Names of the functions and classes a module defines at top level."""
    tree = ast.parse(path.read_text())
    return [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(path):
    """Identifiers a module reads: names, attributes, names imported from
    another module, and the parts of dotted-name strings (how the
    benchmark tracer names what it wraps).  A top-level definition's
    mentions of its own name, as in recursion, do not count."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
        for node in ast.walk(stmt):
            found = set()
            if isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                found = {a.name for a in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if all(part.isidentifier() for part in node.value.split(".")):
                    found = set(node.value.split("."))
            names |= found - own
    return names


def dead_public_names(package, scanned):
    """Top-level functions and classes of `package` that no module under
    `scanned` references apart from their own definitions.  A package
    __init__ that only re-exports a name does not keep it alive."""
    used = set()
    for root in scanned:
        for path in sorted(root.rglob("*.py")):
            if path.name != "__init__.py" or not path.is_relative_to(package):
                used |= referenced_names(path)
    return sorted(
        name
        for path in sorted(package.rglob("*.py"))
        for name in top_level_definitions(path)
        if name not in used
    )


def test_no_public_name_is_dead():
    scanned = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
    assert all(root.is_dir() for root in scanned)
    assert dead_public_names(SRC, scanned) == []


def test_the_scan_sees_a_dead_public_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import Kept, exported\n")
    (pkg / "mod.py").write_text(
        "class Kept:\n    pass\n\n\ndef exported():\n    return Kept\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def traced():\n    pass\n\n\ndef dead():\n    pass\n"
    )
    (tmp_path / "use.py").write_text("WRAPPED = ['pkg.mod.traced']\n")
    assert dead_public_names(pkg, [tmp_path]) == ["dead", "exported", "recursive"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(path):
    """(name, bare name) of a module's public top-level functions and the
    public methods of its public top-level classes; a method is named
    Class.method."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [f.name for f in node.body if isinstance(f, FUNCTIONS) and not f.name.startswith("_")]
            out += [(f"{node.name}.{name}", name) for name in methods]
    return out


def names_only_tests_reach(package, library, tests):
    """Public functions and methods of `package` that a module under `tests`
    references and no module under `library` does, apart from their own
    definitions.  A package __init__ that only re-exports a name does not
    count, and a method counts as reached wherever its bare name is read."""
    reached = set()
    for root in library:
        for path in sorted(root.rglob("*.py")):
            if path.name != "__init__.py" or not path.is_relative_to(package):
                reached |= referenced_names(path)
    tested = set().union(*(referenced_names(path) for root in tests for path in sorted(root.rglob("*.py"))))
    return sorted(
        name
        for path in sorted(package.rglob("*.py"))
        for name, bare in public_definitions(path)
        if bare in tested and bare not in reached
    )


# Public names that only tests reach and that stay in src/drwitt on purpose.
# The library checks behind the acceptance criteria, kept when the code only
# tests called left the package:
ACCEPTANCE_CHECKS = {
    "mod_p_compatibility",
    "perfection_consistency_check",
    "adjunction_check",
    "base_change_check",
    "log_mod_compat",
    "nygaard_graded_check",
    "nygaard_completeness_check",
    "StrictLevel.d_map",
}
# and the functions tests/test_acceptance.py calls:
ACCEPTANCE_CALLS = {"homology_filtration_gr", "witt_to_unramified", "quillen_table", "hiller_check"}


def test_no_public_name_is_reached_only_from_tests():
    # a function no verb, library check or acceptance criterion calls
    # belongs in tests/helpers.py, not in the package
    library, tests = [ROOT / "src", ROOT / "perfbench"], [ROOT / "tests"]
    defined = {name for path in sorted(SRC.rglob("*.py")) for name, _ in public_definitions(path)}
    assert ACCEPTANCE_CHECKS | ACCEPTANCE_CALLS <= defined
    assert ACCEPTANCE_CALLS <= referenced_names(ROOT / "tests" / "test_acceptance.py")
    found = names_only_tests_reach(SRC, library, tests)
    assert set(found) - ACCEPTANCE_CHECKS - ACCEPTANCE_CALLS == set()
    assert ACCEPTANCE_CALLS <= set(found)  # the scan sees what only tests call


def test_the_scan_sees_a_name_only_tests_reach(tmp_path):
    pkg, lib, tests = tmp_path / "pkg", tmp_path / "lib", tmp_path / "tests"
    for d in (pkg, lib, tests):
        d.mkdir()
    (pkg / "__init__.py").write_text("from .mod import Kept, planted\n")
    (pkg / "mod.py").write_text(
        "class Kept:\n    def run(self):\n        return self.run()\n\n    def probe(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n\n\n"
        "def used():\n    return Kept().run()\n\n\ndef planted():\n    return planted()\n\n\n"
        "def _private():\n    pass\n\n\ndef unread():\n    pass\n"
    )
    (lib / "app.py").write_text("from pkg.mod import used\n\nused()\n")
    (tests / "test_mod.py").write_text(
        "from pkg import Kept, planted\nfrom pkg.mod import _private, used\n\n"
        "def test():\n    Kept().probe()\n    Kept()._hidden()\n    planted()\n    used()\n    _private()\n"
    )
    assert names_only_tests_reach(pkg, [tmp_path / "pkg", lib], [tests]) == ["Kept.probe", "planted"]


def raised_names(path):
    """Names a module raises: `raise X`, `raise X(...)` and `raise mod.X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def unraised_exceptions(errors, package):
    """Exception classes defined in `errors` that no module under `package` raises."""
    raised = set().union(*(raised_names(p) for p in sorted(package.rglob("*.py"))))
    return [name for name in top_level_definitions(errors) if name not in raised]


def test_every_error_class_is_raised():
    # an error class that only an oracle raised would outlive the oracle
    assert len(top_level_definitions(SRC / "errors.py")) > 10
    assert unraised_exceptions(SRC / "errors.py", SRC) == []


def test_the_scan_sees_an_error_class_nothing_raises(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "errors.py").write_text(
        "class Base(Exception):\n    pass\n\n\nclass Bare(Base):\n    pass\n\n\n"
        "class Called(Base):\n    pass\n\n\nclass Dotted(Base):\n    pass\n\n\nclass Caught(Base):\n    pass\n"
    )
    (pkg / "mod.py").write_text(
        "from . import errors\nfrom .errors import Bare, Called, Caught\n\n\n"
        "def f(x):\n    if x:\n        raise Bare\n    try:\n        raise Called('x')\n"
        "    except Caught:\n        raise errors.Dotted('y') from None\n"
    )
    assert unraised_exceptions(pkg / "errors.py", pkg) == ["Base", "Caught"]


def test_one_gf_elimination_under_the_traced_name():
    # the benchmark's tracer wraps exactcore.gf.gf_rref and its copies in
    # rings and derham by name; a rename would leave those layers unmeasured
    import drwitt.derham
    import drwitt.exactcore
    import drwitt.exactcore.gf
    import drwitt.rings

    engine = drwitt.exactcore.gf.gf_rref
    assert drwitt.rings.gf_rref is engine
    assert drwitt.derham.gf_rref is engine
    assert drwitt.exactcore.gf_rref is engine
    assert not hasattr(drwitt.exactcore, "sparse_rref")
    assert not hasattr(drwitt.exactcore.gf, "sparse_rref")
