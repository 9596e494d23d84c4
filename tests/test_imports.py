"""Source hygiene: no module under src/drwitt imports a name it never uses,
none reads the process environment, no self-check is a bare assert, no
public name is dead or reached only from tests and no option is set only
from tests (beyond named keep-lists), every error class is raised, and the GF(p^f) elimination keeps the one
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


def defaulted_parameters(path):
    """(function, parameter, position) for each parameter with a default of
    a module's functions and methods, nested ones too.  The position is the
    index a positional argument takes at a call, after self or cls for a
    method, or None for a keyword-only parameter; a class's __init__ and
    __new__ go by the class's name, which is how they are called."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, FUNCTIONS):
                name = cls if cls and node.name in ("__init__", "__new__") else node.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                shift = 1 if cls and not static else 0
                args = node.args.posonlyargs + node.args.args
                first = len(args) - len(node.args.defaults)
                out.extend((name, arg.arg, k - shift) for k, arg in enumerate(args) if k >= first)
                kwonly = zip(node.args.kwonlyargs, node.args.kw_defaults)
                out.extend((name, arg.arg, None) for arg, default in kwonly if default is not None)
                visit(node.body, None)

    visit(ast.parse(path.read_text()).body, None)
    return out


def calls_by_name(roots):
    """{callee: [(positional count, keyword names)]} over the calls f(...)
    and obj.f(...) of every module under `roots`, the callee named by its
    last part; a *args counts as every position and a **kwargs as every
    keyword (the name None)."""
    out = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    npos = float("inf") if starred else len(node.args)
                    out.setdefault(name, []).append((npos, {kw.arg for kw in node.keywords}))
    return out


def options_only_tests_set(package, library, tests):
    """function.parameter for each defaulted parameter of `package` that a
    call under `tests` passes, by keyword or by position, and no call under
    `library` does.  Callees are matched by their bare name."""
    library_calls, test_calls = calls_by_name(library), calls_by_name(tests)

    def passes(calls, name, param, pos):
        return any(
            param in kws or None in kws or (pos is not None and npos > pos) for npos, kws in calls.get(name, ())
        )

    return sorted(
        f"{name}.{param}"
        for path in sorted(package.rglob("*.py"))
        for name, param, pos in defaulted_parameters(path)
        if passes(test_calls, name, param, pos) and not passes(library_calls, name, param, pos)
    )


# Options that only tests set and that stay in src/drwitt on purpose, each
# with its reason; the options of ACCEPTANCE_CALLS stay too, as inputs of the
# acceptance criteria (quillen_table's f compares the K-groups of GF(p^f)).
TEST_SET_OPTIONS = {
    "main.argv": "the console entry point calls main() with no argument, so it reads sys.argv",
}


def test_no_option_is_set_only_from_tests():
    # an option that no code in the package sets is a test-only switch
    # inside it; the behaviour behind it belongs in tests/helpers.py
    found = options_only_tests_set(SRC, [ROOT / "src"], [ROOT / "tests"])
    acceptance = {option for option in found if option.split(".")[0] in ACCEPTANCE_CALLS}
    assert set(found) - acceptance - set(TEST_SET_OPTIONS) == set()
    assert set(TEST_SET_OPTIONS) <= set(found)  # each kept option is still one only tests set


def test_the_scan_sees_an_option_only_tests_set(tmp_path):
    pkg, lib, tests = tmp_path / "pkg", tmp_path / "lib", tmp_path / "tests"
    for d in (pkg, lib, tests):
        d.mkdir()
    (pkg / "mod.py").write_text(
        "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def fill(self, level=0, *, strict=False, loud=False):\n        pass\n\n\n"
        "def ranked(xs, key=None, reverse=False):\n    return xs\n\n\n"
        "def spread(a=0, b=0):\n    return a + b\n\n\n"
        "def untouched(flag=True):\n    return flag\n"
    )
    (lib / "app.py").write_text(
        "from pkg.mod import Box, ranked, spread\n\nBox().fill(3, loud=True)\nranked([1], None)\n"
        "spread(**{'a': 1})\n"
    )
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Box, ranked, spread, untouched\n\n"
        "def test():\n    Box(2).fill(strict=True)\n    ranked([1], reverse=True)\n"
        "    ranked([1], None, True)\n    spread(b=2)\n    untouched()\n"
    )
    assert options_only_tests_set(pkg, [lib], [tests]) == ["Box.size", "fill.strict", "ranked.reverse"]


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
