"""The package's surface: every top-level name in src/ is read by code.

An AST scan, so a name that appears only in a comment, a docstring or a
string does not count as read.  A read is a ``Name`` or ``Attribute`` load in
``src/``, ``demos/`` or ``perfbench/``, outside the top-level statement that
defines the name.  Imports are not reads, so the re-exports in
``sqgdiag/__init__.py`` do not count either.  A function defined in a class
body (a method or a property) is read when its name is loaded as an
attribute outside its own body.  Tests are not readers: an oracle or a
calibration that only the suite calls lives in ``tests/``.
"""

import ast
from collections import Counter
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqgdiag"
READERS = ("src", "demos", "perfbench")


def defined_names(statement):
    """Names a top-level statement defines: a def, a class or an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def read_names(statement):
    """Names loaded anywhere in a statement, as names or as attributes."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_name_is_read_outside_its_definition():
    # (path, statement index) -> names read by that top-level statement
    reads = {}
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for i, statement in enumerate(parse(path).body):
                reads[(path, i)] = read_names(statement)

    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, statement in enumerate(parse(path).body):
            for name in defined_names(statement):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(
                    name in names for where, names in reads.items() if where != (path, i)
                ):
                    unread.append(f"{path.name}: {name}")
    assert unread == []


def attribute_reads(tree):
    """How often each name is loaded as an attribute in tree."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_class_function_is_read_as_an_attribute():
    reads = Counter()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads += attribute_reads(parse(path))

    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                if reads[item.name] - attribute_reads(item)[item.name] <= 0:
                    unread.append(f"{path.name}: {cls.name}.{item.name}")
    assert unread == []


# RunConfig is not among them: its fields are the keys of the config file
CONFIGS = ("SolverConfig", "IterationConfig", "WeightedRegion")
# selects ETD-RK2; perfbench's selftest pins the 8 tables per phi build
# until the next change to the benchmark drops the second scheme
NEVER_SET = {"SolverConfig.integrator"}


def defaulted_fields(cls):
    """(position, name) of each field of a dataclass body with a default."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
    return [(i, s.target.id) for i, s in enumerate(fields) if s.value is not None]


def test_every_defaulted_config_field_is_set_by_some_call():
    # a field that no caller sets is a flag that only tests set
    passed = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for call in ast.walk(parse(path)):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in CONFIGS:
                    passed.update((name, i) for i in range(len(call.args)))
                    passed.update((name, kw.arg) for kw in call.keywords)

    found, unset = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(parse(path)):
            if isinstance(cls, ast.ClassDef) and cls.name in CONFIGS:
                found.add(cls.name)
                unset.update(
                    f"{cls.name}.{field}"
                    for i, field in defaulted_fields(cls)
                    if (cls.name, i) not in passed and (cls.name, field) not in passed
                )
    assert found == set(CONFIGS)
    assert unset == NEVER_SET


def test_scan_ignores_comments_docstrings_and_strings():
    tree = ast.parse('"""uses SPLIT"""\n# SPLIT\nx = "SPLIT"\ny = f(z).SPLIT\n')
    assert [read_names(s) for s in tree.body] == [set(), set(), {"f", "z", "SPLIT"}]


def test_submodules_are_package_attributes():
    # a package-level re-export must not rebind a submodule's name
    import sqgdiag

    names = ("spectral", "solver", "extension", "degiorgi", "oscillation", "constants", "harness")
    kinds = {name: type(getattr(sqgdiag, name, None)) for name in names}
    assert kinds == dict.fromkeys(names, types.ModuleType)


def test_import_leaves_the_heavy_scipy_subpackages_out():
    # import sqgdiag loads numpy and the package, and no scipy module: a
    # fresh interpreter must not find these in sys.modules afterwards
    heavy = ["scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate", "scipy.optimize"]
    probe = f"import sys, sqgdiag; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    # numpy and the package only: a fresh interpreter must find neither
    # scipy nor any of its subpackages in sys.modules afterwards
    probe = (
        "import sys, sqgdiag; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def test_no_scipy_import_in_src():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in imported_modules(parse(path))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert {"scipy", "mpmath"} <= set(names(project["optional-dependencies"]["test"]))


# Environment variables the package may read, each with its reason.  A new
# knob is a setting no signature shows, so it has to be added here on purpose.
ALLOWED_ENVIRONMENT = {}


def environment_reads(tree):
    """Names read through os.environ[...], os.environ.get(...) or
    os.getenv(...); a name that is not a string literal reads as None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "environ":
            key = node.slice
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "getenv"
            or (
                getattr(node.func, "attr", None) == "get"
                and getattr(node.func.value, "attr", None) == "environ"
            )
        ):
            key = node.args[0] if node.args else None
        else:
            continue
        yield key.value if isinstance(key, ast.Constant) else None


def test_environment_scan_finds_every_form():
    tree = ast.parse(
        'a = os.environ.get("A", "")\nb = os.environ["B"]\nc = os.getenv("C")\n'
        "d = os.getenv(name)\ne = dict(os.environ, F=1)\n"
    )
    assert list(environment_reads(tree)) == ["A", "B", "C", None]


def test_no_environment_knob_outside_the_allowed_set():
    found = {
        name
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in environment_reads(parse(path))
    }
    assert found <= set(ALLOWED_ENVIRONMENT)
