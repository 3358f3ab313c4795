"""The package's surface: every top-level name in src/ is read by code.

An AST scan, so a name that appears only in a comment, a docstring or a
string does not count as read.  A read is a ``Name`` or ``Attribute`` load in
``src/``, ``demos/`` or ``perfbench/``, outside the top-level statement that
defines the name.  Imports are not reads, so the re-exports in
``sqgdiag/__init__.py`` do not count either.  Tests are not readers: an
oracle or a calibration that only the suite calls lives in ``tests/``.
"""

import ast
import os
import re
import subprocess
import sys
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


def test_scan_ignores_comments_docstrings_and_strings():
    tree = ast.parse('"""uses SPLIT"""\n# SPLIT\nx = "SPLIT"\ny = f(z).SPLIT\n')
    assert [read_names(s) for s in tree.body] == [set(), set(), {"f", "z", "SPLIT"}]


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
