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
import subprocess
import sys
from pathlib import Path

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
    # import sqgdiag loads numpy, scipy.special and the package: a fresh
    # interpreter must not find these in sys.modules afterwards
    heavy = ["scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate", "scipy.optimize"]
    probe = f"import sys, sqgdiag; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
