"""``src/repro`` imports nothing from the repo's other top-level trees.

``setup.py`` packages ``src/`` only, so an import of ``benchmarks``, ``tests``
or ``examples`` -- at module level or inside a function -- works from the
repo root and nowhere else.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OUTSIDE = {"benchmarks", "tests", "examples"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_nothing_outside_itself():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {root}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, root in _imported_roots(ast.parse(path.read_text()))
        if root in OUTSIDE
    ]
    assert offenders == []
