"""Properties of the package source itself."""

import ast
from pathlib import Path

import nilmult

PACKAGE = Path(nilmult.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so invariants must raise real exceptions
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7, modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
