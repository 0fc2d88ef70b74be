"""Properties of the package source itself."""

import ast
from pathlib import Path

import nilmult

PACKAGE = Path(nilmult.__file__).parent


def assert_lines(tree: ast.AST) -> list[int]:
    """The line of each assert statement, nested ones included."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_guard_sees_every_assert():
    source = (
        "assert ready\ndef f(x):\n    assert x, 'message'\n    return x\n"
        "class C:\n    def g(self):\n        if self:\n            assert (self, 1)\n"
    )
    assert assert_lines(ast.parse(source)) == [1, 3, 8]


def test_no_assert_statements():
    # python -O strips asserts, so invariants must raise real exceptions
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7, modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{line}" for line in assert_lines(tree)]
    assert found == []


# interpreter-wide state a library must leave to its caller, by module
GLOBAL_SETTERS = {
    "sys": {"setrecursionlimit", "setswitchinterval"},
    "gc": {"disable", "freeze", "set_threshold"},
}
GLOBAL_FLAGS = {"sys": {"dont_write_bytecode"}}


def global_state_changes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each use of a setter in GLOBAL_SETTERS and each
    assignment to a flag in GLOBAL_FLAGS, through any import alias."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name in GLOBAL_SETTERS)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in GLOBAL_SETTERS:
            banned = GLOBAL_SETTERS[node.module] | GLOBAL_FLAGS.get(node.module, set())
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if a.name in banned]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            module = modules[node.value.id]
            stored = isinstance(node.ctx, ast.Store) and node.attr in GLOBAL_FLAGS.get(module, ())
            if node.attr in GLOBAL_SETTERS[module] or stored:
                found.append((node.lineno, f"{module}.{node.attr}"))
    return sorted(found)


def test_guard_sees_every_global_setting():
    source = (
        "import sys, gc as g\nfrom gc import freeze\n"
        "sys.setrecursionlimit(10**6)\nsys.setswitchinterval(1)\ng.disable()\n"
        "g.set_threshold(0)\nsys.dont_write_bytecode = True\n"
        "limit = sys.getrecursionlimit()\nflag = sys.dont_write_bytecode\n"
    )
    assert [name for _, name in global_state_changes(ast.parse(source))] == [
        "gc.freeze", "sys.setrecursionlimit", "sys.setswitchinterval", "gc.disable",
        "gc.set_threshold", "sys.dont_write_bytecode",
    ]


def test_no_interpreter_global_settings():
    # a library call must not retune the interpreter for everyone else in it
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7, modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{line} {name}" for line, name in global_state_changes(tree)]
    assert found == []
