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


# module-level state a cache could hide in: container constructors, and the
# decorators that memoise a function for the life of the interpreter
CONTAINER_CALLS = {
    "builtins": {"dict", "list", "set"},
    "collections": {"OrderedDict", "defaultdict"},
    "weakref": {"WeakValueDictionary", "WeakKeyDictionary", "WeakSet"},
}
MEMO_DECORATORS = {"functools": {"lru_cache", "cache"}}
DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _module_level(node: ast.AST):
    """The nodes under ``node`` outside every function, class and lambda."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, DEFINITIONS):
            yield child
            yield from _module_level(child)


def _bindings(target: ast.AST, value: ast.AST):
    """(target, value) pairs of an assignment, tuples unpacked pairwise."""
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
        for t, v in zip(target.elts, value.elts):
            yield from _bindings(t, v)
    else:
        yield target, value


def module_state(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each module-level name bound to a mutable container,
    a display or a call in CONTAINER_CALLS, and (line, "@decorator name")
    for each function or class under a decorator in MEMO_DECORATORS, through
    any import alias."""
    names = {name: f"builtins.{name}" for name in CONTAINER_CALLS["builtins"]}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)

    def qualified(node: ast.AST) -> str | None:
        node = node.func if isinstance(node, ast.Call) else node
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return f"{modules[node.value.id]}.{node.attr}"
        return None

    containers = {f"{m}.{n}" for m, ns in CONTAINER_CALLS.items() for n in ns}
    memos = {f"{m}.{n}" for m, ns in MEMO_DECORATORS.items() for n in ns}
    found = []
    for node in _module_level(tree):
        if isinstance(node, ast.Assign) or isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target, value in (pair for t in targets for pair in _bindings(t, node.value)):
                if isinstance(value, DISPLAYS) or isinstance(value, ast.Call) and qualified(value) in containers:
                    found.append((node.lineno, ast.unparse(target)))
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS[:3]):
            found += [(d.lineno, f"@{qualified(d)} {node.name}") for d in node.decorator_list if qualified(d) in memos]
    return sorted(found)


def test_guard_sees_every_module_level_container_and_memo():
    source = (
        "import collections as co, weakref, functools as ft\n"
        "from collections import OrderedDict as OD, defaultdict\n"
        "from weakref import WeakSet\nfrom functools import lru_cache, cache as memo\n"
        "A = {}\nB: list = [1]\nC = {1}\nD = dict(a=1)\nE = list()\nF = set()\nG = OD()\n"
        "H = co.OrderedDict()\nI = defaultdict(list)\nJ = weakref.WeakValueDictionary()\n"
        "K = weakref.WeakKeyDictionary()\nL = WeakSet()\nM, N = (), {k: 1 for k in ()}\n"
        "if True:\n    O = [k for k in ()]\ntry:\n    pass\nexcept ImportError:\n    P = {*()}\n"
        "Q = R = []\n"
        "@lru_cache(maxsize=None)\ndef f():\n    pass\n"
        "@memo\ndef g():\n    pass\n"
        "class S:\n    @ft.lru_cache\n    def t(self):\n        pass\n"
        # none of these is module-level mutable state or a memo decorator
        "T = (1, 2)\nU = frozenset({1})\nV: dict\nW = tuple([1])\n"
        "def w():\n    local = {}\n    return local\n"
        "@property\ndef z():\n    pass\n"
    )
    assert [name for _, name in module_state(ast.parse(source))] == [
        *"ABCDEFGHIJKLNOPQR", "@functools.lru_cache f", "@functools.cache g", "@functools.lru_cache t",
    ]


def test_one_module_level_cache():
    # every cache of the package lives in freelie._memo, one bounded policy
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7, modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)} {name}" for _, name in module_state(tree)]
    assert found == ["freelie.py _memo"]
