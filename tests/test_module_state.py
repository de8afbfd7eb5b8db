"""No function in ``src/spikegraph`` keeps state in its module: none
declares ``global`` or mutates a module-level list, dict or set.  State
that outlives a call belongs to an object its callers hold, or to a
context variable when it must follow the thread or task."""

import ast
import os

import pytest

import spikegraph

PACKAGE = os.path.dirname(spikegraph.__file__)
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))

CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONSTRUCTORS = {"list", "dict", "set"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "difference_update",
            "intersection_update", "symmetric_difference_update", "__setitem__",
            "__delitem__"}


def _is_container(value) -> bool:
    if isinstance(value, CONTAINERS):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in CONSTRUCTORS)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names that top-level statements bind to a list, dict or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.value is not None and _is_container(node.value)):
            names.add(node.target.id)
    return names


def _local_names(func) -> set[str]:
    """Names a function binds itself: its arguments and assignment targets."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {n.id for n in ast.walk(func)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def module_state_mutations(source: str) -> list[str]:
    """Every ``global`` declaration in a function, and every call of a
    mutating method on, or item store or deletion in, a module-level
    list, dict or set that a function does not shadow."""
    tree = ast.parse(source)
    shared = _module_containers(tree)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        visible = shared - _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.add((node.lineno, f"global {', '.join(node.names)}"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in visible and node.func.attr in MUTATORS):
                found.add((node.lineno, f"{node.func.value.id}.{node.func.attr}"))
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Name) and node.value.id in visible):
                found.add((node.lineno, f"{node.value.id}[...]"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_mutates_module_state(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert module_state_mutations(fh.read()) == []


def test_checker_sees_module_state_mutations():
    source = (
        "STACK: list = []\nTABLE = {'a': 1}\nSEEN = set()\nLIMIT = 3\n"
        "SITES = {'a': len}\n\n"
        "def push(x):\n    STACK.append(x)\n    return STACK[-1]\n\n"
        "def store(k, v):\n    TABLE[k] = v\n    del TABLE['a']\n\n"
        "def mark(x):\n    SEEN.add(x)\n\n"
        "def bump():\n    global LIMIT\n    LIMIT += 1\n\n"
        "def shadowed(STACK):\n    STACK.append(1)\n    TABLE = {}\n    TABLE['b'] = 2\n\n"
        "def reads(site):\n    return SITES[site], len(STACK), dict(TABLE)\n")
    assert module_state_mutations(source) == [
        "line 8: STACK.append", "line 12: TABLE[...]", "line 13: TABLE[...]",
        "line 16: SEEN.add", "line 19: global LIMIT"]
