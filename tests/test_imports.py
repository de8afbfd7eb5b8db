"""Every module-level import in ``src/spikegraph`` is referenced by its
module, and no function re-imports from a module that the file already
imports from at top level."""

import ast
import os

import pytest

import spikegraph

PACKAGE = os.path.dirname(spikegraph.__file__)
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing in the module reads;
    names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def redundant_local_imports(source: str) -> list[str]:
    """Function-level ``from .m import`` statements in a module that also
    imports from ``.m`` at top level.  No import cycle needs them, and they
    hide the names from ``unused_imports``."""
    tree = ast.parse(source)
    top = {(n.level, n.module) for n in tree.body if isinstance(n, ast.ImportFrom)}
    local = {n for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(f) if isinstance(n, ast.ImportFrom)}
    return [f"line {n.lineno}: from {'.' * n.level}{n.module}"
            for n in sorted(local, key=lambda n: n.lineno)
            if (n.level, n.module) in top]


@pytest.mark.parametrize("module", MODULES)
def test_no_local_import_from_a_top_level_source(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert redundant_local_imports(fh.read()) == []


def test_checker_sees_a_redundant_local_import():
    source = ("from .x import a\nimport os\n\n"
              "def f():\n    from .x import b\n    from .y import c\n"
              "    from os import path\n    return a, b, c, path\n")
    assert redundant_local_imports(source) == ["line 5: from .x"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_checker_sees_an_unused_import():
    source = "import os\nimport sys\nfrom .x import a, b\n__all__ = ['b']\nprint(sys)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: a"]
