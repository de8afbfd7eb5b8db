"""Every module-level import in ``src/spikegraph`` is referenced by its module."""

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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_checker_sees_an_unused_import():
    source = "import os\nimport sys\nfrom .x import a, b\n__all__ = ['b']\nprint(sys)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: a"]
