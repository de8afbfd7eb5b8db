"""One exception class per exit code: every ``raise`` in ``src/spikegraph``
names one of the three classes of ``tensor``, and ``cli.main`` maps exactly
those three, so no failure on a command's path leaves as a traceback."""

import ast
import os

import pytest

import spikegraph

PACKAGE = os.path.dirname(spikegraph.__file__)
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
CLASSES = ("InvalidInputError", "FormatError", "NumericalError")   # exits 2, 3, 4


def _name(node) -> str:
    """The class a ``raise`` or ``except`` names: ``X``, ``X(...)`` or ``m.X``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "?")


def foreign_raises(source: str) -> list[str]:
    """``raise`` statements of a class other than the three; a bare
    ``raise`` re-raises what was caught and passes."""
    return [f"line {n.lineno}: {_name(n.exc)}" for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Raise) and n.exc is not None
            and _name(n.exc) not in CLASSES]


def exception_classes(source: str) -> list[str]:
    """Classes the module defines whose name ends in Error or Exception."""
    return [n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ClassDef) and n.name.endswith(("Error", "Exception"))]


def main_handlers(source: str) -> list[str]:
    """The classes that ``main``'s ``except`` clauses name, in order."""
    main = next(n for n in ast.parse(source).body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    return [_name(t) for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)
            for t in (n.type.elts if isinstance(n.type, ast.Tuple) else [n.type])]


def _read(module: str) -> str:
    with open(os.path.join(PACKAGE, module)) as fh:
        return fh.read()


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_is_one_of_the_three(module):
    assert foreign_raises(_read(module)) == []


def test_the_three_are_the_only_exception_classes():
    defined = {m: exception_classes(_read(m)) for m in MODULES}
    assert {m: c for m, c in defined.items() if c} == {"tensor.py": list(CLASSES)}


def test_main_handles_each_class_once():
    assert sorted(main_handlers(_read("cli.py"))) == sorted(CLASSES)


def test_checker_sees_a_foreign_raise():
    source = ("class DivergenceError(RuntimeError):\n    pass\n\n"
              "def f(x):\n    if x:\n        raise DivergenceError('x', {})\n"
              "    try:\n        g()\n    except OSError:\n        raise\n"
              "    raise spikegraph.tensor.FormatError('y')\n")
    assert foreign_raises(source) == ["line 6: DivergenceError"]
    assert exception_classes(source) == ["DivergenceError"]


def test_checker_sees_main_handlers():
    source = ("def main():\n    try:\n        run()\n"
              "    except (InvalidInputError, ValueError):\n        pass\n"
              "    except tensor.NumericalError:\n        pass\n")
    assert main_handlers(source) == ["InvalidInputError", "ValueError", "NumericalError"]
