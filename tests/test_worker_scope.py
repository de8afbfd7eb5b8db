"""No worker thread or process pool in ``src/spikegraph`` is made when its
module is imported: each belongs to the call that runs its work (a sweep,
a training step) and is joined before that call returns."""

import ast
import os

import pytest

import spikegraph

PACKAGE = os.path.dirname(spikegraph.__file__)
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))

WORKERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Pool", "ThreadPool"}


class _ImportTimeCalls(ast.NodeVisitor):
    """Worker constructions that run at import: in the module's and its
    classes' bodies, in decorators and in default argument values, not in
    the bodies of functions."""

    def __init__(self):
        self.found = []

    def _visit_signature(self, node):
        args = node.args
        for expr in [*getattr(node, "decorator_list", []), *args.defaults,
                     *(d for d in args.kw_defaults if d is not None)]:
            self.visit(expr)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_signature

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WORKERS:
            self.found.append(f"line {node.lineno}: {name}")
        self.generic_visit(node)


def import_time_workers(source: str) -> list[str]:
    visitor = _ImportTimeCalls()
    visitor.visit(ast.parse(source))
    return visitor.found


@pytest.mark.parametrize("module", MODULES)
def test_no_worker_is_made_at_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert import_time_workers(fh.read()) == []


def test_checker_sees_import_time_workers():
    source = (
        "import threading\nfrom concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessing\n\n"
        "POOL = ThreadPoolExecutor(max_workers=1)\n"
        "if True:\n    PROCS = multiprocessing.Pool(2)\n\n"
        "class Holder:\n    thread = threading.Thread(target=print)\n\n"
        "def run(pool=futures.ProcessPoolExecutor()):\n"
        "    with ThreadPoolExecutor(1) as worker:\n"
        "        return worker.submit(print)\n\n"
        "later = lambda: threading.Thread(target=print)\n")
    assert import_time_workers(source) == [
        "line 6: ThreadPoolExecutor", "line 8: Pool", "line 11: Thread",
        "line 13: ProcessPoolExecutor"]
