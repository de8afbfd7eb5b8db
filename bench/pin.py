"""Import first, before numpy: pins BLAS and OpenMP to one thread and puts
the checkout's ``src/`` first on the import path.

One thread, because the benchmark measures one caller on a machine whose
cores are shared: at two BLAS threads the ``train_smf`` step median read
1.1 s in one run and 1.7 s in the next.  Bytecode is not written, so
every run compiles the sources alike and leaves the checkout unchanged.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def require_program() -> None:
    """Exit (code 1) unless spikegraph imports from this checkout's src/."""
    try:
        import spikegraph
    except ImportError as err:
        sys.exit(f"cannot import spikegraph from {SRC}: {err}")
    if not os.path.abspath(spikegraph.__file__).startswith(SRC + os.sep):
        sys.exit(f"spikegraph imported from {spikegraph.__file__}, not from {SRC}")
