"""Pin BLAS and OpenMP to one thread before numpy loads.

pytest imports this file before any test module, so the variables are set
before the first ``import numpy`` reads them.  On a host whose cores are
shared, an unpinned BLAS pool contends with the other processes and the
suite runs several times slower.
"""

import os
import sys

import pytest

NUMPY_PRELOADED = "numpy" in sys.modules
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


@pytest.fixture
def blas_pin():
    """(whether numpy was imported before the pin, the pinned variables)."""
    return NUMPY_PRELOADED, {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
