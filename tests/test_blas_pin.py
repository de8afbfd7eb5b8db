"""The test suite runs with BLAS pinned to one thread (``conftest.py``)."""


def test_blas_is_pinned_before_numpy_loads(blas_pin):
    numpy_preloaded, pinned = blas_pin
    assert not numpy_preloaded
    assert pinned == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}
