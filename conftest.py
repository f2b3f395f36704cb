"""Session setup for every test under this root: one BLAS thread.

Two determinism contracts hold in this repo.  Same-host run-to-run
equality (two seeded runs on one machine are bit-identical) holds at any
BLAS thread count.  The cross-host goldens in ``tests/train/test_goldens.py``
need one thread: a multi-threaded OpenBLAS splits its reductions by
thread count, which moves losses and weights by the last ulp.

So this file pins BLAS/OpenMP to one thread before anything imports
numpy (OpenBLAS reads the variables once, when it loads), and
``pytest_configure`` then asks numpy's bundled OpenBLAS how many threads
it will use, failing the session loudly if the pin did not take.
"""

import ctypes
import glob
import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def _bundled_openblas_threads():
    """Thread count of numpy's bundled ``scipy_openblas64``, or ``None``
    when this numpy build does not bundle it (e.g. a system BLAS)."""
    import numpy

    root = os.path.dirname(numpy.__file__)
    for pattern in (os.path.join(root, os.pardir, "numpy.libs",
                                 "libscipy_openblas64_*"),
                    os.path.join(root, ".dylibs", "libscipy_openblas64_*")):
        for path in glob.glob(pattern):
            get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            return get_threads()
    return None


def pytest_configure(config):
    threads = _bundled_openblas_threads()
    if threads is not None and threads != 1:
        raise pytest.UsageError(
            f"numpy's OpenBLAS runs {threads} threads, not 1: the "
            "OPENBLAS_NUM_THREADS=1 pin must be set before numpy loads, "
            "or the cross-host goldens cannot hold")
