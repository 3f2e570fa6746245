"""Pin the BLAS/OpenMP thread pools to one thread before numpy is imported.

The package's dense products are small to mid-size (at most a few hundred
rows), where a multi-threaded BLAS pays more in thread start-up and
synchronisation than it gains.  setdefault keeps any value the caller set.
"""

import os
import sys
import warnings

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

if "numpy" in sys.modules:  # a plugin loaded it first: the pin has no effect
    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")
