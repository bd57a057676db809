"""One BLAS thread for every test, as the benchmark runs (npgbench/run.py).

A matrix product's rounding can depend on how many threads split it, so
bit-for-bit pins (test_trainer_golden) hold for one thread count only. The
variables are read when numpy loads its BLAS, so they are set here, before
any test module imports numpy.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the BLAS threads were pinned")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
