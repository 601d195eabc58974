"""Pin BLAS to one thread for the whole test run.

The hot loops multiply fold-sized matrices with 12 columns, where one thread
per core only adds contention, and on a shared machine that contention can
stretch a single test from seconds to minutes.  The variables are read when
numpy is first imported, so this file must load before anything imports it;
a value already set in the environment wins.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the root conftest.py could pin BLAS threads")

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
