"""Laser-charged multi-UAV IoT data collection: simulator, MARL trainer, oracle.

Importing the package pins the BLAS and OpenMP thread pools to one thread,
whatever the environment holds.  A threaded BLAS splits the row reductions
of the weight-gradient products (``x.T @ g``) by the host's CPU count, so
their bytes, and a checkpoint's, would depend on it.  The pools read these
variables when numpy is first imported: a caller that imported numpy before
this package keeps its own pool.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
