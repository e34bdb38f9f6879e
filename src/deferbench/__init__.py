"""Deferral benchmark: learned-deferral objectives vs uncertainty-based deferral.

Trains small feed-forward classifiers on an imbalanced synthetic binary task,
compares two learned-deferral training objectives against five
uncertainty-quantification deferral strategies, and evaluates everything with
deferral-rate sweeps on clean and corruption-shifted test data.

Importing the package pins OpenBLAS to one thread per process by setting
``OPENBLAS_NUM_THREADS=1``, unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is already set, in which case the
caller's setting stands. The networks are small, so a second BLAS thread
mostly spins, and ``--jobs`` workers (forked, so they inherit the library)
would otherwise oversubscribe the cores. OpenBLAS reads the variable once,
when numpy loads it: if numpy was imported before this package, the pin has
no effect. Results are bit-identical with any thread count.
"""

import os as _os

if not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from deferbench import (  # noqa: E402 - after the pin, which must precede numpy
    config,
    data,
    losses,
    metrics,
    nnet,
    pipelines,
    report,
    sweep,
    uq,
)

__all__ = [
    "config",
    "data",
    "losses",
    "metrics",
    "nnet",
    "pipelines",
    "report",
    "sweep",
    "uq",
]
