"""One fresh process: import deferbench and build a run's data, timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/setup_child.py --config C.ini --seed N --out DIR [--probe]

Prints one JSON line: ``setup_s`` covers importing the package and the
three set-up steps of ``deferbench run`` (``sweep.prepare_dataset``,
``data.write_dataset``, ``sweep.split_eval_data``). With ``--probe`` it also
reports the interpreter, numpy and BLAS seen by the process, after the timed
part.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Thread count OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "thread_variables_set_by_benchmark": False,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import deferbench
    from deferbench import data, sweep
    from deferbench.config import load_config

    cfg = replace(load_config(args.config), seed=args.seed)
    ds = sweep.prepare_dataset(cfg)
    data.write_dataset(Path(args.out) / "dataset.dfd1", ds)
    sweep.split_eval_data(cfg, ds)
    setup_s = time.perf_counter() - _T0

    out = {"setup_s": setup_s, "package": deferbench.__file__}
    if args.probe:
        out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
