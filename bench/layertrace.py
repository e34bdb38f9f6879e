"""Traced ``deferbench`` run: per-layer calls, busy time and self time.

Usage (from the repository root)::

    python3 bench/layertrace.py --stats STATS.json -- run --config C.ini --out DIR [--jobs N]

Everything after ``--`` is passed to ``deferbench.cli.main``. Before the run
starts, every public function listed in ``LAYERS`` is wrapped, and every
attribute of a ``deferbench`` module that refers to it is rebound to the
wrapper: ``sweep`` imports ``auc`` and ``deferral_curve_point`` by name, so
wrapping only ``metrics.auc`` would miss those call sites. Nothing in the
package itself is changed.

Process-pool workers are forked, so they inherit the wrappers. Each worker
writes its records to a file after every task (pool workers leave through
``os._exit``, which runs no exit hook) and the parent merges those files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# layer metric name -> (module, attribute path) of every function it covers
LAYERS = {
    "data.generate": [("data", "generate")],
    "data.corrupt": [("data", "corrupt")],
    "data.write_dataset": [("data", "write_dataset")],
    "sweep.split_eval_data": [("sweep", "split_eval_data")],
    "sweep.build_eval_data": [("sweep", "build_eval_data")],
    "nnet.train": [("nnet", "train")],
    "nnet.draw_minibatch_indices": [("nnet", "draw_minibatch_indices")],
    "nnet.set_params": [("nnet", "set_params")],
    "nnet.forward": [("nnet", "forward")],
    "nnet.write_checkpoint": [("nnet", "write_checkpoint")],
    "losses.loss_grad": [("losses", "LossSpec.loss"), ("losses", "LossSpec.grad")],
    "uq.bnn_train": [("uq", "bnn_train")],
    "uq.predict": [
        ("uq", "ensemble_predict"),
        ("uq", "mc_dropout_predict"),
        ("uq", "swag_predict"),
        ("uq", "bnn_predict"),
    ],
    "pipelines.train_classifier": [("pipelines", "train_classifier")],
    "pipelines.two_stage_features": [("pipelines", "two_stage_features")],
    "metrics.auc": [("metrics", "auc")],
    "metrics.pauc": [("metrics", "pauc")],
    "metrics.deferral_curve_point": [("metrics", "deferral_curve_point")],
    "sweep.uq_sweep": [("sweep", "uq_sweep")],
    "sweep.write_results_csv": [("sweep", "write_results_csv")],
    "sweep.write_classification_csv": [("sweep", "write_classification_csv")],
    "report.write_report": [("report", "write_report")],
    # one (seed, method) task: run_method in a serial run, _worker in a pool
    "sweep.run_method": [("sweep", "run_method")],
    "sweep._worker": [("sweep", "_worker")],
}


class Tracer:
    """Per-process aggregates of the wrapped calls.

    ``stats[name]`` is ``[calls, busy_s, self_s]``. Busy time counts a call
    only when no call of the same name is already open; self time subtracts
    the time covered by wrapped calls made inside it.
    """

    def __init__(self, flush_dir: Path):
        self.flush_dir = flush_dir
        self.main_pid = self.pid = os.getpid()
        self.flushes = 0
        self._reset()

    def _reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.stack = []  # [name, seconds covered by child calls]
        self.checkpoint_bytes = 0
        self.feature_inputs = set()
        self.tasks = []  # [kind, seed_index, method, seconds]

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # a forked worker starts with empty records
                tracer.pid, tracer.flushes = os.getpid(), 0
                tracer._reset()
            tracer.before(name, args)
            frame = [name, 0.0]
            nested = any(f[0] == name for f in tracer.stack)
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.stack.pop()
                entry = tracer.stats[name]
                entry[0] += 1
                if not nested:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                tracer.after(name, args, elapsed)

        return wrapper

    def before(self, name, args):
        if name == "pipelines.two_stage_features":
            batch = np.ascontiguousarray(args[1])
            digest = hashlib.blake2b(batch.data, digest_size=16)
            digest.update(repr(batch.shape).encode())
            self.feature_inputs.add(digest.hexdigest())

    def after(self, name, args, elapsed):
        if name == "nnet.write_checkpoint":
            self.checkpoint_bytes += os.path.getsize(args[0])
        elif name == "sweep.run_method":
            self.tasks.append(["run_method", int(args[2]), str(args[3]), elapsed])
        elif name == "sweep._worker":
            self.tasks.append(["worker", int(args[1]), str(args[2]), elapsed])
            if self.pid != self.main_pid:
                self.flush()

    def records(self) -> dict:
        return {
            "stats": self.stats,
            "checkpoint_bytes": self.checkpoint_bytes,
            "feature_inputs": sorted(self.feature_inputs),
            "tasks": self.tasks,
        }

    def flush(self):
        path = self.flush_dir / f"worker-{self.pid}-{self.flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records()))
        tmp.rename(path)
        self.flushes += 1
        self._reset()


def install(tracer: Tracer) -> dict:
    """Wrap every function in LAYERS and rebind each reference to it.

    Returns ``{layer: number of rebound references}``; a layer with none
    means the package no longer has that function.
    """
    import deferbench  # noqa: F401 - loads every module that holds references

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("deferbench")]
    rebound = {}
    for name, targets in LAYERS.items():
        rebound[name] = 0
        for module_name, attr_path in targets:
            owner = sys.modules[f"deferbench.{module_name}"]
            if "." in attr_path:  # a method: rebinding the class attribute covers every caller
                class_name, method = attr_path.split(".")
                cls = getattr(owner, class_name)
                setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
                rebound[name] += 1
                continue
            original = getattr(owner, attr_path)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound[name] += 1
    return rebound


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--stats" or argv[2] != "--":
        print("usage: layertrace.py --stats FILE -- <deferbench arguments>", file=sys.stderr)
        return 2
    stats_path = Path(argv[1])
    flush_dir = stats_path.parent / (stats_path.name + ".workers")
    flush_dir.mkdir(parents=True, exist_ok=True)
    for stale in flush_dir.iterdir():
        stale.unlink()

    tracer = Tracer(flush_dir)
    rebound = install(tracer)
    missing = [name for name, count in rebound.items() if count == 0]
    if missing:
        print(f"trace: no references found for {', '.join(missing)}", file=sys.stderr)
        return 2

    from deferbench import cli

    code = cli.main(argv[3:])
    parts = [tracer.records()]
    for path in sorted(flush_dir.glob("worker-*.json")):
        parts.append(json.loads(path.read_text()))
    stats_path.write_text(json.dumps({"exit_code": code, "parts": parts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
