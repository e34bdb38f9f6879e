"""deferbench benchmark: end-to-end and per-layer metrics of ``deferbench run``.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --record-reference [--workload NAME]   # rewrite bench/reference.json

Each measured run is a fresh ``python3 -m deferbench.cli run`` process, as a
user starts it, driven one at a time by this process. The benchmark sets no
BLAS or OpenMP thread variable: it records the ones it finds.

``--trace 0`` prints the end-to-end metrics: ``run_s`` and ``cpu_s`` (wall
and user+system seconds of the run, pool workers included), ``peak_rss_mb``
(largest resident set of the run or any worker) and ``setup_s`` (a fresh
process importing the package and building the run's data). ``--trace 1``
alternates untraced runs with runs under ``bench/layertrace.py`` and prints the
per-layer metrics. Every run's output bytes are checked against
``bench/reference.json``; see ``bench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose outputs
differ from the reference exits with code 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
from layertrace import LAYERS  # noqa: E402

METHODS = ("softmax", "ensemble", "swag", "mc_dropout", "bnn", "one_stage", "two_stage")
LEARNED = ("one_stage", "two_stage")
GRID_LEN = 10  # default alpha and beta grids
OUTPUTS = ("results.csv", "classification.csv", "dataset.dfd1")
# The workload seed picks one of these root seeds, so every seed has reference bytes.
ROOT_SEEDS = 10
SETUP_REPS = 7
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """A one-seed ``deferbench run`` configuration; the INI lists overrides only."""

    jobs: int
    data_samples: int
    epochs: int
    levels: int = 5
    threshold_steps: int = 200

    def ini(self) -> str:
        return (
            f"[run]\nn_seeds = 1\n\n[data]\nn_samples = {self.data_samples}\n\n"
            f"[sgd]\nepochs = {self.epochs}\n\n[corruption]\nlevels = {self.levels}\n\n"
            f"[uq]\nthreshold_steps = {self.threshold_steps}\n"
        )

    @property
    def conditions(self) -> list:
        levels = range(1, self.levels + 1)
        return [("id", 0)] + [("noise", n) for n in levels] + [("blur", n) for n in levels]


# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "train_heavy": Workload(jobs=1, data_samples=10_000, epochs=3, levels=0, threshold_steps=2),
    "sweep_heavy": Workload(jobs=1, data_samples=2_000, epochs=4),
    "jobs2": Workload(jobs=2, data_samples=600, epochs=2, threshold_steps=50),
}

SELF_TIMED = (
    "sweep.split_eval_data",
    "sweep.build_eval_data",
    "nnet.train",
    "uq.bnn_train",
    "uq.predict",
    "pipelines.train_classifier",
    "pipelines.two_stage_features",
    "metrics.deferral_curve_point",
    "sweep.uq_sweep",
)
TASK_LAYERS = ("sweep.run_method", "sweep._worker")
EXACT_UNITS = ("count", "bytes")  # must repeat exactly between traced runs


class BenchError(Exception):
    """The benchmark could not measure: a missing program, a crash or a timeout."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def run_child(argv, log: Path, deadline: float) -> ChildResult:
    """Run one process in its own group; wall, CPU and peak RSS cover its workers.

    ``os.wait4`` reports the child together with the descendants it waited
    for, which is every pool worker of a run that shut its pool down.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        _kill_group(proc.pid)

    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_child_env(),
            stdout=fh,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the run may outlive it
    if timed_out.is_set():
        raise BenchError(f"{' '.join(argv[:2])} exceeded the time limit; log in {log}")
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        log=log,
    )


def _last_json_line(path: Path) -> dict:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{path}: no output")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{path}: last line is not JSON: {lines[-1][:200]}") from exc


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def account_cells(workload: Workload, out: Path):
    """(failed methods, problems) from the two tables of one run.

    Every (seed, method, condition) cell needs exactly one classification
    row and a full curve: ``threshold_steps`` points, or one ``degenerate``
    point, for a threshold method and one point per cost value for a learned
    method. A method with a ``failed:`` row has failed.
    """
    failed, problems = set(), []
    cells = {(m, c, lv) for m in METHODS for c, lv in workload.conditions}
    curves = {cell: [] for cell in cells}
    with open(out / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            cell = (row["method"], row["condition"], int(row["level"]))
            if row["seed"] != "0" or cell not in curves:
                problems.append(f"results.csv: unexpected row {row}")
                continue
            curves[cell].append(row["status"])
            if row["status"].startswith("failed"):
                failed.add(row["method"])
    for (method, cond, level), statuses in sorted(curves.items()):
        if method in LEARNED:
            expected = GRID_LEN
        elif statuses == ["degenerate"]:
            expected = 1
        else:
            expected = workload.threshold_steps
        if method not in failed and len(statuses) != expected:
            problems.append(f"results.csv: {method} {cond}{level} has {len(statuses)} rows")
    seen = []
    with open(out / "classification.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            seen.append((row["method"], row["condition"], int(row["level"])))
            if row["status"].startswith("failed"):
                failed.add(row["method"])
    missing = cells - set(seen) - {c for c in cells if c[0] in failed}
    if len(seen) != len(set(seen)) or set(seen) - cells or missing:
        problems.append(f"classification.csv: {len(seen)} rows do not cover each cell once")
    return failed, problems


def check_outputs(workload: Workload, ref, exit_code: int, out: Path):
    """Number of failed (seed, method) tasks of one run, and what was wrong.

    A run that exits with code 1 and has ``failed:`` rows fails the methods
    named in them; its bytes are not compared. Any other exit code, a
    broken table or changed bytes fail every task of the run, because they
    cannot be charged to one method. ``ref`` None skips the byte comparison.
    """
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        return len(METHODS), [f"exit code {exit_code}; missing outputs: {', '.join(missing)}"]
    try:
        failed, problems = account_cells(workload, out)
    except (ValueError, KeyError) as exc:
        failed, problems = set(), [f"unreadable table: {exc}"]
    if exit_code != (1 if failed else 0):
        problems.append(f"deferbench run exited with code {exit_code}")
    for name in OUTPUTS if ref is not None and not failed else ():
        got = sha256(out / name)
        if got != ref[name]:
            problems.append(f"{name}: sha256 {got[:12]}... differs from reference {ref[name][:12]}...")
    failed_tasks = len(METHODS) if problems else len(failed)
    return failed_tasks, problems + [f"{m}: failed rows" for m in sorted(failed)]


# ---------------------------------------------------------------------------
# Measured steps
# ---------------------------------------------------------------------------


class Session:
    """Working files and the shared deadline of one benchmark invocation."""

    def __init__(self, name: str, workload: Workload, root_seed: int, deadline: float):
        self.workload = workload
        self.root_seed = root_seed
        self.deadline = deadline
        self.dir = WORK / name
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(workload.ini())
        self.runs = 0

    def run_args(self, out: Path, jobs=None) -> list:
        return [
            "run",
            "--config", str(self.config),
            "--seed", str(self.root_seed),
            "--jobs", str(self.workload.jobs if jobs is None else jobs),
            "--out", str(out),
        ]

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir()
        return path

    def setup(self, probe=False) -> dict:
        out = self.fresh_dir("setup")
        argv = [str(BENCH / "setup_child.py"), "--config", str(self.config),
                "--seed", str(self.root_seed), "--out", str(out)]
        child = run_child(argv + (["--probe"] if probe else []), self.dir / "setup.log", self.deadline)
        if child.exit_code != 0:
            raise BenchError(f"set-up process failed; log in {child.log}")
        result = _last_json_line(child.log)
        package = Path(result["package"]).resolve()
        if SRC.resolve() not in package.parents:
            raise BenchError(f"imported deferbench from {package}, not from {SRC}")
        result["dataset_sha256"] = sha256(out / "dataset.dfd1")
        return result

    def run(self, ref: dict, traced: bool) -> dict:
        self.runs += 1
        out = self.fresh_dir("out")
        argv = ["-m", "deferbench.cli", *self.run_args(out)]
        stats_path = self.dir / "trace.json"
        if traced:
            stats_path.unlink(missing_ok=True)
            argv = [str(BENCH / "layertrace.py"), "--stats", str(stats_path), "--", *argv[2:]]
        child = run_child(argv, self.dir / f"run{self.runs}.log", self.deadline)
        failed, problems = check_outputs(self.workload, ref, child.exit_code, out)
        shutil.rmtree(out)
        rep = {
            "run_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            "failed_tasks": failed,
            "problems": problems,
        }
        if traced:
            if not stats_path.is_file():
                raise BenchError(f"traced run wrote no statistics; log in {child.log}")
            rep["trace"] = json.loads(stats_path.read_text())
        return rep


def _median(values) -> float:
    return float(statistics.median(values))


def _repeat(seconds: float, step) -> list:
    """Call step() until the next call would end after ``seconds``; at least once."""
    reps, start = [], time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(step(len(reps)))
        last = time.perf_counter() - rep_start
        if time.perf_counter() - start + last > seconds:
            return reps


def end_to_end(session: Session, ref: dict, seconds: float) -> tuple:
    env = session.setup(probe=True)  # also fills the bytecode cache before timing
    setups = [env] + [session.setup() for _ in range(SETUP_REPS)]
    bad_setup = [s["dataset_sha256"] for s in setups if s["dataset_sha256"] != ref["dataset.dfd1"]]
    reps = _repeat(seconds, lambda i: session.run(ref, traced=False))
    if bad_setup:
        reps[0]["problems"].append("set-up wrote dataset.dfd1 bytes that differ from the reference")
        reps[0]["failed_tasks"] = len(METHODS)
    metrics = {
        "run_s": (_median(r["run_s"] for r in reps), "s"),
        "setup_s": (_median(s["setup_s"] for s in setups[1:]), "s"),
        "cpu_s": (_median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, reps, env["environment"]


def layer_values(trace: dict, wall_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced run, merged over the parent and its workers."""
    stats = {name: [0, 0.0, 0.0] for name in LAYERS}
    features, tasks, checkpoint_bytes = set(), [], 0
    for part in trace["parts"]:
        for name, (calls, busy, self_s) in part["stats"].items():
            stats[name][0] += calls
            stats[name][1] += busy
            stats[name][2] += self_s
        features.update(part["feature_inputs"])
        tasks += part["tasks"]
        checkpoint_bytes += part["checkpoint_bytes"]

    values = {}
    for name, (calls, busy, self_s) in stats.items():
        if name in TASK_LAYERS:
            continue
        values[f"{name}.calls"] = (calls, "count")
        values[f"{name}.s"] = (busy, "s")
        if name in SELF_TIMED:
            values[f"{name}.self_s"] = (self_s, "s")
    values["nnet.write_checkpoint.bytes"] = (checkpoint_bytes, "bytes")
    calls = stats["pipelines.two_stage_features"][0]
    values["pipelines.two_stage_features.distinct_frac"] = (
        len(features) / calls if calls else 0.0, "ratio")

    # a pool task is the whole worker call, which rebuilds the data first
    kind = "worker" if jobs > 1 else "run_method"
    if not any(t[0] == kind for t in tasks):
        raise BenchError(f"the traced run recorded no {kind} task; pool workers need the fork start method")
    task_s = {m: 0.0 for m in METHODS}
    for task_kind, _, method, seconds in tasks:
        if task_kind == kind:
            task_s[method] += seconds
    for method in METHODS:
        values[f"sweep.task_s.{method}"] = (task_s[method], "s")
    values["sweep.pool_busy_frac"] = (sum(task_s.values()) / (jobs * wall_s), "ratio")
    values["sweep.critical_path_s"] = (task_s["ensemble"] + task_s["two_stage"], "s")
    return values


def per_layer(session: Session, ref: dict, seconds: float) -> tuple:
    """Alternate untraced and traced runs; counts must repeat exactly."""
    env = session.setup(probe=True)
    reps = _repeat(seconds, lambda i: session.run(ref, traced=i % 2 == 1))
    if len(reps) < 2:
        reps.append(session.run(ref, traced=True))
    traced = [r for r in reps if "trace" in r]
    plain = [r for r in reps if "trace" not in r]
    per_rep = [layer_values(r["trace"], r["run_s"], session.workload.jobs) for r in traced]
    metrics = {}
    for name, (value, unit) in per_rep[0].items():
        column = [v[name][0] for v in per_rep]
        if unit in EXACT_UNITS and len(set(column)) != 1:
            traced[0]["problems"].append(f"{name} differs between traced runs: {column}")
            traced[0]["failed_tasks"] = len(METHODS)
        metrics[name] = (column[0] if unit in EXACT_UNITS else _median(column), unit)
    traced_s = _median(r["run_s"] for r in traced)
    plain_s = _median(r["run_s"] for r in plain)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return metrics, reps, env["environment"]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _check_program() -> None:
    if not (SRC / "deferbench" / "__init__.py").is_file():
        raise BenchError(f"no deferbench package under {SRC}; run from a full checkout")


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"{REFERENCE} is missing; create it with --record-reference")
    return json.loads(REFERENCE.read_text())


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    root_seed = seed % ROOT_SEEDS
    ref = load_reference()[name][str(root_seed)]
    session = Session(name, workload, root_seed, deadline)
    step = per_layer if trace else end_to_end
    metrics, reps, env = step(session, ref, seconds)
    attempted = len(reps) * len(METHODS)
    failed = sum(r["failed_tasks"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    record = {
        "workload": name, "seed": seed, "root_seed": root_seed, "trace": trace,
        "environment": env, "config": workload.ini(),
        "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
        "metrics": metrics,
    }
    (session.dir / f"record-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {name}: seed {seed} (root seed {root_seed}), jobs {workload.jobs}, "
          f"{len(reps)} runs{' (traced and untraced)' if trace else ''}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<46} {value:>14.6g} {unit}")
    print(f"  {'task_fail_frac':<46} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_reference(names) -> None:
    """Write reference hashes for the named workloads and every root seed.

    They come from ``--jobs 1`` runs, so the check of a pool workload also
    checks that ``--jobs`` leaves every output byte unchanged.
    """
    deadline = time.monotonic() + 3600.0
    reference = load_reference() if REFERENCE.is_file() else {}
    for name in names:
        workload = WORKLOADS[name]
        reference[name] = {}
        for root_seed in range(ROOT_SEEDS):
            session = Session(name, workload, root_seed, deadline)
            out = session.fresh_dir("out")
            child = run_child(["-m", "deferbench.cli", *session.run_args(out, jobs=1)],
                              session.dir / "reference.log", deadline)
            _, problems = check_outputs(workload, None, child.exit_code, out)
            if problems:
                raise BenchError(f"{name} root seed {root_seed}: {problems}")
            reference[name][str(root_seed)] = {n: sha256(out / n) for n in OUTPUTS}
            print(f"{name} root seed {root_seed}: {child.wall_s:.1f} s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        _check_program()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.record_reference:
            record_reference(names)
            return 0
        results = {}
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
