"""End-to-end command line behavior on a small configuration."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from deferbench import cli
from deferbench import data as data_mod
from deferbench import nnet, sweep
from deferbench.config import emit_config, load_config

TINY_INI = """\
[run]
methods = softmax
n_seeds = 1

[data]
n_samples = 600
positive_fraction = 0.05
spatial_shape = 8,8,1

[net]
hidden_dims = 8

[sgd]
learning_rate = 0.05
weight_decay = 0.0
batch_size = 128
epochs = 3

[uq]
n_members = 2
n_samples = 3
threshold_steps = 5

[sweep]
alpha_grid = 1.0,0.8
beta_grid = 1.0,0.5
head_hidden_dims = 4

[corruption]
levels = 1
"""


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.ini"
    path.write_text(TINY_INI)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, ini_path):
    out = tmp_path_factory.mktemp("runs") / "run1"
    rc = cli.main(["run", "--config", str(ini_path), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory, ini_path):
    out = tmp_path_factory.mktemp("data") / "tiny.dfd1"
    rc = cli.main(["generate", "--config", str(ini_path), "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_summary(dataset_path, ini_path, capsys, tmp_path):
    out = tmp_path / "again.dfd1"
    assert cli.main(["generate", "--config", str(ini_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}: 600 samples, 64 features" in stdout
    assert "positives=30 negatives=570 prevalence=5.00%" in stdout
    assert "train=420 val=120 test=60" in stdout
    assert sha(out) == sha(dataset_path)  # same seed, same bytes


def test_generate_seed_changes_bytes(dataset_path, ini_path, tmp_path):
    out = tmp_path / "seeded.dfd1"
    rc = cli.main(["generate", "--config", str(ini_path), "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert sha(out) != sha(dataset_path)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("the output directory must be checked before the work")


def test_generate_missing_directory_is_usage_error(ini_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep, "prepare_dataset", refuse_to_build)
    out = tmp_path / "absent" / "x.dfd1"
    assert cli.main(["generate", "--config", str(ini_path), "--out", str(out)]) == 2
    assert "output directory does not exist" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# All 7 methods on the tiny data. The hashes below were recorded from this
# config; a change that keeps every output byte keeps them. A change that
# alters output bytes on purpose says which bytes and why, and re-records.
FROZEN_INI = """\
[run]
n_seeds = 1

[data]
n_samples = 600
positive_fraction = 0.05
spatial_shape = 8,8,1

[net]
hidden_dims = 8

[sgd]
learning_rate = 0.05
weight_decay = 0.0
epochs = 3

[uq]
n_members = 2
n_samples = 3
threshold_steps = 20

[sweep]
alpha_grid = 1.0,0.8
beta_grid = 1.0,0.5
head_hidden_dims = 4

[corruption]
levels = 1
"""

FROZEN_SHA256 = {
    "results.csv": "59bc394dfe5e951184d5446bbc0e40d5d38b71198c8626619269a9a2597761b5",
    "classification.csv": "6e4b10decac8a1ba47e2022f97089da1d5bda1a3a1730a20b5d26182f4b672e5",
    "dataset.dfd1": "c030fbe38957ea54b94e6c0fcb926bd430ab5e65ef9cbcccbc514b886df9e6eb",
}
# The figures of the same run, recorded while the report was drawn from the
# whole table at the end of the run, before it was fed one task at a time.
FROZEN_REPORT_SHA256 = {
    "id.svg": "b0b3ada1c01d4952518f6f9e0e0e064bf9514b1bd4672bdaded3182952f5af0f",
    "noise1.svg": "3218bc8ac7853b1a7e2e743a1de8e4b9a35b3ed2238beddecfa84d364a3d8480",
    "blur1.svg": "831742a6b05f047a258bb59de6c56666bfdb2f6c6c3787c993ca61bc3353f083",
}


def assert_frozen_outputs(out):
    assert {name: sha(out / name) for name in FROZEN_SHA256} == FROZEN_SHA256
    figures = {path.name: sha(path) for path in (out / "report").iterdir()}
    assert figures == FROZEN_REPORT_SHA256
    assert not (out / "models").exists()


def test_run_output_bytes_are_frozen(tmp_path):
    ini = tmp_path / "frozen.ini"
    ini.write_text(FROZEN_INI)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert_frozen_outputs(out)


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process_env(**thread_variables) -> dict:
    """Environment for a new interpreter: ``src`` importable, only the given
    BLAS / OpenMP thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(thread_variables)
    return env


def test_import_pins_blas_to_one_thread_unless_the_caller_chose():
    probe = "import os, deferbench; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    def seen(**thread_variables) -> str:
        return subprocess.run(
            [sys.executable, "-c", probe], env=fresh_process_env(**thread_variables),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()

    assert seen() == "1"
    assert seen(OMP_NUM_THREADS="3") == "None"
    assert seen(OPENBLAS_NUM_THREADS="2") == "2"


# The pin must not change a byte: BLAS thread counts and --jobs only change
# how the work is spread. Each case is a fresh process, because OpenBLAS
# reads its thread variable once, when numpy loads it.
@pytest.mark.parametrize(
    "jobs, thread_variables",
    [("1", {"OPENBLAS_NUM_THREADS": "2"}), ("1", {}), ("2", {})],
    ids=["jobs1-blas2", "jobs1-default", "jobs2-default"],
)
def test_run_output_bytes_are_frozen_across_blas_threads_and_jobs(tmp_path, jobs, thread_variables):
    ini = tmp_path / "frozen.ini"
    ini.write_text(FROZEN_INI)
    out = tmp_path / "run"
    subprocess.run(
        [sys.executable, "-m", "deferbench.cli", "run", "--config", str(ini),
         "--out", str(out), "--jobs", jobs],
        env=fresh_process_env(**thread_variables), capture_output=True, check=True,
        timeout=300,
    )
    assert_frozen_outputs(out)


def test_only_a_pool_run_loads_the_process_pool(tmp_path):
    # the pool's modules cost a process about 2 MB; importing the package
    # and a serial run need none of them
    ini = tmp_path / "frozen.ini"
    ini.write_text(FROZEN_INI)
    probe = (
        "import sys, deferbench\n"
        "from deferbench import cli\n"
        f"code = cli.main(['run', '--config', {str(ini)!r}, '--out', {str(tmp_path / 'run')!r},"
        " '--jobs', '1'])\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(code, sorted(m for m in sys.modules if m.startswith(pool)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=fresh_process_env(), capture_output=True,
        text=True, check=True, timeout=300,
    )
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout


def test_run_writes_expected_artifacts(run_dir, ini_path):
    echoed = (run_dir / "config.ini").read_text()
    assert echoed == emit_config(load_config(ini_path))
    assert (run_dir / "dataset.dfd1").is_file()

    points = sweep.read_results_csv(run_dir / "results.csv")
    assert len(points) == 15  # 3 conditions x 5 thresholds
    assert {p.method for p in points} == {"softmax"}
    rows = sweep.read_classification_csv(run_dir / "classification.csv")
    assert len(rows) == 3

    for name in ("id.svg", "noise1.svg", "blur1.svg"):
        svg = run_dir / "report" / name
        assert svg.is_file()
        ET.fromstring(svg.read_text())


def test_rerun_is_byte_identical(run_dir, ini_path, tmp_path):
    out = tmp_path / "run2"
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 0
    for name in ("config.ini", "dataset.dfd1", "results.csv", "classification.csv"):
        assert sha(out / name) == sha(run_dir / name), name


def test_rerun_into_the_same_directory_leaves_no_stale_output(ini_path, tmp_path):
    wide = tmp_path / "wide.ini"
    wide.write_text(
        TINY_INI.replace("methods = softmax", "methods = softmax,mc_dropout")
        .replace("levels = 1", "levels = 2")
    )
    out = tmp_path / "shared"
    assert cli.main(["run", "--config", str(wide), "--out", str(out)]) == 0
    assert (out / "report" / "noise2.svg").is_file()

    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 0
    assert {p.method for p in sweep.read_results_csv(out / "results.csv")} == {"softmax"}
    assert sorted(p.name for p in (out / "report").iterdir()) == [
        "blur1.svg", "id.svg", "noise1.svg"
    ]


def test_interrupted_rerun_leaves_no_old_tables(ini_path, tmp_path, monkeypatch):
    out = tmp_path / "interrupted"
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 0

    def interrupted(*args, **kwargs):
        raise RuntimeError("run interrupted")

    monkeypatch.setattr(sweep, "run_plan", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.main(["run", "--config", str(ini_path), "--out", str(out)])
    assert (out / "config.ini").is_file()
    assert not (out / "results.csv").exists()
    assert not (out / "classification.csv").exists()


def test_rerun_removes_the_open_tables_of_a_killed_run(ini_path, tmp_path):
    # a run keeps both tables open as temporary files while its plan runs,
    # so a run killed then (SIGKILL, out of memory) leaves them behind
    out = tmp_path / "killed"
    out.mkdir()
    leftovers = [
        out / f".{name}.4242.tmp" for name in (sweep.RESULTS_NAME, sweep.CLASSIFICATION_NAME)
    ]
    unrelated = out / "notes.tmp"
    for path in (*leftovers, unrelated):
        path.write_text("method,condition\nsoftmax,id\n")
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 0
    assert not any(path.exists() for path in leftovers)
    assert unrelated.is_file()
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def interrupting_worker(flag, cfg, seed_index, method, members, data):
    """Stand-in for sweep._worker: seeds 0 and 1 run for real; seed 2, the
    third task, waits until the main process has written rows and then
    raises KeyboardInterrupt, as Ctrl-C does in the middle of a task."""
    if seed_index < 2:
        return REAL_WORKER(cfg, seed_index, method, members, data)
    deadline = time.monotonic() + 20.0
    while not flag.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    raise KeyboardInterrupt


REAL_WORKER = sweep._worker


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupt_mid_plan_leaves_no_table(ini_path, tmp_path, monkeypatch, jobs):
    flag = tmp_path / "rows_written"
    real_write, writes = sweep.write_results_csv, []

    def write(fh, points):
        real_write(fh, points)
        writes.append(len(points))
        flag.touch()

    # forked pool workers inherit the patched module global
    monkeypatch.setattr(sweep, "_worker", partial(interrupting_worker, flag))
    monkeypatch.setattr(sweep, "write_results_csv", write)
    ini = tmp_path / "three_seeds.ini"
    ini.write_text(ini_path.read_text().replace("n_seeds = 1", "n_seeds = 3"))
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", str(ini), "--out", str(out), "--jobs", jobs])
    assert writes and all(writes)  # rows were streamed before the interrupt
    assert sorted(p.name for p in out.iterdir()) == ["config.ini", "dataset.dfd1"]


# A run's main process holds each finished task's rows only until it has
# written them, and keeps three float64 plotted columns (24 bytes) per row
# for the report. It held every row as a CurvePoint, about 200 bytes each
# as traced, until the plan ended.
PEAK_INI = TINY_INI.replace("epochs = 3", "epochs = 1").replace(
    "threshold_steps = 5", "threshold_steps = 2000"
)


def traced_run_peak(tmp_path, n_seeds) -> int:
    ini = tmp_path / f"seeds{n_seeds}.ini"
    ini.write_text(PEAK_INI.replace("n_seeds = 1", f"n_seeds = {n_seeds}"))
    tracemalloc.start()
    try:
        rc = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / f"run{n_seeds}")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_run_peak_does_not_grow_with_the_rows_of_finished_tasks(tmp_path):
    traced_run_peak(tmp_path, 1)  # first-call allocations stay out of both
    one, three = traced_run_peak(tmp_path, 1), traced_run_peak(tmp_path, 3)
    rows_per_seed = len(sweep.read_results_csv(tmp_path / "run1" / sweep.RESULTS_NAME))
    assert rows_per_seed == 3 * 2000
    # measured: 25 bytes per added row, against 200 when every row was held
    assert three - one < 64 * 2 * rows_per_seed


def test_run_keeps_its_own_dataset_file(run_dir, ini_path, tmp_path):
    out = tmp_path / "own_data"
    out.mkdir()
    data = out / "dataset.dfd1"
    data.write_bytes((run_dir / "dataset.dfd1").read_bytes())
    rc = cli.main(["run", "--config", str(ini_path), "--out", str(out), "--data", str(data)])
    assert rc == 0
    assert sha(out / "results.csv") == sha(run_dir / "results.csv")


def test_run_output_path_under_a_file_is_an_error_not_a_traceback(ini_path, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_from_dataset_file_matches_generated(run_dir, ini_path, tmp_path):
    out = tmp_path / "run3"
    rc = cli.main(
        ["run", "--config", str(ini_path), "--out", str(out),
         "--data", str(run_dir / "dataset.dfd1")]
    )
    assert rc == 0
    assert sha(out / "results.csv") == sha(run_dir / "results.csv")


def test_run_reports_row_counts(ini_path, tmp_path, capsys):
    out = tmp_path / "run4"
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "results.csv: 15 rows" in stdout
    assert "classification.csv: 3 rows" in stdout


def test_run_reports_progress_on_stderr_only(ini_path, tmp_path, capsys):
    ini = tmp_path / "two_seeds.ini"
    ini.write_text(ini_path.read_text().replace("n_seeds = 1", "n_seeds = 2"))
    out = tmp_path / "progress"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert [line.split(": ")[0] for line in captured.out.splitlines()] == [
        f"wrote {out / 'results.csv'}", f"wrote {out / 'classification.csv'}"
    ]
    progress = captured.err.splitlines()
    assert [line.split(" in ")[0] for line in progress] == [
        "seed 0 softmax: ok", "seed 1 softmax: ok"
    ]


def test_pool_run_loads_the_written_dataset(run_dir, ini_path, tmp_path, monkeypatch):
    # the pool's workers are forked, so they inherit these wrappers
    parent = os.getpid()
    parent_splits = []
    real_split, real_prepare = sweep.split_eval_data, sweep.prepare_dataset

    def split(*args):
        if os.getpid() == parent:
            parent_splits.append(args)
        return real_split(*args)

    def prepare(cfg):
        if os.getpid() != parent:
            raise RuntimeError("a pool worker regenerated the dataset")
        return real_prepare(cfg)

    monkeypatch.setattr(sweep, "split_eval_data", split)
    monkeypatch.setattr(sweep, "prepare_dataset", prepare)
    out = tmp_path / "pool"
    assert cli.main(["run", "--config", str(ini_path), "--out", str(out), "--jobs", "2"]) == 0
    assert parent_splits == []
    assert sha(out / "results.csv") == sha(run_dir / "results.csv")


def test_run_missing_dataset_file_is_usage_error(ini_path, tmp_path, capsys):
    out = tmp_path / "run5"
    rc = cli.main(
        ["run", "--config", str(ini_path), "--out", str(out), "--data", "/no/such.dfd1"]
    )
    assert rc == 2
    assert "no such dataset file" in capsys.readouterr().err


def test_run_failure_exits_one_and_marks_rows(ini_path, tmp_path, capsys):
    # a 0.9 burn-in over 3 epochs leaves one snapshot, which cannot form a
    # low-rank posterior, so the swag runner fails deterministically
    bad_ini = tmp_path / "failing.ini"
    bad_ini.write_text(
        TINY_INI.replace("methods = softmax", "methods = swag")
        + "\n[swag]\nburn_in_frac = 0.9\n"
    )
    out = tmp_path / "run6"
    rc = cli.main(["run", "--config", str(bad_ini), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "CollectionError" in err
    assert "report skipped" in err  # nothing plottable, results still written
    points = sweep.read_results_csv(out / "results.csv")
    assert len(points) == 3  # one marker row per condition
    assert all(p.status == "failed:CollectionError" for p in points)


def test_failed_method_keeps_every_cell_in_both_tables(tmp_path, capsys):
    # one epoch leaves SWAG a single snapshot after burn-in, so swag fails
    # with CollectionError while the other six methods succeed
    ini = tmp_path / "one_epoch.ini"
    ini.write_text(
        FROZEN_INI.replace("n_seeds = 1", "n_seeds = 2").replace("epochs = 3", "epochs = 1")
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 1
    assert "CollectionError" in capsys.readouterr().err

    cfg = load_config(ini)
    cells = {
        (m, c.kind, c.level, s)
        for s in range(cfg.n_seeds)
        for m in cfg.methods
        for c in sweep.plan_conditions(cfg)
    }
    points = sweep.read_results_csv(out / "results.csv")
    rows = sweep.read_classification_csv(out / "classification.csv")
    assert {(p.method, p.condition, p.level, p.seed) for p in points} == cells
    keys = [(r.method, r.condition, r.level, r.seed) for r in rows]
    assert len(keys) == len(cells) and set(keys) == cells
    failed = {r.method for r in rows if r.status.startswith("failed")}
    assert failed == {"swag"}
    assert all(r.status == "failed:CollectionError" for r in rows if r.method == "swag")


def dying_worker(cfg, seed_index, method, *rest):
    """Stand-in for sweep._worker: swag kills its worker process at once and
    every other method waits, so each is unfinished when the pool breaks."""
    if method == "swag":
        os._exit(3)
    time.sleep(60.0)


def test_dying_worker_fails_its_tasks_not_the_run(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patched module global
    monkeypatch.setattr(sweep, "_worker", dying_worker)
    ini = tmp_path / "three.ini"
    methods = ("swag", "softmax", "mc_dropout")
    ini.write_text(TINY_INI.replace("methods = softmax", "methods = " + ",".join(methods)))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(ini), "--out", str(out), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failed = [line for line in err.splitlines() if line.startswith("FAILED ")]
    assert [line.split(": ")[:2] for line in failed] == [
        [f"FAILED seed 0 {m}", "BrokenProcessPool"] for m in methods
    ]
    points = sweep.read_results_csv(out / "results.csv")
    rows = sweep.read_classification_csv(out / "classification.csv")
    n = len(methods) * len(sweep.plan_conditions(load_config(ini)))
    assert len(points) == len(rows) == n
    assert {x.status for x in points + rows} == {"failed:BrokenProcessPool"}


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("[sgd]\nlr = 0.1\n")
    out = tmp_path / "run7"
    assert cli.main(["run", "--config", str(bad_ini), "--out", str(out)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run8"
    assert cli.main(["run", "--config", "/no/such.ini", "--out", str(out)]) == 2
    assert "no such configuration file" in capsys.readouterr().err


# Each setting below used to start a run: it wrote config.ini and dataset.dfd1
# and then failed in a task. It must be refused before any file is written.
REJECTED_RUNS = {
    "non_finite_float": (TINY_INI + "\n[bnn]\nprior_stddev = nan\n", []),
    "unordered_noise_table": (
        TINY_INI.replace("levels = 1", "levels = 1\nnoise_sigmas = 0.2,0.1"), []
    ),
    "blur_wider_than_image": (TINY_INI.replace("levels = 1", "levels = 5"), []),
    "missing_dataset_file": (TINY_INI, ["--data", "/no/such.dfd1"]),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(REJECTED_RUNS))
def test_bad_setting_is_refused_before_the_run_writes(tmp_path, capsys, case, jobs):
    text, extra = REJECTED_RUNS[case]
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "run"
    rc = cli.main(["run", "--config", str(ini), "--out", str(out), "--jobs", jobs, *extra])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "config.ini").exists()
    assert not (out / "dataset.dfd1").exists()


# A dataset file whose own images cannot take the planned blur levels, under
# a config whose generator shape could.
MISMATCHED_DATASETS = {
    "8x8_file_under_16x16_config": (
        TINY_INI.replace("spatial_shape = 8,8,1", "spatial_shape = 16,16,1")
        .replace("levels = 1", "levels = 5"),
        "dataset_path",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(MISMATCHED_DATASETS))
def test_dataset_shape_is_checked_before_the_run_writes(tmp_path, capsys, request, case, jobs):
    text, fixture = MISMATCHED_DATASETS[case]
    ini = tmp_path / "cfg.ini"
    ini.write_text(text)
    data_path = request.getfixturevalue(fixture)
    out = tmp_path / "run"
    rc = cli.main(["run", "--config", str(ini), "--out", str(out), "--jobs", jobs,
                   "--data", str(data_path)])
    assert rc == 2
    assert f"error: {data_path}" in capsys.readouterr().err
    assert not out.exists()


def test_a_damaged_dataset_reports_its_damage_before_its_shape(tmp_path, capsys,
                                                              dataset_path):
    # an 8x8 file cannot take the config's blur level 5 either, but the file
    # is read and checked whole first, its labels included
    damaged = tmp_path / "damaged.dfd1"
    damaged.write_bytes(dataset_path.read_bytes()[:-1] + b"\x07")
    ini = tmp_path / "cfg.ini"
    ini.write_text(MISMATCHED_DATASETS["8x8_file_under_16x16_config"][0])
    out = tmp_path / "run"
    rc = cli.main(["run", "--config", str(ini), "--out", str(out), "--data", str(damaged)])
    assert rc == 1
    assert f"error: {damaged}: labels must be 0 or 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def shapeless_dataset(dataset_path, tmp_path):
    """The tiny dataset under a header that declares a 0x0x0 image shape."""
    raw = dataset_path.read_bytes()
    header = data_mod._HEADER
    fields = list(header.unpack(raw[: header.size]))
    fields[4:7] = 0, 0, 0
    path = tmp_path / "shapeless.dfd1"
    path.write_bytes(header.pack(*fields) + raw[header.size :])
    return path


def test_inspect_refuses_a_dataset_without_an_image_shape(shapeless_dataset, capsys):
    assert cli.main(["inspect", str(shapeless_dataset)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.startswith(
        f"error: {shapeless_dataset}: spatial shape (0, 0, 0) does not match 64 features"
    )
    assert list(shapeless_dataset.parent.iterdir()) == [shapeless_dataset]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_refuses_a_dataset_without_an_image_shape(shapeless_dataset, ini_path, capsys, jobs):
    out = shapeless_dataset.parent / "run"
    rc = cli.main(["run", "--config", str(ini_path), "--out", str(out), "--jobs", jobs,
                   "--data", str(shapeless_dataset)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.startswith(f"error: {shapeless_dataset}: spatial shape (0, 0, 0)")
    assert list(shapeless_dataset.parent.iterdir()) == [shapeless_dataset]


# A dataset no task can use: a --data file with a label byte that is not 0/1,
# and a generated dataset with too few positives to split. It must stop the
# run with one error before any task starts, at every --jobs.
UNUSABLE_DATASETS = {
    "label_byte_7": TINY_INI.replace("n_samples = 600", "n_samples = 300"),
    "two_positives": TINY_INI.replace("n_samples = 600", "n_samples = 60")
    .replace("positive_fraction = 0.05", "positive_fraction = 0.04"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(UNUSABLE_DATASETS))
def test_unusable_dataset_stops_the_run_before_any_task(tmp_path, capsys, case, jobs):
    ini = tmp_path / "cfg.ini"
    ini.write_text(UNUSABLE_DATASETS[case])
    extra, message = [], "error: class 1 has 2 samples"
    if case == "label_byte_7":
        bad = tmp_path / "bad.dfd1"
        assert cli.main(["generate", "--config", str(ini), "--out", str(bad)]) == 0
        blob = bytearray(bad.read_bytes())
        blob[-1] = 7  # the last sample's label
        bad.write_bytes(bytes(blob))
        extra, message = ["--data", str(bad)], f"error: {bad}: labels must be 0 or 1"
    capsys.readouterr()
    out = tmp_path / "run"
    rc = cli.main(["run", "--config", str(ini), "--out", str(out), "--jobs", jobs, *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith(message)
    assert "FAILED" not in err and "Traceback" not in err
    assert not (out / sweep.RESULTS_NAME).exists()
    assert not (out / sweep.CLASSIFICATION_NAME).exists()
    # the dataset is split before anything is written, so no file looks complete
    assert not (out / "dataset.dfd1").exists()
    assert not (out / "config.ini").exists()


def test_generate_refuses_a_dataset_no_run_can_split(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(UNUSABLE_DATASETS["two_positives"])
    out = tmp_path / "small.dfd1"
    assert cli.main(["generate", "--config", str(ini), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error: class 1 has 2 samples")
    assert not out.exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_rerenders_from_results(run_dir, tmp_path, capsys):
    out = tmp_path / "rerender"
    out.mkdir()
    rc = cli.main(
        ["report", "--out", str(out), "--results", str(run_dir / "results.csv")]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    for name in ("id.svg", "noise1.svg", "blur1.svg"):
        assert (out / "report" / name).is_file()
        assert name in stdout
    # the run fed its figures one task at a time, the report from the table
    for svg in (run_dir / "report").iterdir():
        assert (out / "report" / svg.name).read_bytes() == svg.read_bytes(), svg.name
    assert len(list((out / "report").iterdir())) == len(list((run_dir / "report").iterdir()))


def test_report_removes_figures_of_conditions_the_results_lack(run_dir, tmp_path):
    out = tmp_path / "rerender"
    (out / "report").mkdir(parents=True)
    for svg in (run_dir / "report").glob("*.svg"):
        (out / "report" / svg.name).write_bytes(svg.read_bytes())
    assert len(list((out / "report").iterdir())) == 3
    header, *rows = (run_dir / "results.csv").read_text().splitlines(keepends=True)
    id_only = tmp_path / "id_only.csv"
    id_only.write_text(header + "".join(row for row in rows if row.split(",")[1] == "id"))
    assert cli.main(["report", "--out", str(out), "--results", str(id_only)]) == 0
    assert [p.name for p in (out / "report").iterdir()] == ["id.svg"]


def test_report_header_only_results_fails(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(",".join(sweep.RESULTS_COLUMNS) + "\n")
    rc = cli.main(["report", "--out", str(tmp_path), "--results", str(results)])
    assert rc == 1
    assert "no result rows" in capsys.readouterr().err


def test_report_malformed_results_names_the_row(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(",".join(sweep.RESULTS_COLUMNS) + "\nsoftmax,id\n")
    rc = cli.main(["report", "--out", str(tmp_path), "--results", str(results)])
    assert rc == 1
    assert "row 2" in capsys.readouterr().err


def test_report_condition_cannot_name_a_file_outside_report(tmp_path, capsys):
    results = tmp_path / "r.csv"
    row = "softmax,../../escaped,1,0,threshold,0.5,0.1,0.9,0.9,0.5,0.9,0.9,0.1,ok"
    results.write_text(",".join(sweep.RESULTS_COLUMNS) + "\n" + row + "\n")
    out = tmp_path / "a" / "b" / "out"
    assert cli.main(["report", "--out", str(out), "--results", str(results)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "row 2" in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [results]


def test_report_missing_results_is_usage_error(tmp_path, capsys):
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    assert "no such results file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------


def test_corrupt_perturbs_features_and_keeps_labels(dataset_path, ini_path, tmp_path, capsys):
    out = tmp_path / "noisy.dfd1"
    rc = cli.main(
        ["corrupt", "--config", str(ini_path), "--data", str(dataset_path),
         "--out", str(out), "--kind", "noise", "--level", "1"]
    )
    assert rc == 0
    assert "noise level 1 (parameter 0.04)" in capsys.readouterr().out
    original = data_mod.read_dataset(dataset_path)
    corrupted = data_mod.read_dataset(out)
    np.testing.assert_array_equal(corrupted.labels, original.labels)
    assert not np.array_equal(corrupted.features, original.features)


def test_corrupt_level_zero_is_identity_bytes(dataset_path, ini_path, tmp_path):
    out = tmp_path / "same.dfd1"
    rc = cli.main(
        ["corrupt", "--config", str(ini_path), "--data", str(dataset_path),
         "--out", str(out), "--kind", "blur", "--level", "0"]
    )
    assert rc == 0
    assert sha(out) == sha(dataset_path)


# SHA-256 of the `deferbench corrupt` outputs of the tiny dataset at level 3,
# recorded while a dataset was read into float64 features; it is now read as
# float32 rows, and the corrupted values are the same.
FROZEN_CORRUPT_SHA256 = {
    "noise": "b17e5b5d57970463003035dd70466bf52d57e0febfca481486f0ac9a7ae0a7a2",
    "blur": "731665a3b09e5299192ffc2d1c985004c860c8a3348f6031e18501c8071f7f4d",
}


@pytest.mark.parametrize("kind", sorted(FROZEN_CORRUPT_SHA256))
def test_corrupt_output_bytes_are_frozen(dataset_path, ini_path, tmp_path, kind):
    out = tmp_path / f"{kind}.dfd1"
    rc = cli.main(
        ["corrupt", "--config", str(ini_path), "--data", str(dataset_path),
         "--out", str(out), "--kind", kind, "--level", "3"]
    )
    assert rc == 0
    assert sha(out) == FROZEN_CORRUPT_SHA256[kind]


def test_corrupt_rejects_unknown_kind(dataset_path, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(
            ["corrupt", "--data", str(dataset_path), "--out", str(tmp_path / "x.dfd1"),
             "--kind", "fog", "--level", "1"]
        )


def test_corrupt_missing_output_directory_is_usage_error(
    dataset_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(data_mod, "corrupt", refuse_to_build)
    rc = cli.main(
        ["corrupt", "--data", str(dataset_path), "--out", str(tmp_path / "absent" / "x.dfd1"),
         "--kind", "noise", "--level", "1"]
    )
    assert rc == 2
    assert "output directory does not exist" in capsys.readouterr().err


def test_corrupt_missing_input_is_usage_error(tmp_path, capsys):
    rc = cli.main(
        ["corrupt", "--data", "/no/such.dfd1", "--out", str(tmp_path / "x.dfd1"),
         "--kind", "noise", "--level", "1"]
    )
    assert rc == 2
    assert "no such dataset file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_dataset(dataset_path, capsys):
    assert cli.main(["inspect", str(dataset_path)]) == 0
    stdout = capsys.readouterr().out
    assert "kind=dataset" in stdout
    assert "samples=600" in stdout
    assert "positives=30" in stdout
    assert "spatial_shape=8,8,1" in stdout


def test_inspect_dataset_lines_are_frozen(dataset_path, capsys):
    # recorded while a dataset was read into float64 features
    assert cli.main(["inspect", str(dataset_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind=dataset",
        "samples=600",
        "features=64",
        "spatial_shape=8,8,1",
        "positives=30",
        "negatives=570",
        "feature_min=0.13710403442382812",
        "feature_max=0.8284123539924622",
    ]


def test_inspect_weights(tmp_path, capsys):
    # no command reads the DFB1 weight format, so inspect refuses a whole,
    # well-formed weight file as it refuses any other format
    config = nnet.NetConfig(input_dim=4, hidden_dims=(3,), output_dim=2, seed=0)
    net = nnet.init_network(config)
    path = tmp_path / "model.dfb1"
    nnet.write_checkpoint(path, config, nnet.get_params(net))
    assert cli.main(["inspect", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: not a format inspect reads "
        "(a DFD1 dataset, a results table or a classification table)"
    ]


def test_inspect_results(run_dir, capsys):
    assert cli.main(["inspect", str(run_dir / "results.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "kind=results" in stdout
    assert "rows=15" in stdout
    assert "methods=softmax" in stdout
    assert "conditions=blur1,id,noise1" in stdout
    assert "failed_rows=0" in stdout


def test_inspect_classification(run_dir, capsys):
    assert cli.main(["inspect", str(run_dir / "classification.csv")]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout == [
        "kind=classification",
        "rows=3",
        "methods=softmax",
        "conditions=blur1,id,noise1",
        "seeds=0",
        "failed_rows=0",
    ]


def test_inspect_rejects_a_file_of_no_format_it_reads(run_dir, tmp_path, capsys):
    listing = tmp_path / "listing.txt"
    listing.write_text("member_00.dfb1\nmember_01.dfb1\n")
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    paths = (run_dir / "config.ini", run_dir / "report" / "id.svg", listing, empty)
    for path in paths:
        assert cli.main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not a format inspect reads")
        for name in ("DFD1", "results", "classification"):
            assert name in captured.err
        assert "DFB1" not in captured.err
        assert "bundle" not in captured.err


def test_inspect_missing_and_bare_directory(tmp_path, capsys):
    assert cli.main(["inspect", str(tmp_path / "ghost")]) == 2
    assert cli.main(["inspect", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no such file" in err
    assert "is a directory" in err


def test_inspect_bundle(run_dir, tmp_path, capsys):
    # a run directory, and a directory laid out as a model bundle once was:
    # inspect reads files, so both are a usage error that names the path
    bundle = tmp_path / "softmax"
    bundle.mkdir()
    (bundle / "manifest.txt").write_text("kind=bundle\nmethod=softmax\n")
    (bundle / "model.dfb1").write_bytes(b"DFB1")
    for path in (run_dir, bundle):
        assert cli.main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: is a directory; inspect reads files\n"


def test_inspect_unreadable_manifest_is_an_error_not_a_traceback(tmp_path, capsys):
    # a directory holding a directory where a file could be
    (tmp_path / "manifest.txt").mkdir()
    assert cli.main(["inspect", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path}: is a directory; inspect reads files\n"


def test_inspect_damaged_checkpoint_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "short.dfb1"
    path.write_bytes(b"DFB1\x01\x00\x00\x00\x05\x00")
    assert cli.main(["inspect", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_inspect_damaged_dataset_is_an_error_not_a_traceback(dataset_path, tmp_path, capsys):
    blob = dataset_path.read_bytes()
    flipped = bytearray(blob)
    flipped[8 + 5] ^= 1  # bit 40 of the sample count, which starts at byte 8
    # whole files that declare 0 samples x 64 features and 3 samples x 0 features
    header = data_mod._HEADER
    no_samples = header.pack(data_mod._MAGIC, 1, 0, 64, 8, 8, 1, header.size)
    no_features = header.pack(data_mod._MAGIC, 1, 3, 0, 0, 0, 0, header.size) + b"\x00\x01\x00"
    path = tmp_path / "damaged.dfd1"
    for damaged in (blob[:100], blob[:-1], bytes(flipped), no_samples, no_features):
        path.write_bytes(damaged)
        assert cli.main(["inspect", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
