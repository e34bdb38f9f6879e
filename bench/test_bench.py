"""Tests of the benchmark itself: tracer wiring and exact-count invariants.

Run from the repository root (about a minute; each workload is traced twice)::

    python3 -m pytest -q bench/test_bench.py
"""

import math
import subprocess
import sys
import time

import pytest

import run as bench

# Counts on root seed 0, recorded from the traced runs. A change that keeps
# the algorithm keeps them; later changes can cite them.
RECORDED = {
    "train_heavy": {"metrics.auc.calls": 31},
    "sweep_heavy": {"metrics.auc.calls": 11_225},
    "jobs2": {"metrics.auc.calls": 2_928},
}


def expected_counts(workload: bench.Workload) -> dict:
    """Counts that follow from the configuration alone.

    34 trainings per seed (softmax, swag, mc_dropout, bnn, 10 committee
    members, 10 one-stage models, 10 deferral heads), each of ``epochs``
    passes over the 70% training split in batches of 128. The deferral head
    featurizes train and validation data per head, validation data once more
    per head, and each condition once per head plus once for the
    zero-deferral rows.
    """
    conditions = len(workload.conditions)
    steps_per_epoch = math.ceil(round(0.7 * workload.data_samples) / 128)
    return {
        "nnet.draw_minibatch_indices.calls": 34 * workload.epochs * steps_per_epoch,
        "pipelines.two_stage_features.calls": 30 + 11 * conditions,
        "distinct_inputs": 2 + conditions,
    }


def test_install_rebinds_names_imported_elsewhere():
    snippet = (
        "import sys; sys.path.insert(0, 'bench')\n"
        "from pathlib import Path\n"
        "import layertrace\n"
        "layertrace.install(layertrace.Tracer(Path('.')))\n"
        "from deferbench import losses, metrics, pipelines, sweep\n"
        "assert sweep.auc is metrics.auc and hasattr(sweep.auc, '__wrapped__')\n"
        "assert sweep.deferral_curve_point is metrics.deferral_curve_point\n"
        "assert hasattr(metrics.deferral_curve_point, '__wrapped__')\n"
        "assert pipelines.pauc is metrics.pauc and hasattr(pipelines.pauc, '__wrapped__')\n"
        "assert sweep.two_stage_features is pipelines.two_stage_features\n"
        "assert hasattr(losses.LossSpec.grad, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", snippet], cwd=bench.ROOT, env=bench._child_env(),
                   check=True, timeout=60)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_counts_repeat_exactly(name):
    workload = bench.WORKLOADS[name]
    ref = bench.load_reference()[name]["0"]
    session = bench.Session(f"test_{name}", workload, 0, time.monotonic() + 170.0)
    runs = [session.run(ref, traced=True) for _ in range(2)]
    assert [r["problems"] for r in runs] == [[], []]
    values = [bench.layer_values(r["trace"], r["run_s"], workload.jobs) for r in runs]
    counts = [{k: v for k, (v, unit) in vals.items() if unit in bench.EXACT_UNITS} for vals in values]
    assert counts[0] == counts[1]

    expected = expected_counts(workload)
    first = counts[0]
    assert first["nnet.draw_minibatch_indices.calls"] == expected["nnet.draw_minibatch_indices.calls"]
    assert first["pipelines.two_stage_features.calls"] == expected["pipelines.two_stage_features.calls"]
    distinct = values[0]["pipelines.two_stage_features.distinct_frac"][0]
    assert distinct * first["pipelines.two_stage_features.calls"] == pytest.approx(expected["distinct_inputs"])
    for metric, count in RECORDED[name].items():
        assert first[metric] == count
    # the pool rebuilds the data once per task; a serial run never does
    assert first["sweep.build_eval_data.calls"] == (len(bench.METHODS) if workload.jobs > 1 else 0)


def _write_tables(out, workload, failed_method=None, drop_last=False):
    results = ["method,condition,level,seed,status"]
    classification = ["method,condition,level,seed,status"]
    for method in bench.METHODS:
        for cond, level in workload.conditions:
            status = "failed:DivergenceError" if method == failed_method else "ok"
            points = bench.GRID_LEN if method in bench.LEARNED else workload.threshold_steps
            results += [f"{method},{cond},{level},0,{status}"] * points
            if method != failed_method:
                classification.append(f"{method},{cond},{level},0,ok")
    if drop_last:
        results.pop()
    (out / "results.csv").write_text("\n".join(results) + "\n")
    (out / "classification.csv").write_text("\n".join(classification) + "\n")
    (out / "dataset.dfd1").write_bytes(b"DFD1")


def test_failures_are_charged_to_tasks(tmp_path):
    workload = bench.Workload(jobs=1, data_samples=100, epochs=2, levels=1, threshold_steps=3)
    _write_tables(tmp_path, workload)
    assert bench.check_outputs(workload, None, 0, tmp_path) == (0, [])
    ref = {name: bench.sha256(tmp_path / name) for name in bench.OUTPUTS}
    assert bench.check_outputs(workload, ref, 0, tmp_path) == (0, [])

    failed, problems = bench.check_outputs(workload, ref, 1, tmp_path)
    assert failed == len(bench.METHODS) and "exited with code 1" in problems[0]

    _write_tables(tmp_path, workload, failed_method="bnn")
    assert bench.check_outputs(workload, ref, 1, tmp_path) == (1, ["bnn: failed rows"])

    _write_tables(tmp_path, workload, drop_last=True)
    failed, problems = bench.check_outputs(workload, None, 0, tmp_path)
    assert failed == len(bench.METHODS) and "two_stage blur1 has 9 rows" in problems[0]

    (tmp_path / "results.csv").write_text("method,condition,level,seed,status\n")
    failed, problems = bench.check_outputs(workload, ref, 0, tmp_path)
    assert failed == len(bench.METHODS) and len(problems) > 1
