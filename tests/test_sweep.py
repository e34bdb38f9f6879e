"""Sweep protocol: condition planning, threshold curves, evaluation data
layout, plan execution, and the CSV containers."""

import concurrent.futures
import csv
import dataclasses
import io
import os
import pickle
import re
import tempfile
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferbench import data as data_mod
from deferbench import nnet, sweep
from deferbench.config import (
    CorruptionSettings,
    RunConfig,
    SweepSettings,
    UqSettings,
)
from deferbench.data import SynthSpec
from deferbench.errors import ConfigError, DeferBenchError, FormatError, InputShapeError
from deferbench.metrics import DEFER, CurvePoint, deferral_curve_point
from deferbench.nnet import SgdConfig
from deferbench.rng import child_seed
from deferbench.uq import SwagCollectConfig
from plan_results import PlanResults, collect_plan


def tiny_config(**overrides):
    base = dict(
        seed=0,
        n_seeds=1,
        methods=("softmax",),
        data=SynthSpec(n_samples=600, positive_fraction=0.05, spatial_shape=(8, 8, 1)),
        hidden_dims=(8,),
        sgd=SgdConfig(
            learning_rate=0.05, momentum=0.9, weight_decay=0.0, batch_size=128, epochs=3
        ),
        uq=UqSettings(n_members=2, n_samples=3, dropout_rate=0.2, threshold_steps=5),
        sweep=SweepSettings(alpha_grid=(1.0, 0.8), beta_grid=(1.0, 0.5), head_hidden_dims=(4,)),
        corruption=CorruptionSettings(levels=1),
    )
    base.update(overrides)
    return RunConfig(**base)


# each table writer -> its place in sweep.open_tables and its file name
TABLES = {
    sweep.write_results_csv: (0, sweep.RESULTS_NAME),
    sweep.write_classification_csv: (1, sweep.CLASSIFICATION_NAME),
}


def write_table(out_dir, records, write=sweep.write_results_csv) -> Path:
    """The table of write holding records, written as a run writes it; its path."""
    index, name = TABLES[write]
    with sweep.open_tables(out_dir) as tables:
        write(tables[index], records)
    return Path(out_dir) / name


def points_as_csv(points, write=sweep.write_results_csv) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return write_table(tmp, points, write).read_text()


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def test_condition_validation_and_labels():
    assert sweep.Condition("id").label == "id"
    assert sweep.Condition("noise", 3).label == "noise3"
    assert sweep.Condition("blur", 5).label == "blur5"
    with pytest.raises(ConfigError):
        sweep.Condition("id", 1)
    with pytest.raises(ConfigError):
        sweep.Condition("noise", 0)
    with pytest.raises(ConfigError):
        sweep.Condition("fog", 1)


def test_plan_conditions_default_order():
    labels = [c.label for c in sweep.plan_conditions(RunConfig())]
    assert labels == [
        "id",
        "noise1", "noise2", "noise3", "noise4", "noise5",
        "blur1", "blur2", "blur3", "blur4", "blur5",
    ]


def test_plan_conditions_without_corruption():
    cfg = tiny_config(corruption=CorruptionSettings(levels=0))
    assert [c.label for c in sweep.plan_conditions(cfg)] == ["id"]


# ---------------------------------------------------------------------------
# threshold sweep
# ---------------------------------------------------------------------------


def sweep_inputs(seed=0, n=40):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 101, n) / 100.0
    uncertainty = rng.integers(0, 6, n) / 10.0  # coarse grid forces ties
    labels = rng.integers(0, 2, n)
    return scores, uncertainty, labels


def brute_force_curve(scores, uncertainty, labels, steps):
    rows = []
    for tau in np.linspace(uncertainty.max(), uncertainty.min(), steps):
        deferred = uncertainty >= tau
        rate = float(np.mean(deferred))
        kept_scores = scores[~deferred]
        kept_labels = labels[~deferred]
        bacc = None
        if kept_labels.size and kept_labels.min() != kept_labels.max():
            pred = (kept_scores >= 0.5).astype(int)
            tn = np.sum((pred == 0) & (kept_labels == 0))
            fp = np.sum((pred == 1) & (kept_labels == 0))
            fn = np.sum((pred == 0) & (kept_labels == 1))
            tp = np.sum((pred == 1) & (kept_labels == 1))
            bacc = 0.5 * (tn / (tn + fp) + tp / (tp + fn))
        rows.append((float(tau), rate, bacc))
    return rows


def test_uq_sweep_matches_brute_force():
    scores, uncertainty, labels = sweep_inputs()
    points = sweep.uq_sweep(scores, uncertainty, labels, 7)
    expected = brute_force_curve(scores, uncertainty, labels, 7)
    assert len(points) == len(expected)
    for point, (tau, rate, bacc) in zip(points, expected):
        assert point.param_value == tau
        assert point.deferral_rate == rate
        if bacc is None:
            assert point.bacc is None
        else:
            assert point.bacc == pytest.approx(bacc, abs=1e-12)


def test_uq_sweep_grid_properties():
    scores, uncertainty, labels = sweep_inputs(seed=1)
    steps = 9
    points = sweep.uq_sweep(scores, uncertainty, labels, steps)
    assert len(points) == steps

    rates = [p.deferral_rate for p in points]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[0] == np.mean(uncertainty == uncertainty.max())
    assert rates[-1] == 1.0
    assert points[-1].bacc is None
    assert points[-1].status == "absent"

    taus = [p.param_value for p in points]
    np.testing.assert_array_equal(taus, np.linspace(uncertainty.max(), uncertainty.min(), steps))
    assert all(p.param_kind == "threshold" for p in points)


def test_uq_sweep_constant_uncertainty_degenerates():
    scores = np.array([0.1, 0.9, 0.4])
    points = sweep.uq_sweep(scores, np.full(3, 0.2), np.array([0, 1, 0]), 50)
    assert len(points) == 1
    assert points[0].status == "degenerate"
    assert points[0].deferral_rate == 1.0
    assert points[0].param_value == 0.2


def per_threshold_sweep(scores, uncertainty, labels, steps):
    """uq_sweep as one deferral_curve_point call per threshold.

    A constant uncertainty ranks nothing: it gives one point that defers
    every sample, at the constant, flagged "degenerate".
    """
    if uncertainty.max() == uncertainty.min():
        point = deferral_curve_point(np.full(scores.shape, DEFER), labels, scores)
        point.param_kind = "threshold"
        point.param_value = float(uncertainty[0])
        point.status = "degenerate"
        return [point]
    predicted = (scores >= 0.5).astype(np.int64)
    points = []
    for tau in np.linspace(uncertainty.max(), uncertainty.min(), steps):
        point = deferral_curve_point(np.where(uncertainty >= tau, DEFER, predicted), labels, scores)
        point.param_kind = "threshold"
        point.param_value = float(tau)
        if point.bacc is None:
            point.status = "absent"
        points.append(point)
    return points


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(2, 40))
    specials = st.sampled_from([np.nan, np.inf, -np.inf])
    scores = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0), specials), min_size=n,
                                    max_size=n)))
    scores = np.round(scores, draw(st.integers(0, 3)))  # coarse scores tie
    classes = draw(st.sampled_from([(0, 1), (0, 1, 2), (0,), (1,)]))
    n_labels = n + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))  # some are misaligned
    labels = np.array(draw(st.lists(st.sampled_from(classes), min_size=n_labels,
                                    max_size=n_labels)), dtype=np.int64)
    levels = draw(st.integers(1, 8))
    uncertainty = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n)))
    uncertainty = uncertainty / levels  # few levels, so thresholds tie; some are constant
    return scores, uncertainty, labels, draw(st.integers(2, 30))


def sweep_outcome(sweep_fn, case):
    try:
        return repr(sweep_fn(*case))
    except DeferBenchError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_uq_sweep_matches_per_threshold_reference(case):
    with np.errstate(invalid="ignore"):  # inf - inf when tie groups are found
        assert sweep_outcome(sweep.uq_sweep, case) == sweep_outcome(per_threshold_sweep, case)


def test_uq_sweep_matches_per_threshold_reference_on_long_curves():
    # hundreds of ROC points inside the pAUC band: the trapezoid sum runs
    # numpy's pairwise summation, which a single extra or missing point
    # (a tie group the kept set does not reach) regroups
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 1000)
    scores = np.round(np.clip(0.3 * labels + 0.7 * rng.random(1000), 0.0, 1.0), 3)
    uncertainty = np.round(rng.random(1000), 2)
    case = (scores, uncertainty, labels, 50)
    assert sweep_outcome(sweep.uq_sweep, case) == sweep_outcome(per_threshold_sweep, case)


def test_uq_sweep_matches_per_threshold_reference_on_200_thresholds():
    # about half of the 200 thresholds repeat an earlier kept set, and the
    # special scores give NaN tie groups of one and tied infinities
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 1000)
    scores = np.round(np.clip(0.3 * labels + 0.7 * rng.random(1000), 0.0, 1.0), 2)
    scores[rng.choice(1000, 12, replace=False)] = [np.nan, np.inf, -np.inf] * 4
    uncertainty = np.round(rng.random(1000), 2)
    case = (scores, uncertainty, labels, 200)
    with np.errstate(invalid="ignore"):  # inf - inf when tie groups are found
        assert sweep_outcome(sweep.uq_sweep, case) == sweep_outcome(per_threshold_sweep, case)


def test_uq_sweep_validation():
    scores, uncertainty, labels = sweep_inputs()
    with pytest.raises(ConfigError):
        sweep.uq_sweep(scores, uncertainty, labels, 1)
    with pytest.raises(InputShapeError):
        sweep.uq_sweep(scores, uncertainty[:-1], labels, 5)
    with pytest.raises(InputShapeError):
        sweep.uq_sweep(np.array([]), np.array([]), np.array([]), 5)
    for bad in (np.nan, np.inf):
        damaged = uncertainty.copy()
        damaged[3] = bad
        with pytest.raises(InputShapeError, match="finite"):
            sweep.uq_sweep(scores, damaged, labels, 5)
    for bad in (np.inf, -np.inf):  # constant, so checked before the degenerate path
        with pytest.raises(InputShapeError, match="finite"):
            sweep.uq_sweep(scores, np.full(scores.shape, bad), labels, 5)


# ---------------------------------------------------------------------------
# zero-deferral rows
# ---------------------------------------------------------------------------


def test_classification_row_hand_case():
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    labels = np.array([1, 0, 1, 0])
    row = sweep.classification_row(scores, labels)
    assert row.bacc == 1.0
    assert row.acc0 == 1.0 and row.acc1 == 1.0
    assert row.auc == 1.0
    assert row.status == "ok"


def test_classification_row_single_class_is_absent():
    row = sweep.classification_row(np.array([0.9, 0.2]), np.array([0, 0]))
    assert row.bacc is None
    assert row.auc is None
    assert row.status == "absent"


@st.composite
def zero_deferral_cases(draw):
    n = draw(st.integers(1, 40))
    # exact 0.5 is a positive decision, its neighbour below a negative one
    specials = st.sampled_from([0.0, 0.5, np.nextafter(0.5, 0.0), 1.0])
    scores = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0), specials), min_size=n,
                                    max_size=n)))
    scores = np.round(scores, draw(st.sampled_from([1, 2, 17])))  # coarse scores tie
    classes = draw(st.sampled_from([(0, 1), (0,), (1,)]))
    labels = np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))
    return scores, labels


@settings(max_examples=300, deadline=None)
@given(zero_deferral_cases())
def test_classification_row_is_the_zero_deferral_curve_point(case):
    scores, labels = case
    row = sweep.classification_row(scores, labels)
    point = deferral_curve_point((scores >= 0.5).astype(np.int64), labels, scores)
    stored = [attr for _, attr, _ in sweep._CLASSIFICATION_TABLE if attr != "status"]
    # repr tells every float apart that the CSV writer would
    assert [repr(getattr(row, a)) for a in stored] == [repr(getattr(point, a)) for a in stored]
    assert row.status == ("absent" if row.bacc is None else "ok")


def test_classification_rows_carry_the_tags_of_their_condition(tiny_cfg, eval_data):
    conditions = sweep.plan_conditions(tiny_cfg)
    for method in ("softmax", "one_stage"):
        result = sweep.run_method(tiny_cfg, eval_data, 3, method)
        assert [(r.method, r.condition, r.level, r.seed) for r in result.classification] == [
            (method, c.kind, c.level, 3) for c in conditions
        ]


# ---------------------------------------------------------------------------
# evaluation data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def eval_data(tiny_cfg):
    return sweep.build_eval_data(tiny_cfg)


def test_split_eval_data_sizes_and_conditions(tiny_cfg, eval_data):
    assert eval_data.x_train.shape == (420, 64)
    assert eval_data.x_val.shape == (120, 64)
    assert eval_data.y_test.shape == (60,)
    assert set(eval_data.x_tests) == set(sweep.plan_conditions(tiny_cfg))
    for x in eval_data.x_tests.values():
        assert x.shape == (60, 64)
    # one unit of weight per class
    np.testing.assert_allclose(eval_data.sample_weights.sum(), 2.0, atol=1e-12)


def test_model_inputs_affine():
    x = np.array([[0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(nnet.model_inputs(x), [[-1.0, 0.0, 1.0]])
    # float32 rows are widened before the map, so the float64 result is exact
    x32 = np.array([[0.0, 0.1, 1.0]], dtype=np.float32)
    mapped = nnet.model_inputs(x32)
    assert mapped.dtype == np.float64
    assert mapped.tobytes() == (2.0 * x32.astype(np.float64) - 1.0).tobytes()


def test_corruption_touches_only_the_test_split(tiny_cfg, eval_data):
    ds = data_mod.split(sweep.prepare_dataset(tiny_cfg), child_seed(tiny_cfg.seed, "split"))
    train, test = ds.split_mask(data_mod.TRAIN), ds.split_mask(data_mod.TEST)
    # the train rows stay raw float32; the networks map them as they read them
    assert eval_data.x_train.dtype == np.float32
    assert eval_data.x_train.tobytes() == ds.features[train].tobytes()
    np.testing.assert_array_equal(eval_data.y_test, ds.labels[test])

    noisy = eval_data.x_tests[sweep.Condition("noise", 1)]
    clean = eval_data.x_tests[sweep.Condition("id")]
    assert not np.array_equal(noisy, clean)
    assert clean.tobytes() == ds.features[test].tobytes()
    # a corrupted copy is float64, mapped to model inputs in place
    assert noisy.dtype == np.float64


def test_id_condition_equals_level_zero_corruption_bytes(tiny_cfg, eval_data):
    ds = data_mod.split(sweep.prepare_dataset(tiny_cfg), child_seed(tiny_cfg.seed, "split"))
    mask = ds.split_mask(data_mod.TEST)
    test = data_mod.Dataset(ds.features[mask], ds.labels[mask], ds.spatial_shape)
    spec = data_mod.CorruptionSpec(kind="noise", level=0)
    corrupted = data_mod.corrupt(test, spec, child_seed(tiny_cfg.seed, "corrupt"))
    a = corrupted.features
    b = eval_data.x_tests[sweep.Condition("id")]
    assert a.dtype == b.dtype == np.float32
    assert a.tobytes() == b.tobytes()


def test_prepare_dataset_is_quantized_and_deterministic(tiny_cfg):
    ds1 = sweep.prepare_dataset(tiny_cfg)
    ds2 = sweep.prepare_dataset(tiny_cfg)
    assert ds1.features.tobytes() == ds2.features.tobytes()
    # the features are float32, the precision of the DFD1 container
    assert ds1.features.dtype == np.float32


def test_split_eval_data_owns_the_dataset_buffer(tiny_cfg, eval_data):
    reference = data_mod.split(sweep.prepare_dataset(tiny_cfg), child_seed(tiny_cfg.seed, "split"))
    ds = sweep.prepare_dataset(tiny_cfg)
    buffer = ds.features
    again = sweep.split_eval_data(tiny_cfg, ds)

    clean = again.x_tests[sweep.Condition("id")]
    for which, x, y in (
        (data_mod.TRAIN, again.x_train, again.y_train),
        (data_mod.VAL, again.x_val, again.y_val),
        (data_mod.TEST, clean, again.y_test),
    ):
        assert np.shares_memory(x, buffer)
        mask = reference.split_mask(which)
        assert x.tobytes() == reference.features[mask].tobytes()
        np.testing.assert_array_equal(y, reference.labels[mask])
    # the buffer holds the train, val and test blocks, in that order
    np.testing.assert_array_equal(buffer, np.concatenate([again.x_train, again.x_val, clean]))
    for cond, x in again.x_tests.items():
        assert np.shares_memory(x, buffer) == (cond.kind == "id")

    assert list(again.x_tests) == list(sweep.plan_conditions(tiny_cfg))
    for cond in sweep.plan_conditions(tiny_cfg):
        assert again.x_tests[cond].tobytes() == eval_data.x_tests[cond].tobytes()


def traced_split_eval_data(cfg):
    """(dataset features, evaluation data, peak bytes traced while splitting)."""
    ds = sweep.prepare_dataset(cfg)
    features = ds.features
    tracemalloc.start()
    try:
        out = sweep.split_eval_data(cfg, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return features, out, peak


def new_arrays(features, out) -> int:
    """Bytes of the returned arrays that are not views of the dataset's features."""
    arrays = (out.x_train, out.x_val, *out.x_tests.values())
    return sum(x.nbytes for x in arrays if not np.shares_memory(x, features))


def test_split_eval_data_peak_memory():
    # default 10,000 x 256 float32 images, three conditions: the split's
    # peak is its val and test scratch, 0.34x the input features; the two
    # float64 corrupted test copies (0.2x each) are built only when
    # new_arrays reads them, after the traced split. A split that held one
    # such copy next to its scratch, or built both, would exceed the bound
    features, out, peak = traced_split_eval_data(
        RunConfig(corruption=CorruptionSettings(levels=1))
    )
    assert features.dtype == np.float32
    assert new_arrays(features, out) == 4 * out.x_tests[sweep.Condition("id")].nbytes
    assert peak <= 0.4 * features.nbytes, peak / features.nbytes


def test_split_eval_data_temporaries_do_not_grow_with_the_conditions():
    # the default run has ten corrupted conditions, and the split corrupts
    # none of them: reading the widest blur holds its float64 copy plus the
    # blur's temporaries for one block of images (a row pass, a weighted tap
    # and a padded copy twice as wide at radius 8), not a copy per condition
    cfg = RunConfig()
    data = sweep.build_eval_data(cfg)
    block = data_mod._ROW_BLOCK * data.input_dim * 8  # one block of float64 images
    tracemalloc.start()
    try:
        x = data.x_tests[sweep.Condition("blur", cfg.corruption.levels)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.nbytes == 2 * data.y_test.size * data.input_dim * 4
    assert peak - x.nbytes <= 5 * block, (peak - x.nbytes) / block


def test_corrupted_conditions_are_built_when_read():
    cfg = tiny_config(
        data=SynthSpec(n_samples=600, positive_fraction=0.05, spatial_shape=(16, 16, 1)),
        corruption=CorruptionSettings(levels=5),
    )
    ds = sweep.prepare_dataset(cfg)
    tracemalloc.start()
    try:
        data = sweep.split_eval_data(cfg, ds)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    clean = data.x_tests[sweep.Condition("id")]
    copy_bytes = clean.size * 8  # one float64 corrupted copy
    # the split keeps its labels and weights, but no corrupted copy
    assert len(data.x_tests) == 11
    assert retained < copy_bytes, retained / copy_bytes

    # a task reads one condition at a time, so four more levels of each
    # corruption add at most one copy to the peak of a threshold method
    peaks = []
    for levels in (1, 5):
        level_cfg = dataclasses.replace(cfg, corruption=CorruptionSettings(levels=levels))
        level_data = sweep.build_eval_data(level_cfg)
        tracemalloc.start()
        try:
            sweep.run_method(level_cfg, level_data, 0, "softmax")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= copy_bytes, (peaks[1] - peaks[0]) / copy_bytes

    # every read builds a new array with the same bytes: the corruption of
    # the clean test split, mapped to model inputs
    cond = sweep.Condition("blur", 5)
    first, second = data.x_tests[cond], data.x_tests[cond]
    assert not np.shares_memory(first, second)
    test = data_mod.Dataset(clean, data.y_test, (16, 16, 1))
    spec = data_mod.CorruptionSpec(kind="blur", level=5)
    corrupted = data_mod.corrupt(test, spec, child_seed(cfg.seed, "corrupt")).features
    assert first.tobytes() == second.tobytes() == nnet.model_inputs(corrupted).tobytes()


def test_run_from_file_matches_in_memory(tiny_cfg, eval_data, tmp_path):
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(tiny_cfg))
    from_file = sweep.build_eval_data(tiny_cfg, path)
    np.testing.assert_array_equal(from_file.x_train, eval_data.x_train)
    for cond in sweep.plan_conditions(tiny_cfg):
        assert from_file.x_tests[cond].tobytes() == eval_data.x_tests[cond].tobytes()


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def softmax_plan(tiny_cfg):
    return collect_plan(tiny_cfg)


def test_run_plan_row_counts_and_provenance(tiny_cfg, softmax_plan):
    result = softmax_plan
    assert result.failures == []
    # 3 conditions x 5 thresholds
    assert len(result.points) == 15
    assert len(result.classification) == 3
    labels = [f"{p.condition}{p.level}" if p.condition != "id" else "id" for p in result.points]
    assert labels == ["id"] * 5 + ["noise1"] * 5 + ["blur1"] * 5
    for p in result.points:
        assert p.method == "softmax"
        assert p.seed == 0
        assert p.param_kind == "threshold"
        assert p.param_value is not None
        assert p.status in ("ok", "absent", "degenerate")


def test_run_plan_merges_in_plan_order_independent_of_seed(tiny_cfg, eval_data):
    cfg = dataclasses.replace(tiny_cfg, n_seeds=2)
    plan = collect_plan(cfg)
    alone = sweep.run_method(cfg, eval_data, 1, "softmax")
    seed1 = [p for p in plan.points if p.seed == 1]
    assert points_as_csv(seed1) == points_as_csv(alone.points)


def test_two_stage_points_unaffected_by_committee_reuse(tiny_cfg):
    with_ensemble = collect_plan(dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage")))
    alone = collect_plan(dataclasses.replace(tiny_cfg, methods=("two_stage",)))
    shared = [p for p in with_ensemble.points if p.method == "two_stage"]
    assert points_as_csv(shared) == points_as_csv(alone.points)


def test_parallel_execution_is_byte_identical(tiny_cfg, tmp_path):
    cfg = dataclasses.replace(tiny_cfg, n_seeds=2)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    serial = collect_plan(cfg, data_path=path)
    parallel = collect_plan(dataclasses.replace(cfg, jobs=2), data_path=path)
    assert points_as_csv(serial.points) == points_as_csv(parallel.points)


def test_failed_method_keeps_the_plan_running(tiny_cfg):
    cfg = dataclasses.replace(
        tiny_cfg,
        methods=("swag", "softmax"),
        swag=SwagCollectConfig(burn_in_frac=0.9, max_rank=20),  # keeps < 2 snapshots
    )
    result = collect_plan(cfg)
    assert len(result.failures) == 1
    assert "swag" in result.failures[0] and "CollectionError" in result.failures[0]

    swag_points = [p for p in result.points if p.method == "swag"]
    assert len(swag_points) == 3  # one marker row per condition
    for p in swag_points:
        assert p.status == "failed:CollectionError"
        assert p.deferral_rate is None and p.bacc is None
        assert p.param_kind == "threshold"

    softmax_points = [p for p in result.points if p.method == "softmax"]
    assert len(softmax_points) == 15
    # the failed method keeps one classification row per condition too
    conditions = [(c.kind, c.level) for c in sweep.plan_conditions(cfg)]
    for method, status in (("swag", "failed:CollectionError"), ("softmax", "ok")):
        rows = [r for r in result.classification if r.method == method]
        assert [(r.condition, r.level) for r in rows] == conditions
        assert all(r.status == status for r in rows)
    swag_rows = [r for r in result.classification if r.method == "swag"]
    assert all(
        value is None for r in swag_rows for value in (r.auc, r.pauc, r.bacc, r.acc0, r.acc1)
    )


def tables_as_csv(result) -> tuple:
    """results.csv and classification.csv text of a plan result."""
    return (
        points_as_csv(result.points),
        points_as_csv(result.classification, sweep.write_classification_csv),
    )


@pytest.mark.parametrize("methods", [("two_stage", "softmax"), ("two_stage", "ensemble")])
def test_head_first_plans_are_byte_identical_across_jobs(tiny_cfg, tmp_path, methods):
    # without an ensemble the head trains its own committee; listed before
    # the ensemble, it still runs after it in their shared task
    cfg = dataclasses.replace(tiny_cfg, methods=methods)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    serial = collect_plan(cfg, data_path=path)
    parallel = collect_plan(dataclasses.replace(cfg, jobs=2), data_path=path)
    assert serial.failures == parallel.failures == []
    assert tables_as_csv(parallel) == tables_as_csv(serial)


def log_builds(monkeypatch, log):
    """Make every build of the evaluation data append its process id to log.

    Forked workers inherit the patched module global, so the main process
    reads every worker's builds from the file afterwards."""
    real_build = sweep.build_eval_data

    def logged_build(cfg, data_path=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_build(cfg, data_path)

    monkeypatch.setattr(sweep, "build_eval_data", logged_build)


def test_a_serial_run_builds_its_data_once(tiny_cfg, tmp_path, monkeypatch):
    log = tmp_path / "builds"
    log_builds(monkeypatch, log)
    cfg = dataclasses.replace(tiny_cfg, n_seeds=2, methods=("softmax", "ensemble", "two_stage"))
    assert collect_plan(cfg).failures == []
    assert log.read_text().splitlines() == [str(os.getpid())]
    # no evaluation data outlives the run
    assert sweep._task_data.cache_info().currsize == 0


def test_a_pool_run_builds_its_data_once_per_worker(tiny_cfg, tmp_path, monkeypatch):
    # four tasks on two workers: each worker builds once, the main process never
    log = tmp_path / "builds"
    log_builds(monkeypatch, log)
    cfg = dataclasses.replace(tiny_cfg, n_seeds=2, methods=("softmax", "mc_dropout"), jobs=2)
    assert collect_plan(cfg).failures == []
    pids = log.read_text().splitlines()
    assert 1 <= len(pids) == len(set(pids)) <= 2
    assert str(os.getpid()) not in pids
    assert sweep._task_data.cache_info().currsize == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_method_runs_through_worker(tiny_cfg, tmp_path, monkeypatch, jobs):
    # one task path at every --jobs; only who runs the task differs
    log = tmp_path / "calls"

    def logged_worker(cfg, seed_index, method, *rest):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {method}\n")
        return REAL_WORKER(cfg, seed_index, method, *rest)

    monkeypatch.setattr(sweep, "_worker", logged_worker)
    cfg = dataclasses.replace(tiny_cfg, methods=("softmax", "ensemble", "two_stage"), jobs=jobs)
    assert collect_plan(cfg).failures == []
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(method for _, method in calls) == ["ensemble", "softmax", "two_stage"]
    assert {pid == str(os.getpid()) for pid, _ in calls} == {jobs == 1}


COMMITTEE = ["network"]  # stands in for the ensemble's committee


def handshake_worker(flag_dir, cfg, seed_index, method, members, data):
    """Stand-in for sweep._worker, with flag_dir bound: softmax returns only
    once the deferral head has started, so it fails when the head waits for
    softmax to finish. Only the head may receive the ensemble's committee."""
    flag = flag_dir / "head_started"
    if members != (COMMITTEE if method == "two_stage" else None):
        raise ValueError(f"{method} got members {members!r}")
    if method == "two_stage":
        flag.touch()
    elif method == "softmax":
        deadline = time.monotonic() + 20.0
        while not flag.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("the deferral head did not start while softmax ran")
            time.sleep(0.01)
    committee = COMMITTEE if method == "ensemble" else None
    return sweep.MethodResult(method, seed_index, [], [], committee)


def test_head_starts_while_an_unrelated_task_runs(tiny_cfg, tmp_path, monkeypatch):
    # forked workers inherit the patched module global; swag is a task of its
    # own, so it shows that the committee goes to the head only
    monkeypatch.setattr(sweep, "_worker", partial(handshake_worker, tmp_path))
    cfg = dataclasses.replace(
        tiny_cfg, methods=("softmax", "ensemble", "two_stage", "swag"), jobs=2
    )
    result = collect_plan(cfg)
    assert result.failures == []
    assert (tmp_path / "head_started").exists()


class InlineExecutor:
    """Stand-in for ProcessPoolExecutor that records its max_workers and runs
    each task in-process, so no worker process is ever started."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - a pool reports it through the future
            future.set_exception(exc)
        return future


def instant_worker(cfg, seed_index, method, members, data):
    return sweep.MethodResult(method, seed_index, [], [])


# the ensemble and the deferral head of a seed are one task, so the three
# methods make two tasks
@pytest.mark.parametrize("jobs, workers", [(2, 2), (16, 2)])
def test_pool_has_at_most_one_worker_per_task(tiny_cfg, monkeypatch, jobs, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(sweep, "_worker", instant_worker)
    monkeypatch.setattr(InlineExecutor, "created", [])
    cfg = dataclasses.replace(
        tiny_cfg, methods=("softmax", "ensemble", "two_stage"), jobs=jobs
    )
    assert collect_plan(cfg).failures == []
    assert InlineExecutor.created == [workers]


class OrderedPool(InlineExecutor):
    """Stand-in for ProcessPoolExecutor that logs each submission; with
    finish_out_of_plan_order as as_completed, its tasks finish in FINISH
    order, not in plan order."""

    log = []
    tasks = {}  # future -> the methods of its task

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.tasks[future] = args[2]
        self.log.append(f"submit {'+'.join(args[2])}")
        return future


FINISH = [("swag",), ("softmax",), ("bnn",), ("mc_dropout",)]


def finish_out_of_plan_order(futures):
    yield min(futures, key=lambda future: FINISH.index(OrderedPool.tasks[future]))


def one_row_worker(cfg, seed_index, method, members, data):
    return sweep.MethodResult(method, seed_index, [CurvePoint(method=method)], [])


def test_pool_results_reach_the_writer_in_plan_order_after_the_refill(tiny_cfg, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OrderedPool)
    monkeypatch.setattr(concurrent.futures, "as_completed", finish_out_of_plan_order)
    monkeypatch.setattr(OrderedPool, "log", [])
    monkeypatch.setattr(OrderedPool, "tasks", {})
    monkeypatch.setattr(sweep, "_worker", one_row_worker)
    methods = ("softmax", "swag", "mc_dropout", "bnn")
    cfg = dataclasses.replace(tiny_cfg, methods=methods, jobs=2)
    rows = []
    for result in sweep.run_plan(cfg):
        OrderedPool.log.append(f"write {result.method}")
        rows.extend(result.points)
    assert [p.method for p in rows] == list(methods)
    # swag finishes first and waits for softmax; when softmax finishes, bnn
    # takes its worker before softmax and swag reach the writer
    assert OrderedPool.log == [
        "submit softmax", "submit swag", "submit mc_dropout", "submit bnn",
        "write softmax", "write swag", "write mc_dropout", "write bnn",
    ]


def failing_first_build(monkeypatch) -> list:
    """Make the first build of the evaluation data fail; returns the attempts."""
    real_build, attempts = sweep.build_eval_data, []

    def build(cfg, data_path=None):
        attempts.append(data_path)
        if len(attempts) == 1:
            raise FormatError("damaged")
        return real_build(cfg, data_path)

    monkeypatch.setattr(sweep, "build_eval_data", build)
    return attempts


def test_a_failed_pool_build_fails_its_task_and_the_next_task_builds_again(
    tiny_cfg, monkeypatch
):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    attempts = failing_first_build(monkeypatch)
    cfg = dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage", "softmax"), jobs=2)
    result = collect_plan(cfg)
    assert result.failures == [
        "seed 0 ensemble: FormatError: damaged", "seed 0 two_stage: FormatError: damaged"
    ]
    assert len(attempts) == 2
    assert sweep._task_data.cache_info().currsize == 0


def test_a_failed_serial_build_stops_the_plan(tiny_cfg, monkeypatch):
    attempts = failing_first_build(monkeypatch)
    cfg = dataclasses.replace(tiny_cfg, methods=("softmax", "mc_dropout"))
    with pytest.raises(FormatError, match="damaged"):
        collect_plan(cfg)
    assert len(attempts) == 1
    assert sweep._task_data.cache_info().currsize == 0


def walk_objects(obj, seen=None):
    """obj and everything reachable from it through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif isinstance(obj, type):
        return
    else:  # instance attributes, held in __slots__ or in __dict__
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        children = [getattr(obj, name) for name in slots if hasattr(obj, name)]
        children += list(getattr(obj, "__dict__", {}).values())
    for child in children:
        yield from walk_objects(child, seen)


class PicklingExecutor(InlineExecutor):
    """Stand-in for ProcessPoolExecutor that pickles each submitted call and
    each returned value, as a real pool does, and keeps the unpickled payloads."""

    payloads = []

    def submit(self, fn, *args):
        fn, args = pickle.loads(pickle.dumps((fn, args)))
        result = pickle.loads(pickle.dumps(fn(*args)))
        self.payloads.extend([args, result])
        future = Future()
        future.set_result(result)
        return future


def test_no_weights_cross_a_process_boundary(tiny_cfg, eval_data, tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingExecutor)
    monkeypatch.setattr(PicklingExecutor, "payloads", [])
    cfg = dataclasses.replace(tiny_cfg, methods=("softmax", "ensemble", "two_stage"), jobs=2)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    result = collect_plan(cfg, data_path=path)
    assert result.failures == []

    size = nnet.init_network(sweep._net_config(cfg, eval_data, 0, "ensemble")).parameter_count
    for payload in PicklingExecutor.payloads:
        found = list(walk_objects(payload))
        assert [
            x.size for x in found
            if isinstance(x, np.ndarray) and x.dtype.kind == "f" and x.size >= size
        ] == []
        assert not any(isinstance(x, nnet.Network) for x in found)
    assert len(PicklingExecutor.payloads) == 4  # two tasks, each a call and a return


def failing_fit(cfg, data, seed_index, members):
    raise RuntimeError("injected")


def method_tables(result, method) -> tuple:
    """results.csv and classification.csv text of one method's rows."""
    return tables_as_csv(
        PlanResults(
            [p for p in result.points if p.method == method],
            [r for r in result.classification if r.method == method],
            [],
        )
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_ensemble_leaves_the_head_its_own_committee(
    tiny_cfg, tmp_path, monkeypatch, jobs
):
    monkeypatch.setitem(sweep._METHODS, "ensemble", ("threshold", failing_fit))
    cfg = dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage"), jobs=jobs)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    result = collect_plan(cfg, data_path=path)
    alone = collect_plan(dataclasses.replace(cfg, methods=("two_stage",)), data_path=path)

    assert [f.split(": ")[:2] for f in result.failures] == [["seed 0 ensemble", "RuntimeError"]]
    for table in method_tables(result, "ensemble"):
        rows = table.splitlines()[1:]
        assert len(rows) == len(sweep.plan_conditions(cfg))
        assert all(row.endswith(",failed:RuntimeError") for row in rows)
    assert alone.failures == []
    assert method_tables(result, "two_stage") == tables_as_csv(alone)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_head_leaves_the_ensemble_rows_intact(tiny_cfg, tmp_path, monkeypatch, jobs):
    monkeypatch.setitem(sweep._METHODS, "two_stage", ("beta", failing_fit))
    cfg = dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage"), jobs=jobs)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    result = collect_plan(cfg, data_path=path)
    alone = collect_plan(dataclasses.replace(cfg, methods=("ensemble",)), data_path=path)

    assert [f.split(": ")[:2] for f in result.failures] == [["seed 0 two_stage", "RuntimeError"]]
    assert {p.status for p in result.points if p.method == "two_stage"} == {
        "failed:RuntimeError"
    }
    assert alone.failures == []
    assert method_tables(result, "ensemble") == tables_as_csv(alone)


class DeadPool(InlineExecutor):
    """Stand-in for ProcessPoolExecutor whose every task dies as a whole."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


def test_dead_task_fails_every_method_in_it(tiny_cfg, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadPool)
    cfg = dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage"), jobs=2)
    capsys.readouterr()
    result = collect_plan(cfg)

    assert result.failures == [
        "seed 0 ensemble: BrokenProcessPool: worker died",
        "seed 0 two_stage: BrokenProcessPool: worker died",
    ]
    n = len(sweep.plan_conditions(cfg))
    for method, kind in (("ensemble", "threshold"), ("two_stage", "beta")):
        points = [p for p in result.points if p.method == method]
        rows = [r for r in result.classification if r.method == method]
        assert len(points) == len(rows) == n
        assert {p.param_kind for p in points} == {kind}
        assert {x.status for x in points + rows} == {"failed:BrokenProcessPool"}
    lines = capsys.readouterr().err.splitlines()
    for method in ("ensemble", "two_stage"):
        prefix = f"seed 0 {method}: failed (BrokenProcessPool) in "
        assert sum(line.startswith(prefix) for line in lines) == 1, lines


REAL_WORKER = sweep._worker


def dying_worker(flag_dir, cfg, seed_index, method, members, data):
    """Stand-in for sweep._worker, with flag_dir bound: softmax runs for real,
    swag kills its worker process once softmax is done, and every other
    method waits, so it is unfinished when the pool breaks."""
    flag = flag_dir / "softmax.done"
    if method == "softmax":
        result = REAL_WORKER(cfg, seed_index, method, members, data)
        flag.touch()
        return result
    if method == "swag":
        deadline = time.monotonic() + 20.0
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # lets softmax's result reach the main process
        os._exit(3)
    time.sleep(60.0)


def test_dying_worker_fails_only_unfinished_work(tiny_cfg, tmp_path, monkeypatch):
    # forked workers inherit the patched module global; with two workers,
    # the last of the four tasks has not started when swag's worker dies.
    # A serial run reaches _worker too, so the baseline runs before the patch.
    methods = ("softmax", "swag", "mc_dropout", "bnn")
    cfg = dataclasses.replace(tiny_cfg, methods=methods, jobs=2)
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    alone = collect_plan(dataclasses.replace(cfg, methods=("softmax",), jobs=1), data_path=path)
    monkeypatch.setattr(sweep, "_worker", partial(dying_worker, tmp_path))
    result = collect_plan(cfg, data_path=path)

    assert [f.split(": ")[:2] for f in result.failures] == [
        [f"seed 0 {m}", "BrokenProcessPool"] for m in methods[1:]
    ]
    assert alone.failures == []
    assert method_tables(result, "softmax") == tables_as_csv(alone)
    conditions = [(c.kind, c.level) for c in sweep.plan_conditions(cfg)]
    for method in methods[1:]:
        points = [p for p in result.points if p.method == method]
        rows = [r for r in result.classification if r.method == method]
        assert [(p.condition, p.level) for p in points] == conditions
        assert [(r.condition, r.level) for r in rows] == conditions
        assert {x.status for x in points + rows} == {"failed:BrokenProcessPool"}


class PendingPool(InlineExecutor):
    """Stand-in for ProcessPoolExecutor whose tasks never start."""

    futures = []

    def submit(self, fn, *args):
        future = Future()
        self.futures.append(future)
        return future


def interrupt(futures):
    raise KeyboardInterrupt


def test_interrupt_cancels_every_pending_task(tiny_cfg, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PendingPool)
    monkeypatch.setattr(PendingPool, "futures", [])
    monkeypatch.setattr(concurrent.futures, "as_completed", interrupt)
    cfg = dataclasses.replace(tiny_cfg, methods=("softmax", "swag", "mc_dropout"), jobs=2)
    with pytest.raises(KeyboardInterrupt):
        collect_plan(cfg)
    # two of the three tasks were submitted, and neither may start
    assert len(PendingPool.futures) == 2
    assert all(future.cancelled() for future in PendingPool.futures)


def starting_worker(flag_dir, cfg, seed_index, method, members, data):
    """Stand-in for sweep._worker, with flag_dir bound, that marks its start
    and runs for 0.3 s."""
    (flag_dir / f"{method}.started").touch()
    time.sleep(0.3)
    raise RuntimeError("stand-in")


def test_interrupted_pool_starts_no_further_task(tiny_cfg, tmp_path, monkeypatch):
    # a real pool: a call it has already queued for its workers cannot be
    # cancelled, so only the tasks running at the interrupt may ever start
    def interrupt_once_started(futures):
        deadline = time.monotonic() + 20.0
        while not any(tmp_path.glob("*.started")) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # lets the pool queue whatever it will
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "_worker", partial(starting_worker, tmp_path))
    monkeypatch.setattr(concurrent.futures, "as_completed", interrupt_once_started)
    methods = ("softmax", "swag", "mc_dropout", "bnn")
    cfg = dataclasses.replace(tiny_cfg, methods=methods, jobs=2)
    with pytest.raises(KeyboardInterrupt):
        collect_plan(cfg)
    # the pool's exit has waited for every call it had queued
    started = {p.name.split(".")[0] for p in tmp_path.glob("*.started")}
    assert "softmax" in started
    assert started <= {"softmax", "swag"}


def sleeping_head(seed_index, method):
    """Stand-in for one method's run: the deferral head takes 0.6 s."""
    if method == "two_stage":
        time.sleep(0.6)
    return sweep.MethodResult(method, seed_index, [], [])


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_lines_carry_each_methods_own_time(tiny_cfg, monkeypatch, capsys, jobs):
    # the head runs after the ensemble in the same task and sleeps; the
    # ensemble's line must not include that time
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(sweep, "_worker", lambda cfg, s, m, *rest: sleeping_head(s, m))
    cfg = dataclasses.replace(tiny_cfg, methods=("ensemble", "two_stage"), jobs=jobs)
    capsys.readouterr()
    assert collect_plan(cfg).failures == []
    pattern = re.compile(r"seed 0 (\w+): ok in (\d+\.\d\d) s")
    seconds = dict(pattern.fullmatch(line).groups() for line in capsys.readouterr().err.splitlines())
    assert float(seconds["ensemble"]) < 0.3
    assert float(seconds["two_stage"]) >= 0.6


def slow_failing_fit(cfg, data, seed_index, members):
    time.sleep(1.0)
    raise RuntimeError("injected")


def test_failures_are_listed_in_plan_order(tiny_cfg, tmp_path, monkeypatch, capsys):
    # the injected failure comes first in the plan but last from the pool:
    # swag fails within a fraction of a second (one epoch leaves one
    # snapshot, which cannot form a posterior)
    monkeypatch.setitem(sweep._METHODS, "mc_dropout", ("threshold", slow_failing_fit))
    cfg = dataclasses.replace(
        tiny_cfg,
        methods=("mc_dropout", "swag", "softmax"),
        sgd=dataclasses.replace(tiny_cfg.sgd, epochs=1),
    )
    path = tmp_path / "dataset.dfd1"
    data_mod.write_dataset(path, sweep.prepare_dataset(cfg))
    serial = collect_plan(cfg, data_path=path)
    parallel = collect_plan(dataclasses.replace(cfg, jobs=2), data_path=path)
    assert [failure.split(": ")[:2] for failure in serial.failures] == [
        ["seed 0 mc_dropout", "RuntimeError"], ["seed 0 swag", "CollectionError"],
    ]
    assert parallel.failures == serial.failures
    assert tables_as_csv(parallel) == tables_as_csv(serial)

    lines = capsys.readouterr().err.splitlines()
    for line in ("seed 0 mc_dropout: failed (RuntimeError)",
                 "seed 0 swag: failed (CollectionError)", "seed 0 softmax: ok"):
        assert sum(entry.startswith(line + " in ") for entry in lines) == 2, line


def test_one_progress_line_per_finished_task(tiny_cfg, capsys):
    cfg = dataclasses.replace(tiny_cfg, n_seeds=2, methods=("swag", "softmax"),
                              swag=SwagCollectConfig(burn_in_frac=0.9, max_rank=20))
    capsys.readouterr()
    collect_plan(cfg)
    captured = capsys.readouterr()
    assert captured.out == ""
    pattern = re.compile(r"seed (\d) (\w+): (ok|failed \((\w+)\)) in \d+\.\d\d s")
    matches = [pattern.fullmatch(line) for line in captured.err.splitlines()]
    assert all(matches), captured.err
    assert sorted((m[1], m[2], m[3]) for m in matches) == [
        ("0", "softmax", "ok"), ("0", "swag", "failed (CollectionError)"),
        ("1", "softmax", "ok"), ("1", "swag", "failed (CollectionError)"),
    ]


def test_run_method_rejects_unknown_method(tiny_cfg, eval_data):
    with pytest.raises(ConfigError, match="unknown method"):
        sweep.run_method(tiny_cfg, eval_data, 0, "oracle")


# ---------------------------------------------------------------------------
# CSV containers
# ---------------------------------------------------------------------------


def test_results_columns_are_frozen():
    assert sweep.RESULTS_COLUMNS == (
        "method", "condition", "level", "seed", "param_kind", "param_value",
        "deferral_rate", "bacc", "auc", "pauc", "acc0", "acc1",
        "frac_pos_deferred", "status",
    )
    assert sweep.CLASSIFICATION_COLUMNS == (
        "method", "condition", "level", "seed",
        "auc", "pauc", "bacc", "acc0", "acc1", "status",
    )


def test_results_csv_roundtrip_is_exact(softmax_plan, tiny_cfg, tmp_path):
    points = list(softmax_plan.points) + sweep._failure_result(
        tiny_cfg, 4, "one_stage", ConfigError("boom")
    ).points
    path = write_table(tmp_path, points)
    back = sweep.read_results_csv(path)
    assert len(back) == len(points)
    fields = (
        "method", "condition", "level", "seed", "param_kind", "param_value",
        "deferral_rate", "bacc", "auc", "pauc", "acc0", "acc1",
        "frac_positives_deferred", "status",
    )
    for original, parsed in zip(points, back):
        for name in fields:
            assert getattr(parsed, name) == getattr(original, name), name


def test_results_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("method,condition\n")
    with pytest.raises(FormatError, match="unexpected results header"):
        sweep.read_results_csv(path)

    header = ",".join(sweep.RESULTS_COLUMNS)
    path.write_text(header + "\nsoftmax,id,0\n")
    with pytest.raises(FormatError, match="row 2"):
        sweep.read_results_csv(path)

    good = "softmax,id,0,0,threshold,0.5,0.1,0.9,0.9,0.5,0.9,0.9,0.1,ok"
    bad = good.replace("0.1,ok", "abc,ok")
    path.write_text(header + "\n" + bad + "\n")
    with pytest.raises(FormatError, match="row 2"):
        sweep.read_results_csv(path)

    # condition and level must form a Condition
    for condition, level in (("../../escaped", "1"), ("id", "2"), ("noise", "0")):
        bad = good.replace("softmax,id,0,", f"softmax,{condition},{level},")
        path.write_text(header + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(FormatError, match="row 3"):
            sweep.read_results_csv(path)


def reference_cell(value) -> str:
    """The table writer's former per-cell formatter, kept as the byte reference."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@pytest.mark.parametrize("writer, table, make", [
    (sweep.write_results_csv, sweep._RESULTS_TABLE, CurvePoint),
    (sweep.write_classification_csv, sweep._CLASSIFICATION_TABLE, CurvePoint),
])
def test_csv_bytes_match_the_per_cell_reference(tmp_path, writer, table, make):
    values = [None, 0, 7, -0.0, 1e-300, np.nan, np.inf, -np.inf, 0.1, 2 / 3]
    text = {"method": "soft,max", "condition": "noise", "param_kind": "threshold",
            "status": 'failed:"x"'}

    def cell(i, j, attr, parse):
        if parse is sweep._parse_cell:
            return values[(i + j) % len(values)]
        return i - j if parse is int else text[attr]

    records = [make(**{attr: cell(i, j, attr, parse) for j, (_, attr, parse) in enumerate(table)})
               for i in range(len(values))]
    path = write_table(tmp_path, records, writer)

    reference = io.StringIO(newline="")
    rows = csv.writer(reference, lineterminator="\n")
    rows.writerow([column for column, _, _ in table])
    for record in records:
        rows.writerow([reference_cell(getattr(record, attr)) for _, attr, _ in table])
    assert path.read_bytes() == reference.getvalue().encode("utf-8")


def test_classification_csv_roundtrip(softmax_plan, tiny_cfg, tmp_path):
    rows = list(softmax_plan.classification) + sweep._failure_result(
        tiny_cfg, 4, "one_stage", ConfigError("boom")
    ).classification
    path = write_table(tmp_path, rows, sweep.write_classification_csv)
    back = sweep.read_classification_csv(path)
    assert back == rows

    path.write_text("method,seed\n")
    with pytest.raises(FormatError, match="unexpected classification header"):
        sweep.read_classification_csv(path)


@pytest.mark.parametrize("writer, table", [
    (sweep.write_results_csv, "points"),
    (sweep.write_classification_csv, "classification"),
])
def test_csv_writer_failure_leaves_no_partial_file(softmax_plan, tmp_path, writer, table):
    # many good rows first, so the failure comes after data reached the disk
    rows = list(getattr(softmax_plan, table)) * 200 + [None]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    with pytest.raises(AttributeError):
        write_table(fresh, rows, writer)
    assert list(fresh.iterdir()) == []

    kept = tmp_path / "kept"
    kept.mkdir()
    path = write_table(kept, rows[:-1], writer)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_table(kept, rows, writer)
    assert sorted(p.name for p in kept.iterdir()) == sorted(name for _, name in TABLES.values())
    assert path.read_bytes() == before
