"""Deferral-rate sweep protocol.

One run generates an imbalanced dataset, splits it 70/20/10, trains every
requested method per replication seed, and evaluates on the in-distribution
test split plus noise- and blur-corrupted copies of it. Rows land in
results.csv; a zero-deferral classification table lands in classification.csv.

Each method is one row of the ``_METHODS`` table: its curve parameter kind
and a ``fit`` function. A threshold method's fit returns a predictor
``x -> (scores, uncertainty)``, a bundle writer and, for the ensemble, its
committee networks; the shared evaluator sweeps the deferral threshold over
the observed uncertainty range. A learned method's fit returns the evaluation
data mapped once into its models' input space and the models' hidden
layers; the shared evaluator trains one 3-output network per value of the
cost grid named by the parameter kind, through ``train_classifier`` with the
loss named by the method, and reads every model's inputs from that one
mapping. Adding a method means adding one table row and one fit function
(and its name to config.METHODS).

The plan runs as independent tasks. A seed's ensemble and deferral head
share one task, so the committee goes from one to the other inside the
process that trained it; every other task is one method. Each process that
runs tasks builds the run's data once, and --jobs only decides who runs
them: --jobs 1 in a plain loop in this process, --jobs N at most N at a time
in a process pool. A worker process that dies breaks the pool: every task
not finished by then gets failure rows, and the run still ends.
"""

from __future__ import annotations

import csv as _csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from deferbench import data as data_mod
from deferbench import nnet, uq
from deferbench.atomic import atomic_open
from deferbench.config import RunConfig
from deferbench.errors import ConfigError, FormatError, InputShapeError
from deferbench.losses import LossSpec
from deferbench.metrics import (
    DEFER,
    ConfusionCounts,
    CurvePoint,
    auc,
    balanced_accuracy,
    deferral_curve_point,
    pauc,
    per_class_accuracy,
    threshold_curve,
)
from deferbench.pipelines import (
    DEFER_OUTPUT,
    MANIFEST_NAME,
    POSTERIOR_NAME,
    predict_extended,
    save_ensemble,
    save_single_model,
    train_classifier,
    two_stage_features,
    write_manifest,
)
from deferbench.rng import child_seed
from deferbench.uq import (
    ensemble_predict,
    mc_dropout_predict,
    positive_probability,
    softmax_uncertainty,
)

RESULTS_NAME = "results.csv"
CLASSIFICATION_NAME = "classification.csv"


def _parse_cell(raw: str) -> Optional[float]:
    """None for an empty cell; else a finite float, as a run only writes those."""
    if raw == "":
        return None
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


# (column, attribute, parser) per column of each table, in file order
_RESULTS_TABLE = (
    ("method", "method", str),
    ("condition", "condition", str),
    ("level", "level", int),
    ("seed", "seed", int),
    ("param_kind", "param_kind", str),
    ("param_value", "param_value", _parse_cell),
    ("deferral_rate", "deferral_rate", _parse_cell),
    ("bacc", "bacc", _parse_cell),
    ("auc", "auc", _parse_cell),
    ("pauc", "pauc", _parse_cell),
    ("acc0", "acc0", _parse_cell),
    ("acc1", "acc1", _parse_cell),
    ("frac_pos_deferred", "frac_positives_deferred", _parse_cell),
    ("status", "status", str),
)
_CLASSIFICATION_TABLE = (
    ("method", "method", str),
    ("condition", "condition", str),
    ("level", "level", int),
    ("seed", "seed", int),
    ("auc", "auc", _parse_cell),
    ("pauc", "pauc", _parse_cell),
    ("bacc", "bacc", _parse_cell),
    ("acc0", "acc0", _parse_cell),
    ("acc1", "acc1", _parse_cell),
    ("status", "status", str),
)
RESULTS_COLUMNS = tuple(column for column, _, _ in _RESULTS_TABLE)
CLASSIFICATION_COLUMNS = tuple(column for column, _, _ in _CLASSIFICATION_TABLE)


@dataclass(frozen=True)
class Condition:
    """Evaluation condition: clean test data or one corruption at one level."""

    kind: str  # "id" | "noise" | "blur"
    level: int = 0

    def __post_init__(self):
        if self.kind == "id":
            if self.level != 0:
                raise ConfigError("the in-distribution condition has level 0")
        elif self.kind in ("noise", "blur"):
            if self.level < 1:
                raise ConfigError(f"{self.kind} conditions need level >= 1")
        else:
            raise ConfigError(f"unknown condition kind {self.kind!r}")

    @property
    def label(self) -> str:
        return "id" if self.kind == "id" else f"{self.kind}{self.level}"


def plan_conditions(cfg: RunConfig) -> tuple:
    conditions = [Condition("id")]
    for level in range(1, cfg.corruption.levels + 1):
        conditions.append(Condition("noise", level))
    for level in range(1, cfg.corruption.levels + 1):
        conditions.append(Condition("blur", level))
    return tuple(conditions)


@dataclass
class ClassificationRow:
    """Zero-deferral quality of a method's classifier under one condition."""

    method: str
    condition: str
    level: int
    seed: int
    auc: Optional[float] = None
    pauc: Optional[float] = None
    bacc: Optional[float] = None
    acc0: Optional[float] = None
    acc1: Optional[float] = None
    status: str = "ok"


# ---------------------------------------------------------------------------
# Evaluation data: one split, one corrupted test copy per condition
# ---------------------------------------------------------------------------


@dataclass
class EvalData:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    sample_weights: np.ndarray
    y_test: np.ndarray
    x_tests: dict  # Condition -> features

    @property
    def input_dim(self) -> int:
        return self.x_train.shape[1]


def prepare_dataset(cfg: RunConfig) -> data_mod.Dataset:
    """Generate the run's dataset, deterministically in cfg.

    Its features are float32, the precision of the DFD1 container, so a run
    from the in-memory dataset and a run from its saved copy are bit-identical.
    """
    spec = replace(cfg.data, seed=child_seed(cfg.seed, "data"))
    return data_mod.generate(spec)


def build_eval_data(cfg: RunConfig, data_path=None) -> EvalData:
    """Evaluation arrays from a dataset file, or a freshly generated one.

    The split is drawn once per run; replication seeds vary training only.
    """
    ds = data_mod.read_dataset(data_path) if data_path else prepare_dataset(cfg)
    return split_eval_data(cfg, ds)


def split_eval_data(cfg: RunConfig, ds: data_mod.Dataset) -> EvalData:
    """Split a dataset and corrupt its test portion per planned condition.

    Takes ownership of ds: ``data.partition`` reorders its feature rows in
    place, so x_train, x_val and the clean test condition are views of that
    one buffer, and ds must not be used afterwards. Those views keep the
    dataset's raw float32 rows, which the networks map to model inputs as
    they read them (``nnet.model_inputs``). Corruption happens on the raw
    intensity scale, and each float64 corrupted copy is then mapped in place
    by the same function.
    """
    ds = data_mod.split(ds, child_seed(cfg.seed, "split"))
    train, val, test = data_mod.partition(ds)

    corrupt_seed = child_seed(cfg.seed, "corrupt")
    conditions = plan_conditions(cfg)
    x_tests = dict.fromkeys(conditions)
    for cond in conditions:
        if cond.kind != "id":
            spec = data_mod.CorruptionSpec(
                kind=cond.kind,
                level=cond.level,
                noise_sigmas=cfg.corruption.noise_sigmas,
                blur_sigmas=cfg.corruption.blur_sigmas,
            )
            x = data_mod.corrupt(test, spec, corrupt_seed).features
            x_tests[cond] = nnet.model_inputs(x, out=x)
    x_tests[Condition("id")] = test.features

    return EvalData(
        x_train=train.features,
        y_train=train.labels,
        x_val=val.features,
        y_val=val.labels,
        sample_weights=data_mod.oversample_weights(train.labels),
        y_test=test.labels,
        x_tests=x_tests,
    )


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------


def uq_sweep(scores, uncertainty, labels, steps: int) -> list:
    """Threshold sweep from the largest observed uncertainty down to the smallest.

    Samples at or above the threshold are deferred, so the first point defers
    only the most uncertain ties and the last point defers everything
    (deferral rate exactly 1). Rates are non-decreasing along the sweep. A
    constant uncertainty cannot rank samples: its one threshold defers
    everything, and that single point is flagged "degenerate".
    """
    scores = np.asarray(scores, dtype=np.float64)
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if scores.shape != uncertainty.shape or scores.ndim != 1 or scores.size == 0:
        raise InputShapeError("scores and uncertainty must be equal-length non-empty 1-D")
    if steps < 2:
        raise ConfigError("threshold sweep needs at least 2 steps")
    if not np.all(np.isfinite(uncertainty)):
        raise InputShapeError("uncertainty values must be finite")

    hi = float(uncertainty.max())
    lo = float(uncertainty.min())
    taus = [hi] if hi == lo else np.linspace(hi, lo, steps).tolist()
    predicted = (scores >= 0.5).astype(np.int64)
    points = threshold_curve(predicted, labels, scores, uncertainty, taus)
    for point, tau in zip(points, taus):
        point.param_kind = "threshold"
        point.param_value = tau
        if hi == lo:
            point.status = "degenerate"
        elif point.bacc is None:
            point.status = "absent"
    return points


def classification_row(scores, labels, *, method, condition: Condition, seed) -> ClassificationRow:
    """Plain classifier quality at deferral rate zero."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    decisions = (scores >= 0.5).astype(np.int64)
    counts = ConfusionCounts.from_predictions(labels, decisions)
    acc0, acc1 = per_class_accuracy(counts)
    bacc = balanced_accuracy(counts)
    return ClassificationRow(
        method=method,
        condition=condition.kind,
        level=condition.level,
        seed=seed,
        auc=auc(scores, labels),
        pauc=pauc(scores, labels),
        bacc=bacc,
        acc0=acc0,
        acc1=acc1,
        status="ok" if bacc is not None else "absent",
    )


def _tag(points, *, method, condition: Condition, seed) -> list:
    for p in points:
        p.method = method
        p.condition = condition.kind
        p.level = condition.level
        p.seed = seed
    return points


# ---------------------------------------------------------------------------
# Methods: one table row and one fit function each
# ---------------------------------------------------------------------------


@dataclass
class MethodResult:
    method: str
    seed_index: int
    points: list
    classification: list
    # the ensemble's networks, handed to its seed's deferral head inside the
    # task; cleared before the result leaves the task
    committee: Optional[list] = None
    failure: Optional[str] = None  # "ErrorType: message" of a failed method


def _sgd_for(cfg: RunConfig, seed_index, method, k=0) -> nnet.SgdConfig:
    return replace(cfg.sgd, seed=child_seed(cfg.seed, "train", seed_index, method, k))


def _init_seed(cfg: RunConfig, seed_index, method, k=0) -> int:
    return child_seed(cfg.seed, "init", seed_index, method, k)


def _predict_seed(cfg: RunConfig, seed_index, method) -> int:
    return child_seed(cfg.seed, "predict", seed_index, method)


def _net_config(cfg, data, seed_index, method, k=0, *, dropout=0.0):
    return nnet.NetConfig(
        input_dim=data.input_dim,
        hidden_dims=cfg.hidden_dims,
        output_dim=2,
        dropout_rate=dropout,
        seed=_init_seed(cfg, seed_index, method, k),
    )


def _classifier(cfg, data, seed_index, method, k=0, dropout=0.0):
    """A two-class network trained from scratch, kept at its best validation pAUC."""
    config = _net_config(cfg, data, seed_index, method, k, dropout=dropout)
    return train_classifier(
        data.x_train,
        data.y_train,
        data.x_val,
        data.y_val,
        config,
        _sgd_for(cfg, seed_index, method, k),
        sample_weights=data.sample_weights,
    )


def _saver(sel, manifest):
    """Bundle writer for one selected network."""
    manifest = {"criterion": sel.criterion, "selected_epoch": sel.epoch, **manifest}
    return lambda bundle: save_single_model(bundle, sel.network, manifest)


def _posterior_saver(write, posterior, manifest):
    """Bundle writer for a weight posterior: its container plus a manifest."""

    def save(bundle):
        bundle.mkdir(parents=True, exist_ok=True)
        write(bundle / POSTERIOR_NAME, posterior)
        write_manifest(bundle / MANIFEST_NAME, manifest)

    return save


def _train_members(cfg, data, seed_index):
    """Committee members shared by the ensemble and the deferral head.

    Seed tags are fixed to the committee role, so the members are identical
    whether or not the plain ensemble method is also being run.
    """
    return [
        _classifier(cfg, data, seed_index, "ensemble", k).network for k in range(cfg.uq.n_members)
    ]


# Threshold methods: fit(cfg, data, seed_index, members) returns
# (predict(x) -> (scores, uncertainty), save(bundle_dir), committee); the
# committee is the ensemble's networks, None for every other method.


def _fit_softmax(cfg, data, seed_index, members):
    sel = _classifier(cfg, data, seed_index, "softmax")

    def predict(x):
        scores = positive_probability(sel.network, x)
        return scores, softmax_uncertainty(scores)

    return predict, _saver(sel, {"method": "softmax"}), None


def _fit_ensemble(cfg, data, seed_index, members):
    committee = _train_members(cfg, data, seed_index)
    manifest = {"method": "ensemble", "n_members": cfg.uq.n_members}
    return (
        lambda x: ensemble_predict(committee, x)[:2],
        lambda bundle: save_ensemble(bundle, committee, manifest),
        committee,
    )


def _fit_swag(cfg, data, seed_index, members):
    config = _net_config(cfg, data, seed_index, "swag")
    result = nnet.train(
        nnet.init_network(config),
        data.x_train,
        data.y_train,
        LossSpec("cross_entropy"),
        _sgd_for(cfg, seed_index, "swag"),
        sample_weights=data.sample_weights,
    )
    posterior = uq.swag_collect(result.checkpoints, config, cfg.swag)
    seed = _predict_seed(cfg, seed_index, "swag")
    nets = uq.posterior_networks(posterior, cfg.uq.n_samples, seed)
    manifest = {"method": "swag", "rank": posterior.rank, "collected": posterior.collected}
    return (
        lambda x: ensemble_predict(nets, x)[:2],
        _posterior_saver(uq.save_swag_posterior, posterior, manifest),
        None,
    )


def _fit_mc_dropout(cfg, data, seed_index, members):
    rate = cfg.uq.dropout_rate
    sel = _classifier(cfg, data, seed_index, "mc_dropout", dropout=rate)
    seed = _predict_seed(cfg, seed_index, "mc_dropout")
    return (
        lambda x: mc_dropout_predict(sel.network, x, cfg.uq.n_samples, seed)[:2],
        _saver(sel, {"method": "mc_dropout", "dropout_rate": rate}),
        None,
    )


def _fit_bnn(cfg, data, seed_index, members):
    config = _net_config(cfg, data, seed_index, "bnn")
    posterior = uq.bnn_train(
        nnet.init_network(config),
        data.x_train,
        data.y_train,
        LossSpec("cross_entropy"),
        _sgd_for(cfg, seed_index, "bnn"),
        cfg.bnn,
        sample_weights=data.sample_weights,
    ).posterior
    seed = _predict_seed(cfg, seed_index, "bnn")
    nets = uq.posterior_networks(posterior, cfg.uq.n_samples, seed)
    manifest = {"method": "bnn", "prior_stddev": cfg.bnn.prior_stddev}
    return (
        lambda x: ensemble_predict(nets, x)[:2],
        _posterior_saver(uq.save_bnn_posterior, posterior, manifest),
        None,
    )


# Learned methods: fit(cfg, data, seed_index, members) returns (inputs,
# hidden_dims): data with x_train, x_val and x_tests as the models read them,
# and the hidden layers of every model of the cost grid.


def _fit_one_stage(cfg, data, seed_index, members):
    return data, cfg.hidden_dims


def _fit_two_stage(cfg, data, seed_index, members):
    """Every head of the grid reads the same committee features, so each
    input array is featurized once."""
    if members is None:
        members = _train_members(cfg, data, seed_index)
    inputs = replace(
        data,
        x_train=two_stage_features(members, data.x_train),
        x_val=two_stage_features(members, data.x_val),
        x_tests={cond: two_stage_features(members, x) for cond, x in data.x_tests.items()},
    )
    return inputs, cfg.sweep.head_hidden_dims


# method -> (param_kind, fit). A threshold method's curve parameter is the
# uncertainty threshold. A learned method's name is the kind of its LossSpec
# and its param_kind is that loss's cost field, swept over the config's
# "<param_kind>_grid".
_METHODS = {
    "softmax": ("threshold", _fit_softmax),
    "ensemble": ("threshold", _fit_ensemble),
    "swag": ("threshold", _fit_swag),
    "mc_dropout": ("threshold", _fit_mc_dropout),
    "bnn": ("threshold", _fit_bnn),
    "one_stage": ("alpha", _fit_one_stage),
    "two_stage": ("beta", _fit_two_stage),
}


def _threshold_eval(cfg, data, seed_index, method, predict):
    """Threshold sweep + zero-deferral row per condition.

    predict(features) -> (scores, uncertainty); the uncertainty is swept.
    """
    points, rows = [], []
    for cond in plan_conditions(cfg):
        scores, uncertainty = predict(data.x_tests[cond])
        pts = uq_sweep(scores, uncertainty, data.y_test, cfg.uq.threshold_steps)
        points.extend(_tag(pts, method=method, condition=cond, seed=seed_index))
        rows.append(
            classification_row(scores, data.y_test, method=method, condition=cond, seed=seed_index)
        )
    return points, rows


def _learned_eval(cfg, inputs, hidden_dims, seed_index, method, param_kind, bundle):
    """One retrained model per cost value; each contributes one curve point.

    inputs holds the evaluation data in the models' input space; every model
    is a 3-output network with hidden_dims, trained under the method's loss
    at that cost and kept at its smallest validation loss. The
    zero-deferral classification row comes from the grid model with the
    smallest validation deferral rate (ties broken toward the cost value that
    discourages deferral hardest), read out with its defer output disabled:
    the renormalized class scores of its curve predictions. Each grid model is
    saved as bundle/cost_NN once everything is evaluated.
    """
    models = []
    for gi, value in enumerate(getattr(cfg.sweep, f"{param_kind}_grid")):
        config = nnet.NetConfig(
            inputs.input_dim,
            hidden_dims,
            DEFER_OUTPUT + 1,
            seed=_init_seed(cfg, seed_index, method, gi),
        )
        sel = train_classifier(
            inputs.x_train,
            inputs.y_train,
            inputs.x_val,
            inputs.y_val,
            config,
            _sgd_for(cfg, seed_index, method, gi),
            loss=LossSpec(method, **{param_kind: value}),
            sample_weights=inputs.sample_weights,
        )
        pred_val = predict_extended(sel.network, inputs.x_val)
        models.append((sel, value, float(np.mean(pred_val.decisions == DEFER))))
    # large alpha and small beta both discourage deferral
    sign = -1.0 if param_kind == "alpha" else 1.0
    best = min(models, key=lambda m: (m[2], sign * m[1]))[0]

    points, rows = [], []
    for sel, value, _ in models:
        for cond in plan_conditions(cfg):
            pred = predict_extended(sel.network, inputs.x_tests[cond])
            point = deferral_curve_point(pred.decisions, inputs.y_test, pred.scores)
            point.param_kind = param_kind
            point.param_value = value
            if point.bacc is None:
                point.status = "absent"
            points.extend(_tag([point], method=method, condition=cond, seed=seed_index))
            if sel is best:
                rows.append(
                    classification_row(
                        pred.scores, inputs.y_test, method=method, condition=cond, seed=seed_index
                    )
                )
    if bundle is not None:
        for gi, (sel, value, _) in enumerate(models):
            save_single_model(
                bundle / f"cost_{gi:02d}",
                sel.network,
                {"method": method, param_kind: value, "selected_epoch": sel.epoch},
            )
    return MethodResult(method, seed_index, points, rows)


def run_method(cfg, data, seed_index, method, models_dir=None, members=None) -> MethodResult:
    """Train and evaluate one method for one replication seed.

    members, when given, is the committee the deferral head builds on;
    without it the head trains its own.
    """
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}")
    param_kind, fit = _METHODS[method]
    bundle = None if models_dir is None else models_dir / method
    if param_kind != "threshold":
        inputs, hidden_dims = fit(cfg, data, seed_index, members)
        return _learned_eval(cfg, inputs, hidden_dims, seed_index, method, param_kind, bundle)
    predict, save, committee = fit(cfg, data, seed_index, members)
    if bundle is not None:
        save(bundle)
    points, rows = _threshold_eval(cfg, data, seed_index, method, predict)
    return MethodResult(method, seed_index, points, rows, committee)


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


@dataclass
class PlanResult:
    points: list
    classification: list
    failures: list  # "seed/method: reason" strings


def _seed_dir(out_dir, seed_index) -> Optional[Path]:
    if out_dir is None:
        return None
    path = Path(out_dir) / "models" / f"seed_{seed_index}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _worker(cfg, seed_index, method, out_dir, members, data):
    """One method of a task, on the data its process built."""
    return run_method(cfg, data, seed_index, method, _seed_dir(out_dir, seed_index), members)


def _failure_result(cfg, seed_index, method, exc) -> MethodResult:
    """One marker row per condition in both tables, so every cell is accounted for."""
    status = f"failed:{type(exc).__name__}"
    points, classification = [], []
    for cond in plan_conditions(cfg):
        point = CurvePoint(None, None, None, param_kind=_METHODS[method][0], status=status)
        points.extend(_tag([point], method=method, condition=cond, seed=seed_index))
        classification.append(
            ClassificationRow(method, cond.kind, cond.level, seed_index, status=status)
        )
    failure = f"{type(exc).__name__}: {exc}"
    return MethodResult(method, seed_index, points, classification, failure=failure)


def _plan_tasks(cfg: RunConfig) -> list:
    """(seed, methods) per task, in plan order.

    When both are planned, a seed's ensemble and deferral head form one task
    at the ensemble's place; every other method is a task of its own.
    """
    shared = {"ensemble", "two_stage"} <= set(cfg.methods)
    groups = [
        ("ensemble", "two_stage") if shared and m == "ensemble" else (m,)
        for m in cfg.methods
        if not (shared and m == "two_stage")
    ]
    return [(s, methods) for s in range(cfg.n_seeds) for methods in groups]


@lru_cache(maxsize=1)
def _task_data(cfg: RunConfig, data_path) -> EvalData:
    """The run's evaluation data, built once per process; a failed build is not kept."""
    return build_eval_data(cfg, data_path)


def _run_task(cfg, seed_index, methods, out_dir, data_path) -> list:
    """(result, seconds) per method of one task, run in order in this process.

    The task takes the run's data from _task_data, loading the dataset from
    data_path, when given, instead of generating it; each method is one
    _worker call on it. A method's failure becomes its failure rows and
    leaves the others running; a failed data build raises, which stops a
    serial run and, in a pool, fails every method of the task. The
    ensemble's committee goes to the deferral head as networks and is
    cleared from every result, so nothing returned holds weights; without it
    the head trains its own. seconds is the time of that method alone.
    """
    data = _task_data(cfg, data_path)
    outcomes, committee = [], None
    for method in methods:
        t0 = time.perf_counter()
        try:
            result = _worker(cfg, seed_index, method, out_dir, committee, data)
        except Exception as exc:  # noqa: BLE001 - isolate per-method failures
            result = _failure_result(cfg, seed_index, method, exc)
        if result.committee is not None:
            committee, result.committee = result.committee, None
        outcomes.append((result, time.perf_counter() - t0))
    return outcomes


def run_plan(cfg: RunConfig, out_dir=None, data_path=None) -> PlanResult:
    """Train and evaluate every (seed, method) pair of the plan.

    The plan is a list of independent tasks (see _plan_tasks), each one
    _run_task call with the same arguments at every --jobs. --jobs 1 runs
    them in-process in turn; otherwise a pool of min(jobs, tasks) workers
    gets them in plan order, one more each time one finishes, so none waits
    queued. Each process that runs tasks builds the data once (_task_data),
    so a pool's main process holds none, and the cache is cleared when the
    plan ends. Each finished task prints one stderr line per method with
    that method's own time (a seed's ensemble line waits for its deferral
    head, which shares the task). A task whose future raises, as the running
    ones' do when a worker process dies, gives failure rows to every method
    in it, timed from its submission; once the pool is broken, every later
    task gets them timed 0 s. An interrupt cancels every task not yet
    started and re-raises, so the pool's exit waits at most for the tasks
    its workers run. Results are merged in plan order (seeds outer, methods
    in configuration order), so the output is independent of scheduling.
    """
    plan = [(s, m) for s in range(cfg.n_seeds) for m in cfg.methods]
    tasks = _plan_tasks(cfg)
    results: dict = {}

    def report(s, outcomes):
        for result, seconds in outcomes:
            status = "ok"
            if result.failure is not None:
                status = f"failed ({result.failure.split(':')[0]})"
            print(f"seed {s} {result.method}: {status} in {seconds:.2f} s", file=sys.stderr)
            results[s, result.method] = result

    try:
        if cfg.jobs > 1:
            workers = min(cfg.jobs, len(tasks))
            running: dict = {}  # future -> (seed, methods, submission time)

            def collect_one():
                future = next(as_completed(running))
                s, methods, t0 = running.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:  # noqa: BLE001 - isolate per-task failures
                    elapsed = time.perf_counter() - t0
                    outcomes = [(_failure_result(cfg, s, m, exc), elapsed) for m in methods]
                report(s, outcomes)

            with ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    for s, methods in tasks:
                        if len(running) == workers:
                            collect_one()
                        try:
                            future = pool.submit(_run_task, cfg, s, methods, out_dir, data_path)
                            running[future] = (s, methods, time.perf_counter())
                        except BrokenProcessPool as exc:
                            report(s, [(_failure_result(cfg, s, m, exc), 0.0) for m in methods])
                    while running:
                        collect_one()
                except BaseException:
                    for future in running:
                        future.cancel()
                    raise
        else:
            for s, methods in tasks:
                report(s, _run_task(cfg, s, methods, out_dir, data_path))
    finally:
        _task_data.cache_clear()

    points, classification = [], []
    for key in plan:
        points.extend(results[key].points)
        classification.extend(results[key].classification)
    failed = [
        f"seed {s} {m}: {results[s, m].failure}" for s, m in plan if results[s, m].failure
    ]
    return PlanResult(points=points, classification=classification, failures=failed)


# ---------------------------------------------------------------------------
# CSV emission and ingestion
# ---------------------------------------------------------------------------


def _write_table(path, table, records) -> None:
    # csv writes None as an empty field, and str() of a float is its repr
    attrs = attrgetter(*(attr for _, attr, _ in table))
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow([column for column, _, _ in table])
        writer.writerows(map(attrs, records))


def _read_table(path, table, make, what) -> list:
    """Records from a table file; any damage is a FormatError naming the file.

    Every row's condition and level must form a valid Condition.
    """
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _csv.reader(fh)
            if next(reader, None) != [column for column, _, _ in table]:
                raise FormatError(f"{path}: unexpected {what} header")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(table):
                    raise FormatError(f"{path}: row {lineno} has {len(row)} fields")
                try:
                    fields = {attr: parse(raw) for (_, attr, parse), raw in zip(table, row)}
                    Condition(fields["condition"], fields["level"])
                except (ValueError, ConfigError) as exc:
                    raise FormatError(f"{path}: row {lineno}: {exc}") from exc
                records.append(make(**fields))
    except (UnicodeDecodeError, _csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return records


def write_results_csv(path, points) -> None:
    _write_table(path, _RESULTS_TABLE, points)


def read_results_csv(path) -> list:
    return _read_table(path, _RESULTS_TABLE, CurvePoint, "results")


def write_classification_csv(path, rows) -> None:
    _write_table(path, _CLASSIFICATION_TABLE, rows)


def read_classification_csv(path) -> list:
    return _read_table(path, _CLASSIFICATION_TABLE, ClassificationRow, "classification")
