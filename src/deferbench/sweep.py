"""Deferral-rate sweep protocol.

One run generates an imbalanced dataset, splits it 70/20/10, trains every
requested method per replication seed, and evaluates on the in-distribution
test split plus noise- and blur-corrupted copies of it. Threshold methods
trace their curve by sweeping the deferral threshold over the observed
uncertainty range; learned methods trace theirs with one retrained model per
cost value. Rows land in results.csv; a zero-deferral classification table
lands in classification.csv.
"""

from __future__ import annotations

import csv as _csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
)
from deferbench.pipelines import (
    predict_extended,
    save_ensemble,
    save_single_model,
    train_classifier,
    train_one_stage,
    train_two_stage_head,
    two_stage_features,
    write_manifest,
)
from deferbench.rng import child_seed
from deferbench.uq import (
    decisions_from_scores,
    ensemble_predict,
    mc_dropout_predict,
    positive_probability,
    softmax_uncertainty,
)

RESULTS_NAME = "results.csv"
CLASSIFICATION_NAME = "classification.csv"

RESULTS_COLUMNS = (
    "method",
    "condition",
    "level",
    "seed",
    "param_kind",
    "param_value",
    "deferral_rate",
    "bacc",
    "auc",
    "pauc",
    "acc0",
    "acc1",
    "frac_pos_deferred",
    "status",
)

CLASSIFICATION_COLUMNS = (
    "method",
    "condition",
    "level",
    "seed",
    "auc",
    "pauc",
    "bacc",
    "acc0",
    "acc1",
    "status",
)


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
    auc: Optional[float]
    pauc: Optional[float]
    bacc: Optional[float]
    acc0: Optional[float]
    acc1: Optional[float]
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

    Features pass through the 32-bit container precision so that a run from
    the in-memory dataset and a run from its saved copy are bit-identical.
    """
    spec = replace(cfg.data, seed=child_seed(cfg.seed, "data"))
    ds = data_mod.generate(spec)
    ds.features = ds.features.astype(np.float32).astype(np.float64)
    return ds


def build_eval_data(cfg: RunConfig, data_path=None) -> EvalData:
    """Evaluation arrays from a dataset file, or a freshly generated one.

    The split is drawn once per run; replication seeds vary training only.
    """
    ds = data_mod.read_dataset(data_path) if data_path else prepare_dataset(cfg)
    return split_eval_data(cfg, ds)


def model_inputs(features: np.ndarray) -> np.ndarray:
    """Fixed affine map 2x - 1 applied to every model input.

    Centering the [0,1] intensity scale at zero removes the large common-mode
    component that otherwise makes the output bias, and with it the 0.5-score
    operating point, swing between epochs under resampled minibatches.
    """
    return 2.0 * features - 1.0


def split_eval_data(cfg: RunConfig, ds: data_mod.Dataset) -> EvalData:
    """Split a dataset and corrupt its test portion per planned condition.

    Corruption happens on the raw intensity scale; the model-input map is
    applied after it.
    """
    ds = data_mod.split(ds, child_seed(cfg.seed, "split"))
    train = ds.subset(ds.split_mask(data_mod.TRAIN))
    val = ds.subset(ds.split_mask(data_mod.VAL))
    test = ds.subset(ds.split_mask(data_mod.TEST))

    corrupt_seed = child_seed(cfg.seed, "corrupt")
    x_tests = {}
    for cond in plan_conditions(cfg):
        if cond.kind == "id":
            x_tests[cond] = model_inputs(test.features)
        else:
            spec = data_mod.CorruptionSpec(
                kind=cond.kind,
                level=cond.level,
                noise_sigmas=cfg.corruption.noise_sigmas,
                blur_sigmas=cfg.corruption.blur_sigmas,
            )
            x_tests[cond] = model_inputs(data_mod.corrupt(test, spec, corrupt_seed).features)

    return EvalData(
        x_train=model_inputs(train.features),
        y_train=train.labels,
        x_val=model_inputs(val.features),
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
    constant uncertainty cannot rank samples and collapses to one point
    flagged "degenerate".
    """
    scores = np.asarray(scores, dtype=np.float64)
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if scores.shape != uncertainty.shape or scores.ndim != 1 or scores.size == 0:
        raise InputShapeError("scores and uncertainty must be equal-length non-empty 1-D")
    if steps < 2:
        raise ConfigError("threshold sweep needs at least 2 steps")

    hi = float(uncertainty.max())
    lo = float(uncertainty.min())
    if hi == lo:
        point = deferral_curve_point(
            decisions_from_scores(scores, np.ones_like(scores, dtype=bool)), labels, scores
        )
        point.param_kind = "threshold"
        point.param_value = hi
        point.status = "degenerate"
        return [point]

    if not np.all(np.isfinite(uncertainty)):
        raise InputShapeError("uncertainty values must be finite")
    # the classifier's decisions do not depend on the threshold; each step
    # only marks the samples at or above it as deferred
    predicted = decisions_from_scores(scores, np.zeros(scores.shape, dtype=bool))
    points = []
    for tau in np.linspace(hi, lo, steps):
        decisions = np.where(uncertainty >= tau, DEFER, predicted)
        point = deferral_curve_point(decisions, labels, scores)
        point.param_kind = "threshold"
        point.param_value = float(tau)
        if point.bacc is None:
            point.status = "absent"
        points.append(point)
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
# Per-method runners
# ---------------------------------------------------------------------------


@dataclass
class MethodResult:
    method: str
    seed_index: int
    points: list
    classification: list
    member_params: Optional[list] = None  # (NetConfig, flat params) in committee order


def _net_config(cfg: RunConfig, input_dim, outputs, *, dropout, seed) -> nnet.NetConfig:
    return nnet.NetConfig(
        input_dim=input_dim,
        hidden_dims=cfg.hidden_dims,
        output_dim=outputs,
        dropout_rate=dropout,
        seed=seed,
    )


def _sgd_for(cfg: RunConfig, seed_index, method, k=0) -> nnet.SgdConfig:
    return replace(cfg.sgd, seed=child_seed(cfg.seed, "train", seed_index, method, k))


def _init_seed(cfg: RunConfig, seed_index, method, k=0) -> int:
    return child_seed(cfg.seed, "init", seed_index, method, k)


def _predict_seed(cfg: RunConfig, seed_index, method) -> int:
    return child_seed(cfg.seed, "predict", seed_index, method)


def _sampler_eval(cfg, data, seed_index, method, predict_fn):
    """Threshold sweep + zero-deferral row per condition for a sampling method.

    predict_fn(features) -> (mean scores, variance); the variance is the
    deferral uncertainty.
    """
    points, rows = [], []
    for cond in plan_conditions(cfg):
        scores, variance = predict_fn(data.x_tests[cond])
        pts = uq_sweep(scores, variance, data.y_test, cfg.uq.threshold_steps)
        points.extend(_tag(pts, method=method, condition=cond, seed=seed_index))
        rows.append(
            classification_row(scores, data.y_test, method=method, condition=cond, seed=seed_index)
        )
    return points, rows


def _run_softmax(cfg, data, seed_index, models_dir):
    method = "softmax"
    config = _net_config(
        cfg, data.input_dim, 2, dropout=0.0, seed=_init_seed(cfg, seed_index, method)
    )
    sel = train_classifier(
        data.x_train,
        data.y_train,
        data.x_val,
        data.y_val,
        config,
        _sgd_for(cfg, seed_index, method),
        sample_weights=data.sample_weights,
        select="pauc",
    )
    if models_dir is not None:
        save_single_model(
            models_dir / method,
            sel.network,
            {"method": method, "criterion": sel.criterion, "selected_epoch": sel.epoch},
        )

    points, rows = [], []
    for cond in plan_conditions(cfg):
        scores = positive_probability(sel.network, data.x_tests[cond])
        pts = uq_sweep(scores, softmax_uncertainty(scores), data.y_test, cfg.uq.threshold_steps)
        points.extend(_tag(pts, method=method, condition=cond, seed=seed_index))
        rows.append(
            classification_row(scores, data.y_test, method=method, condition=cond, seed=seed_index)
        )
    return MethodResult(method, seed_index, points, rows)


def _train_members(cfg, data, seed_index):
    """Committee members shared by the ensemble and the deferral head.

    Seed tags are fixed to the committee role, so the members are identical
    whether or not the plain ensemble method is also being run.
    """
    members = []
    for k in range(cfg.uq.n_members):
        config = _net_config(
            cfg, data.input_dim, 2, dropout=0.0, seed=_init_seed(cfg, seed_index, "ensemble", k)
        )
        sel = train_classifier(
            data.x_train,
            data.y_train,
            data.x_val,
            data.y_val,
            config,
            _sgd_for(cfg, seed_index, "ensemble", k),
            sample_weights=data.sample_weights,
            select="pauc",
        )
        members.append(sel.network)
    return members


def _run_ensemble(cfg, data, seed_index, models_dir):
    method = "ensemble"
    members = _train_members(cfg, data, seed_index)
    if models_dir is not None:
        save_ensemble(
            models_dir / method, members, {"method": method, "n_members": cfg.uq.n_members}
        )
    points, rows = _sampler_eval(
        cfg, data, seed_index, method, lambda x: ensemble_predict(members, x)[:2]
    )
    params = [(m.config, nnet.get_params(m)) for m in members]
    return MethodResult(method, seed_index, points, rows, member_params=params)


def _run_swag(cfg, data, seed_index, models_dir):
    method = "swag"
    config = _net_config(
        cfg, data.input_dim, 2, dropout=0.0, seed=_init_seed(cfg, seed_index, method)
    )
    net = nnet.init_network(config)
    result = nnet.train(
        net,
        data.x_train,
        data.y_train,
        LossSpec("cross_entropy"),
        _sgd_for(cfg, seed_index, method),
        sample_weights=data.sample_weights,
    )
    posterior = uq.swag_collect(result.checkpoints, config, cfg.swag)
    if models_dir is not None:
        bundle = models_dir / method
        bundle.mkdir(parents=True, exist_ok=True)
        uq.save_swag_posterior(bundle / "posterior.dfb1", posterior)
        write_manifest(
            bundle / "manifest.txt",
            {"method": method, "rank": posterior.rank, "collected": posterior.collected},
        )
    predict_seed = _predict_seed(cfg, seed_index, method)
    points, rows = _sampler_eval(
        cfg,
        data,
        seed_index,
        method,
        lambda x: uq.swag_predict(posterior, x, cfg.uq.n_samples, predict_seed)[:2],
    )
    return MethodResult(method, seed_index, points, rows)


def _run_mc_dropout(cfg, data, seed_index, models_dir):
    method = "mc_dropout"
    config = _net_config(
        cfg,
        data.input_dim,
        2,
        dropout=cfg.uq.dropout_rate,
        seed=_init_seed(cfg, seed_index, method),
    )
    sel = train_classifier(
        data.x_train,
        data.y_train,
        data.x_val,
        data.y_val,
        config,
        _sgd_for(cfg, seed_index, method),
        sample_weights=data.sample_weights,
        select="pauc",
    )
    if models_dir is not None:
        save_single_model(
            models_dir / method,
            sel.network,
            {
                "method": method,
                "criterion": sel.criterion,
                "selected_epoch": sel.epoch,
                "dropout_rate": cfg.uq.dropout_rate,
            },
        )
    predict_seed = _predict_seed(cfg, seed_index, method)
    points, rows = _sampler_eval(
        cfg,
        data,
        seed_index,
        method,
        lambda x: mc_dropout_predict(sel.network, x, cfg.uq.n_samples, predict_seed)[:2],
    )
    return MethodResult(method, seed_index, points, rows)


def _run_bnn(cfg, data, seed_index, models_dir):
    method = "bnn"
    config = _net_config(
        cfg, data.input_dim, 2, dropout=0.0, seed=_init_seed(cfg, seed_index, method)
    )
    net = nnet.init_network(config)
    result = uq.bnn_train(
        net,
        data.x_train,
        data.y_train,
        LossSpec("cross_entropy"),
        _sgd_for(cfg, seed_index, method),
        cfg.bnn,
        sample_weights=data.sample_weights,
    )
    if models_dir is not None:
        bundle = models_dir / method
        bundle.mkdir(parents=True, exist_ok=True)
        uq.save_bnn_posterior(bundle / "posterior.dfb1", result.posterior)
        write_manifest(
            bundle / "manifest.txt",
            {"method": method, "prior_stddev": cfg.bnn.prior_stddev},
        )
    predict_seed = _predict_seed(cfg, seed_index, method)
    points, rows = _sampler_eval(
        cfg,
        data,
        seed_index,
        method,
        lambda x: uq.bnn_predict(result.posterior, x, cfg.uq.n_samples, predict_seed)[:2],
    )
    return MethodResult(method, seed_index, points, rows)


def _learned_eval(cfg, data, seed_index, method, grid, param_kind, fit, featurize):
    """One retrained model per cost value; each contributes one curve point.

    The zero-deferral classification row comes from the grid model with the
    smallest validation deferral rate (ties broken toward the cost value that
    discourages deferral hardest), read out with its defer output disabled.
    """
    models = []
    for gi, value in enumerate(grid):
        sel = fit(gi, value)
        pred_val = predict_extended(sel.network, featurize(data.x_val))
        val_rate = float(np.mean(pred_val.decisions == DEFER))
        models.append((sel, value, val_rate))

    points = []
    for sel, value, _ in models:
        for cond in plan_conditions(cfg):
            pred = predict_extended(sel.network, featurize(data.x_tests[cond]))
            point = deferral_curve_point(pred.decisions, data.y_test, pred.scores)
            point.param_kind = param_kind
            point.param_value = value
            if point.bacc is None:
                point.status = "absent"
            _tag([point], method=method, condition=cond, seed=seed_index)
            points.append(point)

    # large alpha and small beta both discourage deferral
    sign = -1.0 if param_kind == "alpha" else 1.0
    best = min(models, key=lambda m: (m[2], sign * m[1]))
    rows = []
    for cond in plan_conditions(cfg):
        pred = predict_extended(best[0].network, featurize(data.x_tests[cond]))
        rows.append(
            classification_row(
                pred.scores, data.y_test, method=method, condition=cond, seed=seed_index
            )
        )
    return points, rows, models


def _run_one_stage(cfg, data, seed_index, models_dir):
    method = "one_stage"

    def fit(gi, alpha):
        config = _net_config(
            cfg, data.input_dim, 3, dropout=0.0, seed=_init_seed(cfg, seed_index, method, gi)
        )
        return train_one_stage(
            data.x_train,
            data.y_train,
            data.x_val,
            data.y_val,
            config,
            _sgd_for(cfg, seed_index, method, gi),
            alpha,
            sample_weights=data.sample_weights,
        )

    points, rows, models = _learned_eval(
        cfg, data, seed_index, method, cfg.sweep.alpha_grid, "alpha", fit, lambda x: x
    )
    if models_dir is not None:
        for gi, (sel, value, _) in enumerate(models):
            save_single_model(
                models_dir / method / f"cost_{gi:02d}",
                sel.network,
                {"method": method, "alpha": value, "selected_epoch": sel.epoch},
            )
    return MethodResult(method, seed_index, points, rows)


def _run_two_stage(cfg, data, seed_index, models_dir, members=None):
    method = "two_stage"
    if members is None:
        members = _train_members(cfg, data, seed_index)

    def featurize(x):
        return two_stage_features(members, x)

    def fit(gi, beta):
        head_config = nnet.NetConfig(
            input_dim=len(members) + 2,
            hidden_dims=cfg.sweep.head_hidden_dims,
            output_dim=3,
            dropout_rate=0.0,
            seed=_init_seed(cfg, seed_index, method, gi),
        )
        return train_two_stage_head(
            members,
            data.x_train,
            data.y_train,
            data.x_val,
            data.y_val,
            head_config,
            _sgd_for(cfg, seed_index, method, gi),
            beta,
            sample_weights=data.sample_weights,
        )

    points, rows, models = _learned_eval(
        cfg, data, seed_index, method, cfg.sweep.beta_grid, "beta", fit, featurize
    )
    if models_dir is not None:
        for gi, (sel, value, _) in enumerate(models):
            save_single_model(
                models_dir / method / f"cost_{gi:02d}",
                sel.network,
                {"method": method, "beta": value, "selected_epoch": sel.epoch},
            )
    return MethodResult(method, seed_index, points, rows)


_RUNNERS = {
    "softmax": _run_softmax,
    "ensemble": _run_ensemble,
    "swag": _run_swag,
    "mc_dropout": _run_mc_dropout,
    "bnn": _run_bnn,
    "one_stage": _run_one_stage,
}


def run_method(cfg, data, seed_index, method, models_dir=None, members=None) -> MethodResult:
    if method == "two_stage":
        return _run_two_stage(cfg, data, seed_index, models_dir, members=members)
    if method not in _RUNNERS:
        raise ConfigError(f"unknown method {method!r}")
    return _RUNNERS[method](cfg, data, seed_index, models_dir)


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


def _worker(cfg, seed_index, method, out_dir, member_payload, data_path):
    """Process-pool entry: rebuilds the (deterministic) data in the worker."""
    data = build_eval_data(cfg, data_path)
    members = None
    if member_payload is not None:
        members = [nnet.with_params(nnet.init_network(c), p) for c, p in member_payload]
    return run_method(cfg, data, seed_index, method, _seed_dir(out_dir, seed_index), members)


def _failure_result(cfg, seed_index, method, exc) -> MethodResult:
    """One marker row per condition in both tables, so every cell is accounted for."""
    status = f"failed:{type(exc).__name__}"
    param_kind = {"one_stage": "alpha", "two_stage": "beta"}.get(method, "threshold")
    points, classification = [], []
    for cond in plan_conditions(cfg):
        point = CurvePoint(
            deferral_rate=None, bacc=None, frac_positives_deferred=None, status=status
        )
        point.param_kind = param_kind
        _tag([point], method=method, condition=cond, seed=seed_index)
        points.append(point)
        classification.append(
            ClassificationRow(
                method=method,
                condition=cond.kind,
                level=cond.level,
                seed=seed_index,
                auc=None,
                pauc=None,
                bacc=None,
                acc0=None,
                acc1=None,
                status=status,
            )
        )
    return MethodResult(method, seed_index, points, classification)


def run_plan(
    cfg: RunConfig, out_dir=None, data: Optional[EvalData] = None, data_path=None
) -> PlanResult:
    """Train and evaluate every (seed, method) pair of the plan.

    Results are merged in plan order (seeds outer, methods in configuration
    order), so the output is independent of scheduling. The committee backing
    the deferral head is trained once per seed and shared with the ensemble
    method when both are requested. data_path, when given, names the dataset
    file that parallel workers should reload instead of regenerating.
    """
    if data is None:
        data = build_eval_data(cfg, data_path)
    plan = [(s, m) for s in range(cfg.n_seeds) for m in cfg.methods]
    results: dict = {}
    failures = []

    def record_failure(seed_index, method, exc):
        failures.append(f"seed {seed_index} {method}: {type(exc).__name__}: {exc}")
        results[(seed_index, method)] = _failure_result(cfg, seed_index, method, exc)

    if cfg.jobs > 1:
        first = [(s, m) for s, m in plan if m != "two_stage"]
        second = [(s, m) for s, m in plan if m == "two_stage"]
        member_payloads: dict = {}
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {
                (s, m): pool.submit(_worker, cfg, s, m, out_dir, None, data_path)
                for s, m in first
            }
            for key, fut in futures.items():
                try:
                    result = fut.result()
                    results[key] = result
                    if result.member_params is not None:
                        member_payloads[key[0]] = result.member_params
                except Exception as exc:  # noqa: BLE001 - isolate per-task failures
                    record_failure(*key, exc)
            futures = {
                (s, m): pool.submit(
                    _worker, cfg, s, m, out_dir, member_payloads.get(s), data_path
                )
                for s, m in second
            }
            for key, fut in futures.items():
                try:
                    results[key] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    record_failure(*key, exc)
    else:
        members_by_seed: dict = {}
        ordered = [(s, m) for s, m in plan if m != "two_stage"] + [
            (s, m) for s, m in plan if m == "two_stage"
        ]
        for s, m in ordered:
            try:
                result = run_method(
                    cfg, data, s, m, _seed_dir(out_dir, s), members=members_by_seed.get(s)
                )
                results[(s, m)] = result
                if result.member_params is not None:
                    members_by_seed[s] = [
                        nnet.with_params(nnet.init_network(c), p) for c, p in result.member_params
                    ]
            except Exception as exc:  # noqa: BLE001
                record_failure(s, m, exc)

    points, classification = [], []
    for key in plan:
        result = results[key]
        points.extend(result.points)
        classification.extend(result.classification)
    return PlanResult(points=points, classification=classification, failures=failures)


# ---------------------------------------------------------------------------
# CSV emission and ingestion
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(path, points) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for p in points:
            writer.writerow(
                [
                    p.method,
                    p.condition,
                    p.level,
                    p.seed,
                    p.param_kind,
                    _cell(p.param_value),
                    _cell(p.deferral_rate),
                    _cell(p.bacc),
                    _cell(p.auc),
                    _cell(p.pauc),
                    _cell(p.acc0),
                    _cell(p.acc1),
                    _cell(p.frac_positives_deferred),
                    p.status,
                ]
            )


def _parse_cell(raw: str) -> Optional[float]:
    return None if raw == "" else float(raw)


def read_results_csv(path) -> list:
    points = []
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header != list(RESULTS_COLUMNS):
            raise FormatError(f"{path}: unexpected results header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_COLUMNS):
                raise FormatError(f"{path}: row {lineno} has {len(row)} fields")
            try:
                point = CurvePoint(
                    deferral_rate=_parse_cell(row[6]),
                    bacc=_parse_cell(row[7]),
                    frac_positives_deferred=_parse_cell(row[12]),
                    auc=_parse_cell(row[8]),
                    pauc=_parse_cell(row[9]),
                    acc0=_parse_cell(row[10]),
                    acc1=_parse_cell(row[11]),
                    method=row[0],
                    condition=row[1],
                    level=int(row[2]),
                    seed=int(row[3]),
                    param_kind=row[4],
                    param_value=_parse_cell(row[5]),
                    status=row[13],
                )
            except ValueError as exc:
                raise FormatError(f"{path}: row {lineno}: {exc}") from exc
            points.append(point)
    return points


def write_classification_csv(path, rows) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(CLASSIFICATION_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.method,
                    r.condition,
                    r.level,
                    r.seed,
                    _cell(r.auc),
                    _cell(r.pauc),
                    _cell(r.bacc),
                    _cell(r.acc0),
                    _cell(r.acc1),
                    r.status,
                ]
            )


def read_classification_csv(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header != list(CLASSIFICATION_COLUMNS):
            raise FormatError(f"{path}: unexpected classification header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CLASSIFICATION_COLUMNS):
                raise FormatError(f"{path}: row {lineno} has {len(row)} fields")
            rows.append(
                ClassificationRow(
                    method=row[0],
                    condition=row[1],
                    level=int(row[2]),
                    seed=int(row[3]),
                    auc=_parse_cell(row[4]),
                    pauc=_parse_cell(row[5]),
                    bacc=_parse_cell(row[6]),
                    acc0=_parse_cell(row[7]),
                    acc1=_parse_cell(row[8]),
                    status=row[9],
                )
            )
    return rows
