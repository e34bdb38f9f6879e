"""Acceptance gate: nine behavioral criteria, each printing one PASS/FAIL line.

Criteria 1-5 are analytic or oracle checks and run in seconds. Criterion 6
runs a scoped in-distribution benchmark (three threshold methods, five
seeds). Criterion 7 runs the full default benchmark through the command line
and shares its artifacts with criterion 9. Criterion 8 reruns a reduced
configuration twice and compares bytes. Criteria 6, 7 and 9 are marked
``slow``: ``-m "not slow"`` runs the rest.
"""

import hashlib
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from deferbench import cli, data as data_mod, nnet, sweep, uq
from deferbench.config import CorruptionSettings, RunConfig
from deferbench.losses import LossSpec
from deferbench.metrics import ConfusionCounts, auc, balanced_accuracy, pauc

SVG_NS = "{http://www.w3.org/2000/svg}"


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# 1. surrogate losses collapse to cross-entropy at the boundary costs
# ---------------------------------------------------------------------------


def test_acceptance_1_loss_identities(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    logits = rng.standard_normal((1000, 3)) * 3.0
    targets = rng.integers(0, 2, 1000)

    ce = LossSpec("cross_entropy").loss(logits, targets)
    gap_one = float(np.max(np.abs(LossSpec("one_stage", alpha=1.0).loss(logits, targets) - ce)))
    gap_two = float(np.max(np.abs(LossSpec("two_stage", beta=0.0).loss(logits, targets) - ce)))
    elapsed = time.perf_counter() - start

    ok = gap_one < 1e-12 and gap_two < 1e-12 and elapsed < 1.0
    _report(
        capsys, 1,
        ok,
        f"alpha=1 gap {gap_one:.2e}, beta=0 gap {gap_two:.2e} "
        f"(tol 1e-12, 1000 rows, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 2. analytic gradients match central differences
# ---------------------------------------------------------------------------


def _fd_on_logits(loss: LossSpec, targets, rng) -> float:
    logits = rng.standard_normal((6, 3)) * 2.0
    analytic = loss.grad(logits, targets)
    h = 1e-6
    numeric = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up, down = logits.copy(), logits.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric[i, j] = (loss.loss(up, targets)[i] - loss.loss(down, targets)[i]) / (2.0 * h)
    return float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))


def _relu_margin(net, x) -> float:
    h = x
    worst = np.inf
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ W + b
        worst = min(worst, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return worst


def _fd_through_network(loss: LossSpec) -> float:
    config = nnet.NetConfig(input_dim=3, hidden_dims=(4, 3), output_dim=3, seed=69)
    net = nnet.init_network(config)
    rng = np.random.default_rng(73)
    x = rng.standard_normal((16, 3))
    y = rng.integers(0, 2, 16)
    # central differences need every ReLU kink clear of the probe points
    assert _relu_margin(net, x) > 1e-3
    analytic = nnet.backward(net, x, y, loss)

    params = nnet.get_params(net)
    probe = net.copy()
    h = 1e-6
    numeric = np.zeros_like(params)
    for i in range(params.shape[0]):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        nnet.set_params(probe, up)
        f_up = nnet.mean_loss(probe, x, y, loss)
        nnet.set_params(probe, down)
        f_down = nnet.mean_loss(probe, x, y, loss)
        numeric[i] = (f_up - f_down) / (2.0 * h)
    return float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))


def test_acceptance_2_gradient_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    y = np.array([0, 1, 0, 1, 0, 1])
    logit_errors = {
        "ce": _fd_on_logits(LossSpec("cross_entropy"), y, rng),
        "one_stage": _fd_on_logits(LossSpec("one_stage", alpha=0.7), y, rng),
        "two_stage": _fd_on_logits(LossSpec("two_stage", beta=1.3), y, rng),
    }
    net_errors = {
        "ce": _fd_through_network(LossSpec("cross_entropy")),
        "one_stage": _fd_through_network(LossSpec("one_stage", alpha=0.7)),
        "two_stage": _fd_through_network(LossSpec("two_stage", beta=1.3)),
    }
    elapsed = time.perf_counter() - start

    worst_logit = max(logit_errors.values())
    worst_net = max(net_errors.values())
    ok = worst_logit < 1e-6 and worst_net < 1e-4 and elapsed < 10.0
    _report(
        capsys, 2,
        ok,
        f"logit-space rel err {worst_logit:.2e} (tol 1e-6), "
        f"through-network rel err {worst_net:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. frozen hand values
# ---------------------------------------------------------------------------


def test_acceptance_3_hand_values(capsys):
    zeros = np.zeros((1, 3))
    checks = {
        "one_stage(0,0,0;a=.5)": (
            abs(float(LossSpec("one_stage", alpha=0.5).loss(zeros, [0])[0]) - 0.7520) < 1e-4
        ),
        "two_stage(0,0,0;b=1)": (
            abs(float(LossSpec("two_stage", beta=1.0).loss(zeros, [0])[0]) - 2.0 * np.log(3.0))
            < 1e-9
        ),
        "auc=0.75": (
            auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75
        ),
        "pauc(ties)=0.05": (
            abs(pauc(np.full(10, 0.5), np.array([0, 1] * 5)) - 0.05) < 1e-9
        ),
        "bacc=0.75": (
            balanced_accuracy(ConfusionCounts(tp=1, fp=0, tn=2, fn=1)) == 0.75
        ),
    }
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        capsys, 3,
        not failed,
        "all five hand values hold" if not failed else f"failed: {', '.join(failed)}",
    )


# ---------------------------------------------------------------------------
# 4. an oracle uncertainty defers exactly the mistakes first
# ---------------------------------------------------------------------------


def test_acceptance_4_oracle_deferral(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    n, steps = 400, 200
    labels = rng.integers(0, 2, n)
    scores = np.where(labels == 1, 0.9, 0.1)
    wrong = rng.random(n) < 0.15
    scores[wrong] = 1.0 - scores[wrong]
    uncertainty = wrong.astype(np.float64)

    points = sweep.uq_sweep(scores, uncertainty, labels, steps)
    perfect = [p for p in points if p.bacc == 1.0]
    error_mass = float(np.mean(wrong))
    elapsed = time.perf_counter() - start

    ok = bool(perfect) and abs(perfect[0].deferral_rate - error_mass) <= 1.0 / steps
    rate = perfect[0].deferral_rate if perfect else float("nan")
    ok = ok and elapsed < 5.0
    _report(
        capsys, 4,
        ok,
        f"bAcc hits 1.0 at rate {rate:.4f} vs error mass {error_mass:.4f} "
        f"(tol {1.0 / steps:.4f}, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 5. Monte-Carlo posterior behavior matches the closed forms
# ---------------------------------------------------------------------------


def test_acceptance_5_posterior_checks(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    k = 4
    mean = rng.standard_normal(3)
    variance = rng.random(3) * 0.3 + 0.1
    deviations = 0.6 * rng.standard_normal((3, k))
    posterior = uq.SwagPosterior(
        net_config=nnet.NetConfig(input_dim=1, hidden_dims=(1,), output_dim=2, seed=0),
        mean=mean,
        second_moment=variance + mean**2,
        deviations=deviations,
        collected=k,
    )
    target = 0.5 * (np.diag(variance) + deviations @ deviations.T / (k - 1))
    draws = np.stack([uq.swag_sample(posterior, rng) for _ in range(10_000)])
    empirical = np.cov(draws, rowvar=False)
    cov_err = float(
        np.linalg.norm(empirical - target) / np.linalg.norm(target)
    )

    def kl_of(mean_v, log_std):
        # the KL penalty exactly as bnn_train computes it at every step
        log_std = np.array([log_std])
        return float(uq._kl_to_prior(np.array([mean_v]), log_std, np.exp(log_std), 1.0))

    kl_checks = (
        abs(kl_of(0.0, 0.0)) < 1e-12
        and abs(kl_of(1.0, 0.0) - 0.5) < 1e-12
        and abs(kl_of(0.0, np.log(0.5)) - (np.log(2.0) - 0.375)) < 1e-12
    )
    elapsed = time.perf_counter() - start

    ok = cov_err < 0.05 and kl_checks and elapsed < 30.0
    _report(
        capsys, 5,
        ok,
        f"sample covariance rel err {cov_err:.3f} over 10^4 draws (tol 0.05), "
        f"KL spot values {'hold' if kl_checks else 'broken'}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. deferral raises in-distribution balanced accuracy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def id_benchmark():
    cfg = replace(
        RunConfig(),
        methods=("softmax", "ensemble", "swag"),
        corruption=CorruptionSettings(levels=0),
    )
    start = time.perf_counter()
    result = sweep.run_plan(cfg)
    return cfg, result, time.perf_counter() - start


def _id_curve(points, method, seed):
    pts = [
        p
        for p in points
        if p.method == method and p.condition == "id" and p.seed == seed
        and p.deferral_rate is not None and p.bacc is not None
    ]
    pts.sort(key=lambda p: p.deferral_rate)
    return pts


def _bacc_at(pts, rate):
    return float(
        np.interp(rate, [p.deferral_rate for p in pts], [p.bacc for p in pts])
    )


@pytest.mark.slow
def test_acceptance_6_id_deferral_gain(capsys, id_benchmark):
    cfg, result, elapsed = id_benchmark
    gains = {}
    for method in cfg.methods:
        zero = np.mean(
            [r.bacc for r in result.classification if r.method == method]
        )
        at_20 = np.mean(
            [_bacc_at(_id_curve(result.points, method, s), 0.2) for s in range(cfg.n_seeds)]
        )
        gains[method] = float(at_20 - zero)

    ok = not result.failures and all(g >= 0.01 for g in gains.values()) and elapsed < 300.0
    detail = ", ".join(f"{m} {g:+.3f}" for m, g in gains.items())
    _report(
        capsys, 6,
        ok,
        f"bAcc@20% - bAcc@0% over 5 seeds: {detail} (need >= +0.01 each, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 7. full default benchmark: corruption hurts, pipeline completes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "default_run"
    start = time.perf_counter()
    rc = cli.main(["run", "--out", str(out)])
    elapsed = time.perf_counter() - start
    return out, rc, elapsed


@pytest.mark.slow
def test_acceptance_7_full_benchmark_and_corruption_drop(capsys, full_run):
    out, rc, elapsed = full_run
    cfg = RunConfig()
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if elapsed >= 1800.0:
        problems.append(f"runtime {elapsed:.0f}s")

    points = sweep.read_results_csv(out / "results.csv")
    rows = sweep.read_classification_csv(out / "classification.csv")

    coverage = {(p.method, p.condition, p.level) for p in points}
    if len({m for m, _, _ in coverage}) != 7 or len({(c, l) for _, c, l in coverage}) != 11:
        problems.append("missing method or condition coverage")
    if {p.seed for p in points} != set(range(5)):
        problems.append("missing seeds")

    drops = {}
    for method in cfg.methods:
        id_bacc = np.mean(
            [r.bacc for r in rows if r.method == method and r.condition == "id"]
        )
        noise3 = np.mean(
            [
                r.bacc
                for r in rows
                if r.method == method and r.condition == "noise" and r.level == 3
            ]
        )
        drops[method] = float(id_bacc - noise3)
    weak = [m for m, d in drops.items() if d < 0.02]
    if weak:
        problems.append(f"noise-3 drop < 0.02 for {', '.join(weak)}")

    svg_names = sorted(p.name for p in (out / "report").glob("*.svg"))
    if len(svg_names) != 11:
        problems.append(f"{len(svg_names)} SVG files, expected 11")
    for name in svg_names:
        root = ET.fromstring((out / "report" / name).read_text())
        if len([g for g in root.iter(f"{SVG_NS}g") if g.get("data-panel")]) != 2:
            problems.append(f"{name}: bad panel structure")

    # direction of learned-vs-threshold comparison is reported, not asserted;
    # np.interp clamps beyond a curve's last rate, so only curves with points
    # on both sides of 20%, at most 0.1 apart, are averaged
    def family_bacc_at_20(methods):
        vals, n = [], 0
        for method in methods:
            for seed in range(cfg.n_seeds):
                pts = _id_curve(points, method, seed)
                n += 1
                below = [p.deferral_rate for p in pts if p.deferral_rate <= 0.2]
                above = [p.deferral_rate for p in pts if p.deferral_rate >= 0.2]
                if below and above and min(above) - max(below) <= 0.1:
                    vals.append(_bacc_at(pts, 0.2))
        mean = f"{np.mean(vals):.3f}" if vals else "uncovered"
        return f"{mean} ({len(vals)} of {n} seed curves)"

    learned = family_bacc_at_20(("one_stage", "two_stage"))
    threshold = family_bacc_at_20(("softmax", "ensemble", "swag", "mc_dropout", "bnn"))
    drop_text = ", ".join(f"{m} {d:+.3f}" for m, d in drops.items())
    _report(
        capsys, 7,
        not problems,
        (
            f"noise-3 bAcc drops: {drop_text} (need >= +0.02); "
            f"observed ID bAcc@20%: learned {learned} vs threshold {threshold} "
            f"(reported only); {len(points)} rows, {len(svg_names)} SVGs, {elapsed:.0f}s"
        )
        if not problems
        else "; ".join(problems),
    )


# ---------------------------------------------------------------------------
# 8. rerunning an identical configuration reproduces the bytes
# ---------------------------------------------------------------------------


def test_acceptance_8_run_determinism(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmethods = softmax,one_stage\nn_seeds = 2\n\n"
        "[data]\nn_samples = 600\npositive_fraction = 0.05\nspatial_shape = 8,8,1\n\n"
        "[net]\nhidden_dims = 8\n\n"
        "[sgd]\nlearning_rate = 0.05\nweight_decay = 0.0\nepochs = 3\n\n"
        "[uq]\nn_members = 2\nn_samples = 3\nthreshold_steps = 5\n\n"
        "[sweep]\nalpha_grid = 1.0,0.8\nbeta_grid = 1.0,0.5\nhead_hidden_dims = 4\n\n"
        "[corruption]\nlevels = 1\n"
    )
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["run", "--config", str(ini), "--out", str(out)])
        assert rc == 0
        hashes.append(
            {f: sha(out / f) for f in ("results.csv", "classification.csv", "dataset.dfd1")}
        )
    ok = hashes[0] == hashes[1]
    _report(
        capsys, 8,
        ok,
        "two runs byte-identical (results, classification, dataset)"
        if ok
        else f"byte mismatch: {hashes[0]} vs {hashes[1]}",
    )


# ---------------------------------------------------------------------------
# 9. sweep mechanics on the full run's artifacts
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_acceptance_9_sweep_mechanics(capsys, full_run):
    out, _, _ = full_run
    points = sweep.read_results_csv(out / "results.csv")
    problems = []

    curves: dict = {}
    for p in points:
        if p.param_kind == "threshold" and not p.status.startswith("failed"):
            curves.setdefault((p.method, p.seed, p.condition, p.level), []).append(p)
    for key, pts in curves.items():
        rates = [p.deferral_rate for p in pts]  # emission order, threshold descending
        if any(b < a for a, b in zip(rates, rates[1:])):
            problems.append(f"non-monotone rates for {key}")
            break

    full_deferral = [p for p in points if p.deferral_rate == 1.0]
    if not full_deferral:
        problems.append("no full-deferral points found")
    bad = [
        p
        for p in full_deferral
        if p.bacc is not None or p.status not in ("absent", "degenerate")
    ]
    if bad:
        problems.append(f"{len(bad)} full-deferral rows carry a bAcc value")

    ds = data_mod.read_dataset(out / "dataset.dfd1")
    identical = True
    for kind in ("noise", "blur"):
        spec = data_mod.CorruptionSpec(kind=kind, level=0)
        copy = data_mod.corrupt(ds, spec, seed=123)
        identical = identical and copy.features.tobytes() == ds.features.tobytes()
        identical = identical and copy.labels.tobytes() == ds.labels.tobytes()
    if not identical:
        problems.append("level-0 corruption is not byte identity")

    _report(
        capsys, 9,
        not problems,
        (
            f"{len(curves)} threshold curves non-decreasing; "
            f"{len(full_deferral)} full-deferral rows all absent; "
            "level-0 corruption byte-identical"
        )
        if not problems
        else "; ".join(problems),
    )
