"""Losses: hand-derived values, analytic-vs-numeric gradients, reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deferbench.errors import ConfigError, LabelError, NumericError
from deferbench.losses import LossSpec, softmax

LOG2 = 0.6931471805599453
LOG3 = 1.0986122886681098


def logits_batch(rows=64, width=3, seed=0, scale=4.0):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((rows, width))
    targets = rng.integers(0, width - 1, size=rows)
    return logits, targets


# ---------------------------------------------------------------------------
# hand values
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    assert LossSpec("cross_entropy").loss([0.0, 0.0], 0) == pytest.approx(LOG2, abs=1e-12)
    assert LossSpec("cross_entropy").loss([0.0, 0.0, 0.0], 2) == pytest.approx(LOG3, abs=1e-12)


def test_cross_entropy_confident_correct_is_tiny():
    # -log softmax([10, -10])[0] = log(1 + e^-20)
    value = LossSpec("cross_entropy").loss([10.0, -10.0], 0)
    assert abs(value - np.log1p(np.exp(-20.0))) < 1e-12


def test_one_stage_uniform_logits_half_alpha():
    # p = 1/3 each: -0.5*log(1/3) - 0.5*log(2/3) = 0.5*(log 3 + log 1.5)
    value = LossSpec("one_stage", alpha=0.5).loss([0.0, 0.0, 0.0], 0)
    assert value == pytest.approx(0.7520386983881371, abs=1e-12)


def test_two_stage_uniform_logits_unit_beta():
    value = LossSpec("two_stage", beta=1.0).loss([0.0, 0.0, 0.0], 0)
    assert value == pytest.approx(2.0 * LOG3, abs=1e-12)


def test_two_stage_gradient_uniform_logits():
    # (1+b)/3 - onehot contributions at p = 1/3
    g = LossSpec("two_stage", beta=1.0).grad([0.0, 0.0, 0.0], 0)
    np.testing.assert_allclose(g, [2.0 / 3.0 - 1.0, 2.0 / 3.0, 2.0 / 3.0 - 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# reductions to cross-entropy
# ---------------------------------------------------------------------------


def test_one_stage_alpha_one_is_cross_entropy():
    logits, targets = logits_batch(rows=1000, seed=1)
    np.testing.assert_allclose(
        LossSpec("one_stage", alpha=1.0).loss(logits, targets),
        LossSpec("cross_entropy").loss(logits, targets),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        LossSpec("one_stage", alpha=1.0).grad(logits, targets),
        LossSpec("cross_entropy").grad(logits, targets),
        atol=1e-12,
    )


def test_two_stage_beta_zero_is_cross_entropy():
    logits, targets = logits_batch(rows=1000, seed=2)
    np.testing.assert_allclose(
        LossSpec("two_stage", beta=0.0).loss(logits, targets),
        LossSpec("cross_entropy").loss(logits, targets),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        LossSpec("two_stage", beta=0.0).grad(logits, targets),
        LossSpec("cross_entropy").grad(logits, targets),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# gradients against central differences
# ---------------------------------------------------------------------------


def central_difference(fn, logits, h=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (fn(up)[i] - fn(down)[i]) / (2.0 * h)
    return grad


@pytest.mark.parametrize(
    "spec",
    [LossSpec("cross_entropy"), LossSpec("one_stage", alpha=0.7), LossSpec("two_stage", beta=1.3)],
    ids=["cross_entropy", "one_stage", "two_stage"],
)
def test_gradient_matches_finite_differences(spec):
    logits, targets = logits_batch(rows=8, seed=3, scale=2.0)
    analytic = spec.grad(logits, targets)
    numeric = central_difference(lambda z: spec.loss(z, targets), logits)
    norm_rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert norm_rel < 1e-6
    # elementwise with a floor: tiny entries only see FD truncation noise
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3)
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

finite_logits = hnp.arrays(
    np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(3, 5)),
    elements=st.floats(-30.0, 30.0),
)


@given(finite_logits, st.floats(0.05, 1.0), st.floats(0.0, 5.0), st.floats(-40.0, 40.0))
@settings(max_examples=80, deadline=None)
def test_losses_invariant_under_logit_shift(logits, alpha, beta, shift):
    targets = np.zeros(logits.shape[0], dtype=np.int64)
    shifted = logits + shift
    for fn in (
        lambda z: LossSpec("cross_entropy").loss(z, targets),
        lambda z: LossSpec("one_stage", alpha=alpha).loss(z, targets),
        lambda z: LossSpec("two_stage", beta=beta).loss(z, targets),
    ):
        np.testing.assert_allclose(fn(shifted), fn(logits), atol=1e-9)


@given(finite_logits, st.floats(0.05, 1.0), st.floats(0.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_losses_non_negative_and_grads_sum_to_zero(logits, alpha, beta):
    targets = np.zeros(logits.shape[0], dtype=np.int64)
    # non-negative up to log-sum-exp cancellation noise at large logit gaps
    assert np.all(LossSpec("cross_entropy").loss(logits, targets) >= -1e-12)
    assert np.all(LossSpec("one_stage", alpha=alpha).loss(logits, targets) >= -1e-12)
    assert np.all(LossSpec("two_stage", beta=beta).loss(logits, targets) >= -1e-12)
    # losses only see logit differences, so gradient rows live on the simplex tangent
    for g in (
        LossSpec("cross_entropy").grad(logits, targets),
        LossSpec("one_stage", alpha=alpha).grad(logits, targets),
        LossSpec("two_stage", beta=beta).grad(logits, targets),
    ):
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


@given(finite_logits)
@settings(max_examples=80, deadline=None)
def test_softmax_rows_are_distributions(logits):
    p = softmax(logits)
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_one_stage_interpolates_between_terms():
    # the surrogate is linear in alpha between its two log terms
    logits, targets = logits_batch(rows=32, seed=4)
    at_full = LossSpec("one_stage", alpha=1.0).loss(logits, targets)
    mid = LossSpec("one_stage", alpha=0.5).loss(logits, targets)
    lo = LossSpec("one_stage", alpha=0.25).loss(logits, targets)
    # the pair term: recover it from two evaluations and check a third
    pair = 2.0 * mid - at_full
    np.testing.assert_allclose(lo, 0.25 * at_full + 0.75 * pair, atol=1e-10)


def test_large_logits_stay_finite():
    logits = np.array([[700.0, -700.0, 0.0], [-700.0, 700.0, 700.0]])
    targets = np.array([0, 1])
    for value in (
        LossSpec("cross_entropy").loss(logits, targets),
        LossSpec("one_stage", alpha=0.5).loss(logits, targets),
        LossSpec("two_stage", beta=2.0).loss(logits, targets),
    ):
        assert np.all(np.isfinite(value))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
def test_alpha_range_rejected(alpha):
    with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\]"):
        LossSpec("one_stage", alpha=alpha)


def test_beta_range_rejected():
    for beta in (-0.5, -1.0):
        with pytest.raises(ConfigError, match="beta must be non-negative"):
            LossSpec("two_stage", beta=beta)


def test_deferral_class_is_not_a_valid_target():
    # the surrogates supervise real classes only; plain CE accepts the full space
    with pytest.raises(LabelError):
        LossSpec("one_stage", alpha=0.5).loss([0.0, 0.0, 0.0], 2)
    with pytest.raises(LabelError):
        LossSpec("two_stage", beta=1.0).loss([0.0, 0.0, 0.0], 2)
    assert LossSpec("cross_entropy").loss([0.0, 0.0, 0.0], 2) == pytest.approx(LOG3, abs=1e-12)


def test_non_finite_logits_rejected():
    with pytest.raises(NumericError):
        LossSpec("cross_entropy").loss([np.nan, 0.0], 0)
    with pytest.raises(NumericError):
        softmax([np.inf, 0.0])


def test_loss_spec_dispatch():
    logits, targets = logits_batch(rows=16, seed=5)
    spec = LossSpec("one_stage", alpha=0.8)
    np.testing.assert_array_equal(spec.loss(logits, targets), reference_loss(spec, logits, targets))
    np.testing.assert_array_equal(spec.grad(logits, targets), reference_grad(spec, logits, targets))
    with pytest.raises(ConfigError):
        LossSpec("focal")
    with pytest.raises(ConfigError):
        LossSpec("one_stage", alpha=0.0)
    with pytest.raises(ConfigError):
        LossSpec("two_stage", beta=-1.0)


# ---------------------------------------------------------------------------
# fused kernels: the trainers' one-softmax (loss, grad) step against the
# separate formulas it replaced, kept here as the reference
# ---------------------------------------------------------------------------


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_loss(spec, logits, targets):
    rows, d = np.arange(logits.shape[0]), logits.shape[1] - 1
    if spec.kind == "cross_entropy":
        return -_reference_log_softmax(logits)[rows, targets]
    if spec.kind == "two_stage":
        logp = _reference_log_softmax(logits)
        return -logp[rows, targets] - spec.beta * logp[:, d]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    z_y = shifted[rows, targets]
    pair_lse = np.logaddexp(z_y, shifted[:, d])
    return -spec.alpha * (z_y - lse) - (1.0 - spec.alpha) * (pair_lse - lse)


def reference_grad(spec, logits, targets):
    rows, d = np.arange(logits.shape[0]), logits.shape[1] - 1
    if spec.kind == "cross_entropy":
        g = _reference_softmax(logits)
        g[rows, targets] -= 1.0
        return g
    if spec.kind == "two_stage":
        g = (1.0 + spec.beta) * _reference_softmax(logits)
        g[rows, targets] -= 1.0
        g[:, d] -= spec.beta
        return g
    g = _reference_softmax(logits)
    g[rows, targets] -= spec.alpha
    z_y, z_d = logits[rows, targets], logits[:, d]
    m = np.maximum(z_y, z_d)
    e_y, e_d = np.exp(z_y - m), np.exp(z_d - m)
    denom = e_y + e_d
    g[rows, targets] -= (1.0 - spec.alpha) * e_y / denom
    g[rows, d] -= (1.0 - spec.alpha) * e_d / denom
    return g


wide_logits = hnp.arrays(
    np.float64,
    shape=st.tuples(st.integers(1, 40), st.integers(2, 5)),
    elements=st.floats(-700.0, 700.0),
)


@given(wide_logits, st.sampled_from(["cross_entropy", "one_stage", "two_stage"]),
       st.floats(0.01, 1.0), st.floats(0.0, 5.0), st.data())
@settings(max_examples=300, deadline=None)
def test_fused_kernel_is_bit_identical_to_separate_loss_and_grad(logits, kind, alpha, beta, data):
    if kind != "cross_entropy" and logits.shape[1] < 3:
        logits = np.hstack([logits, logits[:, :1]])
    spec = LossSpec(kind, alpha=alpha, beta=beta)
    top = logits.shape[1] if kind == "cross_entropy" else logits.shape[1] - 1
    targets = np.asarray(
        data.draw(st.lists(st.integers(0, top - 1), min_size=logits.shape[0],
                           max_size=logits.shape[0])),
        dtype=np.int64,
    )
    loss, grad = spec.unchecked_loss_and_grad(logits, spec.check_targets(targets, logits.shape[1]))
    assert np.array_equal(loss, reference_loss(spec, logits, targets))
    assert np.array_equal(grad, reference_grad(spec, logits, targets))
    assert np.array_equal(loss, spec.loss(logits, targets))
    assert np.array_equal(grad, spec.grad(logits, targets))


def test_check_targets_reserves_the_deferral_index_for_the_surrogates():
    assert LossSpec("cross_entropy").check_targets([0, 2], 3).dtype == np.int64
    for spec in (LossSpec("one_stage", alpha=0.5), LossSpec("two_stage", beta=1.0)):
        np.testing.assert_array_equal(spec.check_targets([0, 1], 3), [0, 1])
        with pytest.raises(LabelError):
            spec.check_targets([0, 2], 3)
    for bad in ([-1, 0], [[0, 1]], 0):
        with pytest.raises(LabelError):
            LossSpec("cross_entropy").check_targets(bad, 3)
