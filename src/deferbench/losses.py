"""Deferral surrogate losses and plain cross-entropy, with analytic gradients.

``LossSpec`` is the one entry: it names a loss with its cost parameter and
evaluates the per-sample loss (``loss``), its gradient (``grad``) or, for the
trainers, both from one softmax (``unchecked_loss_and_grad``).

All losses operate on logit rows over the extended label space: ``n`` real
classes followed by one deferral class at index ``n`` (0-based). They return
per-sample values; reduction (we use the batch mean) happens in the trainer.
Everything is stabilized by subtracting the row max before exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deferbench.errors import ConfigError, LabelError, NumericError


def _as_batch(logits):
    logits = np.asarray(logits, dtype=np.float64)
    squeeze = logits.ndim == 1
    if squeeze:
        logits = logits[None, :]
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise NumericError(f"logits must be (B, >=2) rows, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    return logits, squeeze


def _as_targets(targets, batch, width, allow_defer):
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.shape != (batch,):
        raise LabelError(f"expected {batch} targets, got shape {targets.shape}")
    hi = width if allow_defer else width - 1
    if np.any(targets < 0) or np.any(targets >= hi):
        raise LabelError(f"targets must lie in [0, {hi}), got {targets}")
    return targets


def _softmax_parts(logits):
    """Row-max-shifted logits, their exponentials and the row sums (keepdims)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def softmax(logits) -> np.ndarray:
    """Row-wise stabilized softmax."""
    logits, squeeze = _as_batch(logits)
    _, e, total = _softmax_parts(logits)
    p = e / total
    return p[0] if squeeze else p


# Unchecked kernels: (per-sample loss, d loss / d logits) from one softmax.
# They expect finite float64 (B, K) logits and int64 targets already in range;
# LossSpec.loss / LossSpec.grad and the trainers check that first.


def _kernel_cross_entropy(logits, targets):
    """Negative log softmax of the target class; gradient softmax minus one-hot."""
    rows = np.arange(logits.shape[0])
    shifted, e, total = _softmax_parts(logits)
    out = -(shifted[rows, targets] - np.log(total[:, 0]))
    g = e / total
    g[rows, targets] -= 1.0
    return out, g


def _kernel_one_stage(logits, targets, alpha):
    """One-stage deferral surrogate over ``n`` real classes plus a deferral class.

    Per row with target y, deferral index d and softmax log-probabilities
    ``logp``::

        -alpha * logp[y] - (1 - alpha) * log(p[y] + p[d])

    where the second term is evaluated as a stabilized two-logit log-sum-exp
    minus the full log-sum-exp. At alpha=1 this is plain cross-entropy over
    the extended space. The gradient is ``p - alpha * onehot(y) - (1 - alpha) * q``
    where q is the softmax restricted to {y, d} (zero elsewhere).
    """
    rows = np.arange(logits.shape[0])
    d = logits.shape[1] - 1
    shifted, e, total = _softmax_parts(logits)
    lse = np.log(total[:, 0])  # log-sum-exp minus row max
    z_y = shifted[rows, targets]
    pair_lse = np.logaddexp(z_y, shifted[:, d])
    out = -alpha * (z_y - lse) - (1.0 - alpha) * (pair_lse - lse)

    g = e / total
    g[rows, targets] -= alpha
    # the {y, d} pair softmax uses the raw logits: the shifted ones round differently
    raw_y = logits[rows, targets]
    raw_d = logits[:, d]
    m = np.maximum(raw_y, raw_d)
    e_y = np.exp(raw_y - m)
    e_d = np.exp(raw_d - m)
    denom = e_y + e_d
    g[rows, targets] -= (1.0 - alpha) * e_y / denom
    g[rows, d] -= (1.0 - alpha) * e_d / denom
    return out, g


def _kernel_two_stage(logits, targets, beta):
    """Two-stage deferral surrogate: cross-entropy plus beta-weighted deferral term.

    Per row: ``-logp[y] - beta * logp[d]`` with d the deferral index; gradient
    ``(1+beta) p - onehot(y) - beta onehot(d)``.
    """
    rows = np.arange(logits.shape[0])
    d = logits.shape[1] - 1
    shifted, e, total = _softmax_parts(logits)
    log_total = np.log(total[:, 0])
    out = -(shifted[rows, targets] - log_total) - beta * (shifted[:, d] - log_total)
    g = (1.0 + beta) * (e / total)
    g[rows, targets] -= 1.0
    g[:, d] -= beta
    return out, g


@dataclass(frozen=True)
class LossSpec:
    """Named loss with its cost parameter; the one way to evaluate a loss.

    kind: one of ``cross_entropy``, ``one_stage``, ``two_stage``.
    """

    kind: str
    alpha: float = 1.0  # one_stage cost of non-deferral, in (0, 1]
    beta: float = 0.0  # two_stage deferral cost, >= 0

    _KINDS = ("cross_entropy", "one_stage", "two_stage")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "one_stage" and not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.kind == "two_stage" and not self.beta >= 0.0:
            raise ConfigError(f"beta must be non-negative, got {self.beta}")

    def loss(self, logits, targets) -> np.ndarray:
        """Per-sample loss; a 1-D row of logits gives a scalar."""
        return self._checked(logits, targets)[0]

    def grad(self, logits, targets) -> np.ndarray:
        """d loss / d logits, shaped like ``logits``."""
        return self._checked(logits, targets)[1]

    def _checked(self, logits, targets):
        logits, squeeze = _as_batch(logits)
        targets = _as_targets(targets, *logits.shape, self.kind == "cross_entropy")
        out, g = self.unchecked_loss_and_grad(logits, targets)
        return (out[0], g[0]) if squeeze else (out, g)

    def check_targets(self, targets, width: int) -> np.ndarray:
        """int64 targets, raising LabelError unless each is valid for ``width`` logits.

        Cross-entropy accepts every index below ``width``; the deferral
        surrogates reserve the last one for the deferral class.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim != 1:
            raise LabelError(f"targets must be 1-D, got shape {targets.shape}")
        return _as_targets(targets, targets.shape[0], width, self.kind == "cross_entropy")

    def unchecked_loss_and_grad(self, logits, targets):
        """(per-sample loss, d loss / d logits) from one softmax, bit-identical to
        ``(loss(...), grad(...))``.

        Validates nothing: ``logits`` must be finite float64 (B, K) rows and
        ``targets`` must have passed ``check_targets``. The trainers check once
        at entry and call this on every step.
        """
        if self.kind == "cross_entropy":
            return _kernel_cross_entropy(logits, targets)
        if self.kind == "one_stage":
            return _kernel_one_stage(logits, targets, self.alpha)
        return _kernel_two_stage(logits, targets, self.beta)
