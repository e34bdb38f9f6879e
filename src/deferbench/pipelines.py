"""Training pipelines: one trainer with checkpoint selection for every
network, prediction over the extended label space, and committee features
for the deferral head.

Every network trains through ``train_classifier``, and its loss fixes the
selection rule. Classifiers that defer by an uncertainty threshold train with
cross-entropy and are selected by the best partial AUC (FPR in [0, 0.1]) on
the validation split across per-epoch checkpoints. Models that learn
deferral end to end carry a third output for the defer action and are
selected by the smallest mean validation loss under their own training
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deferbench import nnet
from deferbench.errors import ConfigError, InputShapeError, StratificationError
from deferbench.losses import LossSpec, softmax
from deferbench.metrics import DEFER, pauc
from deferbench.uq import positive_probability

DEFER_OUTPUT = 2  # extended-space defer logit index for binary problems


@dataclass
class SelectedModel:
    """A trained network at its selected checkpoint, with the selection trace.

    Only the chosen checkpoint is kept; the other epochs' parameters are
    dropped once the choice is made.
    """

    network: nnet.Network
    epoch: int  # 0-based index of the chosen checkpoint
    criterion: str  # "pauc" | "loss"
    val_curve: list  # per-epoch validation metric driving the choice
    epoch_losses: list  # per-epoch mean training loss, from nnet.train


def train_classifier(
    x_train,
    y_train,
    x_val,
    y_val,
    config: nnet.NetConfig,
    sgd: nnet.SgdConfig,
    *,
    loss: LossSpec = LossSpec("cross_entropy"),
    sample_weights=None,
) -> SelectedModel:
    """Train from scratch and pick a checkpoint on the validation split.

    The loss fixes the rule: cross-entropy keeps the epoch with the largest
    partial AUC of the positive-class score (earliest on ties); a deferral
    loss needs a network with a defer output and keeps the epoch with the
    smallest mean validation loss under itself.
    """
    by_loss = loss.kind != "cross_entropy"
    if by_loss and config.output_dim != DEFER_OUTPUT + 1:
        raise ConfigError(f"{loss.kind} training needs a {DEFER_OUTPUT + 1}-output network")
    net = nnet.init_network(config)
    result = nnet.train(net, x_train, y_train, loss, sgd, sample_weights=sample_weights)

    val_curve = []
    for params in result.checkpoints:
        probe = nnet.Network(config, params)
        if by_loss:
            val_curve.append(nnet.mean_loss(probe, x_val, y_val, loss))
            continue
        value = pauc(positive_probability(probe, x_val), y_val)
        if value is None:
            raise StratificationError(
                "validation split must contain both classes for checkpoint selection"
            )
        val_curve.append(value)
    epoch = int(np.argmin(val_curve) if by_loss else np.argmax(val_curve))
    return SelectedModel(
        network=nnet.Network(config, result.checkpoints[epoch]),
        epoch=epoch,
        criterion="loss" if by_loss else "pauc",
        val_curve=val_curve,
        epoch_losses=result.epoch_losses,
    )


# ---------------------------------------------------------------------------
# Learned deferral over the extended label space
# ---------------------------------------------------------------------------


@dataclass
class ExtendedPrediction:
    """Argmax decisions over {0, 1, defer} plus renormalized class-1 scores."""

    decisions: np.ndarray  # (S,) in {0, 1, DEFER}
    scores: np.ndarray  # (S,) p1 / (p0 + p1)


def predict_extended(net: nnet.Network, batch) -> ExtendedPrediction:
    logits = nnet.forward(net, batch)
    if logits.shape[1] != DEFER_OUTPUT + 1:
        raise InputShapeError(f"expected {DEFER_OUTPUT + 1} outputs, got {logits.shape[1]}")
    probs = softmax(logits)
    decisions = np.argmax(logits, axis=1).astype(np.int64)
    decisions[decisions == DEFER_OUTPUT] = DEFER
    kept_mass = probs[:, 0] + probs[:, 1]
    scores = np.where(kept_mass > 0.0, probs[:, 1] / np.maximum(kept_mass, 1e-300), 0.5)
    return ExtendedPrediction(decisions=decisions, scores=scores)


def binary_entropy(p) -> np.ndarray:
    """Natural-log entropy of Bernoulli(p), exactly 0 at p in {0, 1}."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    out[interior] = -(q * np.log(q) + (1.0 - q) * np.log1p(-q))
    return out


def two_stage_features(members, batch) -> np.ndarray:
    """Deferral head inputs from a frozen committee, one row per sample.

    Columns: each member's positive-class probability in member order, then
    the entropy of the mean probability, then the mean member entropy. The
    head therefore sees both disagreement and shared ambiguity.
    """
    if len(members) == 0:
        raise ConfigError("two-stage features need at least one committee member")
    samples = np.stack([positive_probability(m, batch) for m in members])
    mean = samples.mean(axis=0)
    cols = [samples.T, binary_entropy(mean)[:, None], binary_entropy(samples).mean(axis=0)[:, None]]
    return np.concatenate(cols, axis=1)
