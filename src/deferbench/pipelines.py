"""Training pipelines: one trainer with checkpoint selection for every
network, prediction over the extended label space, committee features for
the deferral head, and model bundle layout.

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
from deferbench.atomic import atomic_open
from deferbench.errors import ConfigError, FormatError, InputShapeError, StratificationError
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


# ---------------------------------------------------------------------------
# Model bundles: a directory with a manifest and weight containers
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"
MODEL_NAME = "model.dfb1"
POSTERIOR_NAME = "posterior.dfb1"
ENSEMBLE_INDEX_NAME = "ensemble_index.txt"


def write_manifest(path, entries: dict) -> None:
    """Canonical key=value lines sorted by key, one per line."""
    lines = []
    for key in sorted(entries):
        value = entries[key]
        if isinstance(value, float):
            value = repr(value)
        value = str(value)
        if "=" in key or "\n" in key or "\n" in value:
            raise FormatError(f"manifest entry {key!r} contains a delimiter")
        lines.append(f"{key}={value}\n")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _read_lines(path) -> list:
    """Lines of a UTF-8 text file; bytes that do not decode are a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_manifest(path) -> dict:
    entries = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: line {lineno} is not key=value")
        key, value = line.split("=", 1)
        if key in entries:
            raise FormatError(f"{path}: line {lineno} repeats key {key!r}")
        entries[key] = value
    return entries


def save_single_model(dirpath, network: nnet.Network, manifest: dict) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    nnet.write_checkpoint(dirpath / MODEL_NAME, network.config, nnet.get_params(network))
    write_manifest(dirpath / MANIFEST_NAME, manifest)


def save_ensemble(dirpath, members, manifest: dict) -> None:
    """Member files plus an index naming them in committee order."""
    dirpath.mkdir(parents=True, exist_ok=True)
    names = []
    for i, member in enumerate(members):
        name = f"member_{i:02d}.dfb1"
        nnet.write_checkpoint(dirpath / name, member.config, nnet.get_params(member))
        names.append(name)
    with atomic_open(dirpath / ENSEMBLE_INDEX_NAME, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{n}\n" for n in names))
    write_manifest(dirpath / MANIFEST_NAME, manifest)
