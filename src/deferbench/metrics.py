"""Classification and deferral metrics.

Balanced accuracy, per-class accuracy, AUC (Mann-Whitney, ties get half
credit), partial AUC over the high-specificity band (FPR in [0, 0.1],
normalized by the band width), and per-threshold deferral curve points.

Metrics that are undefined on the evaluated subset (a class missing, or
everything deferred) return None rather than raising; the CSV layer writes
those as empty fields.

Every curve point is scored on its own kept subset, so these functions run
once per threshold and are kept free of per-element Python loops. AUC gives
each tie group its average rank in one vectorized pass. That is exact: an
average rank is a half-integer, and a sum of half-integers below 2**52 is
exact in float64 in any order, so the result equals the one-group-at-a-time
loop bit for bit (the tests keep that loop as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from deferbench.errors import ConfigError, InputShapeError

# Decision code meaning "route this input to the expert".
DEFER = -1

PAUC_BAND = 0.1  # FPR band [0, 0.1] == 90-100% specificity


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, labels, predictions) -> "ConfusionCounts":
        labels = np.asarray(labels)
        predictions = np.asarray(predictions)
        if labels.shape != predictions.shape:
            raise InputShapeError("labels and predictions must have the same shape")
        pos, neg = labels == 1, labels == 0
        called_pos, called_neg = predictions == 1, predictions == 0
        return cls(
            tp=int(np.count_nonzero(pos & called_pos)),
            fp=int(np.count_nonzero(neg & called_pos)),
            tn=int(np.count_nonzero(neg & called_neg)),
            fn=int(np.count_nonzero(pos & called_neg)),
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def balanced_accuracy(counts: ConfusionCounts) -> Optional[float]:
    """(sensitivity + specificity) / 2; None if either class is absent."""
    pos = counts.tp + counts.fn
    neg = counts.tn + counts.fp
    if pos == 0 or neg == 0:
        return None
    return 0.5 * (counts.tp / pos + counts.tn / neg)


def per_class_accuracy(counts: ConfusionCounts):
    """(acc0, acc1): recall of the negative and positive class; None when absent."""
    neg = counts.tn + counts.fp
    pos = counts.tp + counts.fn
    acc0 = counts.tn / neg if neg > 0 else None
    acc1 = counts.tp / pos if pos > 0 else None
    return acc0, acc1


def auc(scores, labels) -> Optional[float]:
    """Probability a random positive outranks a random negative; ties count 1/2.

    Computed from average ranks (Mann-Whitney U), which is exactly the
    pairwise count with half credit for ties. None if only one class present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputShapeError("scores and labels must be equal-length 1-D arrays")
    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return None

    order = scores.argsort(kind="mergesort")
    sorted_scores = scores[order]
    # tie groups are runs of equal sorted scores, bounded by the positions
    # where the score changes; a NaN equals nothing, so each NaN is a group
    changes = (sorted_scores[1:] != sorted_scores[:-1]).nonzero()[0] + 1
    bounds = np.concatenate(([0], changes, [sorted_scores.shape[0]]))
    group_rank = 0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0  # average 1-based rank
    rank_sum = np.repeat(group_rank, bounds[1:] - bounds[:-1])[positive[order]].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _roc_points(scores, labels):
    """Empirical ROC polyline from (0,0) to (1,1); ties produce diagonal segments."""
    order = (-scores).argsort(kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # group boundaries at distinct score values
    distinct = (sorted_scores[1:] - sorted_scores[:-1]).nonzero()[0]
    ends = np.concatenate((distinct, [scores.shape[0] - 1]))
    tps = (sorted_labels == 1).cumsum()[ends]
    fps = (sorted_labels == 0).cumsum()[ends]
    tpr = np.zeros(ends.shape[0] + 1)
    fpr = np.zeros(ends.shape[0] + 1)
    np.divide(tps, tps[-1], out=tpr[1:])
    np.divide(fps, fps[-1], out=fpr[1:])
    return fpr, tpr


def pauc(scores, labels, band: float = PAUC_BAND) -> Optional[float]:
    """ROC area over FPR in [0, band], trapezoidal, normalized by the band width.

    A perfect classifier scores 1.0; an uninformative one band/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputShapeError("scores and labels must be equal-length 1-D arrays")
    if not band > 0.0:
        raise ConfigError(f"pAUC band must be positive, got {band}")
    if not (labels == 1).any() or not (labels == 0).any():
        return None

    fpr, tpr = _roc_points(scores, labels)
    # fpr never decreases, so the points inside the band are a prefix
    inside = np.count_nonzero(fpr <= band)
    fpr_clip, tpr_clip = fpr[:inside], tpr[:inside]
    if fpr_clip[-1] < band:
        fpr_clip = np.concatenate((fpr_clip, [band]))
        tpr_clip = np.concatenate((tpr_clip, [np.interp(band, fpr, tpr)]))
    # the trapezoid rule, in the operation order of np.trapezoid
    area = ((fpr_clip[1:] - fpr_clip[:-1]) * (tpr_clip[1:] + tpr_clip[:-1]) / 2.0).sum()
    return float(area / band)


@dataclass
class CurvePoint:
    """One point of a deferral sweep.

    bacc is None exactly when it cannot be computed on the non-deferred
    remainder (everything deferred, or a class absent there). Provenance
    fields identify the run that produced the point.
    """

    deferral_rate: float
    bacc: Optional[float]
    frac_positives_deferred: Optional[float]
    auc: Optional[float] = None
    pauc: Optional[float] = None
    acc0: Optional[float] = None
    acc1: Optional[float] = None
    method: str = ""
    condition: str = ""
    level: int = 0
    seed: int = 0
    param_kind: str = ""
    param_value: Optional[float] = None
    status: str = "ok"


def deferral_curve_point(decisions, labels, scores=None) -> CurvePoint:
    """Deferral rate, remainder bAcc / per-class accuracy, positive-deferral fraction.

    decisions: per-sample class (0/1) or DEFER. scores, when given, are the
    positive-class scores used for AUC/pAUC on the non-deferred remainder.
    """
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    if decisions.shape != labels.shape or decisions.ndim != 1 or decisions.size == 0:
        raise InputShapeError("decisions and labels must be equal-length non-empty 1-D arrays")

    total = decisions.shape[0]
    deferred = decisions == DEFER
    n_deferred = int(np.count_nonzero(deferred))
    rate = n_deferred / total

    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    frac_pos = int(np.count_nonzero(deferred & positive)) / n_pos if n_pos > 0 else None

    bacc = acc0 = acc1 = auc_v = pauc_v = None
    if n_deferred < total:
        kept = ~deferred
        kept_labels = labels[kept]
        counts = ConfusionCounts.from_predictions(kept_labels, decisions[kept])
        bacc = balanced_accuracy(counts)
        acc0, acc1 = per_class_accuracy(counts)
        if scores is not None:
            kept_scores = np.asarray(scores, dtype=np.float64)[kept]
            auc_v = auc(kept_scores, kept_labels)
            pauc_v = pauc(kept_scores, kept_labels)

    return CurvePoint(
        deferral_rate=rate,
        bacc=bacc,
        frac_positives_deferred=frac_pos,
        auc=auc_v,
        pauc=pauc_v,
        acc0=acc0,
        acc1=acc1,
    )
