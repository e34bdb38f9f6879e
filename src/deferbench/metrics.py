"""Classification and deferral metrics.

Balanced accuracy, per-class accuracy, AUC (Mann-Whitney, ties get half
credit), partial AUC over the high-specificity band (FPR in [0, 0.1],
normalized by the band width), per-threshold deferral curve points, and the
curve of a whole threshold sweep.

Metrics that are undefined on the evaluated subset (a class missing, or
everything deferred) return None rather than raising; the CSV layer writes
those as empty fields.

A threshold sweep scores the samples each threshold keeps. The kept sets of
one sweep are nested, so thresholds that keep as many samples keep the same
ones, and ``threshold_curve`` scores each distinct kept set once. Those sets
share their work: one kept-mask matrix gives every deferral rate and
confusion count, one ascending sort of the scores gives every kept set's
AUC, and one descending sort every kept set's ROC polyline, because a kept
set's sorted order, tie groups and cumulative counts are those of the full
sort restricted to it. The result is exact, not approximate: the counts are
integers, each AUC runs the same rank sum and divisions as ``auc`` (one
shared ``_rank_sums``), and each pAUC runs the same divisions and the same
band clip, interpolation and trapezoid sum (one shared ``_band_area``) on
the same arrays as ``pauc`` on that kept set. The rank sum gives each tie
group its average rank, times the group's positives. That is exact: an
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

    rank_sum = _rank_sums(scores, positive, np.ones((1, scores.shape[0]), dtype=bool))[0]
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _rank_sums(scores, positive, kept):
    """Per row of the kept mask, the rank sum of its kept positives among its kept scores.

    Ranks are 1-based and ascending; a tie group shares its average rank.
    """
    order = scores.argsort(kind="mergesort")
    sorted_scores = scores[order]
    # tie groups are runs of equal sorted scores, bounded by the positions
    # where the score changes; a NaN equals nothing, so each NaN is a group.
    # A kept set's tie groups are the full groups restricted to it.
    changes = (sorted_scores[1:] != sorted_scores[:-1]).nonzero()[0] + 1
    starts = np.concatenate(([0], changes))
    kept_sorted = kept[:, order]
    count = np.add.reduceat(kept_sorted, starts, axis=1, dtype=np.int64)
    count_pos = np.add.reduceat(kept_sorted & positive[order], starts, axis=1, dtype=np.int64)
    group_rank = (count.cumsum(axis=1) - count) + 0.5 * (count + 1)  # average 1-based rank
    return (count_pos * group_rank).sum(axis=1)


def _tie_groups(scores):
    """Descending stable order of scores, and the sorted position ending each tie group.

    Two neighbours share a group when their difference is zero, so every NaN
    and every infinite score ends its own group.
    """
    order = (-scores).argsort(kind="mergesort")
    sorted_scores = scores[order]
    distinct = (sorted_scores[1:] - sorted_scores[:-1]).nonzero()[0]
    return order, np.concatenate((distinct, [scores.shape[0] - 1]))


def _roc_points(scores, labels):
    """Empirical ROC polyline from (0,0) to (1,1); ties produce diagonal segments."""
    order, ends = _tie_groups(scores)
    sorted_labels = labels[order]
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

    return _band_area(*_roc_points(scores, labels), band)


def _band_area(fpr, tpr, band: float) -> float:
    """Area under the ROC polyline (fpr, tpr) over FPR in [0, band], divided by band."""
    # fpr never decreases, so the points inside the band are a prefix
    inside = np.count_nonzero(fpr <= band)
    fpr_clip, tpr_clip = fpr[:inside], tpr[:inside]
    if fpr_clip[-1] < band:
        fpr_clip = np.concatenate((fpr_clip, [band]))
        tpr_clip = np.concatenate((tpr_clip, [np.interp(band, fpr, tpr)]))
    # the trapezoid rule, in the operation order of np.trapezoid
    area = ((fpr_clip[1:] - fpr_clip[:-1]) * (tpr_clip[1:] + tpr_clip[:-1]) / 2.0).sum()
    return float(area / band)


@dataclass(slots=True)
class CurvePoint:
    """One point of a deferral sweep: one row of results.csv, which stores
    every field.

    bacc is None exactly when it cannot be computed on the non-deferred
    remainder (everything deferred, or a class absent there). Provenance
    fields identify the run that produced the point. A row of
    classification.csv is the point that defers nothing, and stores only the
    provenance, bacc, auc, pauc, acc0, acc1 and status; its other fields keep
    their defaults.
    """

    deferral_rate: Optional[float] = None
    bacc: Optional[float] = None
    frac_positives_deferred: Optional[float] = None
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


def deferral_curve_point(decisions, labels, scores) -> CurvePoint:
    """Deferral rate, remainder bAcc / per-class accuracy, positive-deferral fraction.

    decisions: per-sample class (0/1) or DEFER. scores are the positive-class
    scores used for AUC/pAUC on the non-deferred remainder.
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


def threshold_curve(predicted, labels, scores, uncertainty, taus) -> list:
    """One curve point per threshold in taus, scored in one pass.

    Point i is ``deferral_curve_point(np.where(uncertainty >= taus[i], DEFER,
    predicted), labels, scores)`` bit for bit, where predicted holds the
    classifier's 0/1 decision per sample. Each distinct kept set is scored
    once, as one row of a kept-mask matrix that gives every count; one
    ascending sort of the scores gives every row's AUC and one descending
    sort every row's ROC polyline.
    """
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape or predicted.ndim != 1 or predicted.size == 0:
        raise InputShapeError("decisions and labels must be equal-length non-empty 1-D arrays")
    scores = np.asarray(scores, dtype=np.float64)
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if scores.shape != labels.shape or uncertainty.shape != labels.shape:
        raise InputShapeError("scores, uncertainty and labels must have the same length")
    taus = np.asarray(taus, dtype=np.float64)

    # The kept sets of one sweep are nested: a sample kept at one threshold
    # is kept at every higher one, and a NaN threshold or uncertainty keeps
    # every sample or that sample. So two thresholds that keep as many
    # samples keep the same ones, and row k of the matrix below is the
    # k-th distinct kept set, the one of every threshold i with set_of[i] == k.
    kept = ~(uncertainty >= taus[:, None])
    n_kept, first, set_of = np.unique(
        np.count_nonzero(kept, axis=1), return_index=True, return_inverse=True
    )
    kept = kept[first]

    total = labels.shape[0]
    positive, negative = labels == 1, labels == 0
    called_pos, called_neg = predicted == 1, predicted == 0
    n_pos = int(np.count_nonzero(positive))
    kept_pos, kept_neg = kept & positive, kept & negative
    tp = np.count_nonzero(kept_pos & called_pos, axis=1).tolist()
    fp = np.count_nonzero(kept_neg & called_pos, axis=1).tolist()
    tn = np.count_nonzero(kept_neg & called_neg, axis=1).tolist()
    fn = np.count_nonzero(kept_pos & called_neg, axis=1).tolist()
    n_kept_pos = np.count_nonzero(kept_pos, axis=1)
    n_kept_neg = np.count_nonzero(kept_neg, axis=1)

    # AUC as in auc, on every row at once; rows without both classes go unread
    with np.errstate(divide="ignore", invalid="ignore"):
        u = _rank_sums(scores, positive, kept) - n_kept_pos * (n_kept_pos + 1) / 2.0
        auc_v = (u / (n_kept_pos * n_kept_neg)).tolist()

    # A kept set sorts in the full order restricted to it, and two of its
    # neighbours tie exactly when every score between them ties too. So its
    # ROC polyline runs through the ends of the full tie groups that keep an
    # element, with the full cumulative counts there. Column 0 of each matrix
    # below is the origin, column g + 1 the end of tie group g.
    order, ends = _tie_groups(scores)
    kept_sorted = kept[:, order]
    on_curve = np.ones((kept.shape[0], ends.shape[0] + 1), dtype=bool)
    starts = np.concatenate(([0], ends[:-1] + 1))
    on_curve[:, 1:] = np.logical_or.reduceat(kept_sorted, starts, axis=1)

    def rates(members):
        """Each row's share of its kept members at every group end."""
        through = (kept_sorted & members[order]).cumsum(axis=1)[:, ends]
        rate = np.zeros(on_curve.shape)
        with np.errstate(divide="ignore", invalid="ignore"):  # rows without members go unread
            np.divide(through, through[:, -1:], out=rate[:, 1:])
        return rate

    tpr, fpr = rates(positive), rates(negative)
    n_kept_pos, n_kept_neg = n_kept_pos.tolist(), n_kept_neg.tolist()

    sets = []
    for k, size in enumerate(n_kept.tolist()):
        fields = {
            "deferral_rate": (total - size) / total,
            "bacc": None,
            "frac_positives_deferred": (n_pos - n_kept_pos[k]) / n_pos if n_pos > 0 else None,
        }
        if size > 0:
            counts = ConfusionCounts(tp=tp[k], fp=fp[k], tn=tn[k], fn=fn[k])
            fields["bacc"] = balanced_accuracy(counts)
            fields["acc0"], fields["acc1"] = per_class_accuracy(counts)
            if n_kept_pos[k] > 0 and n_kept_neg[k] > 0:
                fields["auc"] = auc_v[k]
                curve = on_curve[k]
                fields["pauc"] = _band_area(fpr[k][curve], tpr[k][curve], PAUC_BAND)
        sets.append(fields)
    return [CurvePoint(**sets[k]) for k in set_of.tolist()]
