"""Metrics: hand-computed confusion/rank cases, brute-force oracles for AUC
and partial AUC, and invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferbench.errors import ConfigError, InputShapeError
from deferbench.metrics import (
    DEFER,
    ConfusionCounts,
    auc,
    balanced_accuracy,
    deferral_curve_point,
    pauc,
    per_class_accuracy,
)

# ---------------------------------------------------------------------------
# confusion counts, balanced accuracy
# ---------------------------------------------------------------------------


def test_confusion_counts_from_predictions():
    labels = np.array([1, 1, 0, 0, 0, 1])
    preds = np.array([1, 0, 0, 1, 0, 1])
    counts = ConfusionCounts.from_predictions(labels, preds)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 2, 1)
    assert counts.total == 6
    with pytest.raises(InputShapeError):
        ConfusionCounts.from_predictions(labels, preds[:-1])


def test_balanced_accuracy_hand_case():
    # tp=1 fn=1 tn=2 fp=0: sensitivity 1/2, specificity 1 -> 0.75
    assert balanced_accuracy(ConfusionCounts(tp=1, fp=0, tn=2, fn=1)) == 0.75


def test_balanced_accuracy_none_when_class_absent():
    assert balanced_accuracy(ConfusionCounts(tp=0, fp=1, tn=3, fn=0)) is None
    assert balanced_accuracy(ConfusionCounts(tp=2, fp=0, tn=0, fn=1)) is None


def test_per_class_accuracy():
    counts = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
    acc0, acc1 = per_class_accuracy(counts)
    assert acc0 == pytest.approx(0.8)
    assert acc1 == pytest.approx(0.6)
    acc0, acc1 = per_class_accuracy(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
    assert acc0 == 1.0
    assert acc1 is None


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_hand_case():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_edges():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5
    assert auc([0.5, 0.5], [1, 1]) is None


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.shape[0] * neg.shape[0])


def test_auc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        # coarse grid forces ties
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )


def loop_auc(scores, labels):
    """Reference: average ranks assigned one tie group at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 1)),
        min_size=1,
        max_size=300,
    ),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_auc_equals_loop_reference_exactly(rows, decimals):
    # rounding to 0-3 decimals makes tie groups of every size; one-class and
    # length-1 inputs come out of the same strategy
    scores = np.round(np.array([s for s, _ in rows]), decimals)
    labels = np.array([lbl for _, lbl in rows])
    assert auc(scores, labels) == loop_auc(scores, labels)


def test_auc_equals_loop_reference_on_edge_inputs():
    for scores, labels in (
        ([0.5], [1]),
        ([0.5], [0]),
        ([0.2, 0.2, 0.2], [1, 1, 1]),
        ([0.0, 0.0, 1.0, 1.0], [0, 1, 0, 1]),
        ([np.nan, 0.3, np.nan, 0.3, 0.1], [1, 0, 0, 1, 0]),
        ([-0.0, 0.0, 0.0, -0.0], [1, 0, 1, 0]),
    ):
        assert auc(scores, labels) == loop_auc(scores, labels)


def test_auc_rejects_bad_shapes():
    with pytest.raises(InputShapeError):
        auc([[0.1, 0.2]], [[0, 1]])
    with pytest.raises(InputShapeError):
        auc([0.1, 0.2], [0, 1, 1])


# ---------------------------------------------------------------------------
# partial AUC over the high-specificity band
# ---------------------------------------------------------------------------


def test_pauc_uninformative_scores():
    # constant scores give the chance diagonal: band/2 normalized -> 0.05
    value = pauc(np.full(40, 0.3), np.array([1] * 10 + [0] * 30))
    assert value == pytest.approx(0.05, abs=1e-9)


def test_pauc_perfect_and_reversed():
    labels = np.array([1, 1, 0, 0, 0, 0])
    assert pauc([0.9, 0.8, 0.3, 0.2, 0.1, 0.0], labels) == pytest.approx(1.0, abs=1e-12)
    assert pauc([0.0, 0.1, 0.6, 0.7, 0.8, 0.9], labels) == pytest.approx(0.0, abs=1e-12)


def test_pauc_hand_case_with_tie_segment():
    # 2 positives, 10 negatives; one positive tied with 2 negatives at 0.5:
    # ROC vertices (0,0) -> (0,0.5) -> (0.2,1); at fpr=0.1 interp tpr=0.75;
    # area = 0.5*(0.5+0.75)*0.1 = 0.0625 -> /0.1 = 0.625
    scores = np.array([1.0, 0.5, 0.5, 0.5, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
    labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert pauc(scores, labels) == pytest.approx(0.625, abs=1e-12)


def brute_force_pauc(scores, labels, band=0.1):
    """Segment-by-segment integral of the empirical ROC, stopping at the band."""
    thresholds = np.unique(scores)[::-1]
    n_pos = (labels == 1).sum()
    n_neg = (labels == 0).sum()
    fpr = [0.0]
    tpr = [0.0]
    for t in thresholds:
        calls = scores >= t
        tpr.append(((labels == 1) & calls).sum() / n_pos)
        fpr.append(((labels == 0) & calls).sum() / n_neg)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(zip(fpr, tpr), zip(fpr[1:], tpr[1:])):
        if x1 <= band:
            area += (x1 - x0) * (y0 + y1) / 2.0
        elif x0 < band:
            yb = y0 + (y1 - y0) * (band - x0) / (x1 - x0)
            area += (band - x0) * (y0 + yb) / 2.0
            break
        else:
            break
    return area / band


def test_pauc_matches_brute_force_roc():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(20, 80))
        scores = np.round(rng.random(n), 2)  # duplicates likely
        labels = (rng.random(n) < 0.3).astype(np.int64)
        if labels.min() == labels.max():
            continue
        assert pauc(scores, labels) == pytest.approx(
            brute_force_pauc(scores, labels), abs=1e-12
        )


def test_pauc_none_without_both_classes():
    assert pauc([0.4, 0.6], [1, 1]) is None


def test_pauc_rejects_empty_band():
    for band in (0.0, -0.1, float("nan")):
        with pytest.raises(ConfigError):
            pauc([0.4, 0.6], [0, 1], band=band)


def test_pauc_frozen_values_on_tied_inputs():
    # exact values, so a change in the order of float operations shows
    scores = [
        0.6, 0.9, 0.8, 0.2, 0.3, 0.9, 0.0, 0.8, 0.8, 0.5, 0.3, 0.3, 0.3, 0.4, 0.5,
        0.6, 1.0, 0.8, 0.6, 1.0, 0.2, 0.2, 0.6, 0.0, 0.0, 0.5, 0.5, 0.9, 0.6, 0.5,
    ]
    labels = [
        0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0,
        0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0,
    ]
    assert pauc(scores, labels) == 0.12500000000000003
    assert auc(scores, labels) == 0.68
    scores = [0.3, 0.3, 0.7, 0.7, 0.7, 0.1, 0.9, 0.3, 0.5, 0.5, 0.1, 0.7]
    labels = [0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0]
    assert pauc(scores, labels) == 0.27
    assert auc(scores, labels) == 0.7571428571428571


# ---------------------------------------------------------------------------
# deferral curve points
# ---------------------------------------------------------------------------


def test_curve_point_hand_case():
    labels = np.array([0, 0, 1, 1])
    decisions = np.array([0, DEFER, 1, DEFER])
    point = deferral_curve_point(decisions, labels, np.array([0.2, 0.4, 0.7, 0.6]))
    assert point.deferral_rate == 0.5
    assert point.frac_positives_deferred == 0.5
    assert point.bacc == 1.0
    assert point.acc0 == 1.0 and point.acc1 == 1.0


def test_curve_point_everything_deferred():
    point = deferral_curve_point(np.full(5, DEFER), np.array([0, 0, 0, 1, 1]), np.full(5, 0.5))
    assert point.deferral_rate == 1.0
    assert point.bacc is None and point.auc is None and point.pauc is None
    assert point.frac_positives_deferred == 1.0


def test_curve_point_scores_feed_rank_metrics():
    labels = np.array([0, 0, 1, 1, 0])
    decisions = np.array([0, 0, 1, 1, DEFER])
    scores = np.array([0.1, 0.2, 0.9, 0.8, 0.5])
    point = deferral_curve_point(decisions, labels, scores)
    assert point.auc == auc(scores[:4], labels[:4])
    assert point.pauc == pauc(scores[:4], labels[:4])


def test_curve_point_frozen_values_on_tied_inputs():
    scores = np.array([
        0.1, 0.5, 0.6, 0.0, 0.1, 0.9, 0.1, 0.1, 0.9, 0.6, 0.4, 0.5,
        0.7, 0.3, 0.1, 0.8, 0.7, 0.5, 0.8, 0.5, 1.0, 0.2, 0.6, 0.5,
    ])
    labels = np.array([0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1])
    deferred = np.array([1, 3, 6, 13, 16, 20, 22])
    decisions = (scores >= 0.5).astype(np.int64)
    decisions[deferred] = DEFER
    point = deferral_curve_point(decisions, labels, scores)
    assert point.deferral_rate == 0.2916666666666667
    assert point.frac_positives_deferred == 0.25
    assert point.bacc == 0.7569444444444444
    assert point.acc0 == 0.625
    assert point.acc1 == 0.8888888888888888
    assert point.auc == 0.7847222222222222
    assert point.pauc == 0.4444444444444444
    # the CSV layer writes repr(value), which differs for numpy scalars
    fields = (point.deferral_rate, point.frac_positives_deferred, point.bacc, point.acc0,
              point.acc1, point.auc, point.pauc)
    assert all(type(value) is float for value in fields)


def test_curve_point_rejects_empty():
    with pytest.raises(InputShapeError):
        deferral_curve_point(np.array([]), np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

# scores on a coarse grid so ties are common and float transforms stay injective
score_label_sets = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 1)), min_size=4, max_size=40
).filter(lambda rows: len({lbl for _, lbl in rows}) == 2)


@given(score_label_sets)
@settings(max_examples=60, deadline=None)
def test_auc_invariant_under_monotone_transform(rows):
    scores = np.array([s for s, _ in rows]) / 1000.0
    labels = np.array([lbl for _, lbl in rows])
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(3.0 * scores - 1.0, labels) == pytest.approx(base, abs=1e-12)
    assert 0.0 <= base <= 1.0


@given(score_label_sets)
@settings(max_examples=60, deadline=None)
def test_metrics_invariant_under_duplication(rows):
    scores = np.array([s for s, _ in rows]) / 1000.0
    labels = np.array([lbl for _, lbl in rows])
    doubled_s = np.concatenate([scores, scores])
    doubled_l = np.concatenate([labels, labels])
    preds = (scores >= 0.5).astype(np.int64)
    doubled_p = np.concatenate([preds, preds])
    assert balanced_accuracy(
        ConfusionCounts.from_predictions(doubled_l, doubled_p)
    ) == pytest.approx(
        balanced_accuracy(ConfusionCounts.from_predictions(labels, preds)), abs=1e-12
    )
    assert auc(doubled_s, doubled_l) == pytest.approx(auc(scores, labels), abs=1e-12)
    value = pauc(doubled_s, doubled_l)
    assert value == pytest.approx(pauc(scores, labels), abs=1e-12)
    assert 0.0 <= value <= 1.0
