"""Tests for confusion metrics and rank-based AUC."""

import numpy as np
import pytest

from attnboost.errors import DataError
from attnboost.metrics import (
    ConfusionMatrix,
    auc,
    compute_metrics,
    confusion_matrix,
    evaluate_scores,
    f1_score,
    format_reports,
    metrics_csv_row,
    _midranks,
)


def pairwise_auc(scores, y):
    """Brute-force mean over all positive x negative pairs, ties worth half."""
    pos = [s for s, label in zip(scores, y) if label == 1]
    neg = [s for s, label in zip(scores, y) if label == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_midranks(values):
    """Mid-ranks by a Python loop over the tie groups of the stable sort order."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    boundaries = np.flatnonzero(np.diff(ordered) != 0)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [values.size]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + 1 + e)
    return ranks


class TestConfusionMatrix:
    def test_counts(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 1, 1, 5)
        assert cm.total == 10

    def test_all_correct(self):
        y = np.array([1, 0, 1, 0])
        cm = confusion_matrix(y, y)
        assert cm.fp == 0 and cm.fn == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([1, 0, 1]), np.array([1, 0, 1, 0]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix(np.array([]), np.array([]))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix(np.array([1, 2]), np.array([1, 0]))


class TestComputeMetrics:
    def _scores(self, y):
        return np.where(np.asarray(y) == 1, 0.9, 0.1), np.asarray(y)

    def test_worked_example(self):
        cm = ConfusionMatrix(tp=3, tn=5, fp=1, fn=1)
        scores, y = self._scores([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        report = compute_metrics(cm, scores, y)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.75)
        assert report.accuracy == pytest.approx(0.8)
        assert report.f1 == pytest.approx(0.75)

    def test_headline_triple_consistency(self):
        # reported (precision, recall) pair whose harmonic mean must print as 0.9298
        assert f1_score(0.9415, 0.9184) == pytest.approx(0.9298, abs=1e-3)

    def test_precision_zero_denominator_flagged(self):
        cm = ConfusionMatrix(tp=0, tn=4, fp=0, fn=2)
        scores, y = self._scores([1, 1, 0, 0, 0, 0])
        report = compute_metrics(cm, scores, y)
        assert report.precision == 0.0
        assert report.counts.tp + report.counts.fp == 0

    def test_single_class_auc_flagged(self):
        cm = ConfusionMatrix(tp=2, tn=0, fp=0, fn=0)
        report = compute_metrics(cm, np.array([0.9, 0.8]), np.array([1, 1]))
        assert report.auc == 0.5
        assert report.counts.tn + report.counts.fp == 0

    def test_f1_identity_when_not_degenerate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.integers(0, 2, 40)
            scores = rng.uniform(0, 1, 40)
            if y.min() == y.max():
                continue
            report = evaluate_scores(scores, y)
            cm = report.counts
            if cm.tp + cm.fp == 0 or cm.tp + cm.fn == 0:
                continue
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert abs(report.f1 - expected) < 1e-12

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = float(rng.uniform(0.05, 1.0))
            r = float(rng.uniform(0.05, 1.0))
            f1 = f1_score(p, r)
            assert min(p, r) <= f1 <= max(p, r)

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.integers(0, 2, 30)
            scores = rng.uniform(0, 1, 30)
            report = evaluate_scores(scores, y)
            for value in (report.precision, report.recall, report.accuracy,
                          report.f1, report.auc):
                assert 0.0 <= value <= 1.0


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_all_ties_give_half(self):
        assert auc(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_single_class_returns_half(self):
        assert auc(np.array([0.3, 0.7]), np.array([1, 1])) == 0.5

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 51))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            # draw from a small grid so ties actually occur
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
            assert auc(scores, y) == pytest.approx(pairwise_auc(scores, y), abs=1e-12)
            checked += 1

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            scores = rng.uniform(0, 1, n)
            transformed = np.exp(3.0 * scores) + 7.0
            assert auc(scores, y) == pytest.approx(auc(transformed, y), abs=1e-12)

    def test_label_swap_score_flip_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            scores = rng.uniform(0, 1, n)
            assert auc(scores, y) == pytest.approx(auc(1.0 - scores, 1 - y), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            auc(np.array([]), np.array([]))


class TestMidranks:
    @pytest.mark.parametrize("values", [
        np.array([0.3, 0.1, 0.9, 0.5]),  # no ties
        np.full(7, 0.25),  # all tied
        np.array([0.5]),
        np.array([0.2, 0.7, 0.2, 0.2, 0.9, 0.7, 0.1, 0.9, 0.9, 0.9]),  # runs of 1-4
        np.round(np.random.default_rng(4).uniform(size=5000), 2),  # long runs
        np.random.default_rng(5).uniform(size=3001),
    ])
    def test_bitwise_equal_to_the_loop_over_tie_groups(self, values):
        got = _midranks(values)
        assert got.tobytes() == reference_midranks(values).tobytes()


class TestReportFormats:
    def test_csv_row_shape(self):
        report = evaluate_scores(np.array([0.9, 0.2, 0.7, 0.1]), np.array([1, 0, 1, 0]))
        row = metrics_csv_row("cond", report)
        parts = row.split(",")
        assert parts[0] == "cond"
        assert len(parts) == 10

    def test_aligned_text_has_header_and_rows(self):
        report = evaluate_scores(np.array([0.9, 0.2]), np.array([1, 0]))
        text = format_reports([("a", report), ("b", report)])
        lines = text.splitlines()
        assert lines[0].startswith("condition")
        assert len(lines) == 3
        assert "1.0000" in lines[1]
