"""Confusion-matrix metrics and rank-based AUC for binary classifiers.

Zero-denominator cells yield 0.0 instead of NaN; the report's counts show
which cells those are. AUC is the Mann-Whitney statistic: the probability
that a random positive outscores a random negative, with ties credited one
half, and 0.5 when only one class is present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

CSV_HEADER = "condition,precision,recall,accuracy,f1,auc,tp,tn,fp,fn"


@dataclass
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    precision: float
    recall: float
    accuracy: float
    f1: float
    auc: float
    counts: ConfusionMatrix


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    """Count TP/TN/FP/FN with 1 (returned) as the positive class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise DataError("cannot evaluate an empty prediction set")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} entries must be 0 or 1")
    return ConfusionMatrix(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of their group."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    boundaries = np.flatnonzero(np.diff(ordered) != 0)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [values.size]])
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auc(scores: np.ndarray, y_true: np.ndarray) -> float:
    """Rank-based AUC; returns 0.5 when only one class is present."""
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true)
    if scores.size == 0:
        raise DataError("cannot compute AUC on empty input")
    if scores.shape != y_true.shape:
        raise ValueError("scores and labels have different lengths")
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[y_true == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(
    cm: ConfusionMatrix, scores: np.ndarray, y_true: np.ndarray
) -> MetricsReport:
    """Precision/recall/accuracy/F1 from counts plus AUC from the scores."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    return MetricsReport(
        precision=precision,
        recall=recall,
        accuracy=(cm.tp + cm.tn) / cm.total if cm.total else 0.0,
        f1=f1_score(precision, recall),
        auc=auc(scores, y_true),
        counts=cm,
    )


def evaluate_scores(scores: np.ndarray, y_true: np.ndarray) -> MetricsReport:
    """Full report for probability scores, a row predicted positive at >= 0.5."""
    y_pred = (np.asarray(scores) >= 0.5).astype(np.int64)
    return compute_metrics(confusion_matrix(y_true, y_pred), scores, y_true)


def metrics_csv_row(condition: str, report: MetricsReport) -> str:
    cm = report.counts
    return (
        f"{condition},{report.precision:.4f},{report.recall:.4f},{report.accuracy:.4f},"
        f"{report.f1:.4f},{report.auc:.4f},{cm.tp},{cm.tn},{cm.fp},{cm.fn}"
    )


def format_reports(rows: list[tuple[str, MetricsReport]]) -> str:
    """Aligned-column text table with four decimals per metric."""
    header = ["condition", "precision", "recall", "accuracy", "f1", "auc"]
    body = [
        [name] + [f"{v:.4f}" for v in (r.precision, r.recall, r.accuracy, r.f1, r.auc)]
        for name, r in rows
    ]
    widths = [max(len(h), *(len(line[i]) for line in body)) if body else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for line in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)
