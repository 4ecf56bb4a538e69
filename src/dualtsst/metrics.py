"""Evaluation statistics: accuracy, chance-corrected agreement (kappa),
confusion matrices, and the Wilcoxon signed-rank paired test.

Kappa's chance agreement is the product of the true and predicted class
marginals (Cohen's convention); for class-balanced true labels it equals
1/M.

The Wilcoxon test drops zero differences, midranks ties, and reports
W = min(W+, W-) with a two-sided p-value.  With at most 12 effective
pairs the p-value is exact, defined as P(min(W+, W-) <= W_observed) over
all equiprobable sign assignments; beyond that a normal approximation
with tie and continuity corrections is used.  If every difference is
zero the test is undefined and reported as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import atomic_open
from .errors import DataError

EXACT_LIMIT = 12


# ---------------------------------------------------------------------------
# confusion matrix statistics
# ---------------------------------------------------------------------------


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts[i, j] = trials with true class i predicted as j."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise DataError("true/predicted label vectors differ in length")
    if y_true.size and (y_true.min() < 0 or y_true.max() >= n_classes
                        or y_pred.min() < 0 or y_pred.max() >= n_classes):
        raise DataError(f"labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(cm) / total)


def expected_agreement(cm: np.ndarray) -> float:
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    return float(np.sum(cm.sum(axis=1) * cm.sum(axis=0)) / total**2)


def kappa(cm: np.ndarray) -> float:
    """(P_o - P_e) / (1 - P_e)."""
    p_o = accuracy(cm)
    p_e = expected_agreement(cm)
    if p_e >= 1.0:
        # every marginal concentrated on one class; agreement is total or broken
        if p_o == 1.0:
            return 1.0
        raise DataError("degenerate marginals: chance agreement is 1 but accuracy is not")
    return (p_o - p_e) / (1.0 - p_e)


def per_class_recall(cm: np.ndarray) -> np.ndarray:
    cm = np.asarray(cm, dtype=np.float64)
    row = cm.sum(axis=1)
    out = np.zeros(cm.shape[0])
    nonzero = row > 0
    out[nonzero] = np.diag(cm)[nonzero] / row[nonzero]
    return out


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------


@dataclass
class WilcoxonResult:
    statistic: float | None
    p_value: float | None
    n_effective: int
    method: str  # "exact" | "normal" | "undefined"

    @property
    def defined(self) -> bool:
        return self.method != "undefined"


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """P(min(W+, W-) <= w_obs) by dynamic programming over doubled ranks."""
    doubled = np.round(ranks * 2).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for d in doubled:  # doubled midranks are always >= 2
        counts[d:] += counts[:-d].copy()
    sums = np.arange(total + 1)
    hit = np.minimum(sums, total - sums) <= round(2 * w_obs)
    return float(counts[hit].sum() / 2.0 ** len(ranks))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired test on a - b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DataError("wilcoxon needs two equal-length 1-d samples")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(statistic=None, p_value=None, n_effective=0,
                              method="undefined")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        return WilcoxonResult(statistic=w, p_value=_exact_p(ranks, w),
                              n_effective=n, method="exact")
    mu = n * (n + 1) / 4.0
    # tie correction: subtract sum(t^3 - t)/48 over tied groups
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts)) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if sigma == 0.0:
        return WilcoxonResult(statistic=w, p_value=None, n_effective=n,
                              method="undefined")
    z = (w - mu + 0.5) / sigma  # continuity correction toward the mean
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(statistic=w, p_value=p, n_effective=n, method="normal")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    accuracy: float
    kappa: float
    per_class_recall: list
    confusion: np.ndarray
    n: int
    class_names: list
    config: dict | None = None
    subjects: dict | None = None  # subject_summary, when the trials span several subjects


def evaluate_predictions(y_true, y_pred, class_names, config=None) -> EvalReport:
    cm = confusion_matrix(y_true, y_pred, len(class_names))
    return EvalReport(
        accuracy=accuracy(cm),
        kappa=kappa(cm),
        per_class_recall=[float(r) for r in per_class_recall(cm)],
        confusion=cm,
        n=int(cm.sum()),
        class_names=list(class_names),
        config=config,
    )


def export_report(report: EvalReport, out_dir) -> tuple:
    """Atomically write ``confusion.csv`` (pred_<class> columns) and ``report.json``."""
    out_dir = Path(out_dir)
    csv_path = out_dir / "confusion.csv"
    header = ",".join(f"pred_{name}" for name in report.class_names)
    rows = [",".join(str(int(v)) for v in row) for row in report.confusion]
    with atomic_open(csv_path) as fh:
        fh.write(header + "\n" + "\n".join(rows) + "\n")

    json_path = out_dir / "report.json"
    payload = {
        "accuracy": report.accuracy,
        "kappa": report.kappa,
        "per_class_recall": report.per_class_recall,
        "n": report.n,
        "class_names": report.class_names,
        "config": report.config,
    }
    if report.subjects is not None:
        payload["subjects"] = report.subjects
    with atomic_open(json_path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return csv_path, json_path


def subject_summary(groups: dict, n_classes: int) -> dict:
    """Per-subject accuracy and kappa, and their means over subjects.

    ``groups`` maps subject id -> (y_true, y_pred).
    """
    if not groups:
        raise DataError("no subjects to summarise")
    per_subject = {}
    for subject, (y_true, y_pred) in sorted(groups.items()):
        cm = confusion_matrix(y_true, y_pred, n_classes)
        per_subject[subject] = {"accuracy": accuracy(cm), "kappa": kappa(cm), "n": int(cm.sum())}
    return {
        "per_subject": per_subject,
        "kappa_mean": float(np.mean([v["kappa"] for v in per_subject.values()])),
        "accuracy_mean": float(np.mean([v["accuracy"] for v in per_subject.values()])),
    }
