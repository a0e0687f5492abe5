"""Confusion matrix, per-class precision/recall and the alpha-weighted F
measure (alpha trades recall against precision; 0.5 recovers classical F1).
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import StrokeSenseError
from .labels import N_CLASSES

DEFAULT_ALPHA = 0.7


@dataclass
class ConfusionMatrix:
    """counts[true][predicted], six stroke classes."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.shape != (N_CLASSES, N_CLASSES) or (self.counts < 0).any():
            raise StrokeSenseError("counts must be a non-negative 6x6 matrix")

    @property
    def accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0


def confusion(true_labels: Sequence[int], predicted_labels: Sequence[int]) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=int)
    predicted_labels = np.asarray(predicted_labels, dtype=int)
    if true_labels.shape != predicted_labels.shape:
        raise StrokeSenseError("label sequences differ in length")
    for arr in (true_labels, predicted_labels):
        if arr.size and (((arr < 0) | (arr >= N_CLASSES)).any()):
            raise StrokeSenseError("label outside 0-5")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(counts, (true_labels, predicted_labels), 1)
    return ConfusionMatrix(counts)


#: The per-class scores, in report order.
_SCORES = ("precision", "recall", "f_measure")


def _class_scores(m: ConfusionMatrix, alpha: float = DEFAULT_ALPHA):
    """(6,) precision, recall and F arrays from the diagonal (TP), column
    sums (TP + FP) and row sums (TP + FN); 0 where a denominator is 0."""
    if not 0.0 <= alpha <= 1.0:
        raise StrokeSenseError(f"alpha must lie in [0, 1], got {alpha}")
    tp = np.diag(m.counts)
    fp = m.counts.sum(axis=0) - tp
    fn = m.counts.sum(axis=1) - tp
    den = 2 * tp + 2 * alpha * fn + 2 * (1 - alpha) * fp
    return tuple(
        np.divide(num, d, out=np.zeros(N_CLASSES), where=d != 0)
        for num, d in ((tp, tp + fp), (tp, tp + fn), (2 * tp, den))
    )


def precision_recall(m: ConfusionMatrix, cls: int) -> Tuple[float, float]:
    """Per-class precision and recall; empty column/row yields 0."""
    if not 0 <= cls < N_CLASSES:
        raise StrokeSenseError(f"class {cls} outside 0-5")
    p, r, _ = _class_scores(m)
    return float(p[cls]), float(r[cls])


def f_measure(m: ConfusionMatrix, cls: int, alpha: float = DEFAULT_ALPHA) -> float:
    """2TP / (2TP + 2*alpha*FN + 2*(1-alpha)*FP); empty denominator -> 0."""
    _, _, f = _class_scores(m, alpha)
    if not 0 <= cls < N_CLASSES:
        raise StrokeSenseError(f"class {cls} outside 0-5")
    return float(f[cls])


def macro_scores(m: ConfusionMatrix, alpha: float = DEFAULT_ALPHA) -> dict:
    """Unweighted per-class averages of precision, recall and F."""
    return {k: float(v.mean()) for k, v in zip(_SCORES, _class_scores(m, alpha))}


def classification_report(m: ConfusionMatrix, alpha: float = DEFAULT_ALPHA) -> dict:
    """Full JSON-ready report: matrix, per-class P/R/F, macro averages."""
    scores = dict(zip(_SCORES, _class_scores(m, alpha)))
    return {
        "alpha": alpha,
        "accuracy": m.accuracy,
        "matrix": m.counts.tolist(),
        "per_class": [
            {"class": cls, **{k: float(v[cls]) for k, v in scores.items()}}
            for cls in range(N_CLASSES)
        ],
        "macro": {k: float(v.mean()) for k, v in scores.items()},
    }


def heatmap_csv(m: ConfusionMatrix) -> str:
    """Dump the matrix as CSV rows (true class per row) for plotting."""
    lines = ["true\\pred," + ",".join(str(c) for c in range(N_CLASSES))]
    for t in range(N_CLASSES):
        lines.append(f"{t}," + ",".join(str(int(v)) for v in m.counts[t]))
    return "\n".join(lines) + "\n"
