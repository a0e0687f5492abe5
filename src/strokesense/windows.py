"""Sliding-window segmentation and the stroke activation gate.

Per-window statistics (activation markers here, the 180 features and the
15 scoring indicators elsewhere) are computed in blocks: consecutive
windows of one width and sample period are stacked into a (b, width, 9)
array, at most ``_BLOCK`` at a time, and reduced along the sample axis
with the same numpy reductions, in the same memory order, as one window
alone, so a window's row does not depend on its block.
"""

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SingleClass, TooShort
from .io import SensorSeries
from .labels import StrokeLabel
from .svm import smo_solve

DEFAULT_WIDTH = 200
DEFAULT_OVERLAP = 0.5

#: Windows per stacked block: enough to spread numpy's per-call cost, few
#: enough that a block's temporaries stay small and peak memory does not
#: grow with the number of windows.
_BLOCK = 32

ACTIVATION_FEATURE_NAMES = [
    "acc_mag_mean",
    "acc_mag_var",
    "acc_mag_pv",
    "gyro_mag_mean",
    "gyro_mag_var",
    "gyro_mag_pv",
]


@dataclass
class MotionWindow:
    """A fixed-length contiguous segment of a series."""

    start_index: int
    channels: np.ndarray  # (width, 9)
    sample_period: float = 0.01
    label: Optional[StrokeLabel] = None

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        if self.channels.ndim != 2 or self.channels.shape[1] != 9:
            raise ValueError(f"expected (width, 9) channels, got {self.channels.shape}")

    @property
    def width(self) -> int:
        return self.channels.shape[0]

    @property
    def acc(self) -> np.ndarray:
        return self.channels[:, 0:3]

    @property
    def gyro(self) -> np.ndarray:
        return self.channels[:, 3:6]

    @property
    def angle(self) -> np.ndarray:
        return self.channels[:, 6:9]


def slide_windows(
    series: SensorSeries,
    width: int = DEFAULT_WIDTH,
    overlap: float = DEFAULT_OVERLAP,
) -> List[MotionWindow]:
    """Cut the series into fixed windows; the trailing partial window is
    dropped.  stride = width * (1 - overlap)."""
    if not 0 <= overlap < 1:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    n = len(series)
    if n < width:
        raise TooShort(f"series of {n} samples is shorter than window width {width}")
    stride = int(round(width * (1 - overlap)))
    if stride < 1:
        raise ValueError("stride collapsed to zero; lower the overlap")
    return [
        MotionWindow(
            start_index=start,
            channels=series.channels[start : start + width],
            sample_period=series.sample_period,
        )
        for start in range(0, n - width + 1, stride)
    ]


def majority_labels(
    starts: Sequence[int], width: int, spans: Sequence[Tuple[int, int, str]]
) -> List[str]:
    """Label of each window ``[start, start + width)`` by majority overlap.

    A window takes the label of the span ``(s, e, label)`` that overlaps
    it most, the first such span on a tie, and only if that overlap is at
    least half the window.  Otherwise, and when there are no spans, its
    label is ``""``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if not spans:
        return [""] * len(starts)
    s, e = np.array([span[:2] for span in spans], dtype=np.int64).T
    names = np.array([""] + [span[2] for span in spans], dtype=object)
    labels = []
    step = max(1, (1 << 17) // len(spans))  # windows per block: bounded memory
    for i in range(0, len(starts), step):
        ws = starts[i : i + step, None]
        overlap = np.minimum(e, ws + width) - np.maximum(s, ws)
        best = overlap.argmax(axis=1)
        best_overlap = overlap.max(axis=1)
        keep = (best_overlap > 0) & (2 * best_overlap >= width)
        labels += names[np.where(keep, best + 1, 0)].tolist()
    return labels


def block_rows(
    kernel: Callable[[np.ndarray, float], np.ndarray],
    windows: Sequence[MotionWindow],
    n_cols: int,
) -> np.ndarray:
    """Stack ``kernel(channels, sample_period)`` over blocks of windows.

    Each block holds up to ``_BLOCK`` consecutive windows sharing a width
    and sample period, their channels stacked as a C-ordered (b, width, 9)
    array; the kernel returns its (b, n_cols) rows.  No windows give an
    empty (0, n_cols) array.
    """
    rows = []
    for (_, period), run in groupby(windows, key=lambda w: (w.width, w.sample_period)):
        run = list(run)
        for i in range(0, len(run), _BLOCK):
            rows.append(kernel(np.stack([w.channels for w in run[i : i + _BLOCK]]), period))
    return np.concatenate(rows) if rows else np.empty((0, n_cols))


def _activation_block(channels: np.ndarray, sample_period: float) -> np.ndarray:
    b, width, _ = channels.shape
    mags = np.linalg.norm(channels[:, :, 0:6].reshape(b, width, 2, 3), axis=-1)
    mags = np.ascontiguousarray(mags.transpose(0, 2, 1))  # (b, 2, width)
    stats = (mags.mean(axis=-1), mags.var(axis=-1), mags.max(axis=-1) - mags.min(axis=-1))
    return np.stack(stats, axis=-1).reshape(b, 6)


def activation_matrix(windows: Sequence[MotionWindow]) -> np.ndarray:
    """Six activation markers per window, (m, 6): mean, variance and
    peak-valley of the resultant acceleration and resultant angular-rate
    magnitudes."""
    return block_rows(_activation_block, windows, len(ACTIVATION_FEATURE_NAMES))


def activation_features(window: MotionWindow) -> np.ndarray:
    """The six activation markers of one window."""
    return activation_matrix([window])[0]


@dataclass
class LinearSvmModel:
    """Linear soft-margin activation gate: active iff w.x + b > 0."""

    w: np.ndarray
    b: float
    c: float
    feature_names: Tuple[str, ...] = tuple(ACTIVATION_FEATURE_NAMES)

    def decision(self, features: np.ndarray) -> float:
        return float(np.dot(self.w, features) + self.b)

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "b": self.b,
            "c": self.c,
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearSvmModel":
        return cls(
            w=np.array(d["w"], dtype=float),
            b=float(d["b"]),
            c=float(d["c"]),
            feature_names=tuple(d["feature_names"]),
        )


def train_activation(
    labeled: Sequence[Tuple[MotionWindow, bool]],
    c: float = 1.0,
) -> LinearSvmModel:
    """Fit the linear activation SVM from (window, active?) pairs.

    Features are standardized internally; the returned w/b act on raw
    activation features.
    """
    X = activation_matrix([w for w, _ in labeled])
    y = np.array([1.0 if active else -1.0 for _, active in labeled])
    if len(set(y)) < 2:
        raise SingleClass("need both active and inactive windows")
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    Z = (X - mu) / sd
    K = Z @ Z.T
    alphas, b = smo_solve(K, y, c)
    wz = (alphas * y) @ Z
    # fold the standardization back into raw-feature space
    w = wz / sd
    b_raw = b - float(np.dot(wz, mu / sd))
    return LinearSvmModel(w=w, b=b_raw, c=c)


def is_active(window: MotionWindow, model: LinearSvmModel) -> bool:
    """Gate decision; an exactly-zero decision value counts as inactive."""
    return model.decision(activation_features(window)) > 0
