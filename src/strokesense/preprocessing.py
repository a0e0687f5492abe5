"""Single-channel signal cleaning.

Three stages, applied in order: first-difference 3-sigma outlier removal,
cubic Newton interpolation of the resulting gaps, and threshold-adaptive
exponential smoothing.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InsufficientSupport, NonMonotonicTime, TooShort
from .io import SensorSeries

SIGMA_EPS_SCALE = 1e-12  # degenerate-spread guard for outlier removal
DEFAULT_K0 = 0.3
DEFAULT_DELTA_A_FRACTION = 0.05  # of the channel's peak-valley span


@dataclass
class ChannelSeries:
    """Scalar samples with positions and a known/missing mask."""

    values: np.ndarray
    positions: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.present = np.asarray(self.present, dtype=bool)
        if not (len(self.values) == len(self.positions) == len(self.present)):
            raise ValueError("values, positions and present must be equal length")
        if len(self.positions) > 1 and not (np.diff(self.positions) > 0).all():
            raise ValueError("positions must be strictly increasing")

    @classmethod
    def from_values(cls, values, positions=None) -> "ChannelSeries":
        values = np.asarray(values, dtype=float)
        if positions is None:
            positions = np.arange(len(values), dtype=float)
        return cls(values, positions, np.ones(len(values), dtype=bool))

    @property
    def gap_free(self) -> bool:
        return bool(self.present.all())

    def __len__(self) -> int:
        return len(self.values)


def diff_stats(channel: ChannelSeries) -> Tuple[float, float]:
    """(ex, sigma): mean and std of the first differences of a gap-free
    channel.

    Both moments divide by the number of differences (n - 1 samples give
    n - 1 diffs; population convention).
    """
    _require_gap_free(channel)
    if len(channel) < 2:
        raise TooShort("need at least 2 samples for first differences")
    diffs = np.diff(channel.values)
    ex = float(diffs.mean())
    sigma = float(np.sqrt(np.mean((diffs - ex) ** 2)))
    return ex, sigma


def remove_outliers(channel: ChannelSeries) -> ChannelSeries:
    """Mark samples whose incoming first difference violates the 3-sigma
    rule as missing.

    A difference X_i outside the open interval (EX - 3s, EX + 3s) flags
    sample x_{i+1}.  A near-zero spread (constant channel) removes nothing.
    """
    ex, sigma = diff_stats(channel)
    values = channel.values.copy()
    present = channel.present.copy()
    if sigma < SIGMA_EPS_SCALE * max(1.0, abs(ex)):
        return ChannelSeries(values, channel.positions.copy(), present)
    diffs = np.diff(values)
    lo, hi = ex - 3 * sigma, ex + 3 * sigma
    bad = ~((diffs > lo) & (diffs < hi))
    present[1:][bad] = False
    return ChannelSeries(values, channel.positions.copy(), present)


def _divided_difference_fill(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """Evaluate the Newton interpolating polynomial through (xs, ys) at x."""
    n = len(xs)
    coeffs = ys.astype(float).copy()
    for order in range(1, n):
        for i in range(n - 1, order - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - order])
    # Horner evaluation of the Newton form
    result = coeffs[-1]
    for i in range(n - 2, -1, -1):
        result = result * (x - xs[i]) + coeffs[i]
    return float(result)


def newton_fill(channel: ChannelSeries, support: int = 4) -> ChannelSeries:
    """Fill every missing sample with the cubic Newton interpolant built
    on its four nearest known samples.

    Gaps are filled left to right; earlier fills become usable support for
    later ones.  So when gap ``j`` is filled every sample left of it is
    known, and its four nearest supports lie among ``j-4 .. j-1`` and the
    first four originally known samples right of ``j``.  One
    ``searchsorted`` over the known positions finds those candidates for
    all gaps, which makes the fill O(gaps + n).  Ties on distance go to
    the lower index (a stable sort of the candidates in index order).
    """
    values = channel.values.copy()
    positions = channel.positions
    known_idx = np.nonzero(channel.present)[0]
    if len(known_idx) < support:
        raise InsufficientSupport(
            f"need at least {support} known samples, have {len(known_idx)}"
        )
    missing = np.nonzero(~channel.present)[0]
    right = np.searchsorted(known_idx, missing)
    for j, r in zip(missing.tolist(), right.tolist()):
        near = np.concatenate(
            (np.arange(max(j - support, 0), j), known_idx[r : r + support])
        )
        order = np.argsort(np.abs(positions[near] - positions[j]), kind="stable")
        picked = np.sort(near[order[:support]])
        xs, ys = positions[picked], values[picked]
        values[j] = _divided_difference_fill(xs, ys, float(positions[j]))
    return ChannelSeries(values, positions.copy(), np.ones(len(values), dtype=bool))


def adaptive_filter(
    channel: ChannelSeries, k0: float = DEFAULT_K0, delta_a: float = 0.05
) -> ChannelSeries:
    """Threshold-adaptive exponential smoother with default gain ``k0`` in
    [0, 1] and motion threshold ``delta_a`` > 0.

    Each step forms a provisional output at the default gain k0 to measure
    the step size D; when |D| exceeds the motion threshold the gain becomes
    (1 - delta_a/|D|) * k0 clamped to [0, k0], otherwise the output holds.
    The recurrence runs on plain Python floats, which round exactly as
    float64 array elements do.
    """
    if not 0.0 <= k0 <= 1.0:
        raise ValueError(f"k0 must lie in [0, 1], got {k0}")
    if delta_a <= 0:
        raise ValueError(f"delta_a must be positive, got {delta_a}")
    _require_gap_free(channel)
    xs = channel.values.tolist()
    hold = 1.0 - k0
    ys = xs[:1]
    y_prev = xs[0] if xs else None
    for x in xs[1:]:
        step = abs(k0 * x + hold * y_prev - y_prev)
        if step > delta_a:
            m = min(max((1.0 - delta_a / step) * k0, 0.0), k0)
        else:
            m = 0.0
        y_prev = m * x + (1.0 - m) * y_prev
        ys.append(y_prev)
    y = np.array(ys, dtype=float)
    return ChannelSeries(y, channel.positions.copy(), np.ones(len(y), dtype=bool))


def preprocess_channel(
    channel: ChannelSeries,
    k0: float = DEFAULT_K0,
    delta_a: Optional[float] = None,
    outlier: bool = True,
    smooth: bool = True,
) -> ChannelSeries:
    """Full cleaning chain: outlier removal, gap fill, adaptive smoothing.

    ``delta_a`` defaults to 5% of the channel's peak-valley span measured
    after interpolation.
    """
    cleaned = channel if channel.gap_free else newton_fill(channel)
    if outlier:
        cleaned = remove_outliers(cleaned)
        if not cleaned.gap_free:
            cleaned = newton_fill(cleaned)
    if not smooth:
        return cleaned
    if delta_a is None:
        span = float(cleaned.values.max() - cleaned.values.min())
        delta_a = max(DEFAULT_DELTA_A_FRACTION * span, 1e-12)
    return adaptive_filter(cleaned, k0=k0, delta_a=delta_a)


def preprocess_series(
    series: SensorSeries,
    k0: float = DEFAULT_K0,
    delta_a: Optional[float] = None,
    outlier: bool = True,
    smooth: bool = True,
) -> SensorSeries:
    """Clean all nine channels of a series, restoring dropped rows.

    Rows implied by timestamp gaps are re-created on the nominal sample
    grid and interpolated alongside outlier-induced gaps.  The result is
    gap-free and uniformly sampled.  Two rows that round to the same grid
    slot raise :class:`NonMonotonicTime` rather than one overwriting the
    other.
    """
    p = series.sample_period
    t0 = float(series.t[0])
    idx = np.round((series.t - t0) / p).astype(int)
    clash = np.nonzero(np.diff(idx) == 0)[0]
    if clash.size:
        i = int(clash[0])
        raise NonMonotonicTime(
            f"rows {i} and {i + 1} (t={float(series.t[i])!r}, "
            f"{float(series.t[i + 1])!r}) round to the same grid slot "
            f"{int(idx[i])} at period {p!r}"
        )
    n_full = int(idx[-1]) + 1
    grid_t = t0 + np.arange(n_full) * p
    base_present = np.zeros(n_full, dtype=bool)
    base_present[idx] = True

    out = np.empty((n_full, series.channels.shape[1]))
    for ch in range(series.channels.shape[1]):
        values = np.zeros(n_full)
        values[idx] = series.channels[:, ch]
        channel = ChannelSeries(values, grid_t, base_present.copy())
        cleaned = preprocess_channel(
            channel, k0=k0, delta_a=delta_a, outlier=outlier, smooth=smooth
        )
        out[:, ch] = cleaned.values
    return SensorSeries(grid_t, out, sample_period=p)


def _require_gap_free(channel: ChannelSeries):
    if not channel.gap_free:
        raise ValueError("operation requires a gap-free channel")
