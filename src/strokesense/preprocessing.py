"""Single-channel signal cleaning on plain arrays.

Three stages, applied in order: first-difference 3-sigma outlier removal,
cubic Newton interpolation of the resulting gaps, and threshold-adaptive
exponential smoothing.  A channel is a float array of values.  The gap
fill also takes the sample positions and a boolean known/missing mask of
the same length; outlier removal returns such a mask.  No stage modifies
its inputs.
"""

from typing import Optional, Tuple

import numpy as np

from .errors import InsufficientSupport, NonMonotonicTime, TooShort
from .io import SensorSeries

SIGMA_EPS_SCALE = 1e-12  # degenerate-spread guard for outlier removal
DEFAULT_K0 = 0.3
DEFAULT_DELTA_A_FRACTION = 0.05  # of the channel's peak-valley span


def diff_stats(values) -> Tuple[float, float]:
    """(ex, sigma): mean and std of the first differences of gap-free
    values.

    Both moments divide by the number of differences (n - 1 samples give
    n - 1 diffs; population convention).
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise TooShort("need at least 2 samples for first differences")
    diffs = np.diff(values)
    ex = float(diffs.mean())
    sigma = float(np.sqrt(np.mean((diffs - ex) ** 2)))
    return ex, sigma


def remove_outliers(values) -> np.ndarray:
    """The known/missing mask left by the 3-sigma rule on gap-free values:
    False marks a sample whose incoming first difference violates it.

    A difference X_i outside the open interval (EX - 3s, EX + 3s) flags
    sample x_{i+1}.  A near-zero spread (constant channel) removes nothing.
    """
    values = np.asarray(values, dtype=float)
    ex, sigma = diff_stats(values)
    present = np.ones(len(values), dtype=bool)
    if sigma < SIGMA_EPS_SCALE * max(1.0, abs(ex)):
        return present
    diffs = np.diff(values)
    lo, hi = ex - 3 * sigma, ex + 3 * sigma
    present[1:] = (diffs > lo) & (diffs < hi)
    return present


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


def newton_fill(values, positions, present, support: int = 4) -> np.ndarray:
    """Fill every missing sample (``present`` False) with the cubic Newton
    interpolant built on its four nearest known samples; returns the
    filled values.

    ``values``, ``positions`` and ``present`` must have one length, and
    the positions must be strictly increasing (``ValueError``).  Gaps are
    filled left to right; earlier fills become usable support for later
    ones.  So when gap ``j`` is filled every sample left of it is known,
    and its four nearest supports lie among ``j-4 .. j-1`` and the first
    four originally known samples right of ``j``.  One ``searchsorted``
    over the known positions finds those candidates for all gaps, which
    makes the fill O(gaps + n).  Ties on distance go to the lower index (a
    stable sort of the candidates in index order).
    """
    values = np.array(values, dtype=float)
    positions = np.asarray(positions, dtype=float)
    present = np.asarray(present, dtype=bool)
    if not len(values) == len(positions) == len(present):
        raise ValueError("values, positions and present must be equal length")
    if len(positions) > 1 and not (np.diff(positions) > 0).all():
        raise ValueError("positions must be strictly increasing")
    known_idx = np.nonzero(present)[0]
    if len(known_idx) < support:
        raise InsufficientSupport(
            f"need at least {support} known samples, have {len(known_idx)}"
        )
    missing = np.nonzero(~present)[0]
    right = np.searchsorted(known_idx, missing)
    for j, r in zip(missing.tolist(), right.tolist()):
        near = np.concatenate(
            (np.arange(max(j - support, 0), j), known_idx[r : r + support])
        )
        order = np.argsort(np.abs(positions[near] - positions[j]), kind="stable")
        picked = np.sort(near[order[:support]])
        xs, ys = positions[picked], values[picked]
        values[j] = _divided_difference_fill(xs, ys, float(positions[j]))
    return values


def adaptive_filter(
    values, k0: float = DEFAULT_K0, delta_a: float = 0.05
) -> np.ndarray:
    """Threshold-adaptive exponential smoother of gap-free values with
    default gain ``k0`` in [0, 1] and motion threshold ``delta_a`` > 0.

    Each step forms a provisional output at the default gain k0 to measure
    the step size D; when |D| exceeds the motion threshold the gain becomes
    (1 - delta_a/|D|) * k0 clamped to [0, k0], otherwise the output holds.
    The recurrence runs on plain Python floats, which round exactly as
    float64 array elements do.
    """
    if not 0.0 <= k0 <= 1.0:
        raise ValueError(f"k0 must lie in [0, 1], got {k0}")
    if not 0 < delta_a < np.inf:
        raise ValueError(f"delta_a must be positive and finite, got {delta_a}")
    xs = np.asarray(values, dtype=float).tolist()
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
    return np.array(ys, dtype=float)


def preprocess_channel(
    values,
    positions,
    present,
    k0: float = DEFAULT_K0,
    delta_a: Optional[float] = None,
) -> np.ndarray:
    """Full cleaning chain: gap fill, outlier removal, refill of the
    removed samples, adaptive smoothing.  Returns the cleaned values.

    ``delta_a`` defaults to 5% of the channel's peak-valley span measured
    after interpolation.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(present):
        values = newton_fill(values, positions, present)
    present = remove_outliers(values)
    if not present.all():
        values = newton_fill(values, positions, present)
    if delta_a is None:
        span = float(values.max() - values.min())
        delta_a = max(DEFAULT_DELTA_A_FRACTION * span, 1e-12)
    return adaptive_filter(values, k0=k0, delta_a=delta_a)


def preprocess_series(
    series: SensorSeries,
    k0: float = DEFAULT_K0,
    delta_a: Optional[float] = None,
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
        out[:, ch] = preprocess_channel(values, grid_t, base_present, k0=k0, delta_a=delta_a)
    return SensorSeries(grid_t, out, sample_period=p)
