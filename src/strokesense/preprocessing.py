"""Single-channel signal cleaning on plain arrays.

Three stages, applied in order: first-difference 3-sigma outlier removal,
cubic Newton interpolation of the resulting gaps, and threshold-adaptive
exponential smoothing.  A channel is a float array of values.  The gap
fill also takes the sample positions and a boolean known/missing mask of
the same length; outlier removal returns such a mask.  The full chain
fills on the sample slots.  No stage modifies its inputs.
"""

from typing import Optional, Tuple

import numpy as np

from .errors import StrokeSenseError
from .io import SensorSeries, grid_slots

SIGMA_EPS_SCALE = 1e-12  # degenerate-spread guard for outlier removal
DEFAULT_K0 = 0.3
DEFAULT_DELTA_A_FRACTION = 0.05  # of the channel's peak-valley span
FILL_SUPPORT = 4  # known samples behind each cubic Newton fill
_HOLD_BLOCK = 32  # inputs per block that the smoother may pass over at once


def diff_stats(values) -> Tuple[float, float]:
    """(ex, sigma): mean and std of the first differences of gap-free
    values.

    Both moments divide by the number of differences (n - 1 samples give
    n - 1 diffs; population convention).
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise StrokeSenseError("need at least 2 samples for first differences")
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


def newton_fill(values, positions, present) -> np.ndarray:
    """Fill every missing sample (``present`` False) with the cubic Newton
    interpolant built on its four nearest known samples; returns the
    filled values.

    ``values``, ``positions`` and ``present`` must have one length, and
    the positions must be strictly increasing (``StrokeSenseError``).  Gaps are
    filled left to right; earlier fills become usable support for later
    ones.  So when gap ``j`` is filled every sample left of it is known,
    and its four nearest supports lie among ``j-4 .. j-1`` and the first
    four originally known samples right of ``j``.  Which four depends only
    on the positions and the mask, so they are picked for all gaps at once
    from a (gaps, 8) table of those candidates.  Ties on distance go to
    the lower index (a stable sort of the candidates in index order).
    Only the divided differences and their Horner evaluation then run gap
    by gap, on Python floats (which round as float64 array elements do),
    reading the fills of earlier gaps; the whole fill is O(gaps + n).
    """
    values = np.asarray(values, dtype=float)
    positions = np.asarray(positions, dtype=float)
    present = np.asarray(present, dtype=bool)
    if not len(values) == len(positions) == len(present):
        raise StrokeSenseError("values, positions and present must be equal length")
    if len(positions) > 1 and not (np.diff(positions) > 0).all():
        raise StrokeSenseError("positions must be strictly increasing")
    known_idx = np.nonzero(present)[0]
    if len(known_idx) < FILL_SUPPORT:
        raise StrokeSenseError(
            f"need at least {FILL_SUPPORT} known samples, have {len(known_idx)}"
        )
    missing = np.nonzero(~present)[0]
    steps = np.arange(FILL_SUPPORT)
    behind = missing[:, None] - FILL_SUPPORT + steps
    ahead = np.searchsorted(known_idx, missing)[:, None] + steps
    valid = np.hstack((behind >= 0, ahead < len(known_idx)))
    cand = np.hstack((np.maximum(behind, 0), known_idx[np.minimum(ahead, len(known_idx) - 1)]))
    # An invalid slot (before index 0, past the last known sample) reads
    # NaN, which sorts after every distance, inf included.
    dist = np.where(valid, np.abs(positions[cand] - positions[missing, None]), np.nan)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :FILL_SUPPORT]
    picked = np.sort(np.take_along_axis(cand, nearest, axis=1), axis=1)
    # Gap g reads its supports from a pool and writes its fill to pool[g];
    # a support that was itself a gap reads that gap's slot.
    gaps = len(missing)
    slots = np.where(
        present[picked],
        gaps + np.arange(picked.size).reshape(picked.shape),
        np.searchsorted(missing, picked),
    )
    pool = values[np.concatenate((missing, picked.ravel()))].tolist()
    for g, x, (a, b, c, d), (x0, x1, x2, x3) in zip(
        range(gaps), positions[missing].tolist(), slots.tolist(), positions[picked].tolist()
    ):
        y0, y1, y2, y3 = pool[a], pool[b], pool[c], pool[d]
        # divided differences of orders 1, 2 and 3, each updated top down
        y3, y2, y1 = (y3 - y2) / (x3 - x2), (y2 - y1) / (x2 - x1), (y1 - y0) / (x1 - x0)
        y3, y2 = (y3 - y2) / (x3 - x1), (y2 - y1) / (x2 - x0)
        y3 = (y3 - y2) / (x3 - x0)
        pool[g] = ((y3 * (x - x2) + y2) * (x - x1) + y1) * (x - x0) + y0
    filled = values.copy()
    filled[missing] = pool[:gaps]
    return filled


def adaptive_filter(
    values, k0: float = DEFAULT_K0, delta_a: float = 0.05
) -> np.ndarray:
    """Threshold-adaptive exponential smoother of gap-free values with
    default gain ``k0`` in [0, 1] and motion threshold ``delta_a`` > 0.

    Each step forms a provisional output at the default gain k0 to measure
    the step size D; when |D| exceeds the motion threshold the gain becomes
    (1 - delta_a/|D|) * k0 clamped to [0, k0], otherwise the output holds.
    The recurrence runs on plain Python floats, which round exactly as
    float64 array elements do.  Most samples hold, so the inputs are taken
    in blocks of ``_HOLD_BLOCK``: with the output y fixed, D rounds
    monotonically in the input (k0 >= 0), so when the block's smallest and
    largest inputs both hold, every input does, and the block's outputs
    are y.  A held output is 0*x + 1*y, which is y itself unless y is
    +-0.0 (0.0 + -0.0 is 0.0), so no block is passed over while y == 0.
    """
    if not 0.0 <= k0 <= 1.0:
        raise StrokeSenseError(f"k0 must lie in [0, 1], got {k0}")
    if not 0 < delta_a < np.inf:
        raise StrokeSenseError(f"delta_a must be positive and finite, got {delta_a}")
    values = np.asarray(values, dtype=float)
    xs = values.tolist()
    hold = 1.0 - k0
    ys = xs[:1]
    y_prev = xs[0] if xs else None
    starts = np.arange(1, len(xs), _HOLD_BLOCK)
    lows = np.minimum.reduceat(values, starts).tolist()
    highs = np.maximum.reduceat(values, starts).tolist()
    for start, lo, hi in zip(starts.tolist(), lows, highs):
        block = xs[start : start + _HOLD_BLOCK]
        # <= fails on a NaN step, which then takes the step-by-step path
        if (
            y_prev != 0.0
            and abs(k0 * lo + hold * y_prev - y_prev) <= delta_a
            and abs(k0 * hi + hold * y_prev - y_prev) <= delta_a
        ):
            ys.extend([y_prev] * len(block))
            continue
        for x in block:
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
    present,
    k0: float = DEFAULT_K0,
    delta_a: Optional[float] = None,
) -> np.ndarray:
    """Full cleaning chain of one uniformly sampled channel: gap fill,
    outlier removal, refill of the removed samples, adaptive smoothing.
    Returns the cleaned values.

    The fills interpolate on the sample slots ``0 .. n-1``, not on times,
    so the result depends only on the values and the mask, never on the
    clock origin or the period.  ``delta_a`` defaults to 5% of the
    channel's peak-valley span measured after interpolation.
    """
    values = np.asarray(values, dtype=float)
    slots = np.arange(len(values), dtype=float)
    if not np.all(present):
        values = newton_fill(values, slots, present)
    present = remove_outliers(values)
    if not present.all():
        values = newton_fill(values, slots, present)
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
    gap-free and uniformly sampled, stamped ``t[0] + k * period``.  Rows
    land on their :func:`~strokesense.io.grid_slots`, which raises for two
    rows in one slot rather than let one overwrite the other.
    """
    p = series.sample_period
    idx = grid_slots(series)
    n_full = int(idx[-1]) + 1
    base_present = np.zeros(n_full, dtype=bool)
    base_present[idx] = True

    out = np.empty((n_full, series.channels.shape[1]))
    for ch in range(series.channels.shape[1]):
        values = np.zeros(n_full)
        values[idx] = series.channels[:, ch]
        out[:, ch] = preprocess_channel(values, base_present, k0=k0, delta_a=delta_a)
    return SensorSeries(series.t[0] + np.arange(n_full) * p, out, sample_period=p)
