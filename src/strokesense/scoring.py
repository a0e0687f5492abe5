"""Hierarchical skill scoring.

Five evaluation levels (strength, force direction, velocity, velocity
direction, posture), three per-axis indicators each.  Level weights come
from a pairwise comparison matrix.  Each indicator's loss function is
fixed by its level (``INDICATOR_KINDS``), not by the profile: maximal
indicators (strength, velocity) score ``1 - 1 / (1 + exp((x - center) /
(up - down)))``; interval ones (both directions, posture) score 1 inside
``[lo, hi]`` and ``exp(-d/k1)`` below or ``exp(-d/k2)`` above it, d being
the distance to the band.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StrokeSenseError, finite_array
from .labels import StrokeLabel
from .windows import MotionWindow, block_rows

N_LEVELS = 5
N_INDICATORS = 15
LEVEL_NAMES = ["strength", "force_direction", "velocity", "velocity_direction", "posture"]
LEVEL_KINDS = ["maximal", "interval", "maximal", "interval", "interval"]
#: Each indicator's kind: its level's, once per axis.
INDICATOR_KINDS = tuple(kind for kind in LEVEL_KINDS for _ in range(3))
_MAXIMAL = np.array([kind == "maximal" for kind in INDICATOR_KINDS])
_STATS = ("center", "up", "down", "lo", "hi", "k1", "k2")

#: Saaty random consistency index by matrix order.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41}

#: Reference five-level pairwise comparison matrix.
REFERENCE_AHP_MATRIX = np.array(
    [
        [1.0, 1 / 3, 1.0, 1 / 5, 1 / 7],
        [3.0, 1.0, 3.0, 3.0, 1 / 5],
        [1.0, 1 / 3, 1.0, 1 / 3, 1 / 7],
        [5.0, 1 / 3, 3.0, 1.0, 1 / 3],
        [7.0, 5.0, 7.0, 3.0, 1.0],
    ]
)

#: Rounded level weights matching the reference comparison matrix.
REFERENCE_LEVEL_WEIGHTS = np.array([0.056, 0.206, 0.059, 0.172, 0.508])


# --- level weights --------------------------------------------------------

def _check_reciprocal(a: np.ndarray) -> float:
    """Validate a positive reciprocal matrix up to a uniform positive
    scale; returns that scale (diagonal value)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StrokeSenseError("matrix must be square")
    if not (a > 0).all():
        raise StrokeSenseError("matrix entries must be positive")
    diag = np.diag(a)
    c = float(diag[0])
    if not np.allclose(diag, c, rtol=1e-9, atol=0):
        raise StrokeSenseError("diagonal entries must be equal")
    if not np.allclose(a * a.T, c * c, rtol=1e-9, atol=0):
        raise StrokeSenseError("a_ij * a_ji must equal the squared diagonal")
    return c


def consistency(a) -> tuple:
    """(lambda_max, CI, CR) of a comparison matrix."""
    a = np.asarray(a, dtype=float)
    scale = _check_reciprocal(a)
    n = a.shape[0]
    # a positive matrix's principal (Perron) eigenvalue is real and largest
    lam = float(np.linalg.eigvals(a / scale).real.max())
    ci = (lam - n) / (n - 1) if n > 1 else 0.0
    ri = RANDOM_INDEX.get(n, RANDOM_INDEX[max(RANDOM_INDEX)])
    cr = ci / ri if ri > 0 else 0.0
    return lam, ci, cr


def ahp_weights(a) -> np.ndarray:
    """Level weights from a comparison matrix: normalize each column to
    sum 1, then average the rows (sum-normalized priority vector).

    Warns when the consistency ratio exceeds 0.1.  Invariant under uniform
    positive scaling of the matrix.
    """
    a = np.asarray(a, dtype=float)
    _, _, cr = consistency(a)  # validates the matrix
    if cr > 0.1:
        warnings.warn(f"comparison matrix consistency ratio {cr:.3f} exceeds 0.1")
    weights = (a / a.sum(axis=0)).mean(axis=1)
    return weights / weights.sum()


# --- per-window indicator values ------------------------------------------

def _velocity(acc: np.ndarray, acc_mean: np.ndarray, sample_period: float) -> np.ndarray:
    """Velocity of (..., width, 3) acceleration, after removing its window
    mean (..., 1, 3), by the trapezoid rule along the sample axis: v(0) = 0
    and v(i) = v(i-1) + dt * (a(i-1) + a(i)) / 2.

    Subtracting the window-mean acceleration strips gravity and sensor
    bias and bounds integration drift over a single stroke window.
    """
    a = acc - acc_mean
    # scipy's cumulative_trapezoid order of operations keeps the bits equal to the oracle's
    steps = sample_period * (a[..., 1:, :] + a[..., :-1, :]) / 2.0
    return np.concatenate([np.zeros_like(a[..., :1, :]), np.cumsum(steps, axis=-2)], axis=-2)


def _direction_angles(vecs: np.ndarray) -> np.ndarray:
    """Per-axis direction angles of each row of an (m, 3) array, degrees;
    a vanishing vector maps to the neutral 90 degrees.

    Each row's norm is ``np.linalg.norm`` of that 3-vector alone, a dot
    product; a norm along an axis rounds differently.
    """
    norms = np.array([np.linalg.norm(v) for v in vecs])
    small = norms < 1e-12
    cosines = np.clip(vecs / np.where(small, 1.0, norms)[:, None], -1.0, 1.0)
    return np.where(small[:, None], 90.0, np.degrees(np.arccos(cosines)))


def _indicator_block(channels: np.ndarray, sample_period: float) -> np.ndarray:
    """(b, 15) indicator values of a stacked (b, width, 9) block."""
    b = len(channels)
    acc = channels[:, :, 0:3]
    acc_mean = acc.mean(axis=1)
    v = _velocity(acc, acc_mean[:, None], sample_period)
    # one mean over the sample axis, which sums each column in sample order
    # whatever the number of columns
    means = np.concatenate([np.abs(acc), v, np.abs(v), channels[:, :, 6:9]], axis=2).mean(axis=1)
    angles = _direction_angles(np.concatenate([acc_mean, means[:, 3:6]]))
    return np.concatenate([means[:, 0:3], angles[:b], means[:, 6:9], angles[b:], means[:, 9:12]], axis=1)


def indicator_matrix(windows: Sequence[MotionWindow]) -> np.ndarray:
    """The 15 indicator values per window, (m, 15), five levels x three
    axes: mean |acc| per axis; acc-direction angles; mean |v| per axis;
    velocity-direction angles; window-mean Euler angles."""
    return block_rows(_indicator_block, windows, N_INDICATORS)


# --- reference profiles ---------------------------------------------------

@dataclass(eq=False)
class StandardProfile:
    """Per-stroke reference statistics, one (15,) array each, indexed like
    the indicator values.  Checked on construction: every statistic is
    finite, k1, k2 > 0, lo <= hi, and up > down on the maximal indicators."""

    stroke: StrokeLabel
    center: np.ndarray
    up: np.ndarray
    down: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        for name in _STATS:
            setattr(self, name, finite_array(getattr(self, name), name, (N_INDICATORS,)))
        if not ((self.k1 > 0) & (self.k2 > 0)).all():
            raise StrokeSenseError("loss coefficients must be positive")
        if (self.lo > self.hi).any():
            raise StrokeSenseError("interval bounds out of order")
        if (self.up <= self.down)[_MAXIMAL].any():
            raise StrokeSenseError("up - down collapsed to zero")

    def to_dict(self) -> dict:
        rows = np.stack([getattr(self, name) for name in _STATS], axis=1).tolist()
        return {
            "stroke": self.stroke.name,
            "indicators": [
                {"kind": kind, **dict(zip(_STATS, row))}
                for kind, row in zip(INDICATOR_KINDS, rows)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StandardProfile":
        specs = d["indicators"]
        for i, (spec, kind) in enumerate(zip(specs, INDICATOR_KINDS)):
            if spec["kind"] != kind:
                raise StrokeSenseError(f"indicator {i} is {kind!r}, not {spec['kind']!r}")
        return cls(
            StrokeLabel.from_name(d["stroke"]),
            *([spec[name] for spec in specs] for name in _STATS),
        )

def build_profile(reference_windows: Sequence[MotionWindow]) -> StandardProfile:
    """Pool per-window indicator values over a reference set.

    center = mean, up/down = max/min (epsilon-widened when collapsed),
    interval bounds = 5th/95th percentiles, loss coefficients = pooled
    std (floored).
    """
    if len(reference_windows) < 2:
        raise StrokeSenseError("need at least 2 reference windows")
    labels = {w.label for w in reference_windows}
    if len(labels) != 1:
        raise StrokeSenseError(f"reference windows carry labels {labels}")
    stroke = labels.pop()
    if stroke is None:
        raise StrokeSenseError("reference windows must be labeled")

    # one contiguous row per indicator, so each is reduced as a lone column
    V = np.ascontiguousarray(indicator_matrix(reference_windows).T)
    center = V.mean(axis=1)
    up, down = V.max(axis=1), V.min(axis=1)
    eps = 1e-6 * np.maximum(1.0, np.abs(center))
    collapsed = up - down < eps
    up = np.where(collapsed, center + eps, up)
    down = np.where(collapsed, center - eps, down)
    lo, hi = np.percentile(V, [5, 95], axis=1)
    k = np.maximum(V.std(axis=1), eps)
    return StandardProfile(stroke, center, up, down, lo, hi, k, k)


# --- indicator and level scores -------------------------------------------

def indicator_scores(values: np.ndarray, profile: StandardProfile) -> np.ndarray:
    """The indicator scores of a (..., 15) value array, each by its kind's
    loss function (see the module docstring)."""
    v = np.asarray(values, dtype=float)
    p = profile
    scale = np.where(_MAXIMAL, p.up - p.down, 1.0)  # only maximal ones have up > down
    # Far above the range exp overflows to inf and the score is exactly 1;
    # a d/k that overflows to inf scores exactly 0.
    with np.errstate(over="ignore"):
        maximal = 1.0 - 1.0 / (1.0 + np.exp((v - p.center) / scale))
        # lo <= hi, so at most one term is non-zero: d/k1 below the band, d/k2 above it
        interval = np.exp(-(np.maximum(p.lo - v, 0.0) / p.k1 + np.maximum(v - p.hi, 0.0) / p.k2))
    return np.where(_MAXIMAL, maximal, interval)


def total_score(q: Sequence[float], k: Sequence[float]):
    """Weighted sum of five level scores in [0, 1]: a float for a (5,)
    vector; for an (m, 5) array, the (m,) row totals, each its own dot
    product, as one (m, 5) @ (5,) product may round differently.  Weights
    must be non-negative and sum to 1 within 0.01 (loose enough to accept
    the rounded reference weights, which sum to 1.001)."""
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != N_LEVELS or k.shape != (N_LEVELS,):
        raise StrokeSenseError(f"need {N_LEVELS} scores and {N_LEVELS} weights")
    if (k < 0).any() or abs(k.sum() - 1.0) > 0.01:
        raise StrokeSenseError(f"weights must be non-negative and sum to 1, got {k}")
    if not ((q >= 0) & (q <= 1)).all():
        raise StrokeSenseError("level scores must lie in [0, 1]")
    if q.ndim == 1:
        return float(q @ k)
    return np.array([float(row @ k) for row in q])


@dataclass
class ScoreReport:
    """Per-window scoring result: the five level scores and their total."""

    q: np.ndarray
    total: float


def score_windows(
    windows: Sequence[MotionWindow],
    profile: StandardProfile,
    weights: Optional[np.ndarray] = None,
) -> tuple:
    """Score windows against a reference profile: their (m, 5) level
    scores, each the mean of its three axis indicator scores, and (m,)
    totals weighing the levels by ``weights``, the reference AHP weights
    by default.  A window labeled with another stroke is rejected."""
    other = next((w.label for w in windows if w.label not in (None, profile.stroke)), None)
    if other is not None:
        raise StrokeSenseError(f"window labeled {other.name}, profile is {profile.stroke.name}")
    if weights is None:
        weights = ahp_weights(REFERENCE_AHP_MATRIX)
    scores = indicator_scores(indicator_matrix(windows), profile)
    q = scores.reshape(len(scores), N_LEVELS, 3).mean(axis=2)
    return q, total_score(q, weights)


def score_window(
    window: MotionWindow,
    profile: StandardProfile,
    weights: Optional[np.ndarray] = None,
) -> ScoreReport:
    """Score one window: :func:`score_windows` of that window alone."""
    (q,), (total,) = score_windows([window], profile, weights)
    return ScoreReport(q, float(total))
