"""Windowed time-domain feature engineering.

Each window yields 180 features: 12 channels (three sensor axes plus the
resultant magnitude, per sensor) x 15 statistics.  All moments use the
population (1/n) convention; ratio statistics whose denominator collapses
are defined as 0.

One kernel computes all 15 statistics as reductions over the last axis of
a (b, 12, width) block: the windows' channels stacked, each sensor's
magnitude appended, and the sample axis made contiguous.
:func:`feature_matrix` runs it over blocks of windows (see
:func:`strokesense.windows.block_rows`), so memory stays flat in the
number of windows; :func:`window_features` and :func:`channel_stats` are
one-window and one-channel calls of the same kernel.

The statistics are built from ``+ - * /``, ``sqrt`` and numpy reductions
only: every power is a plain product (``c2 = c * c``, then ``c2 * c`` and
``c2 * c2``; ``variance * sigma`` for the variance to the power 1.5).  IEEE
arithmetic rounds these the same way on every host.  numpy's array powers
are not correctly rounded and change with its SIMD dispatch, and libm's
``pow`` can round a square differently from ``v * v``; the feature bits
depend on neither.

numpy sums a contiguous last axis pairwise, exactly as it sums a lone 1-D
channel, so the results are bit-identical to reducing each channel on its
own.
"""

import numpy as np

from .errors import StrokeSenseError
from .windows import MotionWindow, block_rows

DEN_EPS = 1e-12

STAT_NAMES = [
    "mean",
    "variance",
    "max",
    "min",
    "peak_valley",
    "mean_square",
    "rms",
    "corr",
    "crest",
    "pulse",
    "margin",
    "kurtosis_factor",
    "waveform",
    "skewness",
    "kurtosis",
]

CHANNEL_NAMES = [
    "acc_x",
    "acc_y",
    "acc_z",
    "acc_mag",
    "gyro_x",
    "gyro_y",
    "gyro_z",
    "gyro_mag",
    "angle_x",
    "angle_y",
    "angle_z",
    "angle_mag",
]

#: Column names of the 180-feature layout, "<channel>_<stat>".
FEATURE_NAMES = [f"{ch}_{st}" for ch in CHANNEL_NAMES for st in STAT_NAMES]

N_FEATURES = len(FEATURE_NAMES)


#: Correlation partner index per channel: cyclic x->y->z->x within a
#: sensor; magnitudes pair with the next sensor's magnitude (acc->gyro->
#: angle->acc).
CORR_PARTNER = [1, 2, 0, 7, 5, 6, 4, 11, 9, 10, 8, 3]


def _guarded(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    small = np.abs(den) < DEN_EPS
    return np.where(small, 0.0, num / np.where(small, 1.0, den))


def _stats(x: np.ndarray, partner) -> np.ndarray:
    """The 15 statistics, (b, c, 15), over the last axis of a contiguous
    (b, c, n) block; channel ``i`` correlates with channel ``partner[i]``.

    Dimensionless ratios (crest, pulse, margin, waveform) put the
    peak-valley span or RMS over mean-absolute-value denominators.
    """
    if x.shape[-1] < 2:
        raise StrokeSenseError("need at least 2 samples per channel")
    mean = x.mean(axis=-1)
    centered = x - mean[..., None]
    c2 = centered * centered
    x2 = x * x
    variance = np.mean(c2, axis=-1)
    x_max, x_min = x.max(axis=-1), x.min(axis=-1)
    pv = x_max - x_min
    mean_square = np.mean(x2, axis=-1)
    rms = np.sqrt(mean_square)
    mean_abs = np.mean(np.abs(x), axis=-1)

    cov = np.mean(centered * centered[:, partner], axis=-1)
    sigma = np.sqrt(variance)
    corr = _guarded(cov, sigma * sigma[:, partner])

    crest = _guarded(pv, rms)
    pulse = _guarded(pv, mean_abs)
    root_mean = np.mean(np.sqrt(np.abs(x)), axis=-1)
    margin = _guarded(pv, root_mean * root_mean)
    kurtosis_factor = _guarded(np.mean(x2 * x2, axis=-1), rms)
    waveform = _guarded(rms, mean_abs)
    skewness = _guarded(np.mean(c2 * centered, axis=-1), variance * sigma)
    kurt_raw = _guarded(np.mean(c2 * c2, axis=-1), variance * variance)
    kurtosis = np.where(kurt_raw != 0.0, kurt_raw - 3.0, 0.0)

    return np.stack(
        [mean, variance, x_max, x_min, pv, mean_square, rms, corr, crest,
         pulse, margin, kurtosis_factor, waveform, skewness, kurtosis],
        axis=-1,
    )


def channel_stats(x, pair) -> np.ndarray:
    """The 15 statistics of one channel, in :data:`STAT_NAMES` order.

    ``pair`` is the partner channel for the correlation coefficient.
    """
    x = np.asarray(x, dtype=float)
    pair = np.asarray(pair, dtype=float)
    if len(x) < 2 or len(pair) != len(x):
        raise StrokeSenseError("need at least 2 samples and an equal-length pair channel")
    return _stats(np.stack([x, pair])[None], [1, 0])[0, 0]


def _feature_block(channels: np.ndarray, sample_period: float) -> np.ndarray:
    """(b, 180) features of a stacked (b, width, 9) block."""
    b, width, _ = channels.shape
    sensors = channels.reshape(b, width, 3, 3)
    mags = np.linalg.norm(sensors, axis=-1)[..., None]
    twelve = np.concatenate([sensors, mags], axis=-1).reshape(b, width, 12)
    block = np.ascontiguousarray(twelve.transpose(0, 2, 1))
    return _stats(block, CORR_PARTNER).reshape(b, N_FEATURES)


def feature_matrix(windows) -> np.ndarray:
    """The (m, 180) feature matrix, one row per window in
    :data:`FEATURE_NAMES` order; (0, 180) for no windows."""
    return block_rows(_feature_block, windows, N_FEATURES)


def window_features(window: MotionWindow) -> np.ndarray:
    """The 180-feature vector of a window, in :data:`FEATURE_NAMES` order."""
    return feature_matrix([window])[0]
