"""Metamorphic relations of the cleaning chain on a faulty stream.

No exact expected output exists for a cleaned faulty stream, but some
changes of the input must change the output in a known way (Chen, Cheung
and Yiu 1998, HKUST-CS98-01).  Each relation below is asserted bit for
bit on the faulty seed-1 stream.
"""

import numpy as np
import pytest

from strokesense.features import FEATURE_NAMES, STAT_NAMES, feature_matrix
from strokesense.io import SensorSeries
from strokesense.preprocessing import preprocess_series
from strokesense.synth import GenConfig, generate
from strokesense.windows import slide_windows

#: acc_x and acc_y exchanged, every other channel in place.
SWAP_XY = [1, 0, 2, 3, 4, 5, 6, 7, 8]


@pytest.fixture(scope="module")
def faulty():
    """The faulty seed-1 stream and its cleaned form."""
    cfg = GenConfig(seed=1, strokes_per_class=20, spike_rate=0.002, dropout_rate=0.01)
    series = generate(cfg)[0]
    return series, preprocess_series(series)


def _columns(channel, stats):
    return [FEATURE_NAMES.index(f"{channel}_{stat}") for stat in stats]


@pytest.mark.parametrize("shift", [1000.0, 1.7e9])
def test_clock_origin_changes_only_the_timestamps(faulty, shift):
    series, clean = faulty
    shifted = SensorSeries(series.t + shift, series.channels, series.sample_period)
    got = preprocess_series(shifted)
    np.testing.assert_array_equal(got.channels, clean.channels)
    np.testing.assert_array_equal(got.t, shifted.t[0] + np.arange(len(got)) * series.sample_period)


@pytest.mark.parametrize("k", [1, -1, 10, -20])
def test_channels_times_a_power_of_two_clean_to_the_same_multiple(faulty, k):
    series, clean = faulty
    scale = 2.0**k
    got = preprocess_series(SensorSeries(series.t, series.channels * scale, series.sample_period))
    np.testing.assert_array_equal(got.channels, clean.channels * scale)


def test_doubled_timestamps_and_period_clean_to_equal_channels(faulty):
    series, clean = faulty
    got = preprocess_series(SensorSeries(series.t * 2, series.channels, series.sample_period * 2))
    np.testing.assert_array_equal(got.channels, clean.channels)


def test_swapping_two_axes_swaps_their_channels_and_features(faulty):
    series, clean = faulty
    got = preprocess_series(SensorSeries(series.t, series.channels[:, SWAP_XY], series.sample_period))
    np.testing.assert_array_equal(got.channels, clean.channels[:, SWAP_XY])
    want, swapped = feature_matrix(slide_windows(clean)), feature_matrix(slide_windows(got))
    # corr pairs each axis with the next one, x -> y -> z -> x, so the swap
    # permutes the corr values instead: x keeps its own, y and z trade
    stats = [s for s in STAT_NAMES if s != "corr"]
    for a, b in (("acc_x", "acc_y"), ("acc_y", "acc_x"), ("acc_z", "acc_z")):
        np.testing.assert_array_equal(swapped[:, _columns(a, stats)], want[:, _columns(b, stats)])
    for a, b in (("acc_x", "acc_x"), ("acc_y", "acc_z"), ("acc_z", "acc_y")):
        np.testing.assert_array_equal(swapped[:, _columns(a, ["corr"])], want[:, _columns(b, ["corr"])])
    mag = _columns("acc_mag", STAT_NAMES)
    np.testing.assert_array_equal(swapped[:, mag], want[:, mag])
