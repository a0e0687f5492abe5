import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesense.features import (
    CHANNEL_NAMES,
    CORR_PARTNER,
    FEATURE_NAMES,
    STAT_NAMES,
    channel_stats,
    feature_matrix,
    window_features,
)
from strokesense.windows import MotionWindow

from oracles import naive_channel_stats

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


#: Position of each statistic in a channel_stats row.
STAT = {name: i for i, name in enumerate(STAT_NAMES)}


def _window(rng, n=200):
    return MotionWindow(0, rng.normal(scale=3.0, size=(n, 9)))


class TestChannelStats:
    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        partner = rng.normal(size=400)
        got = channel_stats(x, partner)
        want = naive_channel_stats(x, partner)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @given(st.lists(finite, min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_oracle_property(self, values):
        x = np.array(values)
        partner = np.roll(x, 1)
        got = channel_stats(x, partner)
        want = naive_channel_stats(x, partner)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9)

    def test_zero_signal_all_zero(self):
        stats = channel_stats(np.zeros(100), np.zeros(100))
        np.testing.assert_array_equal(stats, np.zeros(15))

    def test_constant_signal(self):
        stats = channel_stats(np.full(100, 2.0), np.full(100, 2.0))
        assert stats[STAT["mean"]] == 2.0
        assert stats[STAT["variance"]] == 0.0
        assert stats[STAT["rms"]] == 2.0
        assert stats[STAT["max"]] == stats[STAT["min"]] == 2.0
        assert stats[STAT["peak_valley"]] == 0.0

    def test_known_values(self):
        x = np.array([1.0, -1.0, 3.0, -3.0])
        stats = channel_stats(x, x)
        assert stats[STAT["mean"]] == 0.0
        assert stats[STAT["variance"]] == 5.0
        np.testing.assert_allclose(stats[STAT["rms"]], np.sqrt(5.0))
        assert stats[STAT["max"]] == 3.0 and stats[STAT["min"]] == -3.0
        assert stats[STAT["peak_valley"]] == 6.0
        np.testing.assert_allclose(stats[STAT["crest"]], 6.0 / np.sqrt(5.0))
        np.testing.assert_allclose(stats[STAT["corr"]], 1.0)


class TestWindowFeatures:
    def test_dimension_and_names(self):
        rng = np.random.default_rng(5)
        feats = window_features(_window(rng))
        assert feats.shape == (180,)
        assert len(FEATURE_NAMES) == 180
        assert len(set(FEATURE_NAMES)) == 180
        assert len(STAT_NAMES) == 15 and len(CHANNEL_NAMES) == 12

    def test_magnitude_channels(self):
        channels = np.zeros((200, 9))
        channels[:, 0:3] = [3.0, 4.0, 0.0]
        feats = window_features(MotionWindow(0, channels))
        acc_mag_mean = feats[FEATURE_NAMES.index("acc_mag_mean")]
        assert acc_mag_mean == 5.0

    def test_corr_partner_is_permutation(self):
        assert sorted(CORR_PARTNER) == list(range(12))
        for i, j in enumerate(CORR_PARTNER):
            assert i != j

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        w = _window(rng)
        scaled = MotionWindow(0, w.channels * 2.0)
        a = window_features(w)
        b = window_features(scaled)
        powers = {"mean": 1, "max": 1, "min": 1, "peak_valley": 1, "rms": 1,
                  "variance": 2, "mean_square": 2, "kurtosis_factor": 3}
        for name, power in powers.items():
            idx = [i for i, f in enumerate(FEATURE_NAMES) if f.endswith("_" + name)]
            assert idx
            np.testing.assert_allclose(b[idx], 2.0**power * a[idx], rtol=1e-9)

    def test_dimensionless_stats_scale_invariant(self):
        rng = np.random.default_rng(9)
        w = _window(rng)
        scaled = MotionWindow(0, w.channels * 3.5)
        a = window_features(w)
        b = window_features(scaled)
        for name in ("skewness", "kurtosis", "crest", "waveform", "pulse",
                     "margin", "corr"):
            idx = [i for i, f in enumerate(FEATURE_NAMES) if f.endswith("_" + name)]
            assert idx
            np.testing.assert_allclose(b[idx], a[idx], rtol=1e-9, atol=1e-12)

    def test_feature_matrix_rows(self):
        rng = np.random.default_rng(11)
        windows = [_window(rng) for _ in range(5)]
        X = feature_matrix(windows)
        assert X.shape == (5, 180)
        np.testing.assert_array_equal(X[2], window_features(windows[2]))

    def test_all_finite_on_corpus(self, small_features):
        X, _ = small_features
        assert np.isfinite(X).all()
