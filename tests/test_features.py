import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strokesense
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


#: Prints the SHA-256 of the feature matrix of a faulty 3-strokes-per-class
#: corpus, cleaned and cut into sliding windows.
_DIGEST_SCRIPT = """
import hashlib
from strokesense.features import feature_matrix
from strokesense.preprocessing import preprocess_series
from strokesense.synth import GenConfig, generate
from strokesense.windows import slide_windows
cfg = GenConfig(seed=1, strokes_per_class=3, spike_rate=0.002, dropout_rate=0.01)
series, _ = generate(cfg)
F = feature_matrix(slide_windows(preprocess_series(series)))
print(hashlib.sha256(F.tobytes()).hexdigest())
"""


def _feature_digest(**env):
    src = str(Path(strokesense.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env}
    done = subprocess.run([sys.executable, "-W", "error", "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_features_do_not_depend_on_simd_dispatch():
    """The moments are plain products, whose IEEE rounding is the same on
    every host, so switching off every SIMD target numpy dispatches to on
    this CPU leaves the feature bits unchanged.  Only dispatched features
    can be named: a baseline one is a RuntimeError at import, and one not
    dispatched an ImportWarning."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not dispatched:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    plain = _feature_digest()
    assert len(plain) == 64
    assert _feature_digest(NPY_DISABLE_CPU_FEATURES=" ".join(dispatched)) == plain
