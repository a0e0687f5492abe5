"""The batched window layer against the one-window-at-a-time reference
implementations in oracles.py (features, channel statistics, activation
markers, scoring indicators, pooled profiles), block edges, degenerate
windows, the one-window gate decision as a row of the batched markers, and
a session whose gate keeps no window.

Every equality is exact (np.array_equal) except four of the 15 channel
statistics, :data:`ROUNDED_STATS`.  The reference raises to powers
(``** 3``, ``** 4``, ``** 1.5``, ``** 2``); the kernel multiplies, so those
columns agree to rounding only.  The largest difference measured over this
module's inputs is 1.8e-15 * max(|v|, 1), in ``kurtosis``; the tolerance
below allows about five times that."""

import numpy as np
import pytest

from oracles import (
    reference_activation_features,
    reference_channel_stats,
    reference_indicator_values,
    reference_profile_specs,
    reference_window_features,
)
from strokesense.errors import StrokeSenseError
from strokesense.features import (
    CHANNEL_NAMES,
    N_FEATURES,
    STAT_NAMES,
    channel_stats,
    feature_matrix,
    window_features,
)
from strokesense.io import SensorSeries
from strokesense.labels import IDLE, StrokeLabel
from strokesense.mlp import mlp_init, mlp_predict_batch, mlp_train
from strokesense.pca import fit_pca, transform
from strokesense.preprocessing import preprocess_series
from strokesense.scoring import N_INDICATORS, build_profile, indicator_matrix
from strokesense.svm import dag_predict_batch, train_dagsvm
from strokesense.synth import GenConfig, generate, stroke_windows
from strokesense.windows import (
    _BLOCK,
    MotionWindow,
    activation_matrix,
    is_active,
    majority_labels,
    slide_windows,
    train_activation,
)

FAULTY_SEEDS = [1, 2, 3]

#: The statistics built from products the reference takes as powers.
ROUNDED_STATS = ["margin", "kurtosis_factor", "skewness", "kurtosis"]
ROUNDED = np.isin(STAT_NAMES, ROUNDED_STATS)

#: (batched function, reference, rounded-column mask)
LAYERS = [
    (feature_matrix, reference_window_features, np.tile(ROUNDED, len(CHANNEL_NAMES))),
    (activation_matrix, reference_activation_features, np.zeros(6, dtype=bool)),
    (indicator_matrix, reference_indicator_values, np.zeros(N_INDICATORS, dtype=bool)),
]
LAYER_IDS = ["features", "activation", "indicators"]


def _faulty(seed):
    cfg = GenConfig(seed=seed, strokes_per_class=3, spike_rate=0.002, dropout_rate=0.01)
    return generate(cfg)


@pytest.fixture(scope="module", params=FAULTY_SEEDS)
def faulty_session(request):
    """(grid windows of the cleaned faulty corpus, its truth spans)"""
    series, truth = _faulty(request.param)
    return slide_windows(preprocess_series(series)), truth


def _degenerate_windows():
    rng = np.random.default_rng(17)
    spike = np.zeros((200, 9))
    spike[77, 4] = 1e3
    flat_partner = rng.normal(size=(200, 9))
    flat_partner[:, [1, 4, 7]] = 3.0  # the y axes: partners of acc_x, gyro_x and angle_x
    return {
        "zero": np.zeros((200, 9)),
        "constant": np.tile(np.arange(1.0, 10.0), (200, 1)),
        "tiny_noise": rng.normal(scale=1e-9, size=(200, 9)),
        "spike": spike,
        "constant_partner": flat_partner,
        "two_rows": rng.normal(size=(2, 9)),
        "seven_rows": rng.normal(size=(7, 9)),
    }


DEGENERATE = _degenerate_windows()


def assert_matches(got, want, rounded):
    """Bit-equal outside the ``rounded`` columns, and within 1e-14 *
    (1 + |want|) in them."""
    assert got.shape == want.shape
    assert np.array_equal(got[..., ~rounded], want[..., ~rounded])
    np.testing.assert_allclose(got[..., rounded], want[..., rounded], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("batched, reference, rounded", LAYERS, ids=LAYER_IDS)
class TestAgainstReference:
    def test_faulty_corpus(self, faulty_session, batched, reference, rounded):
        faulty_windows, _ = faulty_session
        want = np.array([reference(w) for w in faulty_windows])
        got = batched(faulty_windows)
        assert got.shape == (len(faulty_windows), len(rounded))
        assert_matches(got, want, rounded)
        # a window's row does not depend on the block it was computed in
        assert all(np.array_equal(batched([w])[0], g) for w, g in zip(faulty_windows, got))

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_window(self, name, batched, reference, rounded):
        window = MotionWindow(0, DEGENERATE[name])
        assert_matches(batched([window]), reference(window)[None], rounded)

    def test_mixed_widths_keep_order(self, batched, reference, rounded):
        rng = np.random.default_rng(5)
        windows = [MotionWindow(0, DEGENERATE[name]) for name in sorted(DEGENERATE)]
        windows += [MotionWindow(0, rng.normal(size=(200, 9)), sample_period=0.02)]
        windows = windows[::2] + windows[1::2]
        assert_matches(batched(windows), np.array([reference(w) for w in windows]), rounded)

    @pytest.mark.parametrize("m", [1, _BLOCK, _BLOCK + 1])
    def test_block_edges(self, m, batched, reference, rounded):
        rng = np.random.default_rng(m)
        windows = [MotionWindow(0, rng.normal(scale=3.0, size=(200, 9))) for _ in range(m)]
        assert_matches(batched(windows), np.array([reference(w) for w in windows]), rounded)

    def test_no_windows(self, batched, reference, rounded):
        assert batched([]).shape == (0, len(rounded))


class TestChannelStatsReference:
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_columns(self, name):
        channels = DEGENERATE[name]
        for i in range(9):
            x, pair = channels[:, i], channels[:, (i + 1) % 9]
            assert_matches(channel_stats(x, pair), reference_channel_stats(x, pair), ROUNDED)

    def test_random_lengths(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 8, 9, 127, 128, 129, 200, 1000):
            x, pair = rng.normal(scale=4.0, size=(2, n))
            assert_matches(channel_stats(x, pair), reference_channel_stats(x, pair), ROUNDED)


def test_gate_is_one_row_of_the_activation_matrix(faulty_session):
    """``is_active`` on each window decides as the gate's linear function
    does on that window's row of one batched activation matrix."""
    windows, truth = faulty_session
    labels = majority_labels([w.start_index for w in windows], windows[0].width, truth)
    gate = train_activation([(w, label not in ("", IDLE)) for w, label in zip(windows, labels)])
    want = [bool(np.dot(gate.w, row) + gate.b > 0) for row in activation_matrix(windows)]
    assert [is_active(w, gate) for w in windows] == want
    assert 0 < sum(want) < len(want)


def test_one_row_window_too_short():
    with pytest.raises(StrokeSenseError, match="^need at least 2 samples per channel$"):
        window_features(MotionWindow(0, np.zeros((1, 9))))
    with pytest.raises(
        StrokeSenseError, match="^need at least 2 samples and an equal-length pair channel$"
    ):
        channel_stats([1.0, 2.0], [1.0])


def _profile_specs(profile):
    """(center, up, down, lo, hi, k1) per indicator, as Python floats."""
    stats = (profile.center, profile.up, profile.down, profile.lo, profile.hi, profile.k1)
    return list(zip(*(stat.tolist() for stat in stats)))


@pytest.mark.parametrize("seed", FAULTY_SEEDS)
def test_profiles_match_reference(seed):
    series, truth = _faulty(seed)
    windows = stroke_windows(series, truth)
    for label in StrokeLabel:
        group = [w for w in windows if w.label == label]
        profile = build_profile(group)
        want = reference_profile_specs(np.array([reference_indicator_values(w) for w in group]))
        assert _profile_specs(profile) == want
        assert np.array_equal(profile.k1, profile.k2)


def test_profile_with_collapsed_indicator():
    rng = np.random.default_rng(29)
    channels = rng.normal(size=(3, 200, 9))
    channels[:, :, 6] = 1.5  # the angle_x window mean is the same in every window
    group = [MotionWindow(0, c, label=StrokeLabel(0)) for c in channels]
    profile = build_profile(group)
    want = reference_profile_specs(np.array([reference_indicator_values(w) for w in group]))
    assert _profile_specs(profile) == want
    assert profile.up[12] > profile.down[12]


def test_all_idle_session_classifies_nothing(small_corpus, small_features):
    """A session whose gate keeps no window flows through features, PCA
    and both classifiers as empty arrays instead of failing."""
    stroke_wins, _, _ = small_corpus
    rng = np.random.default_rng(31)
    idle = np.zeros((2000, 9))
    idle[:, 2] = 9.81
    idle += rng.normal(scale=0.01, size=idle.shape)
    idle_series = SensorSeries(np.arange(2000) * 0.01, idle)
    idle_windows = slide_windows(idle_series)
    gate = train_activation(
        [(w, True) for w in stroke_wins[::4]] + [(w, False) for w in idle_windows]
    )
    kept = [w for w in idle_windows if is_active(w, gate)]
    assert kept == []

    X, y = small_features
    pca = fit_pca(X)
    Z_train = transform(pca, X)
    dag = train_dagsvm(Z_train, y)
    net = mlp_train(mlp_init(pca.k, seed=0), list(zip(Z_train, y.tolist())), epochs=2)

    F = feature_matrix(kept)
    assert F.shape == (0, N_FEATURES)
    Z = transform(pca, F)
    assert Z.shape == (0, pca.k)
    for predicted in (dag_predict_batch(dag, Z), mlp_predict_batch(net, Z)):
        assert predicted.shape == (0,)
        assert predicted.dtype.kind == "i"
