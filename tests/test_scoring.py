import json

import numpy as np
import pytest

from oracles import reference_indicator_dicts, reference_indicator_values, reference_level_scores
from strokesense.errors import StrokeSenseError
from strokesense.labels import IDLE, StrokeLabel
from strokesense.preprocessing import preprocess_series
from strokesense.scoring import (
    N_INDICATORS,
    REFERENCE_AHP_MATRIX,
    REFERENCE_LEVEL_WEIGHTS,
    StandardProfile,
    _direction_angles,
    _velocity,
    ahp_weights,
    build_profile,
    consistency,
    indicator_matrix,
    indicator_scores,
    score_window,
    score_windows,
    total_score,
)
from strokesense.synth import GenConfig, generate, stroke_windows
from strokesense.windows import slide_windows


class TestAhp:
    def test_weights_match_reference(self):
        w = ahp_weights(REFERENCE_AHP_MATRIX)
        np.testing.assert_allclose(w, REFERENCE_LEVEL_WEIGHTS, atol=5e-3)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_consistency_ratio_acceptable(self):
        lam, ci, cr = consistency(REFERENCE_AHP_MATRIX)
        assert lam > 5.0
        assert 0.0 < cr < 0.1

    def test_identity_matrix_uniform_weights(self):
        np.testing.assert_allclose(ahp_weights(np.ones((5, 5))), 0.2, atol=1e-12)
        lam, ci, cr = consistency(np.ones((5, 5)))
        np.testing.assert_allclose(lam, 5.0, atol=1e-8)
        np.testing.assert_allclose(cr, 0.0, atol=1e-8)

    def test_scale_invariance(self):
        w1 = ahp_weights(REFERENCE_AHP_MATRIX)
        w2 = ahp_weights(3.0 * REFERENCE_AHP_MATRIX)
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_not_reciprocal_rejected(self):
        bad = REFERENCE_AHP_MATRIX.copy()
        bad[0, 1] = 2.0
        with pytest.raises(StrokeSenseError, match=r"^a_ij \* a_ji must equal the squared diagonal$"):
            ahp_weights(bad)

    def test_inconsistent_matrix_warns(self):
        a = np.array(
            [[1.0, 9.0, 1 / 9], [1 / 9, 1.0, 9.0], [9.0, 1 / 9, 1.0]]
        )
        with pytest.warns(UserWarning):
            ahp_weights(a)


class TestVelocity:
    def test_constant_acc_integrates_to_zero_mean_ramp(self):
        from strokesense.windows import MotionWindow

        channels = np.zeros((200, 9))
        channels[:, 0] = 2.0  # constant bias is removed before integration
        w = MotionWindow(0, channels)
        v = _velocity(w.acc, w.acc.mean(axis=0), w.sample_period)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_linear_ramp(self):
        from strokesense.windows import MotionWindow

        n, dt = 200, 0.01
        t = np.arange(n) * dt
        channels = np.zeros((n, 9))
        channels[:, 1] = t  # a(t) = t, mean removed -> a(t) = t - T/2
        w = MotionWindow(0, channels)
        v = _velocity(w.acc, w.acc.mean(axis=0), w.sample_period)
        tbar = t.mean()
        expect = 0.5 * (t - tbar) ** 2 - 0.5 * tbar**2
        np.testing.assert_allclose(v[:, 1], expect, atol=1e-4)
        np.testing.assert_allclose(v[:, [0, 2]], 0.0, atol=1e-12)


class TestIndicatorValues:
    def test_shape_and_finiteness(self, small_corpus):
        windows, _, _ = small_corpus
        vals = indicator_matrix([windows[0]])[0]
        assert vals.shape == (15,)
        assert np.isfinite(vals).all()

    def test_angle_indicators_bounded(self, small_corpus):
        windows, _, _ = small_corpus
        for w in windows[:10]:
            vals = indicator_matrix([w])[0]
            assert (vals[3:6] >= 0).all() and (vals[3:6] <= 180).all()
            assert (vals[9:12] >= 0).all() and (vals[9:12] <= 180).all()

    def test_strength_indicators_nonnegative(self, small_corpus):
        windows, _, _ = small_corpus
        vals = indicator_matrix([windows[0]])[0]
        assert (vals[0:3] >= 0).all()
        assert (vals[6:9] >= 0).all()


#: A maximal (strength x) and an interval (force direction x) indicator.
MAXIMAL, INTERVAL = 0, 3


def _profile(center=1.0, spread=0.5, lo=-1.0, hi=1.0, k1=2.0, k2=4.0):
    """A hand-built profile whose 15 indicators share one set of
    statistics: up/down = center +- spread, the band [lo, hi]."""
    stats = [center, center + spread, center - spread, lo, hi, k1, k2]
    return StandardProfile(StrokeLabel(0), *(np.full(N_INDICATORS, float(x)) for x in stats))


def _score(profile, i, value):
    """Score of indicator ``i`` at ``value``, the other indicators at 0;
    the same bits as a one-row vector and as a row of a batch."""
    values = np.zeros(N_INDICATORS)
    values[i] = value
    one = indicator_scores(values, profile)[i]
    batch = indicator_scores(np.stack([np.full(N_INDICATORS, -value), values]), profile)
    np.testing.assert_array_equal(batch[1, i], one)
    return one


class TestScoreMaps:
    def test_maximal_monotone_and_half_at_center(self):
        profile = _profile()
        assert _score(profile, MAXIMAL, 1.0) == pytest.approx(0.5)
        grid = np.linspace(-5, 5, 101)
        scores = [_score(profile, MAXIMAL, v) for v in grid]
        assert all(a < b for a, b in zip(scores, scores[1:]))
        assert all(0 < s < 1 for s in scores)

    @pytest.mark.filterwarnings("error")
    def test_maximal_far_above_range_is_one_without_warning(self):
        profile = _profile()
        assert _score(profile, MAXIMAL, 1e6) == 1.0

    def test_interval_inside_is_one(self):
        profile = _profile()
        for v in (-1.0, -0.3, 0.0, 1.0):
            assert _score(profile, INTERVAL, v) == 1.0

    def test_interval_decay_values(self):
        profile = _profile(lo=-1, hi=1, k1=2.0, k2=4.0)
        assert _score(profile, INTERVAL, -3.0) == pytest.approx(np.exp(-1.0))
        assert _score(profile, INTERVAL, 5.0) == pytest.approx(np.exp(-1.0))

    def test_interval_continuity_at_boundary(self):
        profile = _profile()
        eps = 1e-9
        assert _score(profile, INTERVAL, 1.0 + eps) == pytest.approx(1.0, abs=1e-8)


class TestTotalScore:
    def test_perfect_scores_with_normalized_weights(self):
        w = ahp_weights(REFERENCE_AHP_MATRIX)
        assert total_score(np.ones(5), w) == pytest.approx(1.0)

    def test_rounded_reference_weights_accepted(self):
        assert total_score(np.ones(5), REFERENCE_LEVEL_WEIGHTS) == pytest.approx(
            1.001, abs=1e-12
        )

    def test_weighted_sum(self):
        q = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        k = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        assert total_score(q, k) == pytest.approx(0.6)
        totals = total_score(np.stack([q, 1 - q, q]), k)
        assert totals.shape == (3,)
        assert totals.tolist() == [total_score(q, k), total_score(1 - q, k), total_score(q, k)]

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_scores_outside_unit_interval_rejected(self, bad):
        q = np.array([1.0, bad, 1.0, 1.0, 1.0])
        with pytest.raises(StrokeSenseError):
            total_score(q, REFERENCE_LEVEL_WEIGHTS)
        with pytest.raises(StrokeSenseError):
            total_score(np.stack([np.ones(5), q]), REFERENCE_LEVEL_WEIGHTS)

    def test_bad_weights_rejected(self):
        with pytest.raises(StrokeSenseError, match="^weights must be non-negative and sum to 1, got "):
            total_score(np.ones(5), np.full(5, 0.3))
        with pytest.raises(StrokeSenseError, match="^weights must be non-negative and sum to 1, got "):
            total_score(np.ones(5), np.array([-0.1, 0.4, 0.3, 0.2, 0.2]))
        for q in (np.ones(4), np.ones((2, 4)), np.ones((2, 2, 5)), 1.0):
            with pytest.raises(StrokeSenseError, match="^need 5 scores and 5 weights$"):
                total_score(q, REFERENCE_LEVEL_WEIGHTS)


def test_each_row_is_its_own_dot_product():
    """``_direction_angles`` and ``total_score`` keep, bit for bit, the
    per-row results of ``np.linalg.norm`` of each 3-vector and of each
    (5,) row @ k, over scales from 1e-150 to 1e150."""
    rng = np.random.default_rng(31)
    vecs = rng.normal(size=(3000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(3000, 1))
    vecs[:4] = 0.0
    vecs[4:8] = rng.normal(size=(4, 3)) * 1e-14  # norms below 1e-12
    norms = np.array([np.linalg.norm(v) for v in vecs])
    small = norms < 1e-12
    assert small[:8].all()
    cosines = np.clip(vecs / np.where(small, 1.0, norms)[:, None], -1.0, 1.0)
    want = np.where(small[:, None], 90.0, np.degrees(np.arccos(cosines)))
    assert _direction_angles(vecs).tobytes() == want.tobytes()

    k = ahp_weights(REFERENCE_AHP_MATRIX)
    for m in (0, 1, 7, 2000):
        q = rng.uniform(size=(m, 5))
        totals = total_score(q, k)
        assert totals.shape == (m,)
        assert totals.tobytes() == np.array([float(row @ k) for row in q]).tobytes()
    q = rng.uniform(size=5)
    total = total_score(q, k)
    assert type(total) is float and total == float(q @ k)


def _class_windows(seed, label, noise, n=12):
    cfg = GenConfig(seed=seed, strokes_per_class=n, noise_sigma=noise)
    series, truth = generate(cfg)
    return [w for w in stroke_windows(series, truth) if w.label == label]


class TestProfiles:
    def test_build_requires_uniform_labels(self, small_corpus):
        windows, _, _ = small_corpus
        mixed = [w for w in windows if w.label is not None][:6]
        assert len({w.label for w in mixed}) > 1
        with pytest.raises(StrokeSenseError, match="^reference windows carry labels "):
            build_profile(mixed)

    def test_build_requires_two_windows(self):
        with pytest.raises(StrokeSenseError, match="^need at least 2 reference windows$"):
            build_profile([])

    def test_round_trip(self):
        ref = _class_windows(31, StrokeLabel(2), noise=0.02)
        profile = build_profile(ref)
        again = StandardProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert again.stroke == profile.stroke
        for name in ("center", "up", "down", "lo", "hi", "k1", "k2"):
            np.testing.assert_array_equal(getattr(again, name), getattr(profile, name))
        assert again.to_dict() == profile.to_dict()

    def test_reference_windows_score_high(self):
        ref = _class_windows(31, StrokeLabel(2), noise=0.02)
        profile = build_profile(ref)
        totals = [score_window(w, profile).total for w in ref]
        assert np.mean(totals) >= 0.8

    def test_degraded_windows_score_lower(self):
        ref = _class_windows(31, StrokeLabel(2), noise=0.02)
        profile = build_profile(ref)
        sloppy = _class_windows(77, StrokeLabel(2), noise=0.8)
        good = np.mean([score_window(w, profile).total for w in ref])
        bad = np.mean([score_window(w, profile).total for w in sloppy])
        assert bad < good

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("center", float("nan"), "^center must be finite$"),
            ("center", float("inf"), "^center must be finite$"),
            ("k1", float("nan"), "^k1 must be finite$"),
            ("k1", float("inf"), "^k1 must be finite$"),
            ("lo", float("nan"), "^lo must be finite$"),
            ("lo", float("-inf"), "^lo must be finite$"),
            ("kind", "interval", "^indicator 0 is 'maximal', not 'interval'$"),
            ("up", None, "^up - down collapsed to zero$"),
        ],
    )
    def test_bad_profile_rejected_on_load(self, key, value, message):
        """Indicator 0 is a maximal (strength) indicator; a profile whose
        statistics would score NaN, or that disagrees with the level's
        kind, never loads."""
        d = build_profile(_class_windows(31, StrokeLabel(2), noise=0.02)).to_dict()
        spec = d["indicators"][0]
        spec[key] = spec["down"] if key == "up" else value
        with pytest.raises(StrokeSenseError, match=message):
            StandardProfile.from_dict(d)

    def test_wrong_label_rejected(self):
        ref = _class_windows(31, StrokeLabel(2), noise=0.02)
        profile = build_profile(ref)
        other = _class_windows(31, StrokeLabel(4), noise=0.02)
        message = "^window labeled FOREHAND_CHOP, profile is FOREHAND_PUSH$"
        with pytest.raises(StrokeSenseError, match=message):
            score_window(other[0], profile)
        with pytest.raises(StrokeSenseError, match=message):
            score_windows([ref[0], other[0], ref[1]], profile)

    def test_report_fields(self):
        ref = _class_windows(31, StrokeLabel(2), noise=0.02)
        profile = build_profile(ref)
        report = score_window(ref[0], profile)
        assert report.q.shape == (5,)
        assert ((report.q >= 0) & (report.q <= 1)).all()
        assert 0.0 <= report.total <= 1.0
        q, totals = score_windows([], profile)
        assert q.shape == (0, 5) and totals.shape == (0,)


def _faulty(seed):
    cfg = GenConfig(seed=seed, strokes_per_class=3, spike_rate=0.002, dropout_rate=0.01)
    return generate(cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning:oracles")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scores_match_reference(seed):
    """Every grid window of a faulty corpus against all six profiles, and
    each stroke window against its own: level scores and totals bit-equal
    to the scalar scorer, one window at a time and all in one batch;
    profile JSON equal to the per-indicator layout."""
    series, truth = _faulty(seed)
    strokes = stroke_windows(series, truth)
    grid = slide_windows(preprocess_series(series))
    weights = ahp_weights(REFERENCE_AHP_MATRIX)
    grid_values = [reference_indicator_values(w) for w in grid]
    for label in StrokeLabel:
        group = [w for w in strokes if w.label == label]
        specs = reference_indicator_dicts(np.array([reference_indicator_values(w) for w in group]))
        profile = build_profile(group)
        assert json.dumps(profile.to_dict(), sort_keys=True) == json.dumps(
            {"stroke": label.name, "indicators": specs}, sort_keys=True
        )
        pairs = list(zip(grid, grid_values)) + [(w, reference_indicator_values(w)) for w in group]
        q, totals = score_windows([w for w, _ in pairs], profile, weights=weights)
        for (w, values), row, total in zip(pairs, q, totals, strict=True):
            want = reference_level_scores(values, specs)
            report = score_window(w, profile, weights=weights)
            np.testing.assert_array_equal(report.q, want)
            assert report.total == float(want @ weights)
            np.testing.assert_array_equal(row, want)
            assert total == report.total
