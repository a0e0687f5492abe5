import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_diff_stats,
    brute_outlier_flags,
    lagrange_eval,
    reference_adaptive_filter,
)
from strokesense.errors import InsufficientSupport, NonMonotonicTime, TooShort
from strokesense.io import SensorSeries
from strokesense.preprocessing import (
    adaptive_filter,
    diff_stats,
    newton_fill,
    preprocess_channel,
    preprocess_series,
    remove_outliers,
)


class TestDiffStats:
    def test_constant(self):
        ex, sigma = diff_stats([5, 5, 5, 5])
        assert ex == 0 and sigma == 0

    def test_linear_ramp(self):
        ex, sigma = diff_stats([0, 1, 2, 3])
        assert ex == pytest.approx(1) and sigma == pytest.approx(0)

    def test_against_two_pass_oracle(self):
        values = [0, 2, 1, 4]
        ex, sigma = diff_stats(values)
        want_ex, want_sigma = brute_diff_stats(values)
        assert ex == pytest.approx(4 / 3)
        assert ex == pytest.approx(want_ex)
        assert sigma == pytest.approx(want_sigma)

    def test_too_short(self):
        with pytest.raises(TooShort):
            diff_stats([1.0])


class TestRemoveOutliers:
    def test_constant_unchanged(self):
        present = remove_outliers([5, 5, 5, 5])
        assert present.all()

    def test_spike_flagged_per_oracle(self):
        t = np.arange(200) * 0.01
        values = np.sin(2 * np.pi * t)
        values[100] += 50
        present = remove_outliers(values)
        flagged = set(np.nonzero(~present)[0])
        assert flagged == brute_outlier_flags(list(values))
        assert 100 in flagged or 101 in flagged

    def test_gaussian_noise_rarely_flagged(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=10_000)
        present = remove_outliers(values)
        assert (~present).mean() <= 0.01

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_flags_match_oracle_on_random_series(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=rng.integers(2, 200))
        if rng.random() < 0.5 and len(values) > 3:
            values[rng.integers(1, len(values))] += rng.uniform(10, 100)
        present = remove_outliers(values)
        assert set(np.nonzero(~present)[0]) == brute_outlier_flags(list(values))

    def test_clean_data_idempotent(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.uniform(-0.01, 0.01, size=500))
        present = remove_outliers(values)
        flagged = brute_outlier_flags(list(values))
        assert (~present).sum() == len(flagged)


def _with_gap(values, positions, gaps):
    present = np.ones(len(values), dtype=bool)
    present[list(gaps)] = False
    return np.asarray(values, dtype=float), positions, present


class TestNewtonFill:
    def test_cubic_exact(self):
        positions = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = positions**3
        filled = newton_fill(*_with_gap(values, positions, [2]))
        assert filled[2] == pytest.approx(8.0, abs=1e-9)

    def test_linear_exact_anywhere(self):
        positions = np.arange(10.0)
        values = 2 * positions + 1
        for gap in range(2, 8):
            filled = newton_fill(*_with_gap(values, positions, [gap]))
            assert filled[gap] == pytest.approx(2 * gap + 1, abs=1e-9)

    def test_sine_against_lagrange_oracle(self):
        positions = np.arange(100) * 0.01
        values = np.sin(2 * np.pi * positions / 2)
        gap = 50
        filled = newton_fill(*_with_gap(values, positions, [gap]))
        true = np.sin(2 * np.pi * positions[gap] / 2)
        assert abs(filled[gap] - true) < 1e-6
        nodes = [48, 49, 51, 52]
        oracle = lagrange_eval(positions[nodes], values[nodes], positions[gap])
        assert filled[gap] == pytest.approx(oracle, abs=1e-9)

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupport):
            newton_fill(*_with_gap([1.0, 2.0, 3.0, 4.0], np.arange(4.0), [1, 2]))

    @pytest.mark.parametrize(
        "values, positions, present",
        [
            ([1.0, 2.0, 3.0, 4.0, 5.0], np.arange(4.0), [True] * 5),
            ([1.0, 2.0, 3.0, 4.0, 5.0], np.arange(5.0), [True] * 4),
        ],
    )
    def test_mismatched_lengths_rejected(self, values, positions, present):
        with pytest.raises(ValueError, match="equal length"):
            newton_fill(values, positions, present)

    @pytest.mark.parametrize(
        "positions", [[0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0, 4.0]]
    )
    def test_non_increasing_positions_rejected(self, positions):
        present = [True, True, False, True, True]
        with pytest.raises(ValueError, match="strictly increasing"):
            newton_fill([1.0, 2.0, 3.0, 4.0, 5.0], positions, present)

    def test_inputs_left_unchanged(self):
        values, positions, present = _with_gap(np.arange(8.0) ** 2, np.arange(8.0), [3])
        before = values.copy(), present.copy()
        newton_fill(values, positions, present)
        np.testing.assert_array_equal(values, before[0])
        np.testing.assert_array_equal(present, before[1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        st.integers(min_value=2, max_value=17),
    )
    def test_random_cubics_exact(self, coeffs, gap):
        positions = np.arange(20.0)
        values = np.polyval(coeffs, positions)
        filled = newton_fill(*_with_gap(values, positions, [gap]))
        assert filled[gap] == pytest.approx(
            np.polyval(coeffs, positions[gap]), abs=1e-9
        )

    def test_consecutive_gaps_filled_left_to_right(self):
        positions = np.arange(12.0)
        values = 0.5 * positions**2 - positions
        filled = newton_fill(*_with_gap(values, positions, [5, 6]))
        for gap in (5, 6):
            assert filled[gap] == pytest.approx(
                0.5 * gap**2 - gap, abs=1e-8
            )


class TestAdaptiveFilter:
    def test_full_gain_limit_passes_input_through(self):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.normal(0, 1.0, size=100))
        out = adaptive_filter(values, k0=1.0, delta_a=1e-15)
        np.testing.assert_allclose(out, values, atol=1e-9)

    def test_small_steps_hold_output(self):
        values = np.array([1.0, 1.001, 1.002, 1.001])
        out = adaptive_filter(values, k0=0.5, delta_a=0.5)
        np.testing.assert_allclose(out, 1.0)

    def test_step_response_matches_reference_loop(self):
        values = np.concatenate([np.zeros(5), np.ones(50)])
        out = adaptive_filter(values, k0=0.5, delta_a=0.01)
        np.testing.assert_allclose(
            out, reference_adaptive_filter(values, 0.5, 0.01), atol=1e-12
        )
        rise = out[5:]
        assert (np.diff(rise) >= -1e-12).all()
        assert rise[-1] < 1.0

    @pytest.mark.parametrize(
        "k0, delta_a",
        [(-0.1, 0.05), (1.5, 0.05), (0.3, 0.0), (0.3, -1.0), (0.3, np.nan), (0.3, np.inf)],
    )
    def test_out_of_range_parameters_rejected(self, k0, delta_a):
        with pytest.raises(ValueError):
            adaptive_filter([1.0, 2.0], k0=k0, delta_a=delta_a)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 2.0, size=60)
        base = adaptive_filter(values, k0=0.3, delta_a=0.1)
        shifted = adaptive_filter(values + c, k0=0.3, delta_a=0.1)
        np.testing.assert_allclose(shifted, base + c, atol=1e-8)


class TestPreprocessChannel:
    def test_constant_is_identity(self):
        out = preprocess_channel(np.full(50, 3.25), np.arange(50.0), np.ones(50, dtype=bool))
        np.testing.assert_allclose(out, 3.25)

    def test_clean_sine_close_to_input(self):
        t = np.arange(400) * 0.01
        values = np.sin(2 * np.pi * t / 2)
        out = preprocess_channel(values, t, np.ones(len(t), dtype=bool), k0=0.3)
        ref = reference_adaptive_filter(values, 0.3, 0.05 * 2.0)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_spike_and_dropout_recovered(self):
        rng = np.random.default_rng(5)
        t = np.arange(400) * 0.01
        clean = np.sin(2 * np.pi * t / 2)
        noisy = clean + rng.normal(0, 0.01, size=len(t))
        noisy[120] += 25.0
        present = np.ones(len(t), dtype=bool)
        present[300] = False
        out = preprocess_channel(noisy, t, present, k0=0.8)
        assert out.shape == t.shape and np.isfinite(out).all()
        rms_out = np.sqrt(np.mean((out - clean) ** 2))
        rms_in = np.sqrt(np.mean((noisy - clean) ** 2))
        assert rms_out < rms_in


class TestPreprocessSeries:
    def test_jittered_rows_on_one_grid_slot_rejected(self):
        # 0.0 and 0.004 both round onto slot 0; row 0 used to be dropped.
        t = np.array([0.0, 0.004, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        series = SensorSeries(t, np.ones((8, 9)))
        with pytest.raises(NonMonotonicTime, match="rows 0 and 1"):
            preprocess_series(series)

    def test_three_gap_free_rows_kept(self):
        # Too few samples to support a gap fill, but none is missing.
        t = np.array([0.0, 0.01, 0.02])
        channels = np.arange(27.0).reshape(3, 9)
        out = preprocess_series(SensorSeries(t, channels))
        assert len(out) == 3
        np.testing.assert_array_equal(out.t, t)
