"""Bit-equality of the ingest layer with the reference implementations in
oracles.py: the CSV parser and writer, the Newton gap fill, the adaptive
smoother and the full cleaning chain.  Every comparison is exact (no tolerance)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strokesense.io as sio
from oracles import (
    reference_adaptive_filter,
    reference_newton_fill,
    reference_parse_series,
    reference_serialize_series,
)
from strokesense.errors import StrokeSenseError
from strokesense.io import HEADER, SensorSeries, parse_series, serialize_series
from strokesense.preprocessing import (
    DEFAULT_DELTA_A_FRACTION,
    DEFAULT_K0,
    adaptive_filter,
    newton_fill,
    preprocess_series,
    remove_outliers,
)
from strokesense.synth import GenConfig, generate

FAULTY_SEEDS = [1, 2, 3]


def _faulty(seed):
    cfg = GenConfig(
        seed=seed, strokes_per_class=3, spike_rate=0.002, dropout_rate=0.01
    )
    return generate(cfg)[0]


def _grid(series):
    """Grid positions, presence mask and per-channel grid values, laid out
    as preprocess_series lays them out."""
    p = series.sample_period
    t0 = float(series.t[0])
    idx = np.round((series.t - t0) / p).astype(int)
    grid_t = t0 + np.arange(idx[-1] + 1) * p
    present = np.zeros(len(grid_t), dtype=bool)
    present[idx] = True
    values = np.zeros((len(grid_t), series.channels.shape[1]))
    values[idx] = series.channels
    return grid_t, present, values


def _assert_fill_matches(values, positions, present):
    got = newton_fill(values, positions, present)
    want = reference_newton_fill(values, positions, present)
    np.testing.assert_array_equal(got, want)


class TestNewtonFillOracle:
    @pytest.mark.parametrize("seed", FAULTY_SEEDS)
    def test_faulty_corpus_dropout_and_outlier_gaps(self, seed):
        grid_t, present, values = _grid(_faulty(seed))
        assert not present.all()
        for ch in range(values.shape[1]):
            _assert_fill_matches(values[:, ch], grid_t, present)
            filled = newton_fill(values[:, ch], grid_t, present)
            _assert_fill_matches(filled, grid_t, remove_outliers(filled))

    @pytest.mark.parametrize(
        "missing",
        [[0], [0, 1, 2], [11], [9, 10, 11], [3, 4, 5, 6], [0, 5, 6, 11], [1, 3, 5, 7]],
    )
    def test_edge_gaps_on_non_uniform_positions(self, missing):
        rng = np.random.default_rng(len(missing) * 100 + missing[0])
        positions = np.cumsum(rng.uniform(0.1, 2.0, 12))
        values = rng.normal(size=12)
        present = np.ones(12, dtype=bool)
        present[missing] = False
        _assert_fill_matches(values, positions, present)

    def test_tie_on_distance_goes_to_lower_index(self):
        # Filling 5 on 0..10 with 5 and 6 missing: 2 (left) and 8 (right)
        # both lie 3 away and compete for the fourth support.
        positions = np.arange(11.0)
        values = np.random.default_rng(0).normal(size=11)
        present = np.ones(11, dtype=bool)
        present[[5, 6]] = False
        _assert_fill_matches(values, positions, present)
        nodes = [2, 3, 4, 7]
        coeffs = np.polyfit(positions[nodes], values[nodes], 3)
        filled = newton_fill(values, positions, present)
        assert filled[5] == pytest.approx(np.polyval(coeffs, 5.0), abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 60))
        if seed % 2:
            positions = np.arange(float(n))
        else:
            positions = np.cumsum(rng.uniform(0.01, 1.0, n))
        values = rng.normal(size=n)
        present = rng.random(n) > 0.4
        if present.sum() < 4:
            present[rng.choice(n, 4, replace=False)] = True
        _assert_fill_matches(values, positions, present)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "jittered"])
    @pytest.mark.parametrize(
        "runs",
        [
            [(100, 300)],  # one 200-sample run mid-series
            [(0, 40)],
            [(360, 400)],
            [(0, 40), (360, 400)],
            [(100, 110), (114, 130)],  # 4 known samples between the runs
            [(100, 110), (115, 130)],  # 5 known samples between the runs
        ],
        ids=["mid-200", "head", "tail", "head-and-tail", "4-apart", "5-apart"],
    )
    def test_long_runs(self, runs, uniform):
        rng = np.random.default_rng(len(runs) * 1000 + runs[0][0])
        positions = np.arange(400.0) if uniform else np.cumsum(rng.uniform(0.5, 1.5, 400))
        values = np.sin(positions / 15) + rng.normal(scale=0.1, size=400)
        present = np.ones(400, dtype=bool)
        for start, stop in runs:
            present[start:stop] = False
        _assert_fill_matches(values, positions, present)


def _smoother_input(kind, n):
    rng = np.random.default_rng(n)
    if kind == "constant":
        return np.full(n, 1.7)
    if kind == "spike":  # long holds broken by one spike
        x = 0.4 + rng.uniform(-0.01, 0.01, n)
        x[n // 2] = 5.0
        return x
    return np.cumsum(rng.normal(scale=0.05, size=n))


class TestAdaptiveFilterOracle:
    @pytest.mark.parametrize("kind", ["constant", "spike", "random-walk"])
    @pytest.mark.parametrize("k0", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97])
    def test_bit_equal(self, n, k0, kind):
        x = _smoother_input(kind, n)
        np.testing.assert_array_equal(
            adaptive_filter(x, k0, 0.1), reference_adaptive_filter(x, k0, 0.1)
        )

    @pytest.mark.parametrize("start", [-0.0, 0.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_held_signed_zero(self, start, sign):
        # Every step is far below delta_a, so the output holds at +-0.0,
        # and a held 0*x + 1*y takes its sign from the sum.
        x = sign * np.random.default_rng(3).uniform(0.0, 1e-3, 70)
        x[0] = start
        got, want = adaptive_filter(x, 0.3, 0.1), reference_adaptive_filter(x, 0.3, 0.1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_empty(self):
        got = adaptive_filter([])
        assert got.shape == (0,)
        assert got.dtype == float


class TestPreprocessSeriesOracle:
    @pytest.mark.parametrize("seed", FAULTY_SEEDS)
    def test_faulty_corpus_bit_equal(self, seed):
        series = _faulty(seed)
        grid_t, present, values = _grid(series)
        slots = np.arange(len(grid_t), dtype=float)  # the chain fills on slots, not times
        want = np.empty_like(values)
        for ch in range(values.shape[1]):
            filled = reference_newton_fill(values[:, ch], slots, present)
            cleaned = reference_newton_fill(filled, slots, remove_outliers(filled))
            delta_a = DEFAULT_DELTA_A_FRACTION * float(cleaned.max() - cleaned.min())
            want[:, ch] = reference_adaptive_filter(cleaned, DEFAULT_K0, delta_a)
        got = preprocess_series(series)
        np.testing.assert_array_equal(got.t, grid_t)
        np.testing.assert_array_equal(got.channels, want)


def _outcome(parse, text):
    """(t, channels, period) on success, (error type, message) on failure."""
    try:
        result = parse(text)
    except StrokeSenseError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return result.t, result.channels, result.sample_period


def _assert_parse_matches(text):
    got, want = _outcome(parse_series, text), _outcome(reference_parse_series, text)
    if isinstance(want[0], type):
        assert got == want
    else:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
    return got


ROW_A = "0.0,1.5,-2.25,3,4e-3,5,6,7,8,9"
ROW_B = "0.01,1.0000000000000002,2,3,4,5,6,7,8,0.1"
ROW_C = "0.02,1,2,3,4,5,6,7,8,9"


class TestParseOracle:
    @pytest.mark.parametrize("seed", FAULTY_SEEDS)
    def test_serialized_faulty_corpus(self, seed):
        text = serialize_series(_faulty(seed))
        got = _assert_parse_matches(text)
        assert len(got[0]) > 1000

    @pytest.mark.parametrize(
        "text",
        [
            # accepted
            "\n".join([HEADER, ROW_A, HEADER, ROW_B, ROW_C]),
            "\n".join([HEADER, ROW_A, ROW_B, "# period=0.02", ROW_C]),
            "\n".join(["", HEADER, "", ROW_A, "   ", ROW_B, "", ROW_C, ""]),
            "\n".join(
                [
                    "t, ax, ay, az, gx, gy, gz, rx, ry, rz",
                    " 0.0 , 1,2,3,4,5,6,7,8,9 ",
                    "\t0.01,1 ,2, 3,4,5,6,7,8,9",
                ]
            ),
            "\r\n".join([HEADER, ROW_A, ROW_B]),
            "\n".join([HEADER, "0.0,1_0,2,3,4,5,6,7,8,9", ROW_B]),
            "\n".join(["## period = 0.05", "# just a comment", ROW_A]),
            ROW_A,
            # rejected
            "\n".join([HEADER, ROW_A, "0.01,1,2,3,4,5,6,7,8,9 # note"]),
            "\n".join([HEADER, ROW_A, "0.01,nan,2,3,4,5,6,7,8,9"]),
            "\n".join([HEADER, ROW_A, "0.01,1,2,3,4,5,6,7,8,inf"]),
            "\n".join([HEADER, ROW_A, "0.01,1,2,3,4,5,6,7,8,1e400"]),
            "\n".join([HEADER, ROW_A, "0.01,1,2,3,4,5,6,7,8"]),
            "\n".join([HEADER, ROW_A, ROW_B + ",10"]),
            "\n".join([HEADER, "0.0,1,2,3,4,5,6,7,8", "0.01,1,2,3,4,5,6,7,8"]),
            "\n".join([HEADER, ROW_A, "0.01,1,,3,4,5,6,7,8,9"]),
            "\n".join([HEADER, ROW_A, "0.01,x,2,3,4,5,6,7,8,9"]),
            "\n".join([HEADER, ROW_A, ROW_C, ROW_B]),
            "\n".join([HEADER, ROW_A, "# period=abc", ROW_B]),
            "\n".join([HEADER, ROW_A, "0.01,1,2,3", "# period=abc"]),
            "\n".join(["# period=abc", HEADER, ROW_A, "0.01,1,2,3"]),
            "\n".join([HEADER, "# period=0.02", ""]),
            "",
        ],
    )
    def test_line_layouts(self, text):
        _assert_parse_matches(text)


#: Values whose reprs differ while they compare equal (0.0, -0.0) or sit
#: next to each other, and the edges of repr's two notations: the smallest
#: subnormal, 1e16 and the float below it, 1e-5 and 0.0001.
_POOL = [0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.5, -2.25]


def _assert_serialize_matches(series):
    assert serialize_series(series) == reference_serialize_series(series)


class TestSerializeOracle:
    @pytest.mark.parametrize("stage", ["raw", "clean"])
    def test_faulty_corpus(self, stage):
        """The raw series has no runs; in the cleaned one the smoother's
        held outputs make most fields repeat the field above."""
        series = _faulty(1)
        if stage == "clean":
            series = preprocess_series(series)
        assert len(series) > sio._BLOCK
        _assert_serialize_matches(series)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.lists(st.sampled_from(_POOL), min_size=9, max_size=9)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.01, 1e-5, 1e16]),
        st.sampled_from([3, 7, sio._BLOCK]),
    )
    def test_long_runs_of_pool_values(self, runs, period, block):
        """Rows repeat a drawn row ``count`` times, so runs are long, and
        in blocks of 3 or 7 rows most runs cross a block boundary."""
        channels = np.array([row for count, row in runs for _ in range(count)])
        series = SensorSeries(np.arange(len(channels)) * period, channels, sample_period=period)
        with mock.patch.object(sio, "_BLOCK", block):
            _assert_serialize_matches(series)

    @pytest.mark.parametrize("block", [3, sio._BLOCK])
    def test_runs_across_blocks(self, monkeypatch, block):
        """Alternating signed zeros, and runs of 1 to 6 rows that start and
        end inside and across blocks of 3."""
        monkeypatch.setattr(sio, "_BLOCK", block)
        n = 40
        channels = np.array([_POOL[(i // (1 + j % 6)) % len(_POOL)] for i in range(n)
                             for j in range(9)]).reshape(n, 9)
        channels[:, 0] = np.where(np.arange(n) % 2, -0.0, 0.0)
        series = SensorSeries(np.arange(n) * 0.01, channels)
        text = serialize_series(series)
        assert text == reference_serialize_series(series)
        assert [line.split(",")[1] for line in text.splitlines()[2:6]] == ["0.0", "-0.0"] * 2

    def test_one_row(self):
        _assert_serialize_matches(SensorSeries([0.5], [[-0.0, 0.0, 5e-324, *_POOL[3:]]], 0.02))
