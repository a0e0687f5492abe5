import gc
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strokesense.io as sio
from strokesense.errors import StrokeSenseError
from strokesense.io import (
    HEADER,
    SensorSeries,
    parse_series,
    serialize_series,
    validate_series,
)
from strokesense.preprocessing import preprocess_series
from strokesense.synth import GenConfig, generate


def _csv(rows, header=True, extra=()):
    lines = list(extra)
    if header:
        lines.append(HEADER)
    for r in rows:
        lines.append(",".join(str(v) for v in r))
    return "\n".join(lines) + "\n"


def _row(t, value=1.0):
    return [t] + [value] * 9


class TestParse:
    def test_three_valid_rows(self):
        series = parse_series(_csv([_row(0.00), _row(0.01), _row(0.02)]))
        assert len(series) == 3
        assert series.sample_period == 0.01
        np.testing.assert_allclose(series.t, [0.0, 0.01, 0.02])

    def test_non_monotonic_time(self):
        with pytest.raises(StrokeSenseError, match="^timestamps must be strictly increasing$"):
            parse_series(_csv([_row(0.00), _row(0.02), _row(0.01)]))

    def test_wrong_column_count(self):
        text = _csv([_row(0.0)]) + "0.01,1,2,3,4,5,6,7\n"
        with pytest.raises(StrokeSenseError, match="^line 3: expected 10 fields, got 8$"):
            parse_series(text)

    def test_non_numeric_field(self):
        with pytest.raises(StrokeSenseError, match="^line 2: non-numeric field in '0.0,x,"):
            parse_series(_csv([[0.0, "x", 1, 1, 1, 1, 1, 1, 1, 1]]))

    def test_empty_input(self):
        with pytest.raises(StrokeSenseError, match="^no data rows in input$"):
            parse_series(HEADER + "\n")

    def test_period_directive(self):
        text = _csv([_row(0.0), _row(0.02)], extra=["# period=0.02"])
        assert parse_series(text).sample_period == 0.02

    @pytest.mark.parametrize("period", ["nan", "inf", "0"])
    def test_bad_period_directive_value(self, period):
        text = _csv([_row(0.0), _row(0.01)], extra=[f"# period={period}"])
        with pytest.raises(StrokeSenseError, match="^sample_period must be positive and finite, got "):
            parse_series(text)

    def test_comments_skipped(self):
        text = _csv([_row(0.0), _row(0.01)], extra=["# a comment"])
        assert len(parse_series(text)) == 2

    def test_byte_order_mark_dropped(self):
        text = _csv([_row(0.0), _row(0.01)], extra=["# period=0.01"])
        assert parse_series("\ufeff" + text) == parse_series(text)
        assert parse_series("\ufeff" + "\n".join(text.splitlines()[2:])) == parse_series(text)

    def test_byte_order_mark_elsewhere_rejected(self):
        text = _csv([_row(0.0), _row(0.01)])
        with pytest.raises(StrokeSenseError) as err:
            parse_series("\ufeff\ufeff" + text)
        assert str(err.value) == "line 1: non-numeric field in " + repr("\ufeff" + HEADER)
        lines = text.splitlines()
        lines[2] = "\ufeff" + lines[2]
        with pytest.raises(StrokeSenseError, match="^line 3: non-numeric field in "):
            parse_series("\n".join(lines))


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_serialize_parse_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.009, 0.011, size=n))
        channels = rng.normal(0, 10, size=(n, 9))
        series = SensorSeries(t, channels)
        again = parse_series(serialize_series(series))
        assert np.array_equal(series.t, again.t)
        assert np.array_equal(series.channels, again.channels)
        assert series.sample_period == again.sample_period


#: A few dozen characters: every text below is split in several slices.
SMALL_CHUNK = 40

#: (t, ax) of the rows of ``_series_text``; the other channels are ``ax + k``.
ROWS = [(round(0.01 * k, 2), k * 0.5 - 1.0) for k in range(8)]


def _data_line(t, a):
    return ",".join(repr(v) for v in [t] + [a + k for k in range(9)])


def _series_text(sep="\n", extra=(), every=3):
    """HEADER and ROWS joined by ``sep``, with ``extra`` lines inserted
    after every ``every`` rows."""
    lines, extra = [HEADER], list(extra)
    for k, row in enumerate(ROWS):
        lines.append(_data_line(*row))
        if extra and k % every == every - 1:
            lines.append(extra.pop(0))
    return sep.join(lines + extra) + sep


def _expected(period=0.01):
    t = [r[0] for r in ROWS]
    channels = [[r[1] + k for k in range(9)] for r in ROWS]
    return SensorSeries(t, channels, sample_period=period)


def _line_of(text, needle):
    return next(n for n, line in enumerate(text.splitlines(), start=1) if needle in line)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(sio, "_CHUNK", SMALL_CHUNK)


@pytest.mark.usefixtures("small_chunks")
class TestChunkedScan:
    """The text is split a slice at a time; rows, errors and line numbers
    must be those of one ``splitlines()`` over the whole text."""

    @pytest.mark.parametrize(
        "sep", ["\n", "\r\n", "\r", "\x85", "\x0b", "\x0c", "\x1c", "\u2028"]
    )
    def test_line_separators(self, sep):
        text = _series_text(sep)
        blocks = list(sio._line_blocks(text))
        assert list(chain.from_iterable(blocks)) == text.splitlines()
        if "\n" in sep:
            assert len(blocks) > 3
        assert parse_series(text) == _expected()

    def test_mixed_separators(self):
        seps = ["\r\n", "\x85", "\n", "\r", "\u2029", "\n", "\x1e", "\n"]
        lines = [HEADER] + [_data_line(*row) for row in ROWS]
        text = "".join(line + sep for line, sep in zip(lines, seps + ["\n"]))
        assert list(chain.from_iterable(sio._line_blocks(text))) == text.splitlines()
        assert parse_series(text) == _expected()

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab\r\n\x85\x0b\u2028", max_size=300), st.integers(1, 20))
    def test_slices_split_as_splitlines(self, text, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sio, "_CHUNK", chunk)
            assert list(chain.from_iterable(sio._line_blocks(text))) == text.splitlines()

    def test_blank_lines_and_repeated_header(self):
        spaced = "t, ax, ay, az, gx, gy, gz, rx, ry, rz"
        text = _series_text(extra=["", "   ", HEADER, "\t", spaced], every=1)
        assert parse_series(text) == _expected()

    def test_late_period_directive_applies(self):
        text = _series_text(extra=["", "", "# period=0.02"])
        assert _line_of(text, "period") > 1 and text.index("period") > SMALL_CHUNK
        assert parse_series(text) == _expected(period=0.02)

    def test_late_bad_period_directive(self):
        text = _series_text(extra=["", "", "# period=abc"])
        lineno = _line_of(text, "period")
        with pytest.raises(StrokeSenseError) as err:
            parse_series(text)
        assert str(err.value) == f"line {lineno}: bad period directive '# period=abc'"

    def test_late_bad_row(self):
        text = _series_text(extra=["", "", "0.5,1,2,3,4,5,6,7"])
        lineno = _line_of(text, "0.5,1,2,3")
        assert text.index("0.5,1,2,3") > 3 * SMALL_CHUNK
        with pytest.raises(StrokeSenseError) as err:
            parse_series(text)
        assert str(err.value) == f"line {lineno}: expected 10 fields, got 8"

    def test_late_comment_inside_row(self):
        row = _data_line(*ROWS[-1]) + " # note"
        text = _series_text().replace(_data_line(*ROWS[-1]), row)
        lineno = _line_of(text, "# note")
        with pytest.raises(StrokeSenseError) as err:
            parse_series(text)
        assert str(err.value) == f"line {lineno}: non-numeric field in {row!r}"

    def test_row_error_before_bad_directive(self):
        text = _series_text(extra=["", "0.5,1,2", "# period=abc"], every=2)
        with pytest.raises(StrokeSenseError) as err:
            parse_series(text)
        assert str(err.value) == f"line {_line_of(text, '0.5,1,2')}: expected 10 fields, got 3"

    def test_comments_only(self):
        text = "\n".join(["# period=0.02", "# a comment", "", HEADER, "## note"] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StrokeSenseError, match="^no data rows in input$"):
                parse_series(text)

    def test_loadtxt_reject_falls_back(self):
        # "-1_0.0" is a field float() takes and loadtxt does not, so the
        # text is scanned a second time and read row by row
        lines = _series_text().splitlines()
        lines[1] = lines[1].replace("-1.0", "-1_0.0", 1)
        got = parse_series("\n".join(lines))
        assert got.channels[0, 0] == -10.0
        np.testing.assert_array_equal(got.channels[1:], _expected().channels[1:])
        np.testing.assert_array_equal(got.t, _expected().t)


class TestMemoryBound:
    """Working memory beyond the text and the result is a slice, not the input."""

    @pytest.fixture(scope="class")
    def faulty(self):
        cfg = GenConfig(seed=1, strokes_per_class=20, spike_rate=0.002, dropout_rate=0.01)
        series = generate(cfg)[0]
        return series, serialize_series(series)

    @staticmethod
    def _transient(fn, arg):
        """Peak traced bytes above the level before the call."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak - base

    def test_parse(self, faulty):
        series, text = faulty
        result, transient = self._transient(parse_series, text)
        assert result == series
        assert transient <= 1.25 * len(text)

    def test_serialize(self, faulty):
        _, text = faulty
        series = parse_series(text)
        result, transient = self._transient(serialize_series, series)
        assert result == text
        assert transient <= 2.25 * len(text)

    def test_serialize_clean(self, faulty):
        """The cleaned series is mostly runs of held values; their strings
        are spread one block at a time, not a column at a time."""
        series = preprocess_series(faulty[0])
        text, transient = self._transient(serialize_series, series)
        assert parse_series(text) == series
        assert transient <= 2.25 * len(text)


class TestValidate:
    def _series(self, ts):
        return SensorSeries(np.array(ts), np.ones((len(ts), 9)))

    def test_uniform_spacing_clean(self):
        assert validate_series(self._series([0.0, 0.01, 0.02, 0.03])) == []

    def test_single_gap(self):
        reports = validate_series(self._series([0.0, 0.01, 0.04, 0.05]))
        assert len(reports) == 1
        assert reports[0].index == 1
        assert reports[0].missing == 2

    def test_two_gaps(self):
        reports = validate_series(self._series([0.0, 0.02, 0.03, 0.05, 0.06]))
        assert [r.missing for r in reports] == [1, 1]

    def test_jitter_within_a_slot_is_no_gap(self):
        # slots 0, 1, 2, 3, 4: preprocess restores no row, though two
        # spacings stray from the period by more than half of it
        assert validate_series(self._series([0.0, 0.013, 0.017, 0.033, 0.04])) == []

    @staticmethod
    def _drifted(scale):
        series, _ = generate(GenConfig(seed=7, strokes_per_class=2))
        t0 = series.t[0]
        return SensorSeries(t0 + (series.t - t0) * scale, series.channels, series.sample_period)

    @pytest.mark.parametrize("scale", [0.999, 0.99])
    def test_fast_clock_raises_as_preprocess_does(self, scale):
        series = self._drifted(scale)
        with pytest.raises(StrokeSenseError, match="round to the same grid slot") as expected:
            preprocess_series(series)
        with pytest.raises(StrokeSenseError) as reported:
            validate_series(series)
        assert str(reported.value) == str(expected.value)

    @pytest.mark.parametrize("scale, restored", [(1.001, 3), (1.01, 34)])
    def test_slow_clock_reports_the_rows_preprocess_restores(self, scale, restored):
        series = self._drifted(scale)
        assert len(preprocess_series(series)) - len(series) == restored
        assert sum(r.missing for r in validate_series(series)) == restored

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_dropout_reports_the_rows_preprocess_restores(self, seed):
        raw, _ = generate(GenConfig(seed=seed, strokes_per_class=3, spike_rate=0.002,
                                    dropout_rate=0.01))
        clean = preprocess_series(raw)
        assert sum(r.missing for r in validate_series(raw)) == len(clean) - len(raw)

    def test_immutable_arrays(self):
        series = self._series([0.0, 0.01])
        with pytest.raises(ValueError):
            series.channels[0, 0] = 5.0
