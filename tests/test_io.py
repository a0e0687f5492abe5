import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesense.errors import EmptyInput, MalformedRow, NonMonotonicTime
from strokesense.io import (
    HEADER,
    SensorSeries,
    parse_series,
    serialize_series,
    validate_series,
)


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
        with pytest.raises(NonMonotonicTime):
            parse_series(_csv([_row(0.00), _row(0.02), _row(0.01)]))

    def test_wrong_column_count(self):
        text = _csv([_row(0.0)]) + "0.01,1,2,3,4,5,6,7\n"
        with pytest.raises(MalformedRow):
            parse_series(text)

    def test_non_numeric_field(self):
        with pytest.raises(MalformedRow):
            parse_series(_csv([[0.0, "x", 1, 1, 1, 1, 1, 1, 1, 1]]))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_series(HEADER + "\n")

    def test_period_directive(self):
        text = _csv([_row(0.0), _row(0.02)], extra=["# period=0.02"])
        assert parse_series(text).sample_period == 0.02

    @pytest.mark.parametrize("period", ["nan", "inf", "0"])
    def test_bad_period_directive_value(self, period):
        text = _csv([_row(0.0), _row(0.01)], extra=[f"# period={period}"])
        with pytest.raises(MalformedRow, match="sample_period"):
            parse_series(text)

    def test_comments_skipped(self):
        text = _csv([_row(0.0), _row(0.01)], extra=["# a comment"])
        assert len(parse_series(text)) == 2


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

    def test_immutable_arrays(self):
        series = self._series([0.0, 0.01])
        with pytest.raises(ValueError):
            series.channels[0, 0] = 5.0
