"""Parsing, validation and serialization of raw 9-channel IMU record streams.

Canonical text format: a header line ``t,ax,ay,az,gx,gy,gz,rx,ry,rz``
followed by one row of 10 decimal fields per sample.  Lines starting with
``#`` are comments; ``# period=<seconds>`` overrides the nominal sample
period (default 0.01 s).  Units: acceleration m/s^2, angular rate deg/s,
orientation deg (Euler).
"""

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import EmptyInput, MalformedRow, NonMonotonicTime

HEADER = "t,ax,ay,az,gx,gy,gz,rx,ry,rz"
DEFAULT_PERIOD = 0.01
N_CHANNELS = 9
CHANNEL_NAMES = ["ax", "ay", "az", "gx", "gy", "gz", "rx", "ry", "rz"]


@dataclass(frozen=True)
class GapReport:
    """A spacing anomaly between samples ``index`` and ``index + 1``."""

    index: int
    dt: float
    missing: int


class SensorSeries:
    """Immutable ordered stream of 9-channel samples.

    ``channels`` is an (n, 9) array in the order ax..az, gx..gz, rx..rz.
    Timestamps must be strictly increasing; spacing gaps are permitted at
    construction and surfaced by :func:`validate_series`.
    """

    def __init__(self, t, channels, sample_period: float = DEFAULT_PERIOD):
        t = np.asarray(t, dtype=float)
        channels = np.asarray(channels, dtype=float)
        if t.ndim != 1 or channels.shape != (t.shape[0], N_CHANNELS):
            raise MalformedRow(
                f"expected (n,) timestamps and (n, {N_CHANNELS}) channels, "
                f"got {t.shape} and {channels.shape}"
            )
        if t.size == 0:
            raise EmptyInput("series has no samples")
        if not (np.isfinite(t).all() and np.isfinite(channels).all()):
            raise MalformedRow("non-finite sample value")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise NonMonotonicTime("timestamps must be strictly increasing")
        if not 0 < sample_period < np.inf:
            raise MalformedRow(
                f"sample_period must be positive and finite, got {sample_period}"
            )
        self._t = t.copy()
        self._channels = channels.copy()
        self._t.setflags(write=False)
        self._channels.setflags(write=False)
        self.sample_period = float(sample_period)

    @property
    def t(self) -> np.ndarray:
        return self._t

    @property
    def channels(self) -> np.ndarray:
        return self._channels

    def __len__(self) -> int:
        return self._t.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SensorSeries):
            return NotImplemented
        return (
            self.sample_period == other.sample_period
            and np.array_equal(self._t, other._t)
            and np.array_equal(self._channels, other._channels)
        )


def parse_series(source: Union[str, Iterable[str]]) -> SensorSeries:
    """Parse the canonical CSV layout into a :class:`SensorSeries`.

    ``source`` may be the whole text, an iterable of lines, or an open
    text file.  The data rows are converted in one ``np.loadtxt`` call,
    which rounds exactly as ``float()`` does.  Input it does not take
    cleanly (a bad field, field count or period directive, a ``#`` in a
    row, a non-finite value) is re-read row by row, which accepts what
    ``float()`` accepts and raises the error for the first bad line.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    period, linenos, data, error = DEFAULT_PERIOD, [], [], None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.replace(" ", "") == HEADER:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("period="):
                try:
                    period = float(body.split("=", 1)[1])
                except ValueError:
                    error = MalformedRow(
                        f"line {lineno}: bad period directive {line!r}"
                    )
                    break
            continue
        linenos.append(lineno)
        data.append(line)

    table = None
    if data and error is None:
        try:
            table = np.loadtxt(data, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            pass
    if (
        table is None
        or table.shape[1] != 10
        or not np.isfinite(table).all()
    ):
        rows = [_parse_row(lineno, line) for lineno, line in zip(linenos, data)]
        if error is not None:
            raise error
        if not rows:
            raise EmptyInput("no data rows in input")
        table = np.array(rows)
    return SensorSeries(table[:, 0], table[:, 1:], sample_period=period)


def _parse_row(lineno: int, line: str) -> list:
    fields = line.split(",")
    if len(fields) != 10:
        raise MalformedRow(f"line {lineno}: expected 10 fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise MalformedRow(f"line {lineno}: non-numeric field in {line!r}")
    if not all(np.isfinite(v) for v in values):
        raise MalformedRow(f"line {lineno}: non-finite value")
    return values


def serialize_series(series: SensorSeries) -> str:
    """Emit the canonical CSV text; round-trips bit-exactly through
    :func:`parse_series` (shortest-repr decimal output)."""
    out = [f"# period={series.sample_period!r}", HEADER]
    for i in range(len(series)):
        vals = [series.t[i]] + list(series.channels[i])
        out.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(out) + "\n"


def validate_series(series: SensorSeries) -> list:
    """Report every adjacent pair whose spacing deviates from the nominal
    period by more than half a period, with the implied missing-row count."""
    p = series.sample_period
    dts = np.diff(series.t)
    reports = []
    for i in np.nonzero(np.abs(dts - p) > 0.5 * p)[0]:
        dt = float(dts[i])
        missing = max(int(round(dt / p)) - 1, 0)
        reports.append(GapReport(index=int(i), dt=dt, missing=missing))
    return reports
