"""Parsing, validation and serialization of raw 9-channel IMU record streams.

Canonical text format: a header line ``t,ax,ay,az,gx,gy,gz,rx,ry,rz``
followed by one row of 10 decimal fields per sample.  Lines starting with
``#`` are comments; ``# period=<seconds>`` overrides the nominal sample
period (default 0.01 s).  Any line break ``str.splitlines()`` knows ends a
line, and a UTF-8 byte-order mark in front of the text is ignored.  Units:
acceleration m/s^2, angular rate deg/s, orientation deg (Euler).
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import StrokeSenseError

HEADER = "t,ax,ay,az,gx,gy,gz,rx,ry,rz"
DEFAULT_PERIOD = 0.01
N_CHANNELS = 9
#: Characters of text split into lines at a time while parsing.
_CHUNK = 1 << 18
#: Rows formatted into one string at a time while serializing.
_BLOCK = 1024


@dataclass(frozen=True)
class GapReport:
    """Rows ``index`` and ``index + 1`` lie ``dt`` apart, ``missing`` grid slots between."""

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
            raise StrokeSenseError(
                f"expected (n,) timestamps and (n, {N_CHANNELS}) channels, "
                f"got {t.shape} and {channels.shape}"
            )
        if t.size == 0:
            raise StrokeSenseError("series has no samples")
        if not (np.isfinite(t).all() and np.isfinite(channels).all()):
            raise StrokeSenseError("non-finite sample value")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise StrokeSenseError("timestamps must be strictly increasing")
        if not 0 < sample_period < np.inf:
            raise StrokeSenseError(
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


def parse_series(text: str) -> SensorSeries:
    """Parse CSV text in the canonical layout into a :class:`SensorSeries`.

    One byte-order mark in front of the text is dropped.  The text is
    split into lines as ``str.splitlines()`` splits it, a slice of about
    ``_CHUNK`` characters at a time, and the data rows stream from
    that scan into one ``np.loadtxt`` call, which rounds exactly as
    ``float()`` does: beyond the text and the result, working memory is
    one slice and its lines.  Input ``loadtxt`` does not take cleanly (a
    bad field, field count or period directive, a ``#`` in a row, a
    non-finite value) is scanned again and read row by row, which accepts
    what ``float()`` accepts and raises the error for the first bad line.
    """
    scan = _RowScan(text)
    rows = iter(scan)
    first = next(rows, None)
    table = None
    if first is not None:  # loadtxt warns on empty input
        try:
            table = np.loadtxt(
                chain((first,), rows), delimiter=",", ndmin=2, comments=None
            )
        except ValueError:
            pass
    if (
        table is None
        or scan.error is not None
        or table.shape[1] != 10
        or not np.isfinite(table).all()
    ):
        scan = _RowScan(text)
        values = [_parse_row(scan.lineno, line) for line in scan]
        if scan.error is not None:
            raise scan.error
        if not values:
            raise StrokeSenseError("no data rows in input")
        table = np.array(values)
    return SensorSeries(table[:, 0], table[:, 1:], sample_period=scan.period)


class _RowScan:
    """One pass over the data rows of CSV text, each stripped.

    Iterating yields every row and sets ``lineno`` to its line number.
    Blank, header and comment lines are skipped; a ``# period=`` directive
    sets ``period``, and a bad one sets ``error`` and ends the scan.
    """

    def __init__(self, text: str):
        self.text = text
        self.lineno = 0
        self.period = DEFAULT_PERIOD
        self.error = None

    def __iter__(self):
        lines = chain.from_iterable(_line_blocks(self.text))
        for lineno, raw in enumerate(lines, start=1):
            if lineno == 1:
                raw = raw.removeprefix("\ufeff")
            line = raw.strip()
            if not line or (line[0] == "t" and line.replace(" ", "") == HEADER):
                continue
            if line[0] == "#":
                body = line.lstrip("#").strip()
                if body.startswith("period="):
                    try:
                        self.period = float(body.split("=", 1)[1])
                    except ValueError:
                        self.error = StrokeSenseError(
                            f"line {lineno}: bad period directive {line!r}"
                        )
                        return
                continue
            self.lineno = lineno
            yield line


def _line_blocks(text: str):
    """Yield the lines of ``text`` in blocks, the ``splitlines()`` of
    slices of about ``_CHUNK`` characters, each cut just after a ``"\\n"``
    so that no line break spans two slices."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _CHUNK) + 1 or end
        yield text[start:cut].splitlines()
        start = cut


def _parse_row(lineno: int, line: str) -> list:
    fields = line.split(",")
    if len(fields) != 10:
        raise StrokeSenseError(f"line {lineno}: expected 10 fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise StrokeSenseError(f"line {lineno}: non-numeric field in {line!r}")
    if not all(np.isfinite(v) for v in values):
        raise StrokeSenseError(f"line {lineno}: non-finite value")
    return values


def serialize_series(series: SensorSeries) -> str:
    """Emit the canonical CSV text; round-trips bit-exactly through
    :func:`parse_series` (shortest-repr decimal output).

    Rows are formatted ``_BLOCK`` at a time into one string each by
    :func:`_format_block`, and the result is those strings joined: beyond
    it, working memory is the block strings (about the size of the text)
    and one block's fields.
    """
    t, channels = series.t, series.channels
    parts = [f"# period={series.sample_period!r}\n{HEADER}\n"]
    for start in range(0, len(t), _BLOCK):
        stop = start + _BLOCK
        parts.append(_format_block(np.vstack([t[start:stop], channels[start:stop].T])))
    return "".join(parts)


def _format_block(cols: np.ndarray) -> str:
    """The CSV rows of a block of columns: ``repr`` once per run of one
    float64 bit pattern down a column (bits, since ``0.0 == -0.0`` but their
    reprs differ), spread over the run; a function so that the block's
    fields are freed before the next block's are made."""
    bits = cols.view(np.int64)
    new = np.ones(cols.shape, dtype=bool)
    new[:, 1:] = bits[:, 1:] != bits[:, :-1]
    reprs = np.array(list(map(repr, cols[new].tolist())), dtype=object)
    fields = reprs[new.cumsum().reshape(new.shape) - 1]
    return "\n".join(map(",".join, fields.T.tolist())) + "\n"


def grid_slots(series: SensorSeries) -> np.ndarray:
    """Each row's slot on the nominal sample grid, ``round((t - t[0]) / period)``;
    two rows in one slot raise :class:`StrokeSenseError`."""
    p = series.sample_period
    slots = np.round((series.t - series.t[0]) / p).astype(int)
    clash = np.nonzero(np.diff(slots) == 0)[0]
    if clash.size:
        i = int(clash[0])
        raise StrokeSenseError(
            f"rows {i} and {i + 1} (t={float(series.t[i])!r}, "
            f"{float(series.t[i + 1])!r}) round to the same grid slot "
            f"{int(slots[i])} at period {p!r}"
        )
    return slots


def validate_series(series: SensorSeries) -> list:
    """Report every adjacent pair whose :func:`grid_slots` lie more than one
    apart, with the rows missing between them: the rows that
    :func:`~strokesense.preprocessing.preprocess_series` restores."""
    steps, dts = np.diff(grid_slots(series)), np.diff(series.t)
    return [GapReport(int(i), float(dts[i]), int(steps[i]) - 1) for i in np.nonzero(steps > 1)[0]]
