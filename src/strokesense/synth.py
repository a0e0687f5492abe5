"""Deterministic generator of labeled synthetic six-stroke IMU streams.

Each stroke class is a 2 s parameterized waveform (distinct dominant axes,
frequencies and orientation offsets per class) under a smooth envelope,
plus seeded Gaussian noise; optional spikes and row dropouts emulate
sensor faults.  Identical configs produce byte-identical output (Philox
counter-based RNG).
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import StrokeSenseError
from .io import DEFAULT_PERIOD, N_CHANNELS, SensorSeries
from .labels import IDLE, StrokeLabel
from .windows import MotionWindow, cut_windows

GRAVITY = 9.8


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    strokes_per_class: int = 100
    noise_sigma: float = 0.05  # fraction of per-channel template amplitude
    spike_rate: float = 0.0  # per-sample probability
    dropout_rate: float = 0.0  # per-sample probability
    idle_fraction: float = 0.3  # fraction of the timeline
    period: float = 2.0  # seconds per stroke
    sample_period: float = DEFAULT_PERIOD

    def __post_init__(self):
        for name in ("noise_sigma", "spike_rate", "dropout_rate", "idle_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise StrokeSenseError(f"{name} must lie in [0, 1), got {v}")
        if not (0 < self.period < np.inf and 0 < self.sample_period < np.inf):
            raise StrokeSenseError("period and sample_period must be positive and finite")
        if self.strokes_per_class < 1:
            raise StrokeSenseError("strokes_per_class must be at least 1")

    @property
    def width(self) -> int:
        return int(round(self.period / self.sample_period))


@dataclass(frozen=True)
class ClassTemplate:
    """Per-class waveform parameters for the nine channels."""

    acc_amp: Tuple[float, float, float]
    gyro_amp: Tuple[float, float, float]
    angle_amp: Tuple[float, float, float]
    angle_offset: Tuple[float, float, float]
    freq: float  # cycles per stroke period

    @property
    def amp(self) -> np.ndarray:
        return np.array(self.acc_amp + self.gyro_amp + self.angle_amp)

    @property
    def offset(self) -> np.ndarray:
        return np.array([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0, *self.angle_offset])


#: Distinct dominant axes, signs and frequencies per stroke class.
CLASS_TEMPLATES = {
    StrokeLabel.FOREHAND_ATTACK: ClassTemplate(
        (12.0, 3.0, 2.0), (40.0, 20.0, 160.0), (5.0, 3.0, 8.0), (20.0, 10.0, 5.0), 1.0
    ),
    StrokeLabel.BACKHAND_ATTACK: ClassTemplate(
        (-11.0, 3.5, 2.0), (-35.0, 15.0, -150.0), (6.0, 4.0, 9.0), (-20.0, 12.0, 6.0), 1.0
    ),
    StrokeLabel.FOREHAND_PUSH: ClassTemplate(
        (4.0, 8.0, 1.5), (90.0, 25.0, 30.0), (4.0, 10.0, 3.0), (10.0, 30.0, -10.0), 2.0
    ),
    StrokeLabel.BACKHAND_PUSH: ClassTemplate(
        (3.0, -7.0, 2.0), (-80.0, -20.0, 25.0), (5.0, 11.0, 4.0), (-12.0, 28.0, -12.0), 2.0
    ),
    StrokeLabel.FOREHAND_CHOP: ClassTemplate(
        (3.0, 2.0, 9.0), (25.0, 110.0, 20.0), (9.0, 5.0, 4.0), (15.0, -25.0, 30.0), 1.5
    ),
    StrokeLabel.BACKHAND_CHOP: ClassTemplate(
        (2.0, 3.0, -8.0), (-20.0, -100.0, -25.0), (10.0, 6.0, 5.0), (-15.0, -22.0, 32.0), 1.5
    ),
}

#: Per-channel phase ramp shared by all classes.
CHANNEL_PHASE = np.arange(N_CHANNELS) * (np.pi / 4)

#: Per-channel amplitude reference (max over classes); noise and spike
#: magnitudes scale against this.
REF_AMP = np.max(np.abs(np.array([t.amp for t in CLASS_TEMPLATES.values()])), axis=0)


def class_template(label: StrokeLabel, cfg: GenConfig) -> np.ndarray:
    """The noiseless (width, 9) waveform of one stroke class."""
    tpl = CLASS_TEMPLATES[label]
    t = np.arange(cfg.width) * cfg.sample_period
    envelope = np.sin(np.pi * t / cfg.period) ** 2
    carrier = np.sin(
        2 * np.pi * tpl.freq * t[:, None] / cfg.period + CHANNEL_PHASE[None, :]
    )
    return tpl.offset[None, :] + tpl.amp[None, :] * envelope[:, None] * carrier


def layout(cfg: GenConfig) -> List[Tuple[int, int, str]]:
    """The stream's spans on its sample grid, as (start, end, label) with
    end exclusive: ``strokes_per_class`` rounds of the classes in order,
    each stroke after an :data:`IDLE` gap of ``idle_fraction`` of the
    timeline, unless that rounds to no row.  The spans tile ``[0, n)``."""
    idle_len = int(round(cfg.width * cfg.idle_fraction / (1.0 - cfg.idle_fraction)))
    spans, cursor = [], 0
    for label in [*StrokeLabel] * cfg.strokes_per_class:
        if idle_len:
            spans.append((cursor, cursor + idle_len, IDLE))
            cursor += idle_len
        spans.append((cursor, cursor + cfg.width, label.name))
        cursor += cfg.width
    return spans


def generate(cfg: GenConfig) -> Tuple[SensorSeries, List[Tuple[int, int, str]]]:
    """Build the labeled stream of :func:`layout`.

    Returns the series plus ground truth as (start, end, label) with end
    exclusive: the layout's spans moved to the rows that survive dropout.
    Idle spans are labeled :data:`IDLE`.  Dropout never drops the first or
    the last row, so the grid of the emitted rows is exactly the layout's.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    idle_base = np.zeros(N_CHANNELS)
    idle_base[2] = GRAVITY
    truth = layout(cfg)
    values = np.vstack([
        np.tile(idle_base, (e - s, 1)) if label == IDLE else class_template(StrokeLabel[label], cfg)
        for s, e, label in truth
    ])
    n = values.shape[0]
    if cfg.noise_sigma > 0:
        values = values + rng.normal(0.0, 1.0, size=values.shape) * (
            cfg.noise_sigma * REF_AMP[None, :]
        )
    if cfg.spike_rate > 0:
        hit = np.nonzero(rng.random(n) < cfg.spike_rate)[0]
        for i in hit:
            ch = int(rng.integers(0, N_CHANNELS))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            values[i, ch] += sign * rng.uniform(10.0, 50.0) * REF_AMP[ch]
    keep = np.ones(n, dtype=bool)
    if cfg.dropout_rate > 0:
        keep = rng.random(n) >= cfg.dropout_rate
        keep[[0, -1]] = True  # anchor both ends of the grid

    t = np.arange(n) * cfg.sample_period
    series = SensorSeries(t[keep], values[keep], sample_period=cfg.sample_period)
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    remapped = [
        (int(kept_before[s]), int(kept_before[e]), label) for s, e, label in truth
    ]
    return series, remapped


def stroke_windows(
    series: SensorSeries, truth: List[Tuple[int, int, str]]
) -> List[MotionWindow]:
    """Labeled windows of the stroke spans of ``truth``, in the index space
    of ``series``.  Under dropout a window holds only the rows of its
    stroke that survived, so it can be shorter than the stroke."""
    return cut_windows(series, [span for span in truth if span[2] != IDLE])
