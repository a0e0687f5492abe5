"""The library's error types, and :func:`finite_array`, the one load rule
for every number of a model file."""

import numpy as np


class StrokeSenseError(ValueError):
    """Bad input to any strokesense stage; the message names the cause."""


class NoConvergence(StrokeSenseError):
    """Optimizer hit its iteration cap without satisfying KKT conditions."""


def finite_array(value, name, shape=None):
    """``value``, a field of a model file, as a float array of ``shape``
    (``None`` matches any length, ``()`` is a scalar; no ``shape`` takes
    any) whose every entry is finite, else StrokeSenseError."""
    a = np.asarray(value, dtype=float)
    if shape is not None and (
        a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))
    ):
        raise StrokeSenseError(f"{name} needs shape {str(shape).replace('None', 'n')}, got {a.shape}")
    if not np.isfinite(a).all():
        raise StrokeSenseError(f"{name} must be finite")
    return a
