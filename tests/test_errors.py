"""One error type for bad input: every library check raises
``StrokeSenseError``, a ``ValueError``, with a message that names the cause."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import strokesense
from strokesense.cli import _read
from strokesense.errors import NoConvergence, StrokeSenseError, finite_array
from strokesense.labels import StrokeLabel
from strokesense.metrics import confusion, f_measure
from strokesense.mlp import mlp_init, mlp_train
from strokesense.pca import fit_pca
from strokesense.preprocessing import adaptive_filter
from strokesense.synth import GenConfig, generate
from strokesense.windows import slide_windows

SRC = Path(strokesense.__file__).parent


def test_one_type_for_bad_input():
    assert issubclass(StrokeSenseError, ValueError)
    assert issubclass(NoConvergence, StrokeSenseError)
    assert strokesense.StrokeSenseError is StrokeSenseError


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StrokeLabel.from_name("LOB"), "unknown stroke label 'LOB'"),
        (lambda: fit_pca(np.eye(3), retention=0), "retention must lie in (0, 1], got 0"),
        (lambda: adaptive_filter(np.zeros(4), k0=2), "k0 must lie in [0, 1], got 2"),
        (
            lambda: f_measure(confusion([0, 1], [0, 1]), 0, alpha=2),
            "alpha must lie in [0, 1], got 2",
        ),
        (
            lambda: slide_windows(generate(GenConfig(strokes_per_class=1))[0], width=1),
            "window width must be at least 2, got 1",
        ),
        (
            lambda: mlp_train(mlp_init(3), [(np.zeros(3), 0)], lr=0),
            "learning rate must be positive and finite, got 0",
        ),
    ],
    ids=["from_name", "fit_pca", "adaptive_filter", "f_measure", "slide_windows", "mlp_train"],
)
def test_bad_input_raises_strokesense_error(call, message):
    with pytest.raises(StrokeSenseError, match=f"^{re.escape(message)}$"):
        call()


def _raised_names(path):
    """(line, name) of every ``raise Name`` or ``raise Name(...)``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_raises_only_its_own_types(path):
    allowed = {"StrokeSenseError", "NoConvergence"}
    if path.name == "cli.py":
        allowed.add("SystemExit")
    stray = [(line, name) for line, name in _raised_names(path) if name not in allowed]
    assert stray == []


@pytest.mark.parametrize(
    "value, shape, expected",
    [
        ([1, 2, 3], (None,), (3,)),  # None matches any length
        ([[1, 2, 3], [4, 5, 6]], (2, None), (2, 3)),
        ([[1.0]], None, (1, 1)),  # no shape takes any
        ("2.5", (), ()),  # a scalar
        ([2.5], (), "x needs shape (), got (1,)"),
        (2.5, (None,), "x needs shape (n,), got ()"),
        ([1, 2], (None, None), "x needs shape (n, n), got (2,)"),
        ([1, 2], (3,), "x needs shape (3,), got (2,)"),
        ([1, float("nan")], (2,), "x must be finite"),
        ([[float("inf")]], None, "x must be finite"),
        (-float("inf"), (), "x must be finite"),
    ],
    ids=["any-length", "any-column-count", "any-shape", "scalar", "scalar-wanted",
         "vector-wanted", "wrong-ndim", "wrong-length", "nan", "inf", "-inf"],
)
def test_finite_array(value, shape, expected):
    """The one load rule for every number of a model file: a float array of
    the given shape, every entry finite."""
    if isinstance(expected, str):
        with pytest.raises(StrokeSenseError, match=f"^{re.escape(expected)}$"):
            finite_array(value, "x", shape)
    else:
        a = finite_array(value, "x", shape)
        assert a.dtype == float and a.shape == expected
        np.testing.assert_array_equal(a, np.asarray(value, dtype=float))


def test_finite_array_leaves_ragged_input_to_numpy(tmp_path):
    """Ragged input is no array: numpy's ValueError, which ``cli._read``
    names with the file, as it does for any field of the wrong type."""
    ragged = [[1.0, 2.0], [3.0]]
    with pytest.raises(ValueError) as info:
        finite_array(ragged, "x", (None, None))
    assert not isinstance(info.value, StrokeSenseError)
    path = tmp_path / "model.json"
    path.write_text("{}")
    with pytest.raises(StrokeSenseError, match=f"^{re.escape(str(path))}: "):
        _read(path, lambda _: finite_array(ragged, "x"))
