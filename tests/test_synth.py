import numpy as np
import pytest

from strokesense.errors import StrokeSenseError
from strokesense.io import SensorSeries
from strokesense.labels import IDLE, StrokeLabel
from strokesense.preprocessing import preprocess_series
from strokesense.synth import (
    CLASS_TEMPLATES,
    GRAVITY,
    GenConfig,
    class_template,
    generate,
    stroke_windows,
    truth_on_grid,
)


class TestTemplates:
    def test_one_template_per_class(self):
        assert set(CLASS_TEMPLATES) == set(StrokeLabel)

    def test_template_shape_and_envelope(self):
        cfg = GenConfig(seed=0)
        tpl = class_template(StrokeLabel(0), cfg)
        assert tpl.shape == (cfg.width, 9)
        # sin^2 envelope vanishes at both ends: only the offset remains.
        np.testing.assert_allclose(tpl[0], CLASS_TEMPLATES[StrokeLabel(0)].offset)
        # the last sample falls one step short of the period boundary
        np.testing.assert_allclose(tpl[-1], tpl[0], atol=0.05)

    def test_templates_pairwise_distinct(self):
        cfg = GenConfig(seed=0)
        tpls = [class_template(StrokeLabel(c), cfg) for c in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                gap = np.abs(tpls[i] - tpls[j]).max()
                assert gap > 1.0


class TestGenerate:
    def test_deterministic_for_seed(self):
        cfg = GenConfig(seed=42, strokes_per_class=3)
        s1, t1 = generate(cfg)
        s2, t2 = generate(cfg)
        np.testing.assert_array_equal(s1.channels, s2.channels)
        np.testing.assert_array_equal(s1.t, s2.t)
        assert t1 == t2

    def test_seed_changes_stream(self):
        a, _ = generate(GenConfig(seed=1, strokes_per_class=3))
        b, _ = generate(GenConfig(seed=2, strokes_per_class=3))
        assert a.channels.shape != b.channels.shape or not np.array_equal(
            a.channels, b.channels
        )

    def test_truth_covers_series_without_overlap(self):
        series, truth = generate(GenConfig(seed=5, strokes_per_class=4))
        spans = sorted(truth)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(series.t)
        for (s0, e0, _), (s1, e1, _) in zip(spans, spans[1:]):
            assert e0 == s1

    def test_stroke_counts(self):
        series, truth = generate(GenConfig(seed=5, strokes_per_class=4))
        for label in StrokeLabel:
            assert sum(1 for _, _, lab in truth if lab == label.name) == 4

    def test_idle_fraction_roughly_respected(self):
        series, truth = generate(
            GenConfig(seed=9, strokes_per_class=10, idle_fraction=0.3)
        )
        idle = sum(e - s for s, e, lab in truth if lab == IDLE)
        total = len(series.t)
        assert 0.2 <= idle / total <= 0.4

    def test_gravity_offset_in_idle(self):
        series, truth = generate(
            GenConfig(seed=9, strokes_per_class=3, noise_sigma=0.0)
        )
        s, e, _ = next(span for span in truth if span[2] == IDLE)
        np.testing.assert_allclose(series.channels[s:e, 2], GRAVITY, atol=1e-9)

    def test_noiseless_strokes_match_template(self):
        cfg = GenConfig(seed=3, strokes_per_class=2, noise_sigma=0.0)
        series, truth = generate(cfg)
        for w in stroke_windows(series, truth):
            want = class_template(w.label, cfg)
            np.testing.assert_allclose(w.channels, want, atol=1e-9)

    def test_nearest_template_identifies_every_stroke(self):
        cfg = GenConfig(seed=13, strokes_per_class=5)
        series, truth = generate(cfg)
        tpls = {c: class_template(StrokeLabel(c), cfg) for c in range(6)}
        for w in stroke_windows(series, truth):
            dists = {c: np.abs(w.channels - t).mean() for c, t in tpls.items()}
            assert min(dists, key=dists.get) == int(w.label)

    def test_dropout_shrinks_series(self):
        full, _ = generate(GenConfig(seed=4, strokes_per_class=3, dropout_rate=0.0))
        holey, truth = generate(
            GenConfig(seed=4, strokes_per_class=3, dropout_rate=0.05)
        )
        assert len(holey.t) < len(full.t)
        # truth indices stay valid in the shrunken index space
        assert truth[-1][1] == len(holey.t)

    def test_timestamps_monotone(self):
        series, _ = generate(GenConfig(seed=8, strokes_per_class=3, dropout_rate=0.05))
        assert (np.diff(series.t) > 0).all()


class TestTruthOnGrid:
    def test_identity_without_dropout(self):
        series, truth = generate(GenConfig(seed=2, strokes_per_class=2, spike_rate=0.002))
        assert truth_on_grid(series, truth) == truth

    def test_spans_index_the_cleaned_grid(self):
        series, truth = generate(GenConfig(seed=4, strokes_per_class=3, dropout_rate=0.05))
        clean = preprocess_series(series)
        grid = truth_on_grid(series, truth)
        assert [label for *_, label in grid] == [label for *_, label in truth]
        assert grid[-1][1] == len(clean) > len(series)
        for (s, e, _), (gs, ge, _) in zip(truth, grid):
            np.testing.assert_allclose(clean.t[[gs, ge - 1]], series.t[[s, e - 1]])

    def test_span_with_no_surviving_row_dropped(self):
        series = SensorSeries(np.array([0.0, 0.01, 0.03]), np.zeros((3, 9)), sample_period=0.01)
        truth = [(0, 2, "FOREHAND_ATTACK"), (2, 2, IDLE), (2, 3, "BACKHAND_CHOP")]
        assert truth_on_grid(series, truth) == [(0, 2, "FOREHAND_ATTACK"), (3, 4, "BACKHAND_CHOP")]


@pytest.mark.parametrize("field", ["period", "sample_period"])
@pytest.mark.parametrize("value", [0.0, float("inf"), float("nan")])
def test_bad_period_rejected(field, value):
    with pytest.raises(StrokeSenseError, match="^period and sample_period must be positive and finite$"):
        GenConfig(**{field: value})

