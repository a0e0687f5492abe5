import numpy as np
import pytest

from strokesense.errors import BadConfig
from strokesense.labels import IDLE, LABEL_NAMES, StrokeLabel
from strokesense.synth import (
    CLASS_TEMPLATES,
    GRAVITY,
    GenConfig,
    class_template,
    generate,
    stroke_windows,
    truth_from_csv,
    truth_to_csv,
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
        for name in LABEL_NAMES:
            assert sum(1 for _, _, lab in truth if lab == name) == 4

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


@pytest.mark.parametrize("field", ["period", "sample_period"])
@pytest.mark.parametrize("value", [0.0, float("inf"), float("nan")])
def test_bad_period_rejected(field, value):
    with pytest.raises(BadConfig):
        GenConfig(**{field: value})


class TestTruthCsv:
    def test_round_trip(self):
        _, truth = generate(GenConfig(seed=6, strokes_per_class=2))
        assert truth_from_csv(truth_to_csv(truth)) == truth

    def test_header(self):
        text = truth_to_csv([(0, 10, "IDLE")])
        assert text.splitlines()[0] == "start_index,end_index,label"
