import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesense.errors import StrokeSenseError
from strokesense.io import SensorSeries
from strokesense.labels import IDLE, StrokeLabel
from strokesense.svm import smo_solve
from strokesense.synth import GenConfig, generate
from strokesense.windows import (
    LinearSvmModel,
    MotionWindow,
    activation_matrix,
    cut_windows,
    is_active,
    majority_labels,
    slide_windows,
    train_activation,
)


def _series(n, fill=0.0):
    t = np.arange(n) * 0.01
    return SensorSeries(t, np.full((n, 9), fill))


class TestSlideWindows:
    def test_exact_fit(self):
        assert len(slide_windows(_series(200))) == 1

    def test_two_windows(self):
        windows = slide_windows(_series(300))
        assert [w.start_index for w in windows] == [0, 100]

    def test_nine_windows(self):
        assert len(slide_windows(_series(1000))) == 9

    def test_count_formula(self):
        for n in range(200, 1500, 37):
            count = len(slide_windows(_series(n)))
            assert count == (n - 200) // 100 + 1

    def test_adjacent_windows_share_half(self):
        rng = np.random.default_rng(0)
        t = np.arange(500) * 0.01
        series = SensorSeries(t, rng.normal(size=(500, 9)))
        windows = slide_windows(series)
        for a, b in zip(windows, windows[1:]):
            assert np.array_equal(a.channels[100:], b.channels[:100])

    def test_too_short(self):
        with pytest.raises(
            StrokeSenseError, match="^series of 150 samples is shorter than window width 200$"
        ):
            slide_windows(_series(150))


class TestCutWindows:
    def test_rows_period_and_labels(self):
        rng = np.random.default_rng(1)
        series = SensorSeries(np.arange(400) * 0.02, rng.normal(size=(400, 9)), sample_period=0.02)
        spans = [(0, 200, "FOREHAND_CHOP"), (150, 160, IDLE), (390, 400, "")]
        windows = cut_windows(series, spans)
        assert [w.start_index for w in windows] == [0, 150, 390]
        assert [w.label for w in windows] == [StrokeLabel.FOREHAND_CHOP, None, None]
        assert all(w.sample_period == 0.02 for w in windows)
        for w, (s, e, _) in zip(windows, spans):
            assert np.array_equal(w.channels, series.channels[s:e])

    def test_unknown_stroke_rejected(self):
        with pytest.raises(StrokeSenseError, match="^unknown stroke label 'LOB'$"):
            cut_windows(_series(300), [(0, 200, "LOB")])


class TestActivationFeatures:
    def test_zero_window(self):
        w = MotionWindow(0, np.zeros((200, 9)))
        np.testing.assert_array_equal(activation_matrix([w])[0], np.zeros(6))

    def test_constant_acc_magnitude(self):
        channels = np.zeros((200, 9))
        channels[:, 0:3] = [3.0, 4.0, 0.0]
        feats = activation_matrix([MotionWindow(0, channels)])[0]
        np.testing.assert_allclose(feats, [5.0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_stroke_dominates_idle(self, small_corpus):
        windows, series, truth = small_corpus
        stroke = activation_matrix([windows[0]])[0]
        idle_span = next((s, e) for s, e, lab in truth if lab == IDLE)
        idle = MotionWindow(0, series.channels[idle_span[0] : idle_span[0] + 80])
        idle_feats = activation_matrix([idle])[0]
        assert stroke[0] > idle_feats[0] and stroke[1] > idle_feats[1]
        assert stroke[4] > idle_feats[4]


def _gate_corpus(seed, clear_margin=0):
    """Majority-overlap labeled windows; optionally drop borderline ones."""
    cfg = GenConfig(seed=seed, strokes_per_class=5)
    series, truth = generate(cfg)
    strokes = [(s, e) for s, e, lab in truth if lab != IDLE]
    labeled = []
    for w in slide_windows(series):
        overlap = max(
            (min(e, w.start_index + 200) - max(s, w.start_index) for s, e in strokes),
            default=0,
        )
        if abs(overlap - 100) < clear_margin:
            continue
        labeled.append((w, overlap >= 100))
    return labeled


class TestActivationGate:
    def test_smo_separable_clusters(self):
        rng = np.random.default_rng(1)
        Xa = rng.normal(0, 0.1, size=(20, 2))
        Xb = rng.normal(5, 0.1, size=(20, 2))
        X = np.vstack([Xa, Xb])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        alphas, b = smo_solve(X @ X.T, y, c=1.0)
        decisions = (alphas * y) @ (X @ X.T) + b
        assert (np.sign(decisions) == y).all()

    def test_smo_mirror_symmetry_zero_bias(self):
        Xa = np.array([[1.0, 0.2], [2.0, -0.5], [1.5, 0.8]])
        X = np.vstack([Xa, -Xa])
        y = np.concatenate([np.ones(3), -np.ones(3)])
        _, b = smo_solve(X @ X.T, y, c=10.0, tol=1e-8)
        assert abs(b) <= 1e-6

    def test_single_class_rejected(self, small_corpus):
        windows, _, _ = small_corpus
        with pytest.raises(StrokeSenseError, match="^need both active and inactive windows$"):
            train_activation([(w, True) for w in windows[:4]])

    def test_accuracy_on_held_out_windows(self):
        model = train_activation(_gate_corpus(seed=21))
        held_out = _gate_corpus(seed=22, clear_margin=60)
        correct = sum(is_active(w, model) == truth for w, truth in held_out)
        assert correct / len(held_out) >= 0.98

    def test_boundary_is_inactive(self):
        model = LinearSvmModel(w=np.zeros(6), b=0.0)
        assert not is_active(MotionWindow(0, np.zeros((200, 9))), model)


def _loop_majority_labels(starts, width, spans):
    """The per-window overlap loop the CLI's segment step first used."""
    labels = []
    for start in starts:
        best, best_ov = "", 0
        for s, e, lab in spans:
            ov = max(0, min(e, start + width) - max(s, start))
            if ov > best_ov:
                best, best_ov = lab, ov
        labels.append(best if best_ov * 2 >= width else "")
    return labels


class TestMajorityLabels:
    @pytest.mark.parametrize(
        "starts, spans, want",
        [
            # no spans
            ([0, 100, 200], [], ["", "", ""]),
            # a tie goes to the first span
            ([0], [(0, 100, "A"), (100, 200, "B")], ["A"]),
            ([0], [(100, 200, "B"), (0, 100, "A")], ["B"]),
            # exactly half a window is enough, one sample less is not
            ([0, 1], [(100, 300, "A")], ["A", "A"]),
            ([0], [(101, 300, "A")], [""]),
            # spans past either end of the series
            ([0, 100], [(-50, 120, "A"), (150, 10_000, "B")], ["A", "B"]),
            # a span touching the window's end does not overlap it
            ([0], [(200, 400, "A")], [""]),
        ],
    )
    def test_cases_match_loop(self, starts, spans, want):
        assert majority_labels(starts, 200, spans) == want
        assert _loop_majority_labels(starts, 200, spans) == want

    @staticmethod
    def _random_case(seed, n_windows, n_spans):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 40))
        starts = np.arange(n_windows) * max(1, width // 2)
        s = rng.integers(-50, int(starts[-1]) + 50 if n_windows else 50, n_spans)
        lengths = rng.integers(-5, 60, n_spans)
        spans = [(int(a), int(a + d), f"L{k % 4}") for k, (a, d) in enumerate(zip(s, lengths))]
        return starts, width, spans

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_random_spans_match_loop(self, seed):
        n_windows, n_spans = np.random.default_rng(seed).integers((0, 0), (200, 30))
        starts, width, spans = self._random_case(seed, n_windows, n_spans)
        assert majority_labels(starts, width, spans) == _loop_majority_labels(starts, width, spans)

    def test_many_windows_span_several_blocks(self):
        starts, width, spans = self._random_case(0, 1500, 400)
        assert majority_labels(starts, width, spans) == _loop_majority_labels(starts, width, spans)
