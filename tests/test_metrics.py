import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokesense.errors import StrokeSenseError
from strokesense.metrics import (
    ConfusionMatrix,
    classification_report,
    confusion,
    f_measure,
    heatmap_csv,
    macro_scores,
    precision_recall,
)

from oracles import count_confusion

labels6 = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60)


class TestConfusion:
    def test_against_oracle(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 6, 100)
        pred = rng.integers(0, 6, 100)
        got = confusion(true, pred)
        np.testing.assert_array_equal(got.counts, count_confusion(true, pred))

    @given(labels6)
    @settings(max_examples=50, deadline=None)
    def test_total_preserved(self, true):
        pred = list(reversed(true))
        m = confusion(true, pred)
        assert m.counts.sum() == len(true)

    def test_perfect_prediction_is_diagonal(self):
        true = [0, 1, 2, 3, 4, 5, 2, 2]
        m = confusion(true, true)
        assert np.all(m.counts == np.diag(np.diag(m.counts)))
        assert m.accuracy == 1.0

    def test_accuracy(self):
        m = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert m.accuracy == 0.75

    def test_length_mismatch(self):
        with pytest.raises(StrokeSenseError, match="^label sequences differ in length$"):
            confusion([0, 1], [0])


class TestPrecisionRecallF:
    def test_hand_worked_case(self):
        # class 0: tp=16, fp=4, fn=6 -> p=0.8, r=16/22
        true = [0] * 22 + [1] * 10
        pred = [0] * 16 + [1] * 6 + [0] * 4 + [1] * 6
        m = confusion(true, pred)
        p, r = precision_recall(m, 0)
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(16 / 22)
        # alpha-weighted F at alpha=0.7: 2TP / (2TP + 2a*FN + 2(1-a)*FP)
        want = 2 * 16 / (2 * 16 + 2 * 0.7 * 6 + 2 * 0.3 * 4)
        assert f_measure(m, 0, alpha=0.7) == pytest.approx(want)

    def test_alpha_half_is_f1(self):
        true = [0] * 10 + [1] * 10
        pred = [0] * 7 + [1] * 3 + [0] * 2 + [1] * 8
        m = confusion(true, pred)
        p, r = precision_recall(m, 0)
        f1 = 2 * p * r / (p + r)
        assert f_measure(m, 0, alpha=0.5) == pytest.approx(f1)

    def test_absent_class_scores_zero(self):
        m = confusion([0, 0, 1], [0, 0, 1])
        p, r = precision_recall(m, 5)
        assert p == 0.0 and r == 0.0
        assert f_measure(m, 5) == 0.0

    def test_perfect_class(self):
        m = confusion([2, 2, 3], [2, 2, 3])
        assert precision_recall(m, 2) == (1.0, 1.0)
        assert f_measure(m, 2, alpha=0.7) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        m = confusion([0, 1], [0, 1])
        with pytest.raises(StrokeSenseError, match=r"alpha must lie in \[0, 1\]"):
            f_measure(m, 0, alpha=alpha)

    @given(labels6, st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_f_between_zero_and_one(self, true, alpha):
        m = confusion(true, list(true))
        for cls in range(6):
            assert 0.0 <= f_measure(m, cls, alpha=alpha) <= 1.0


def _per_class_loop_report(counts, alpha):
    """The report as first written: one scalar TP/FP/FN pass per class for
    the per-class rows and another for the macro averages."""
    def scores(cls):
        tp = int(counts[cls, cls])
        fp = int(counts[:, cls].sum()) - tp
        fn = int(counts[cls, :].sum()) - tp
        den = 2 * tp + 2 * alpha * fn + 2 * (1 - alpha) * fp
        return (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0,
                2 * tp / den if den else 0.0)

    per_class = [dict(zip(("class", "precision", "recall", "f_measure"), (c, *scores(c))))
                 for c in range(6)]
    macro = {k: float(np.mean([scores(c)[i] for c in range(6)]))
             for i, k in enumerate(("precision", "recall", "f_measure"))}
    return {"alpha": alpha, "accuracy": ConfusionMatrix(counts).accuracy,
            "matrix": counts.tolist(), "per_class": per_class, "macro": macro}


class TestReports:
    def test_report_equals_per_class_loop(self):
        rng = np.random.default_rng(3)
        for i in range(300):
            counts = rng.integers(0, [3, 50, 10**6][i % 3], (6, 6)) * (rng.random((6, 6)) < 0.5)
            alpha = [0.0, 1.0, 0.5, rng.random()][i % 4]
            got = classification_report(ConfusionMatrix(counts), alpha)
            assert json.dumps(got) == json.dumps(_per_class_loop_report(counts, alpha))
            assert macro_scores(ConfusionMatrix(counts), alpha) == got["macro"]

    def test_macro_scores_keys_and_ranges(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 6, 200)
        pred = np.where(rng.random(200) < 0.8, true, rng.integers(0, 6, 200))
        m = confusion(true, pred)
        macro = macro_scores(m, alpha=0.7)
        for key in ("precision", "recall", "f_measure"):
            assert 0.0 <= macro[key] <= 1.0

    def test_classification_report_structure(self):
        m = confusion([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])
        report = classification_report(m)
        assert report["accuracy"] == 1.0
        assert len(report["per_class"]) == 6
        assert report["macro"]["f_measure"] == pytest.approx(1.0)

    def test_heatmap_csv_shape(self):
        m = confusion([0, 1], [1, 1])
        text = heatmap_csv(m)
        lines = text.strip().splitlines()
        assert len(lines) == 7  # header + 6 rows
        assert lines[0].count(",") == 6
