"""Acceptance suite: one test per release criterion.

Each test emits a single PASS/FAIL line on the real stdout (bypassing
pytest capture) so the gate is auditable from the raw test log.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from strokesense.cli import main as cli_main
from strokesense.features import feature_matrix
from strokesense.labels import StrokeLabel
from strokesense.metrics import ConfusionMatrix, confusion, f_measure, macro_scores
from strokesense.mlp import loss_and_grads, mlp_forward, mlp_init, mlp_predict_batch, mlp_train
from strokesense.pca import contribution_rates, fit_pca, transform
from strokesense.preprocessing import newton_fill, remove_outliers
from strokesense.scoring import (
    REFERENCE_AHP_MATRIX,
    REFERENCE_LEVEL_WEIGHTS,
    ahp_weights,
    build_profile,
    score_window,
    total_score,
)
from strokesense.svm import dag_predict_batch, train_dagsvm
from strokesense.synth import GenConfig, generate, stroke_windows
from strokesense.windows import MotionWindow, slide_windows

from oracles import brute_outlier_flags


#: Collected verdict lines; conftest prints them in the terminal summary.
VERDICTS = []


def _verdict(num, desc):
    """Context manager recording one PASS/FAIL line per criterion."""

    class _V:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            VERDICTS.append(f"criterion {num:2d} {status} - {desc}")
            return False

    return _V()


@pytest.fixture(scope="module")
def corpus_split():
    """Seeded 100-strokes-per-class corpus with an 80/20 split."""
    cfg = GenConfig(seed=1001, strokes_per_class=100)
    series, truth = generate(cfg)
    windows = stroke_windows(series, truth)
    X = feature_matrix(windows)
    y = np.array([int(w.label) for w in windows])
    rng = np.random.default_rng(0)
    order = rng.permutation(len(y))
    cut = int(0.8 * len(y))
    return X, y, order[:cut], order[cut:]


def test_criterion_01_ahp_fidelity():
    with _verdict(1, "AHP weights match the reference vector within 5e-3"):
        start = time.monotonic()
        w = ahp_weights(REFERENCE_AHP_MATRIX)
        elapsed = time.monotonic() - start
        np.testing.assert_allclose(
            w, [0.0556, 0.2055, 0.0592, 0.1715, 0.5081], atol=5e-3
        )
        assert abs(w.sum() - 1.0) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_total_score_spot_checks():
    with _verdict(2, "reference weight spot checks reproduce 0.056 and 0.508"):
        k = REFERENCE_LEVEL_WEIGHTS
        assert total_score([1, 0, 0, 0, 0], k) == pytest.approx(0.056, abs=1e-12)
        assert total_score([0, 0, 0, 0, 1], k) == pytest.approx(0.508, abs=1e-12)


def test_criterion_03_desk_scale_classification(corpus_split):
    with _verdict(3, "DAGSVM and MLP reach 95% held-out accuracy in under 2 min"):
        X, y, train_idx, test_idx = corpus_split
        start = time.monotonic()

        pca = fit_pca(X[train_idx])
        Ztr, Zte = transform(pca, X[train_idx]), transform(pca, X[test_idx])

        dag = train_dagsvm(Ztr, y[train_idx])
        dag_acc = float((dag_predict_batch(dag, Zte) == y[test_idx]).mean())

        mlp = mlp_train(
            mlp_init(Ztr.shape[1], seed=0),
            list(zip(Ztr, y[train_idx])),
            seed=0,
        )
        mlp_pred = mlp_predict_batch(mlp, Zte)
        mlp_acc = float((mlp_pred == y[test_idx]).mean())
        macro_f = macro_scores(confusion(y[test_idx], mlp_pred), alpha=0.7)["f_measure"]

        elapsed = time.monotonic() - start
        assert dag_acc >= 0.95, f"DAGSVM held-out accuracy {dag_acc:.3f}"
        assert mlp_acc >= 0.95, f"MLP held-out accuracy {mlp_acc:.3f}"
        assert macro_f >= 0.95, f"MLP macro F {macro_f:.3f}"
        assert elapsed < 120.0, f"train+eval took {elapsed:.0f}s"


def test_criterion_04_pca_contract(corpus_split):
    with _verdict(4, "PCA retention, orthonormality and reconstruction identities"):
        X, _, train_idx, _ = corpus_split
        model = fit_pca(X[train_idx])

        rates, _ = contribution_rates(model)
        assert np.cumsum(rates)[model.k - 1] >= 0.95

        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.k)).max() <= 1e-9

        scale = np.where(model.scale is None, 1.0, model.scale)
        Z = (X[train_idx] - model.mean) / scale
        projected = transform(model, X[train_idx])
        resid = Z - projected @ model.components
        mse = np.sum(resid**2) / (len(train_idx) - 1)
        discarded = float(np.sum(model.eigenvalues[model.k :]))
        assert mse == pytest.approx(discarded, rel=1e-6, abs=1e-12)


def test_criterion_05_newton_exact_on_cubics():
    with _verdict(5, "Newton fill is exact on 1000 random cubics"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            coeffs = rng.uniform(-2, 2, 4)
            n = int(rng.integers(8, 20))
            t = np.arange(n, dtype=float)
            values = np.polyval(coeffs, t)
            present = np.ones(n, dtype=bool)
            present[rng.integers(2, n - 2)] = False
            filled = newton_fill(values, t, present)
            np.testing.assert_allclose(filled, values, atol=1e-9)


def test_criterion_06_outlier_flags_match_oracle():
    with _verdict(6, "3-sigma flags equal the brute-force oracle on 1000 series"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(10, 60))
            values = np.cumsum(rng.normal(size=n))
            for _ in range(int(rng.integers(0, 3))):
                values[rng.integers(1, n)] += rng.choice([-1, 1]) * rng.uniform(20, 60)
            cleaned = remove_outliers(values)
            got = set(np.flatnonzero(~cleaned))
            assert got == set(brute_outlier_flags(list(values)))
        constant = remove_outliers(np.full(30, 2.5))
        assert constant.all()


def test_criterion_07_mlp_gradient_check():
    with _verdict(7, "analytic gradients match central differences to 1e-4"):
        model = mlp_init(6, seed=7, hidden=[10, 8], n_out=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=6)
        label = 3
        _, gw, gb = loss_and_grads(model, x, label)
        eps = 1e-4
        for layer, W in enumerate(model.weights):
            flat = rng.choice(W.size, size=min(100, W.size), replace=False)
            for f in flat:
                idx = np.unravel_index(f, W.shape)
                probe = model.copy()
                probe.weights[layer][idx] += eps
                up = loss_and_grads(probe, x, label)[0]
                probe.weights[layer][idx] -= 2 * eps
                down = loss_and_grads(probe, x, label)[0]
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(gw[layer][idx]), 1e-8)
                assert abs(gw[layer][idx] - numeric) / denom <= 1e-4


def test_criterion_08_softmax_simplex():
    with _verdict(8, "probabilities sum to 1 and stay positive on 1000 inputs"):
        model = mlp_init(5, seed=8, hidden=[12, 12], n_out=6)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            probs = mlp_forward(model, rng.normal(scale=5.0, size=5))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert (probs > 0).all()


def test_criterion_09_f_measure_identities():
    with _verdict(9, "alpha=0.5 recovers F1; the 16/21.2 worked case holds"):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            counts = rng.integers(0, 30, size=(6, 6))
            m = ConfusionMatrix(counts)
            for cls in range(6):
                tp = counts[cls, cls]
                fp = counts[:, cls].sum() - tp
                fn = counts[cls, :].sum() - tp
                f1 = 2 * tp / (2 * tp + fn + fp) if 2 * tp + fn + fp else 0.0
                assert abs(f_measure(m, cls, alpha=0.5) - f1) <= 1e-12
        counts = np.zeros((6, 6), dtype=int)
        counts[0, 0], counts[0, 1], counts[1, 0] = 8, 2, 4
        got = f_measure(ConfusionMatrix(counts), 0, alpha=0.7)
        assert abs(got - 16 / 21.2) <= 1e-12


def test_criterion_10_window_counts():
    with _verdict(10, "window counts and 100-frame overlap over n in [200, 5000]"):
        from strokesense.io import SensorSeries

        t = np.arange(5000) * 0.01
        channels = np.random.default_rng(10).normal(size=(5000, 9))
        for n in range(200, 5001, 1):
            series = SensorSeries(t[:n], channels[:n])
            windows = slide_windows(series)
            assert len(windows) == (n - 200) // 100 + 1
        full = slide_windows(SensorSeries(t, channels))
        for a, b in zip(full, full[1:]):
            assert b.start_index - a.start_index == 100
            assert np.array_equal(a.channels[100:], b.channels[:100])


def test_criterion_11_professional_vs_amateur_ordering():
    with _verdict(11, "professionals outscore amateurs in mean and min Q"):
        def run_once():
            cfg = GenConfig(seed=1101, strokes_per_class=50, noise_sigma=0.02)
            series, truth = generate(cfg)
            pros = [
                w for w in stroke_windows(series, truth)
                if w.label == StrokeLabel.FOREHAND_ATTACK
            ]
            assert len(pros) == 50
            rng = np.random.default_rng(1102)
            amateurs = [
                MotionWindow(
                    w.start_index,
                    w.channels
                    + rng.normal(scale=2.0, size=w.channels.shape)
                    + rng.uniform(-4, 4, size=(1, 9)),
                    sample_period=w.sample_period,
                    label=w.label,
                )
                for w in pros
            ]
            profile = build_profile(pros)
            q_pro = np.array([score_window(w, profile).total for w in pros])
            q_am = np.array([score_window(w, profile).total for w in amateurs])
            return q_pro, q_am

        q_pro, q_am = run_once()
        assert q_pro.mean() > q_am.mean()
        assert q_pro.min() > q_am.min()
        again_pro, again_am = run_once()
        np.testing.assert_array_equal(q_pro, again_pro)
        np.testing.assert_array_equal(q_am, again_am)


def test_criterion_12_end_to_end_determinism(tmp_path):
    with _verdict(12, "two seeded pipeline runs are byte-identical"):
        def run_pipeline(root: Path):
            root.mkdir()
            steps = [
                ["synth", "--seed", "12", "--strokes-per-class", "10",
                 "--out", str(root)],
                ["segment", "--in", str(root / "data.csv"),
                 "--labels", str(root / "labels.csv"),
                 "--out", str(root / "windows.csv")],
                ["extract", "--in", str(root / "data.csv"),
                 "--windows", str(root / "windows.csv"),
                 "--out", str(root / "features.csv")],
                ["fit-pca", "--in", str(root / "features.csv"),
                 "--out", str(root / "pca.json")],
                ["train", "--in", str(root / "features.csv"),
                 "--pca", str(root / "pca.json"),
                 "--out", str(root / "model.json"), "--seed", "0"],
                ["predict", "--in", str(root / "features.csv"),
                 "--pca", str(root / "pca.json"),
                 "--model", str(root / "model.json"),
                 "--out", str(root / "predictions.csv")],
                ["report", "--predictions", str(root / "predictions.csv"),
                 "--out", str(root / "report.json")],
            ]
            for step in steps:
                assert cli_main(step) == 0, f"step {step[0]} failed"

        run_pipeline(tmp_path / "run1")
        run_pipeline(tmp_path / "run2")
        for name in ("pca.json", "model.json", "predictions.csv", "report.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
