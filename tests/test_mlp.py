import json

import numpy as np
import pytest

from strokesense.errors import StrokeSenseError
from strokesense.mlp import (
    MlpModel,
    loss_and_grads,
    mlp_forward,
    mlp_init,
    mlp_predict_batch,
    mlp_train,
)

from oracles import naive_forward


def _tiny_model(seed=0):
    return mlp_init(4, seed=seed, hidden=[7, 5], n_out=3)


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = _tiny_model()
        rng = np.random.default_rng(1)
        probs = mlp_forward(model, rng.normal(size=4))
        assert probs.shape == (3,)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        assert (probs > 0).all()

    def test_matches_loop_oracle(self):
        model = _tiny_model(seed=3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=4)
            np.testing.assert_allclose(
                mlp_forward(model, x),
                naive_forward(model.weights, model.biases, x),
                rtol=1e-12,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(StrokeSenseError, match="^expected 4 inputs, got 5$"):
            mlp_forward(_tiny_model(), np.zeros(5))

    def test_softmax_shift_invariance_via_large_inputs(self):
        model = _tiny_model()
        probs = mlp_forward(model, np.full(4, 1e4))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def _check_finite_difference(model, x, label):
    """Analytic gradients of ``loss_and_grads`` against central differences
    of its loss, at three weights and two biases per layer."""
    _, gw, gb = loss_and_grads(model, x, label)
    eps = 1e-6

    def loss_at(m):
        return loss_and_grads(m, x, label)[0]

    for layer in range(len(model.weights)):
        W = model.weights[layer]
        for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1), (0, W.shape[1] - 1)]:
            probe = model.copy()
            probe.weights[layer][idx] += eps
            up = loss_at(probe)
            probe.weights[layer][idx] -= 2 * eps
            down = loss_at(probe)
            numeric = (up - down) / (2 * eps)
            np.testing.assert_allclose(gw[layer][idx], numeric, rtol=1e-4, atol=1e-7)
        for j in (0, model.biases[layer].shape[0] - 1):
            probe = model.copy()
            probe.biases[layer][j] += eps
            up = loss_at(probe)
            probe.biases[layer][j] -= 2 * eps
            down = loss_at(probe)
            numeric = (up - down) / (2 * eps)
            np.testing.assert_allclose(gb[layer][j], numeric, rtol=1e-4, atol=1e-7)


def _batch_of_five(seed=14):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)


class TestGradients:
    def test_finite_difference(self):
        x = np.random.default_rng(12).normal(size=4)
        _check_finite_difference(_tiny_model(seed=11), x, 2)

    def test_batch_finite_difference(self):
        X, y = _batch_of_five()
        _check_finite_difference(_tiny_model(seed=11), X, y)

    def test_batch_sums_its_samples(self):
        model = _tiny_model(seed=15)
        X, y = _batch_of_five()
        loss, gw, gb = loss_and_grads(model, X, y)
        singles = [loss_and_grads(model, x, int(label)) for x, label in zip(X, y)]
        np.testing.assert_allclose(loss, sum(s[0] for s in singles), rtol=1e-12)
        for layer in range(len(model.weights)):
            np.testing.assert_allclose(
                gw[layer], sum(s[1][layer] for s in singles), rtol=1e-12
            )
            np.testing.assert_allclose(
                gb[layer], sum(s[2][layer] for s in singles), rtol=1e-12
            )

    def test_loss_positive(self):
        model = _tiny_model()
        loss, _, _ = loss_and_grads(model, np.ones(4), 0)
        assert loss > 0


class TestTraining:
    def test_xor_style_problem(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = mlp_init(2, seed=7, hidden=[16, 16], n_out=2)
        trained = mlp_train(
            model, list(zip(X, y)), lr=0.05, epochs=400, seed=7, early_stop_tol=None
        )
        preds = mlp_predict_batch(trained, X)
        assert (preds == y).mean() >= 0.95

    def test_loss_decreases(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 0.5, (20, 3)), rng.normal(2, 0.5, (20, 3))])
        y = np.array([0] * 20 + [1] * 20)
        model = mlp_init(3, seed=1, hidden=[8, 8], n_out=2)
        trained = mlp_train(model, list(zip(X, y)), epochs=30, early_stop_tol=None)
        assert trained.loss_history[-1] < trained.loss_history[0]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        a = mlp_train(mlp_init(3, seed=4, hidden=[6, 6], n_out=2), list(zip(X, y)), epochs=10, seed=4)
        b = mlp_train(mlp_init(3, seed=4, hidden=[6, 6], n_out=2), list(zip(X, y)), epochs=10, seed=4)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.loss_history == b.loss_history

    def test_short_last_batch(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(17, 3))
        y = (X[:, 0] > 0).astype(int)
        runs = [
            mlp_train(mlp_init(3, seed=5, hidden=[6, 6], n_out=2), list(zip(X, y)),
                      epochs=5, seed=5)
            for _ in range(2)
        ]
        for wa, wb in zip(runs[0].weights, runs[1].weights):
            assert np.isfinite(wa).all()
            np.testing.assert_array_equal(wa, wb)
        assert runs[0].loss_history == runs[1].loss_history

    def test_original_model_untouched(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 3))
        y = (X[:, 1] > 0).astype(int)
        model = mlp_init(3, seed=2, hidden=[5, 5], n_out=2)
        before = [w.copy() for w in model.weights]
        mlp_train(model, list(zip(X, y)), epochs=3)
        for w0, w1 in zip(before, model.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_early_stop_shortens_history(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(0, 0.1, (15, 2)), rng.normal(5, 0.1, (15, 2))])
        y = np.array([0] * 15 + [1] * 15)
        model = mlp_init(2, seed=3, hidden=[8, 8], n_out=2)
        trained = mlp_train(model, list(zip(X, y)), epochs=5000, early_stop_tol=1e-5)
        assert len(trained.loss_history) < 5000

    def test_bad_label_rejected(self):
        model = mlp_init(2, seed=0, hidden=[4, 4], n_out=2)
        with pytest.raises(StrokeSenseError):
            mlp_train(model, [(np.zeros(2), 5)])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": -1.0},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"epochs": 0},
            {"epochs": -3},
        ],
    )
    def test_out_of_range_hyperparameters_rejected(self, kwargs):
        model = mlp_init(2, seed=0, hidden=[4, 4], n_out=2)
        with pytest.raises(StrokeSenseError):
            mlp_train(model, [(np.zeros(2), 0), (np.ones(2), 1)], **kwargs)


class TestSerialization:
    def test_round_trip(self):
        model = mlp_init(4, seed=13, hidden=[7, 5])
        again = MlpModel.from_dict(json.loads(json.dumps(model.to_dict())))
        x = np.arange(4.0)
        np.testing.assert_array_equal(mlp_forward(model, x), mlp_forward(again, x))
        assert mlp_predict_batch(model, x) == mlp_predict_batch(again, x)

    def test_activation_is_tanh_only(self):
        body = _tiny_model().to_dict()
        assert body["activation"] == "tanh"
        body["activation"] = "relu"
        with pytest.raises(StrokeSenseError, match="relu"):
            MlpModel.from_dict(body)

    @pytest.mark.parametrize("name, layer", [("biases", 0), ("weights", 1)])
    def test_layer_shapes_must_chain(self, name, layer):
        body = _tiny_model().to_dict()
        body[name][layer] = body[name][layer][:-1]
        with pytest.raises(StrokeSenseError, match=f"layer {layer}: .* do not chain"):
            MlpModel.from_dict(body)

    def test_output_width_must_be_six(self):
        body = _tiny_model().to_dict()
        with pytest.raises(StrokeSenseError, match=r"needs 6 outputs, got \(3,\)"):
            MlpModel.from_dict(body)
