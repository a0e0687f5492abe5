"""Two-hidden-layer softmax classifier trained by per-sample SGD.

Topology [k_in, 120, 120, 6] with tanh hidden activations and a softmax
output; cross-entropy loss, learning rate 0.01 by default.
"""

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .labels import N_CLASSES, StrokeLabel

DEFAULT_HIDDEN = (120, 120)
DEFAULT_LR = 0.01
DEFAULT_EPOCHS = 200
EARLY_STOP_TOL = 1e-5


@dataclass
class MlpModel:
    weights: List[np.ndarray]  # per layer, (fan_in, fan_out)
    biases: List[np.ndarray]
    loss_history: List[float] = field(default_factory=list)

    @property
    def sizes(self) -> List[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def to_dict(self) -> dict:
        return {
            "type": "mlp",
            "activation": "tanh",
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MlpModel":
        """Only tanh hidden layers exist; a model file naming another
        activation is rejected with ValueError."""
        activation = d.get("activation", "tanh")
        if activation != "tanh":
            raise ValueError(f"unsupported activation {activation!r}; only tanh exists")
        return cls(
            weights=[np.array(w, dtype=float) for w in d["weights"]],
            biases=[np.array(b, dtype=float) for b in d["biases"]],
        )

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        return cls.from_dict(json.loads(text))

    def copy(self) -> "MlpModel":
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def mlp_init(
    k_in: int,
    seed: int = 0,
    hidden: Sequence[int] = DEFAULT_HIDDEN,
    n_out: int = N_CLASSES,
) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic for a seed."""
    if k_in < 1:
        raise ValueError("k_in must be at least 1")
    rng = np.random.default_rng(seed)
    sizes = [k_in, *hidden, n_out]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_pass(model: MlpModel, x: np.ndarray):
    """Returns (activations per layer incl. input, output probabilities)."""
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    probs = _softmax(h @ model.weights[-1] + model.biases[-1])
    acts.append(probs)
    return acts, probs


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one input vector (or a batch)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.sizes[0]:
        raise DimensionMismatch(f"expected {model.sizes[0]} inputs, got {x.shape[-1]}")
    _, probs = _forward_pass(model, x)
    return probs


def loss_and_grads(model: MlpModel, x: np.ndarray, label: int):
    """Cross-entropy loss and analytic gradients for one sample."""
    x = np.asarray(x, dtype=float)
    acts, probs = _forward_pass(model, x)
    loss = -float(np.log(max(probs[label], 1e-300)))
    delta = probs.copy()
    delta[label] -= 1.0
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = np.outer(acts[layer], delta)
        grads_b[layer] = delta
        if layer > 0:
            delta = (model.weights[layer] @ delta) * (1.0 - acts[layer] ** 2)
    return loss, grads_w, grads_b


def mlp_train(
    model: MlpModel,
    data: Sequence[Tuple[np.ndarray, int]],
    lr: float = DEFAULT_LR,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    early_stop_tol: Optional[float] = EARLY_STOP_TOL,
) -> MlpModel:
    """Per-sample SGD with a seeded per-epoch shuffle.

    Returns a trained copy; per-epoch mean losses land in
    ``model.loss_history``.  Stops early once the mean epoch loss improves
    by less than ``early_stop_tol``.  ``lr`` must be positive and finite and
    ``epochs`` at least 1 (ValueError otherwise).
    """
    if not data:
        raise ValueError("empty training set")
    if not 0 < lr < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    X = np.array([np.asarray(x, dtype=float) for x, _ in data])
    y = np.array([int(label) for _, label in data])
    if ((y < 0) | (y >= model.sizes[-1])).any():
        raise ValueError("label outside the output range")
    rng = np.random.default_rng(seed)
    trained = model.copy()
    prev_loss = None
    for _ in range(epochs):
        order = rng.permutation(len(X))
        total = 0.0
        for i in order:
            loss, gw, gb = loss_and_grads(trained, X[i], int(y[i]))
            total += loss
            for layer in range(len(trained.weights)):
                trained.weights[layer] -= lr * gw[layer]
                trained.biases[layer] -= lr * gb[layer]
        mean_loss = total / len(X)
        if not np.isfinite(mean_loss):
            raise NonFinite("training diverged")
        trained.loss_history.append(mean_loss)
        if (
            early_stop_tol is not None
            and prev_loss is not None
            and prev_loss - mean_loss < early_stop_tol
        ):
            break
        prev_loss = mean_loss
    return trained


def mlp_predict(model: MlpModel, x: np.ndarray) -> StrokeLabel:
    """Argmax class; ties break toward the lowest code."""
    return StrokeLabel(int(np.argmax(mlp_forward(model, x))))


def mlp_predict_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    probs = mlp_forward(model, np.atleast_2d(X))
    return probs.argmax(axis=1)
