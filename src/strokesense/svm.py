"""Soft-margin SVMs trained by sequential minimal optimization.

Provides the shared SMO solver, Gaussian-kernel pairwise models and the
six-class directed-acyclic-graph multi-class scheme (one pairwise model per
unordered class pair; a prediction eliminates one candidate per node, so
six classes take exactly five evaluations).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyClass, NoConvergence
from .labels import StrokeLabel

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 10_000
ALPHA_EPS = 1e-8


def gaussian_kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2)."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> Tuple[np.ndarray, float]:
    """Platt-style SMO on a precomputed kernel matrix.

    Returns (alphas, b) for the dual soft-margin problem with labels in
    {+1, -1}.  Deterministic: the second multiplier is chosen by the
    max-|E_i - E_j| heuristic with an ordered fallback scan.
    """
    n = len(y)
    alphas = np.zeros(n)
    b = 0.0
    errors = -y.astype(float)  # f(x) = 0 initially

    def take_step(i: int, j: int) -> bool:
        nonlocal b
        if i == j:
            return False
        a_i, a_j = alphas[i], alphas[j]
        y_i, y_j = y[i], y[j]
        e_i, e_j = errors[i], errors[j]
        if y_i != y_j:
            low, high = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            low, high = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        if high - low < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False
        a_j_new = a_j + y_j * (e_i - e_j) / eta
        a_j_new = min(max(a_j_new, low), high)
        if abs(a_j_new - a_j) < 1e-8 * (a_j_new + a_j + 1e-8):
            return False
        a_i_new = a_i + y_i * y_j * (a_j - a_j_new)
        b1 = b - e_i - y_i * (a_i_new - a_i) * K[i, i] - y_j * (a_j_new - a_j) * K[i, j]
        b2 = b - e_j - y_i * (a_i_new - a_i) * K[i, j] - y_j * (a_j_new - a_j) * K[j, j]
        if 0 < a_i_new < c:
            b_new = b1
        elif 0 < a_j_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        alphas[i], alphas[j] = a_i_new, a_j_new
        errors[:] += (
            y_i * (a_i_new - a_i) * K[i]
            + y_j * (a_j_new - a_j) * K[j]
            + (b_new - b)
        )
        b = b_new
        return True

    def examine(j: int) -> bool:
        e_j = errors[j]
        r_j = e_j * y[j]
        if (r_j < -tol and alphas[j] < c) or (r_j > tol and alphas[j] > 0):
            non_bound = np.nonzero((alphas > 0) & (alphas < c))[0]
            if len(non_bound) > 1:
                i = int(non_bound[np.argmax(np.abs(errors[non_bound] - e_j))])
                if take_step(i, j):
                    return True
            for i in non_bound:
                if take_step(int(i), j):
                    return True
            for i in range(n):
                if take_step(i, j):
                    return True
        return False

    passes = 0
    examine_all = True
    while passes < max_passes:
        changed = 0
        if examine_all:
            for j in range(n):
                changed += examine(j)
        else:
            for j in np.nonzero((alphas > 0) & (alphas < c))[0]:
                changed += examine(int(j))
        passes += 1
        if examine_all:
            if changed == 0:
                return alphas, b
            examine_all = False
        elif changed == 0:
            examine_all = True
    raise NoConvergence(f"SMO hit the {max_passes}-pass cap")


def default_gamma(X: np.ndarray) -> float:
    """1 / (n_features * mean feature variance), floored for flat data."""
    var = float(X.var())
    return 1.0 / (X.shape[1] * max(var, 1e-12))


@dataclass
class KernelSvmModel:
    """Gaussian-kernel pairwise classifier.

    ``coef`` holds alpha_i * y_i for the retained support vectors; the
    decision value is coef . K(sv, x) + b, positive for ``class_pair[0]``.
    """

    support_vectors: np.ndarray
    coef: np.ndarray
    b: float
    gamma: float
    c: float
    class_pair: Tuple[int, int]

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = gaussian_kernel_matrix(self.support_vectors, X, self.gamma)
        return self.coef @ K + self.b

    def to_dict(self) -> dict:
        return {
            "support_vectors": self.support_vectors.tolist(),
            "coef": self.coef.tolist(),
            "b": self.b,
            "gamma": self.gamma,
            "c": self.c,
            "class_pair": list(self.class_pair),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSvmModel":
        return cls(
            support_vectors=np.array(d["support_vectors"], dtype=float),
            coef=np.array(d["coef"], dtype=float),
            b=float(d["b"]),
            gamma=float(d["gamma"]),
            c=float(d["c"]),
            class_pair=(int(d["class_pair"][0]), int(d["class_pair"][1])),
        )


def train_pairwise_svm(
    Xa: np.ndarray,
    Xb: np.ndarray,
    c: float = 1.0,
    gamma: Optional[float] = None,
    class_pair: Tuple[int, int] = (0, 1),
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> KernelSvmModel:
    """Train one Gaussian-kernel SVM separating class_pair[0] (+1) from
    class_pair[1] (-1)."""
    Xa = np.atleast_2d(np.asarray(Xa, dtype=float))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    if Xa.shape[0] == 0 or Xb.shape[0] == 0:
        raise EmptyClass(f"empty class in pair {class_pair}")
    X = np.vstack([Xa, Xb])
    y = np.concatenate([np.ones(len(Xa)), -np.ones(len(Xb))])
    if gamma is None:
        gamma = default_gamma(X)
    K = gaussian_kernel_matrix(X, X, gamma)
    alphas, b = smo_solve(K, y, c, tol=tol, max_passes=max_passes)
    keep = alphas > ALPHA_EPS
    return KernelSvmModel(
        support_vectors=X[keep],
        coef=(alphas * y)[keep],
        b=b,
        gamma=gamma,
        c=c,
        class_pair=class_pair,
    )


@dataclass
class DagSvmModel:
    """All 15 pairwise models plus the candidate elimination order."""

    models: Dict[Tuple[int, int], KernelSvmModel]
    class_order: List[int] = field(default_factory=lambda: list(range(6)))

    def __post_init__(self):
        n = len(self.class_order)
        expected = n * (n - 1) // 2
        if len(self.models) != expected:
            raise ValueError(f"need {expected} pairwise models, got {len(self.models)}")

    def to_dict(self) -> dict:
        return {
            "type": "dagsvm",
            "class_order": list(self.class_order),
            "models": [m.to_dict() for _, m in sorted(self.models.items())],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DagSvmModel":
        models = {}
        for md in d["models"]:
            m = KernelSvmModel.from_dict(md)
            models[m.class_pair] = m
        return cls(models=models, class_order=[int(c) for c in d["class_order"]])


def train_dagsvm(
    X: np.ndarray,
    y: Sequence[int],
    c: float = 1.0,
    gamma: Optional[float] = None,
    classes: Optional[Sequence[int]] = None,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> DagSvmModel:
    """Train one pairwise model per unordered class pair."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if classes is None:
        classes = sorted(int(v) for v in set(StrokeLabel))
    if gamma is None:
        gamma = default_gamma(X)
    models = {}
    for idx_a, a in enumerate(classes):
        for b_cls in classes[idx_a + 1 :]:
            models[(a, b_cls)] = train_pairwise_svm(
                X[y == a],
                X[y == b_cls],
                c=c,
                gamma=gamma,
                class_pair=(a, b_cls),
                tol=tol,
                max_passes=max_passes,
            )
    return DagSvmModel(models=models, class_order=list(classes))


def dag_predict(dag: DagSvmModel, x: np.ndarray, trace: bool = False):
    """Walk the elimination DAG: test first-vs-last of the remaining
    candidates and drop the loser until one label survives."""
    candidates = list(dag.class_order)
    evaluated = []
    while len(candidates) > 1:
        first, last = candidates[0], candidates[-1]
        pair = (min(first, last), max(first, last))
        model = dag.models[pair]
        value = float(model.decision(x)[0])
        evaluated.append(pair)
        winner = model.class_pair[0] if value > 0 else model.class_pair[1]
        if winner == first:
            candidates.pop()
        else:
            candidates.pop(0)
    label = StrokeLabel(candidates[0])
    if trace:
        return label, evaluated
    return label


def dag_predict_batch(dag: DagSvmModel, X: np.ndarray) -> np.ndarray:
    """Integer labels, one per row of X, each walked through the DAG on
    its own."""
    return np.array([int(dag_predict(dag, x)) for x in np.atleast_2d(X)], dtype=int)


def pairwise_vote(dag: DagSvmModel, x: np.ndarray) -> StrokeLabel:
    """Majority vote over all pairwise models (tie -> lowest code)."""
    votes = {c: 0 for c in dag.class_order}
    for model in dag.models.values():
        value = float(model.decision(x)[0])
        winner = model.class_pair[0] if value > 0 else model.class_pair[1]
        votes[winner] += 1
    best = max(votes.values())
    return StrokeLabel(min(c for c, v in votes.items() if v == best))
