"""Soft-margin SVMs and the six-class DAGSVM.

One solver serves every SVM here: SMO with the second-order working-set
selection of Fan, Chen & Lin, "Working Set Selection Using Second Order
Information for Training Support Vector Machines" (JMLR 6, 2005), as in
LIBSVM.  On top of it sit Gaussian-kernel pairwise models and the
directed-acyclic-graph multi-class scheme (one pairwise model per
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
TAU = 1e-12  # curvature floor for a non-positive-definite pair


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
    """SMO with second-order working-set selection (WSS2) on a precomputed
    kernel matrix.

    Solves min 1/2 a'Qa - e'a subject to y'a = 0 and 0 <= a <= c, with
    Q_ij = y_i y_j K_ij and labels in {+1, -1}, keeping the gradient
    G = Qa - e.  Each update picks i = argmax of -y_t G_t over the
    multipliers free to move up, and j among those free to move down by
    the largest second-order decrease of the objective; it stops when
    that maximal violation m(a) - M(a) falls below ``tol``.  The pair
    moves analytically along y_i a_i += t, y_j a_j -= t, and a multiplier
    whose room sets t lands exactly on its bound.  Returns (alphas, b),
    b = -rho: the mean of -y_t G_t over free multipliers, or the midpoint
    of m and M when none is free.  Deterministic (ties go to the lower
    index).  Raises NoConvergence after ``max_passes * n`` pair updates,
    and ValueError unless both labels occur.
    """
    n = len(y)
    alphas = np.zeros(n)
    grad = -np.ones(n)
    diag = np.diag(K)
    pos = y > 0
    if pos.all() or not pos.any():
        raise ValueError("smo_solve needs both +1 and -1 labels")
    updates = 0
    while True:
        score = -y * grad
        up = np.where(pos, alphas < c, alphas > 0)
        low = np.where(pos, alphas > 0, alphas < c)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gap = np.where(low, score[i] - score, -np.inf)
        if gap.max() < tol:
            free = up & low
            b = score[free].mean() if free.any() else score[i] - 0.5 * gap.max()
            return alphas, float(b)
        if updates == max_passes * n:
            raise NoConvergence(f"SMO hit the cap of {updates} pair updates")
        updates += 1
        curv = diag[i] + diag - 2.0 * K[i]
        curv[curv <= 0] = TAU
        j = int(np.argmax(np.where(gap > 0, gap * gap / curv, -np.inf)))
        room_i = c - alphas[i] if pos[i] else alphas[i]
        room_j = alphas[j] if pos[j] else c - alphas[j]
        t = min(gap[j] / curv[j], room_i, room_j)
        old_i, old_j = alphas[i], alphas[j]
        alphas[i] = (c if pos[i] else 0.0) if t == room_i else old_i + y[i] * t
        alphas[j] = (0.0 if pos[j] else c) if t == room_j else old_j - y[j] * t
        grad += y * (K[i] * (y[i] * (alphas[i] - old_i)) + K[j] * (y[j] * (alphas[j] - old_j)))


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
) -> KernelSvmModel:
    """Train one Gaussian-kernel SVM separating class_pair[0] (+1) from
    class_pair[1] (-1).  ``c`` and ``gamma`` must be positive and finite
    (ValueError otherwise)."""
    Xa = np.atleast_2d(np.asarray(Xa, dtype=float))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    if Xa.shape[0] == 0 or Xb.shape[0] == 0:
        raise EmptyClass(f"empty class in pair {class_pair}")
    X = np.vstack([Xa, Xb])
    y = np.concatenate([np.ones(len(Xa)), -np.ones(len(Xb))])
    if gamma is None:
        gamma = default_gamma(X)
    if not 0 < c < np.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    K = gaussian_kernel_matrix(X, X, gamma)
    alphas, b = smo_solve(K, y, c)
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
) -> DagSvmModel:
    """Train one pairwise model per unordered pair of the six stroke
    classes, all sharing one ``gamma``; ``c`` and ``gamma`` as in
    :func:`train_pairwise_svm`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    classes = [int(v) for v in StrokeLabel]
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
            )
    return DagSvmModel(models=models, class_order=classes)


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

