"""Soft-margin SVMs and the six-class DAGSVM.

One solver serves every SVM here: SMO with the second-order working-set
selection of Fan, Chen & Lin, "Working Set Selection Using Second Order
Information for Training Support Vector Machines" (JMLR 6, 2005), as in
LIBSVM.  On top of it sit Gaussian-kernel pairwise models and the
directed-acyclic-graph multi-class scheme (one pairwise model per
unordered class pair; a prediction eliminates one candidate per node, so
six classes take exactly five evaluations).  A batch walks the DAG once:
each of the 15 nodes evaluates its model on all the rows that reach it.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import NoConvergence, StrokeSenseError, finite_array
from .labels import N_CLASSES, StrokeLabel

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 10_000
ALPHA_EPS = 1e-8
TAU = 1e-12  # curvature floor for a non-positive-definite pair
#: The DAG's pairwise models, one per unordered pair of stroke codes.
PAIRS = list(combinations(range(N_CLASSES), 2))
_WIDEST_FIRST = sorted(PAIRS, key=lambda pair: pair[0] - pair[1])


def _squared_norms(X: np.ndarray, what: str = "row") -> np.ndarray:
    """Each row's squared norm; StrokeSenseError names ``what`` when one
    overflows, since every kernel value of that row would then be NaN."""
    with np.errstate(over="ignore"):
        norms = np.sum(X * X, axis=-1)
    if not np.isfinite(norms).all():
        raise StrokeSenseError(f"{what} squared norms must be finite")
    return norms


def gaussian_kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2); a row of A or B whose
    squared norm overflows raises StrokeSenseError."""
    sq = _squared_norms(A)[:, None] + _squared_norms(B)[None, :] - 2.0 * A @ B.T
    np.maximum(sq, 0.0, out=sq)
    # A huge gamma overflows gamma * sq to inf; exp(-inf) = 0 is the exact limit.
    with np.errstate(over="ignore"):
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
    and StrokeSenseError unless both labels occur.
    """
    n = len(y)
    alphas = np.zeros(n)
    grad = -np.ones(n)
    diag = np.diag(K)
    pos = y > 0
    if pos.all() or not pos.any():
        raise StrokeSenseError("smo_solve needs both +1 and -1 labels")
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
        if not self.coef.size:  # its file stores no support-vector width
            return np.full(len(X), self.b)
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
        """Reads every number by :func:`finite_array`, and rejects with
        StrokeSenseError support vectors that are not a 2-D table (``[]``
        stands for none), one coefficient too many or too few for them, a
        support vector whose squared norm, which every kernel value needs,
        overflows, or a ``gamma`` that is not positive, as training does."""
        pair = tuple(int(v) for v in finite_array(d["class_pair"], "class_pair", (2,)))
        at = f"pair {pair}: "
        sv = finite_array(d["support_vectors"], f"{at}support_vectors")
        if sv.ndim != 2 and sv.size:
            raise StrokeSenseError(f"{at}support_vectors must be a 2-D table, got shape {sv.shape}")
        _squared_norms(sv, f"{at}support vector")
        model = cls(
            support_vectors=sv,
            coef=finite_array(d["coef"], f"{at}coef", sv.shape[:1]),
            b=float(finite_array(d["b"], f"{at}b", ())),
            gamma=float(finite_array(d["gamma"], f"{at}gamma", ())),
            c=float(finite_array(d["c"], f"{at}c", ())),
            class_pair=pair,
        )
        if model.gamma <= 0:
            raise StrokeSenseError(f"{at}gamma must be positive, got {model.gamma}")
        return model


def train_pairwise_svm(
    Xa: np.ndarray,
    Xb: np.ndarray,
    c: float = 1.0,
    gamma: Optional[float] = None,
    class_pair: Tuple[int, int] = (0, 1),
) -> KernelSvmModel:
    """Train one Gaussian-kernel SVM separating class_pair[0] (+1) from
    class_pair[1] (-1).  ``c`` and ``gamma`` must be positive and finite
    (StrokeSenseError otherwise)."""
    Xa = np.atleast_2d(np.asarray(Xa, dtype=float))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    if Xa.shape[0] == 0 or Xb.shape[0] == 0:
        raise StrokeSenseError(f"empty class in pair {class_pair}")
    X = np.vstack([Xa, Xb])
    y = np.concatenate([np.ones(len(Xa)), -np.ones(len(Xb))])
    if gamma is None:
        gamma = default_gamma(X)
    if not 0 < c < np.inf:
        raise StrokeSenseError(f"c must be positive and finite, got {c}")
    if not 0 < gamma < np.inf:
        raise StrokeSenseError(f"gamma must be positive and finite, got {gamma}")
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
    """The 15 pairwise models of the DAG over stroke codes 0-5.

    ``models`` is keyed by exactly the pairs ``(a, b)``, a < b, of
    :data:`PAIRS`, each model's ``class_pair`` is its key, and every pair
    that keeps support vectors keeps them of one width, ``n_inputs``
    (StrokeSenseError otherwise)."""

    models: Dict[Tuple[int, int], KernelSvmModel]

    def __post_init__(self):
        if set(self.models) != set(PAIRS):
            odd = sorted(set(self.models) ^ set(PAIRS))
            raise StrokeSenseError(
                f"need one pairwise model per pair of codes 0-{N_CLASSES - 1}; "
                f"pairs {odd} are missing or extra"
            )
        for pair, model in self.models.items():
            if model.class_pair != pair:
                raise StrokeSenseError(f"model under pair {pair} separates {model.class_pair}")
        kept = [(pair, m.support_vectors.shape[1]) for pair, m in sorted(self.models.items())
                if m.coef.size]
        for pair, width in kept[1:]:
            if width != kept[0][1]:
                raise StrokeSenseError(
                    f"pair {pair} keeps support vectors of width {width}, "
                    f"pair {kept[0][0]} of width {kept[0][1]}"
                )
        self.n_inputs: Optional[int] = kept[0][1] if kept else None

    def to_dict(self) -> dict:
        return {
            "type": "dagsvm",
            "class_order": list(range(N_CLASSES)),
            "models": [m.to_dict() for _, m in sorted(self.models.items())],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DagSvmModel":
        """Rejects with StrokeSenseError a ``class_order`` other than 0-5 and a
        file that lists one pair twice."""
        if d["class_order"] != list(range(N_CLASSES)):
            raise StrokeSenseError(f"class_order must be 0-5 in order, got {d['class_order']}")
        models = {}
        for md in d["models"]:
            m = KernelSvmModel.from_dict(md)
            if m.class_pair in models:
                raise StrokeSenseError(f"pair {m.class_pair} is listed twice")
            models[m.class_pair] = m
        return cls(models=models)


def train_dagsvm(
    X: np.ndarray,
    y: Sequence[int],
    c: float = 1.0,
    gamma: Optional[float] = None,
) -> DagSvmModel:
    """Train one pairwise model per pair of :data:`PAIRS`, all sharing one
    ``gamma``; ``c`` and ``gamma`` as in :func:`train_pairwise_svm`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if gamma is None:
        gamma = default_gamma(X)
    return DagSvmModel(models={
        (a, b): train_pairwise_svm(X[y == a], X[y == b], c=c, gamma=gamma, class_pair=(a, b))
        for a, b in PAIRS
    })


def _walk(dag: DagSvmModel, X: np.ndarray):
    """Walk every row of X through the elimination DAG at once.

    Each row's candidates are the codes ``lo..hi``; a node ``(lo, hi)``
    tests ``lo`` against ``hi`` and drops ``hi`` on a positive decision,
    else ``lo``.  The nodes are visited widest first, so a row reaches a
    node only after all its earlier tests, and each node's ``decision``
    runs once, on the rows that reach it.  Returns the surviving codes and
    the nodes visited (for one row, exactly its five pairs in order)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo = np.zeros(len(X), dtype=int)
    hi = np.full(len(X), N_CLASSES - 1)
    visited = []
    for a, b in _WIDEST_FIRST:
        at = np.nonzero((lo == a) & (hi == b))[0]
        if at.size:
            visited.append((a, b))
            wins = dag.models[a, b].decision(X[at]) > 0
            hi[at[wins]] -= 1
            lo[at[~wins]] += 1
    return lo, visited


def dag_predict(dag: DagSvmModel, x: np.ndarray, trace: bool = False):
    """The label of one sample; ``trace=True`` also returns the pairs
    tested on its way through the DAG."""
    lo, visited = _walk(dag, x)
    label = StrokeLabel(int(lo[0]))
    return (label, visited) if trace else label


def dag_predict_batch(dag: DagSvmModel, X: np.ndarray) -> np.ndarray:
    """Integer labels, one per row of X, from one walk of the DAG."""
    return _walk(dag, X)[0]
