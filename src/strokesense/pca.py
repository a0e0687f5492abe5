"""Linear dimensionality reduction with cumulative-contribution retention.

Features are standardized (zero mean, unit variance) before the covariance
eigendecomposition, since the engineered statistics mix units; a constant
feature keeps scale 1.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import StrokeSenseError, finite_array

DEFAULT_RETENTION = 0.95


@dataclass
class PcaModel:
    """Fitted reduction: centering/scaling vectors, retained components and
    the full eigenvalue spectrum (descending)."""

    mean: np.ndarray
    scale: np.ndarray
    components: np.ndarray  # (k, p), orthonormal rows
    eigenvalues: np.ndarray  # all p eigenvalues, descending
    k: int
    retention: float

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "components": self.components.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "k": self.k,
            "retention": self.retention,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcaModel":
        """Rejects with StrokeSenseError a model without a scale vector, whose
        components are not (k, p) for p means, scales and eigenvalues, that
        holds a non-finite number, or whose scale is not positive."""
        if d.get("scale") is None:
            raise StrokeSenseError("PCA model has no scale vector")
        mean = finite_array(d["mean"], "mean", (None,))
        p, k = len(mean), int(finite_array(d["k"], "k", ()))
        model = cls(
            mean=mean,
            scale=finite_array(d["scale"], "scale", (p,)),
            components=finite_array(d["components"], "components", (k, p)),
            eigenvalues=finite_array(d["eigenvalues"], "eigenvalues", (p,)),
            k=k,
            retention=float(finite_array(d["retention"], "retention", ())),
        )
        if (model.scale <= 0).any():
            raise StrokeSenseError("scale must be positive")
        return model


def fit_pca(X: np.ndarray, retention: float = DEFAULT_RETENTION) -> PcaModel:
    """Fit the reduction on an (m, p) feature matrix.

    The retained count k is the smallest i whose cumulative contribution
    rate reaches ``retention``.  Component signs are fixed by making each
    row's largest-magnitude entry positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise StrokeSenseError("need at least 2 rows to fit")
    if not np.isfinite(X).all():
        raise StrokeSenseError("feature matrix contains non-finite entries")
    if not 0 < retention <= 1:
        raise StrokeSenseError(f"retention must lie in (0, 1], got {retention}")

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < 1e-12] = 1.0
    Xc = (X - mean) / scale

    cov = Xc.T @ Xc / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # deterministic sign: largest-magnitude entry of each component positive
    pivots = eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(eigvecs.shape[1])]
    eigvecs = eigvecs * np.where(pivots < 0, -1.0, 1.0)

    total = eigvals.sum()
    if total <= 0:
        k = 1
    else:
        cumulative = np.cumsum(eigvals) / total
        k = int(np.searchsorted(cumulative, retention - 1e-12) + 1)
        k = min(k, len(eigvals))
    return PcaModel(
        mean=mean,
        scale=scale,
        components=eigvecs[:, :k].T.copy(),
        eigenvalues=eigvals,
        k=k,
        retention=retention,
    )


def transform(model: PcaModel, f: np.ndarray) -> np.ndarray:
    """Project a feature vector (or matrix) onto the retained components;
    a projection past the float range raises :class:`StrokeSenseError`."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != len(model.mean):
        raise StrokeSenseError(
            f"expected {len(model.mean)} features, got {f.shape[-1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = ((f - model.mean) / model.scale) @ model.components.T
    if not np.isfinite(z).all():
        raise StrokeSenseError("projection is not finite")
    return z


def contribution_rates(model: PcaModel) -> Tuple[np.ndarray, np.ndarray]:
    """Per-component and cumulative contribution rates over the full
    spectrum; the cumulative list ends at 1."""
    total = model.eigenvalues.sum()
    if total <= 0:
        p = len(model.eigenvalues)
        c = np.full(p, 1.0 / p)
    else:
        c = model.eigenvalues / total
    return c, np.cumsum(c)
