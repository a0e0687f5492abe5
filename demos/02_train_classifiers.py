"""Train and compare the two stroke classifiers on synthetic data.

Builds a seeded corpus (30 strokes for each of the six classes),
featurizes the stroke windows, reduces with PCA, then trains the DAGSVM
and the MLP on the same 80/20 split and prints their held-out reports.

Run: python demos/02_train_classifiers.py
"""

import numpy as np

from strokesense.features import feature_matrix
from strokesense.labels import StrokeLabel
from strokesense.metrics import confusion, macro_scores
from strokesense.mlp import mlp_init, mlp_predict_batch, mlp_train
from strokesense.pca import contribution_rates, fit_pca, transform
from strokesense.svm import dag_predict_batch, train_dagsvm
from strokesense.synth import GenConfig, generate, stroke_windows

# --- data ------------------------------------------------------------------
cfg = GenConfig(seed=202, strokes_per_class=30)
series, truth = generate(cfg)
windows = stroke_windows(series, truth)
X = feature_matrix(windows)
y = np.array([int(w.label) for w in windows])
print(f"corpus: {len(windows)} stroke windows, {X.shape[1]} features each")

rng = np.random.default_rng(0)
order = rng.permutation(len(y))
cut = int(0.8 * len(y))
train_idx, test_idx = order[:cut], order[cut:]

# --- reduction -------------------------------------------------------------
pca = fit_pca(X[train_idx])
rates, cumulative = contribution_rates(pca)
print(
    f"pca: {pca.k} components retain "
    f"{cumulative[pca.k - 1]:.3f} of the variance"
)
Ztr, Zte = transform(pca, X[train_idx]), transform(pca, X[test_idx])

# --- DAGSVM ----------------------------------------------------------------
dag = train_dagsvm(Ztr, y[train_idx])
dag_pred = dag_predict_batch(dag, Zte)
dag_m = confusion(y[test_idx], dag_pred)
print(f"\ndagsvm held-out accuracy: {dag_m.accuracy:.3f}")
print(f"dagsvm macro scores:      {macro_scores(dag_m, alpha=0.7)}")

# --- MLP -------------------------------------------------------------------
mlp = mlp_train(
    mlp_init(Ztr.shape[1], seed=0),
    list(zip(Ztr, y[train_idx])),
    seed=0,
)
mlp_pred = mlp_predict_batch(mlp, Zte)
mlp_m = confusion(y[test_idx], mlp_pred)
print(f"\nmlp trained for {len(mlp.loss_history)} epochs "
      f"(final loss {mlp.loss_history[-1]:.4f})")
print(f"mlp held-out accuracy:    {mlp_m.accuracy:.3f}")
print(f"mlp macro scores:         {macro_scores(mlp_m, alpha=0.7)}")

# --- per-class view --------------------------------------------------------
print("\nmlp confusion matrix (rows = truth):")
print("              " + " ".join(f"{label.name[:4]:>5}" for label in StrokeLabel))
for label in StrokeLabel:
    row = " ".join(f"{c:5d}" for c in mlp_m.counts[label])
    print(f"{label.name[:13]:>13} {row}")
