import warnings

import numpy as np
import pytest

from oracles import reference_svm_dual
from strokesense.errors import NoConvergence, StrokeSenseError
from strokesense.labels import IDLE, StrokeLabel
from strokesense.preprocessing import preprocess_series
from strokesense.svm import (
    PAIRS,
    DagSvmModel,
    KernelSvmModel,
    dag_predict,
    dag_predict_batch,
    default_gamma,
    gaussian_kernel_matrix,
    smo_solve,
    train_dagsvm,
    train_pairwise_svm,
)
from strokesense.synth import GenConfig, generate
from strokesense.windows import is_active, slide_windows, train_activation


class TestKernel:
    def test_known_values(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[0.0, 0.0], [0.0, 2.0]])
        K = gaussian_kernel_matrix(A, B, gamma=0.5)
        want = np.array(
            [[1.0, np.exp(-2.0)], [np.exp(-0.5), np.exp(-2.5)]]
        )
        np.testing.assert_allclose(K, want, rtol=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        K = gaussian_kernel_matrix(X, X, gamma=0.3)
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-14)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_overflowing_squared_norm_rejected_without_warning(self, side):
        """Each kernel value of a row whose squared norm overflows would be NaN."""
        rows = {"A": np.ones((2, 3)), "B": np.ones((4, 3))}
        rows[side][1, 2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StrokeSenseError, match="^row squared norms must be finite$"):
                gaussian_kernel_matrix(rows["A"], rows["B"], 0.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_squared_distance_rejected_without_warning(self, sign):
        """Finite squared norms of 1e308 whose sum a2 + b2 overflows: the
        distance to the mirrored row is inf, and to the row itself NaN
        where the exact value is 0."""
        A = np.array([[1e154, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StrokeSenseError, match="^squared distances must be finite$"):
                gaussian_kernel_matrix(A, sign * A, 1.0)

    def test_huge_gamma_takes_the_exact_limit_without_warning(self):
        # gamma * sq overflows to +inf for every sq > 0; exp(-inf) = 0 is
        # the exact limit, and coincident rows (sq == 0) keep exp(0) = 1.
        A = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        B = np.vstack([A + 1.0, A[1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = gaussian_kernel_matrix(A, B, 1e308)
        want = np.zeros((3, 4))
        want[1, 3] = 1.0
        np.testing.assert_array_equal(K, want)

    def test_default_gamma(self):
        X = np.array([[1.0, -1.0], [3.0, -3.0]])
        np.testing.assert_allclose(default_gamma(X), 1.0 / (2 * X.var()))


class TestSmo:
    def test_alphas_respect_box_and_kkt_sum(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(0, 1, (15, 3)), rng.normal(4, 1, (15, 3))])
        y = np.concatenate([np.ones(15), -np.ones(15)])
        K = gaussian_kernel_matrix(X, X, 0.2)
        alphas, _ = smo_solve(K, y, c=1.0)
        assert (alphas >= -1e-12).all() and (alphas <= 1.0 + 1e-12).all()
        np.testing.assert_allclose(alphas @ y, 0.0, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = np.sign(X[:, 0] + 0.1)
        K = gaussian_kernel_matrix(X, X, 1.0)
        a1, b1 = smo_solve(K, y, c=2.0)
        a2, b2 = smo_solve(K, y, c=2.0)
        np.testing.assert_array_equal(a1, a2)
        assert b1 == b2

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_single_label_rejected(self, label):
        with pytest.raises(StrokeSenseError):
            smo_solve(np.eye(4), np.full(4, label), c=1.0)

    def test_no_convergence_raises(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        K = gaussian_kernel_matrix(X, X, 100.0)
        with pytest.raises(NoConvergence):
            smo_solve(K, y, c=1e6, tol=1e-12, max_passes=3)


def _dual_problem(seed, kernel):
    """A seeded two-class problem of 10-40 points with about 15% of the
    labels flipped, so that the classes overlap."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(10, 41)), int(rng.integers(2, 6))
    X = rng.normal(size=(n, d))
    y = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    X[y > 0] += rng.uniform(0.0, 2.0)
    y[rng.random(n) < 0.15] *= -1
    y[0], y[-1] = 1.0, -1.0
    K = gaussian_kernel_matrix(X, X, 0.5) if kernel == "gaussian" else X @ X.T
    return K, y


class TestSmoAgainstReference:
    """WSS2 SMO against a general-purpose optimizer of the same dual."""

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("kernel", ["gaussian", "linear"])
    @pytest.mark.parametrize("seed", range(4))
    def test_reaches_reference_optimum(self, seed, kernel, c):
        K, y = _dual_problem(seed, kernel)
        alphas, _ = smo_solve(K, y, c)
        Q = np.outer(y, y) * K
        objective = 0.5 * alphas @ Q @ alphas - alphas.sum()
        _, reference = reference_svm_dual(K, y, c)
        assert objective - reference <= 1e-5 * abs(reference)
        assert (alphas >= 0).all() and (alphas <= c).all()
        assert abs(alphas @ y) < 1e-9

    def test_gate_on_majority_labels_converges(self):
        """The linear gate fitted on majority-labelled windows of a faulty
        recorded corpus, where short idle gaps make the classes overlap."""
        series, truth = generate(
            GenConfig(seed=1489773624, strokes_per_class=20, spike_rate=0.002, dropout_rate=0.01)
        )
        windows = slide_windows(preprocess_series(series))
        p, t0 = series.sample_period, series.t[0]
        spans = [
            (round((series.t[s] - t0) / p), round((series.t[e - 1] - t0) / p) + 1)
            for s, e, lab in truth
            if e > s and lab != IDLE
        ]
        labeled = []
        for w in windows:
            end = w.start_index + w.width
            cover = max(min(e, end) - max(s, w.start_index) for s, e in spans)
            labeled.append((w, 2 * cover >= w.width))
        model = train_activation(labeled)
        assert np.isfinite(model.w).all() and np.isfinite(model.b)
        accuracy = np.mean([is_active(w, model) == active for w, active in labeled])
        assert accuracy > np.mean([active for _, active in labeled])


class TestPairwise:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(2)
        Xa = rng.normal(0, 0.4, (25, 3))
        Xb = rng.normal(3, 0.4, (25, 3))
        model = train_pairwise_svm(Xa, Xb, class_pair=(1, 4))
        assert (model.decision(Xa) > 0).all()
        assert (model.decision(Xb) < 0).all()

    def test_empty_class(self):
        with pytest.raises(StrokeSenseError, match=r"^empty class in pair \(0, 1\)$"):
            train_pairwise_svm(np.zeros((0, 3)), np.ones((4, 3)))

    @pytest.mark.parametrize(
        "c, gamma",
        [(0.0, None), (-1.0, None), (np.inf, None), (1.0, -1.0), (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)],
    )
    def test_out_of_range_hyperparameters_rejected(self, small_features, c, gamma):
        X, y = small_features
        with pytest.raises(StrokeSenseError):
            train_pairwise_svm(X[y == 0], X[y == 1], c=c, gamma=gamma)
        with pytest.raises(StrokeSenseError):
            train_dagsvm(X, y, c=c, gamma=gamma)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        model = train_pairwise_svm(
            rng.normal(0, 1, (10, 2)), rng.normal(3, 1, (10, 2)), class_pair=(2, 5)
        )
        again = KernelSvmModel.from_dict(model.to_dict())
        X = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(model.decision(X), again.decision(X))

    def test_round_trip_without_support_vectors(self):
        model = KernelSvmModel(np.zeros((0, 2)), np.zeros(0), 1.0, 1.0, 1.0, (0, 1))
        again = KernelSvmModel.from_dict(model.to_dict())
        X = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(model.decision(X), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(again.decision(X), model.decision(X))


def _unanimous_dag(favored: int) -> DagSvmModel:
    """A DAG whose every pairwise model prefers ``favored``."""
    models = {}
    for a in range(6):
        for b in range(a + 1, 6):
            bias = 1.0 if a == favored else (-1.0 if b == favored else 1.0)
            models[(a, b)] = KernelSvmModel(
                support_vectors=np.zeros((0, 2)),
                coef=np.zeros(0),
                b=bias,
                gamma=1.0,
                c=1.0,
                class_pair=(a, b),
            )
    return DagSvmModel(models=models)


def _random_sign_dag(seed: int) -> DagSvmModel:
    """A DAG of bias-only pairs with seeded random signs: preferences that
    need not be transitive."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=15)
    dag = _unanimous_dag(0)
    for (_, model), sign in zip(sorted(dag.models.items()), signs):
        model.b = sign
    return dag


def _list_pop_walk(dag: DagSvmModel, x: np.ndarray):
    """The DAG walk as first written: test the first and last remaining
    candidates and pop the loser."""
    candidates = list(range(6))
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
    return StrokeLabel(candidates[0]), evaluated


def _one_vector_dag(seed: int, width: int = 3) -> DagSvmModel:
    """A DAG whose 15 pairs each keep one seeded random support vector with
    coef +-1 and a seeded ``b`` of the other sign, so that each decision
    changes sign with x."""
    rng = np.random.default_rng(seed)
    models = {}
    for pair in PAIRS:
        coef = rng.choice([-1.0, 1.0], size=1)
        b = -float(coef[0]) * rng.uniform(0.1, 0.5)
        models[pair] = KernelSvmModel(rng.normal(size=(1, width)), coef, b, 0.5, 1.0, pair)
    return DagSvmModel(models=models)


class TestDag:
    def test_batch_walk_matches_list_pop_walk(self):
        paths = set()
        for seed in range(8):  # 8 DAGs x 250 rows
            dag = _one_vector_dag(seed)
            X = np.random.default_rng(100 + seed).normal(size=(250, 3))
            batch = dag_predict_batch(dag, X)
            for x, label in zip(X, batch):
                want = _list_pop_walk(dag, x)
                assert label == want[0]
                assert dag_predict(dag, x, trace=True) == want
                paths.add((want[0], *want[1]))
        assert len(paths) == 32

    def test_empty_batch(self):
        labels = dag_predict_batch(_one_vector_dag(0), np.zeros((0, 3)))
        assert labels.shape == (0,)
        assert labels.dtype.kind == "i"

    def test_walk_matches_list_pop_walk(self):
        x = np.zeros(2)
        paths = set()
        for seed in range(200):
            dag = _random_sign_dag(seed)
            label, trace = dag_predict(dag, x, trace=True)
            assert (label, trace) == _list_pop_walk(dag, x)
            assert dag_predict(dag, x) == label
            paths.add((label, *trace))
        assert len(paths) == 32

    def test_n_inputs_is_the_kept_width(self):
        models = dict(_unanimous_dag(0).models)
        assert DagSvmModel(models=models).n_inputs is None
        models[(2, 4)] = KernelSvmModel(np.zeros((1, 3)), np.ones(1), 0.0, 1.0, 1.0, (2, 4))
        assert DagSvmModel(models=models).n_inputs == 3

    def test_unanimous_preference_wins(self):
        x = np.zeros(2)
        for favored in range(6):
            dag = _unanimous_dag(favored)
            label, trace = dag_predict(dag, x, trace=True)
            assert label == StrokeLabel(favored)
            assert len(trace) == 5

    def test_five_evaluations_always(self, small_features):
        X, y = small_features
        dag = train_dagsvm(X, y)
        for x in X[::7]:
            _, trace = dag_predict(dag, x, trace=True)
            assert len(trace) == 5
            assert len(set(trace)) == 5

    def test_training_accuracy_on_corpus(self, small_features):
        X, y = small_features
        dag = train_dagsvm(X, y)
        preds = dag_predict_batch(dag, X)
        assert (preds == y).mean() >= 0.95

    def test_round_trip(self, small_features):
        X, y = small_features
        dag = train_dagsvm(X, y)
        again = DagSvmModel.from_dict(dag.to_dict())
        np.testing.assert_array_equal(
            dag_predict_batch(dag, X[:20]), dag_predict_batch(again, X[:20])
        )

    def test_requires_all_pairs(self):
        dag = _unanimous_dag(0)
        models = dict(dag.models)
        models.pop((0, 1))
        with pytest.raises(StrokeSenseError):
            DagSvmModel(models=models)

    def test_each_model_sits_under_its_pair(self):
        models = dict(_unanimous_dag(0).models)
        models[(0, 1)], models[(0, 2)] = models[(0, 2)], models[(0, 1)]
        with pytest.raises(StrokeSenseError, match="separates"):
            DagSvmModel(models=models)

    def test_support_vectors_share_one_width(self):
        models = dict(_unanimous_dag(0).models)
        for pair, width in [((0, 1), 2), ((0, 2), 3)]:
            models[pair] = KernelSvmModel(np.zeros((1, width)), np.ones(1), 0.0, 1.0, 1.0, pair)
        with pytest.raises(StrokeSenseError, match=r"pair \(0, 2\) keeps support vectors of width 3"):
            DagSvmModel(models=models)
        models[(0, 2)] = _unanimous_dag(0).models[(0, 2)]  # no support vectors: any width
        DagSvmModel(models=models)

    @pytest.mark.parametrize("support_vectors", [[1.0, 2.0], [[[1.0, 2.0]]]], ids=["1-D", "3-D"])
    def test_support_vectors_form_a_table(self, support_vectors):
        d = KernelSvmModel(np.zeros((1, 2)), np.ones(1), 0.0, 1.0, 1.0, (0, 1)).to_dict()
        d.update(support_vectors=support_vectors, coef=[1.0] * len(support_vectors))
        with pytest.raises(StrokeSenseError, match="2-D table"):
            KernelSvmModel.from_dict(d)
