"""The three benchmark workloads: session, train and cli.

Each workload builds its state in ``setup``, makes the input of job ``j``
in ``make_input`` (untimed), runs one job in ``run`` (timed) and checks the
job's outputs in ``check`` (untimed).  ``check`` raises ``CheckFailed``
when an output breaks a promise of the program and otherwise returns a
``Checked`` record: accuracy tallies, per-job counts and a digest of the
job's predictions, scores and reports.

All inputs derive from the run seed: corpora use the default synthetic
layout (idle fraction 0.3, 2 s strokes at 100 Hz), except the gate corpus
(``GATE_IDLE_FRACTION``), with the faults ``SPIKE_RATE`` and
``DROPOUT_RATE``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from strokesense import cli
from strokesense.features import N_FEATURES, feature_matrix
from strokesense.io import parse_series, serialize_series, validate_series
from strokesense.labels import IDLE, StrokeLabel
from strokesense.metrics import classification_report, confusion
from strokesense.mlp import mlp_init, mlp_predict_batch, mlp_train
from strokesense.pca import fit_pca, transform
from strokesense.preprocessing import preprocess_series
from strokesense.scoring import REFERENCE_AHP_MATRIX, ahp_weights, build_profile, score_window
from strokesense.svm import dag_predict, dag_predict_batch, train_dagsvm
from strokesense.synth import GenConfig, generate
from strokesense.windows import (
    DEFAULT_WIDTH,
    MotionWindow,
    is_active,
    slide_windows,
    train_activation,
)

SPIKE_RATE = 0.002
DROPOUT_RATE = 0.01
STRIDE = DEFAULT_WIDTH // 2
N_CLASSES = len(StrokeLabel)

# Sub-seed roles: set-up corpora and job inputs never share a seed.
SETUP, JOBS = 0, 1

#: Library functions the CLI calls, by the layer span that times them.
CLI_LAYERS = {
    "parse_series": "io.parse",
    "serialize_series": "io.serialize",
    "preprocess_series": "preprocessing.preprocess_series",
    "slide_windows": "windows.slide",
    "window_features": "features.feature_matrix",
    "fit_pca": "pca.fit",
    "transform": "pca.transform",
    "train_dagsvm": "svm.train_dagsvm",
    "dag_predict_batch": "svm.dag_predict",
    "mlp_train": "mlp.train",
    "mlp_predict_batch": "mlp.predict",
    "build_profile": "scoring.build_profile",
    "score_window": "scoring.score",
    "confusion": "metrics.report",
    "classification_report": "metrics.report",
}

CLI_STEPS = [
    "synth", "preprocess", "segment", "extract", "fit-pca", "train-dagsvm",
    "train-mlp", "predict", "report", "evaluate-build", "evaluate-score",
]


class CheckFailed(Exception):
    """A job's output breaks a promise of the program."""


@dataclass
class Checked:
    rows: int  # input IMU rows the job consumed
    counts: dict
    digest: str
    tallies: dict  # model name -> (correct, total)


def sub_seed(seed, *path):
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def faulty_config(seed, strokes_per_class):
    return GenConfig(
        seed=seed,
        strokes_per_class=strokes_per_class,
        spike_rate=SPIKE_RATE,
        dropout_rate=DROPOUT_RATE,
    )


def window_count(n):
    return (n - DEFAULT_WIDTH) // STRIDE + 1


def grid_spans(series, truth):
    """Truth spans as (start, end, code) rows on the nominal grid, code -1
    for idle.  The generator's spans index the rows that survived dropout,
    so they are mapped to the grid through the timestamps."""
    p, t0 = series.sample_period, series.t[0]
    return np.array(
        [
            (round((series.t[s] - t0) / p), round((series.t[e - 1] - t0) / p) + 1,
             -1 if lab == IDLE else int(StrokeLabel[lab]))
            for s, e, lab in truth
            if e > s
        ]
    )


def grid_labels(series, truth, n_windows):
    """Majority stroke code of each grid window, -1 where no stroke covers
    half of it."""
    spans = grid_spans(series, truth)
    spans = spans[spans[:, 2] >= 0]
    starts = np.arange(n_windows)[:, None] * STRIDE
    overlap = np.clip(
        np.minimum(spans[None, :, 1], starts + DEFAULT_WIDTH) - np.maximum(spans[None, :, 0], starts),
        0,
        None,
    )
    best = overlap.argmax(axis=1)
    majority = overlap[np.arange(n_windows), best] * 2 >= DEFAULT_WIDTH
    return np.where(majority, spans[best, 2], -1)


def expected_rows(series):
    """Length of the nominal grid from the first to the last kept row."""
    return int(round((series.t[-1] - series.t[0]) / series.sample_period)) + 1


@dataclass
class Corpus:
    """A preprocessed, windowed faulty corpus with time-mapped labels."""

    rows: int  # generated rows before cleaning
    windows: list  # every grid window
    labelled: list  # windows with a majority stroke, ``label`` set
    y: np.ndarray


def prepare_corpus(seed, strokes_per_class, tracer):
    series, truth = generate(faulty_config(seed, strokes_per_class))
    with tracer.span("preprocessing.preprocess_series"):
        clean = preprocess_series(series)
    with tracer.span("windows.slide"):
        windows = slide_windows(clean)
    codes = grid_labels(series, truth, len(windows))
    for w, code in zip(windows, codes):
        w.label = StrokeLabel(code) if code >= 0 else None
    labelled = [w for w in windows if w.label is not None]
    return Corpus(len(series), windows, labelled, codes[codes >= 0])


#: The gate corpus has idle spans longer than a window, so the gate can
#: learn stroke against rest from unambiguous windows: one aligned on each
#: stroke and one centred in each idle span.  Trained instead on the
#: majority labels of the default layout, whose idle gaps are shorter than
#: a window, the SMO fit is slow and sometimes hits its pass cap.
GATE_IDLE_FRACTION = 0.6


def gate_examples(seed, strokes_per_class, tracer):
    """(window, active?) pairs from a cleaned long-idle faulty corpus."""
    series, truth = generate(
        replace(faulty_config(seed, strokes_per_class), idle_fraction=GATE_IDLE_FRACTION)
    )
    with tracer.span("preprocessing.preprocess_series"):
        clean = preprocess_series(series)
    examples = []
    for start, end, code in grid_spans(series, truth):
        if code < 0:  # centre a window in the idle span, if it holds one
            if end - start < DEFAULT_WIDTH:
                continue
            start = (start + end - DEFAULT_WIDTH) // 2
        if start + DEFAULT_WIDTH <= len(clean):
            window = MotionWindow(start, clean.channels[start : start + DEFAULT_WIDTH], clean.sample_period)
            examples.append((window, bool(code >= 0)))
    return examples


@dataclass
class Models:
    pca: object
    dag: object
    mlp: object
    profiles: dict


def fit_models(windows, y, tracer):
    with tracer.span("features.feature_matrix"):
        X = feature_matrix(windows)
    with tracer.span("pca.fit"):
        pca = fit_pca(X)
    with tracer.span("pca.transform"):
        Z = transform(pca, X)
    with tracer.span("svm.train_dagsvm"):
        dag = train_dagsvm(Z, y)
    with tracer.span("mlp.train"):
        net = mlp_train(mlp_init(pca.k, seed=0), [(z, int(c)) for z, c in zip(Z, y)])
    with tracer.span("scoring.build_profile"):
        profiles = {
            c: build_profile([w for w in windows if w.label == c]) for c in StrokeLabel
        }
    return Models(pca, dag, net, profiles)


def classify(models, X, tracer):
    with tracer.span("pca.transform"):
        Z = transform(models.pca, X)
    with tracer.span("svm.dag_predict"):
        dag = dag_predict_batch(models.dag, Z)
    with tracer.span("mlp.predict"):
        mlp = mlp_predict_batch(models.mlp, Z)
    return Z, dag, mlp


def reports(truth, predictions, tracer):
    """Classification report per model over the labelled windows."""
    known = truth >= 0
    with tracer.span("metrics.report"):
        return {
            name: classification_report(confusion(truth[known], pred[known]))
            for name, pred in predictions.items()
        }


def model_counts(models):
    return {
        "pca.k": models.pca.k,
        "svm.support_vectors": sum(len(m.coef) for m in models.dag.models.values()),
        "mlp.epochs": len(models.mlp.loss_history),
    }


def tallies(truth, predictions):
    known = truth >= 0
    return {
        name: (int((pred[known] == truth[known]).sum()), int(known.sum()))
        for name, pred in predictions.items()
    }


def check_labels(*predictions):
    for pred in predictions:
        if pred.size and (pred.min() < 0 or pred.max() >= N_CLASSES):
            raise CheckFailed("predicted label outside 0-5")


def check_features(X, m):
    if X.shape != (m, N_FEATURES) or not np.isfinite(X).all():
        raise CheckFailed(f"feature matrix {X.shape} is not ({m}, {N_FEATURES}) and finite")


def check_scores(values):
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all() or (values < 0).any() or (values > 1).any():
        raise CheckFailed("score outside [0, 1]")


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


# --- session ---------------------------------------------------------------

@dataclass
class SessionInput:
    text: str
    expected_rows: int
    truth: np.ndarray  # majority code per grid window


class Session:
    """Analyse one recorded faulty session held as CSV text, with models
    trained in set-up on a corpus cleaned and windowed the same way."""

    def __init__(self, seed, strokes_per_class, tracer, workdir):
        self.seed, self.spc, self.tracer = seed, strokes_per_class, tracer

    def setup(self, k):
        tr = self.tracer
        examples = gate_examples(sub_seed(self.seed, SETUP, k, 1), max(self.spc // 2, 1), tr)
        with tr.span("windows.train_activation"):
            self.gate = train_activation(examples)
        corpus = prepare_corpus(sub_seed(self.seed, SETUP, k), self.spc, tr)
        self.models = fit_models(corpus.labelled, corpus.y, tr)
        self.weights = ahp_weights(REFERENCE_AHP_MATRIX)

    def make_input(self, j):
        series, truth = generate(faulty_config(sub_seed(self.seed, JOBS, j), self.spc))
        n = expected_rows(series)
        return SessionInput(serialize_series(series), n, grid_labels(series, truth, window_count(n)))

    def run(self, inp):
        tr, m = self.tracer, self.models
        with tr.span("io.parse"):
            raw = parse_series(inp.text)
        with tr.span("preprocessing.preprocess_series"):
            clean = preprocess_series(raw)
        with tr.span("windows.slide"):
            windows = slide_windows(clean)
        with tr.span("windows.gate"):
            keep = np.array([k for k, w in enumerate(windows) if is_active(w, self.gate)], dtype=int)
        kept = [windows[k] for k in keep]
        with tr.span("features.feature_matrix"):
            X = feature_matrix(kept)
        Z, dag, mlp = classify(m, X, tr)
        with tr.span("scoring.score"):
            scores = [
                score_window(w, m.profiles[StrokeLabel(int(c))], weights=self.weights)
                for w, c in zip(kept, dag)
            ]
        truth = inp.truth[keep] if len(keep) else np.zeros(0, dtype=int)
        reps = reports(truth, {"dag": dag, "mlp": mlp}, tr)
        return dict(raw=raw, clean=clean, windows=windows, keep=keep, X=X, Z=Z,
                    dag=dag, mlp=mlp, scores=scores, truth=truth, reports=reps)

    def check(self, inp, out):
        clean = out["clean"]
        if (
            validate_series(clean)
            or not np.isfinite(clean.channels).all()
            or len(clean) != inp.expected_rows
        ):
            raise CheckFailed("cleaned series is not the gap-free nominal grid")
        if len(out["windows"]) != window_count(len(clean)):
            raise CheckFailed(f"{len(out['windows'])} windows for {len(clean)} rows")
        check_features(out["X"], len(out["keep"]))
        check_labels(out["dag"], out["mlp"])
        q = np.array([[*s.q, s.total] for s in out["scores"]], dtype=float)
        check_scores(q)
        cut, kept = len(out["windows"]), len(out["keep"])
        counts = {
            "io.rows": len(out["raw"]),
            "io.bytes": len(inp.text),
            "preprocessing.rows_restored": len(clean) - len(out["raw"]),
            "windows.cut": cut,
            "windows.kept": kept,
            "windows.kept_ratio": kept / cut,
            "features.windows": kept,
            "svm.decisions": sum(len(dag_predict(self.models.dag, z, trace=True)[1]) for z in out["Z"]),
            "scoring.windows_scored": len(out["scores"]),
            **model_counts(self.models),
        }
        preds = {"dag": out["dag"], "mlp": out["mlp"]}
        return Checked(
            len(out["raw"]),
            counts,
            digest(out["dag"].astype(np.int64).tobytes(), out["mlp"].astype(np.int64).tobytes(),
                   q.tobytes(), out["reports"]),
            tallies(out["truth"], preds),
        )


# --- train ------------------------------------------------------------------

#: Prepared corpora per run; job j fits on corpus j and evaluates on the
#: next one, so a run's median covers several data draws.
TRAIN_POOL = 3


class Train:
    """Fit features, PCA, DAGSVM, MLP and six profiles on a prepared corpus,
    then evaluate on another; no parsing or cleaning runs in a job."""

    def __init__(self, seed, strokes_per_class, tracer, workdir):
        self.seed, self.spc, self.tracer = seed, strokes_per_class, tracer

    def setup(self, k):
        self.pool = [
            prepare_corpus(sub_seed(self.seed, SETUP, k, i), self.spc, self.tracer)
            for i in range(TRAIN_POOL)
        ]

    def make_input(self, j):
        return self.pool[j % TRAIN_POOL], self.pool[(j + 1) % TRAIN_POOL]

    def run(self, inp):
        tr = self.tracer
        fit, ev = inp
        models = fit_models(fit.labelled, fit.y, tr)
        with tr.span("features.feature_matrix"):
            X = feature_matrix(ev.labelled)
        Z, dag, mlp = classify(models, X, tr)
        reps = reports(ev.y, {"dag": dag, "mlp": mlp}, tr)
        return dict(models=models, X=X, Z=Z, dag=dag, mlp=mlp, reports=reps)

    def check(self, inp, out):
        fit, ev = inp
        check_features(out["X"], len(ev.labelled))
        check_labels(out["dag"], out["mlp"])
        models = out["models"]
        profiles = [models.profiles[c].to_dict() for c in StrokeLabel]
        counts = {
            "features.windows": len(fit.labelled) + len(ev.labelled),
            "svm.decisions": sum(len(dag_predict(models.dag, z, trace=True)[1]) for z in out["Z"]),
            **model_counts(models),
        }
        preds = {"dag": out["dag"], "mlp": out["mlp"]}
        return Checked(
            fit.rows + ev.rows,
            counts,
            digest(out["dag"].astype(np.int64).tobytes(), out["mlp"].astype(np.int64).tobytes(),
                   profiles, out["reports"]),
            tallies(ev.y, preds),
        )


# --- cli --------------------------------------------------------------------

def _read_rows(path):
    """Data rows of a CSV artifact: no comments, no header."""
    lines = Path(path).read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")][1:]


#: Corpus size of the ``cli`` warm-up job.
WARMUP_STROKES_PER_CLASS = 3


class Cli:
    """Run the documented command chain in-process through
    ``strokesense.cli.main``; downstream steps read ``clean.csv``."""

    def __init__(self, seed, strokes_per_class, tracer, workdir):
        self.seed, self.spc, self.tracer, self.workdir = seed, strokes_per_class, tracer, workdir
        if tracer.enabled:
            for name, layer in CLI_LAYERS.items():
                setattr(cli, name, tracer.wrap(layer, getattr(cli, name)))

    def setup(self, k):
        """Start a fresh interpreter that imports the CLI, the fixed cost
        each shell invocation of the chain pays; the chain itself starts
        from ``synth``."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", "import strokesense.cli"], env=env, check=True)

    def make_input(self, j):
        """Job 0, the untimed warm-up, runs the chain on a small corpus:
        it pays the same first-call costs in a fraction of a job's time."""
        root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        spc = min(self.spc, WARMUP_STROKES_PER_CLASS) if j == 0 else self.spc
        return sub_seed(self.seed, JOBS, j), spc, root

    def commands(self, seed, spc, root):
        def f(name):
            return str(root / name)

        return [
            ["synth", "--seed", str(seed), "--strokes-per-class", str(spc),
             "--spike-rate", str(SPIKE_RATE), "--dropout-rate", str(DROPOUT_RATE), "--out", str(root)],
            ["preprocess", "--in", f("data.csv"), "--out", f("clean.csv")],
            ["segment", "--in", f("clean.csv"), "--labels", f("labels.csv"), "--out", f("windows.csv")],
            ["extract", "--in", f("clean.csv"), "--windows", f("windows.csv"), "--out", f("features.csv")],
            ["fit-pca", "--in", f("features.csv"), "--out", f("pca.json")],
            ["train", "--in", f("features.csv"), "--pca", f("pca.json"), "--model", "dagsvm",
             "--out", f("dagsvm.json")],
            ["train", "--in", f("features.csv"), "--pca", f("pca.json"), "--model", "mlp",
             "--out", f("mlp.json")],
            ["predict", "--in", f("features.csv"), "--pca", f("pca.json"), "--model", f("dagsvm.json"),
             "--out", f("predictions.csv")],
            ["report", "--predictions", f("predictions.csv"), "--out", f("report.json")],
            ["evaluate", "--in", f("clean.csv"), "--windows", f("windows.csv"), "--stroke",
             StrokeLabel(0).name, "--build-profile", f("profile.json")],
            ["evaluate", "--in", f("clean.csv"), "--windows", f("windows.csv"), "--profile",
             f("profile.json"), "--out", f("scores.csv")],
        ]

    def run(self, inp):
        summaries = {}
        for step, argv in zip(CLI_STEPS, self.commands(*inp)):
            buf = io.StringIO()
            with self.tracer.span("cli." + step), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"step {step} exited {code}")
            summaries[step] = json.loads(buf.getvalue())
        return summaries

    def check(self, inp, summaries):
        *_, root = inp
        try:
            return self._check(root, summaries)
        finally:
            shutil.rmtree(root)

    def _check(self, root, summaries):
        data = _read_rows(root / "data.csv")
        t_first, t_last = float(data[0].split(",", 1)[0]), float(data[-1].split(",", 1)[0])
        period = GenConfig().sample_period
        clean = np.loadtxt(_read_rows(root / "clean.csv"), delimiter=",", ndmin=2)
        dt = np.diff(clean[:, 0])
        if (
            not np.isfinite(clean).all()
            or (np.abs(dt - period) > 0.5 * period).any()
            or len(clean) != int(round((t_last - t_first) / period)) + 1
        ):
            raise CheckFailed("clean.csv is not the gap-free nominal grid")
        n_windows = len(_read_rows(root / "windows.csv"))
        if n_windows != window_count(len(clean)):
            raise CheckFailed(f"{n_windows} windows for {len(clean)} rows")
        features = np.loadtxt(_read_rows(root / "features.csv"), delimiter=",", ndmin=2,
                              usecols=range(1, N_FEATURES + 1))
        check_features(features, n_windows)
        predicted = np.loadtxt(_read_rows(root / "predictions.csv"), delimiter=",", dtype=int, ndmin=2)[:, 1]
        check_labels(predicted)
        scores = np.loadtxt(_read_rows(root / "scores.csv"), delimiter=",", ndmin=2,
                            usecols=range(1, 7))
        check_scores(scores)
        dag = json.loads((root / "dagsvm.json").read_text())
        counts = {
            "io.rows": len(data),
            "io.bytes": (root / "data.csv").stat().st_size,
            "preprocessing.rows_restored": len(clean) - len(data),
            "windows.cut": n_windows,
            "features.windows": len(features),
            "pca.k": summaries["fit-pca"]["k"],
            "svm.support_vectors": sum(len(m["coef"]) for m in dag["models"]),
            "scoring.windows_scored": len(scores),
        }
        held_out = {
            name: (round(s["test_accuracy"] * s["test_size"]), s["test_size"])
            for name, s in (("dag", summaries["train-dagsvm"]), ("mlp", summaries["train-mlp"]))
        }
        artifacts = [(root / name).read_bytes() for name in ("predictions.csv", "report.json", "scores.csv")]
        return Checked(len(data), counts, digest(*artifacts), held_out)


WORKLOADS = {"session": Session, "train": Train, "cli": Cli}
