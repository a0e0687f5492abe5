"""Pipeline orchestration CLI.

Subcommands: synth, preprocess, segment, extract, fit-pca, train, predict,
evaluate, report.  Each stage reads declared inputs, writes declared
outputs and prints a one-line JSON summary on stdout.  Exit codes: 0
success, 1 usage error, 2 data error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import StrokeSenseError
from .features import FEATURE_NAMES, window_features
from .io import parse_series, serialize_series
from .labels import IDLE, StrokeLabel
from .metrics import DEFAULT_ALPHA, classification_report, confusion, heatmap_csv
from .mlp import DEFAULT_EPOCHS, DEFAULT_LR, MlpModel, mlp_init, mlp_predict_batch, mlp_train
from .pca import DEFAULT_RETENTION, PcaModel, fit_pca, transform
from .preprocessing import DEFAULT_K0, preprocess_series
from .scoring import (
    REFERENCE_AHP_MATRIX,
    StandardProfile,
    ahp_weights,
    build_profile,
    score_window,
)
from .svm import DagSvmModel, dag_predict_batch, train_dagsvm
from .synth import GenConfig, generate, truth_from_csv, truth_to_csv
from .windows import (
    DEFAULT_OVERLAP,
    DEFAULT_WIDTH,
    LinearSvmModel,
    MotionWindow,
    is_active,
    majority_labels,
    slide_windows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage-error exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _summary(**kwargs):
    print(json.dumps(kwargs, sort_keys=True))


def _dump_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")


# --- feature CSV helpers --------------------------------------------------

def _write_features(path, labels, X):
    lines = ["label," + ",".join(FEATURE_NAMES)]
    for lab, row in zip(labels, X):
        lines.append(lab + "," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_features(path):
    lines = Path(path).read_text().splitlines()
    labels, rows = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(",")
        labels.append(fields[0])
        rows.append([float(v) for v in fields[1:]])
    return labels, np.array(rows) if rows else np.empty((0, len(FEATURE_NAMES)))


def _windows_from_files(data_path, windows_path):
    """The windows a ``windows.csv`` cuts from a data CSV; every span must
    lie within the series (``0 <= start < end <= rows``)."""
    series = parse_series(Path(data_path).read_text())
    text = Path(windows_path).read_text()
    linenos = [k for k, line in enumerate(text.splitlines(), start=1) if k > 1 and line.strip()]
    out = []
    for lineno, (start, end, label) in zip(linenos, truth_from_csv(text)):
        if not 0 <= start < end <= len(series):
            raise StrokeSenseError(
                f"{windows_path} line {lineno}: span {start},{end} does not lie "
                f"within the {len(series)} rows of {data_path}"
            )
        lab = None if label in (IDLE, "") else StrokeLabel.from_name(label)
        out.append(
            MotionWindow(
                start_index=start,
                channels=series.channels[start:end],
                sample_period=series.sample_period,
                label=lab,
            )
        )
    return series, out


# --- subcommand handlers --------------------------------------------------

def _cmd_synth(args):
    cfg = GenConfig(
        seed=args.seed,
        strokes_per_class=args.strokes_per_class,
        noise_sigma=args.noise_sigma,
        spike_rate=args.spike_rate,
        dropout_rate=args.dropout_rate,
        idle_fraction=args.idle_fraction,
        period=args.period,
    )
    series, truth = generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "data.csv").write_text(serialize_series(series))
    (out / "labels.csv").write_text(truth_to_csv(truth))
    strokes = sum(1 for _, _, lab in truth if lab != IDLE)
    _summary(command="synth", samples=len(series), strokes=strokes, out=str(out))


def _cmd_preprocess(args):
    series = parse_series(Path(args.infile).read_text())
    cleaned = preprocess_series(series, k0=args.k0, delta_a=args.delta_a)
    Path(args.out).write_text(serialize_series(cleaned))
    _summary(
        command="preprocess",
        samples_in=len(series),
        samples_out=len(cleaned),
        out=args.out,
    )


def _cmd_segment(args):
    series = parse_series(Path(args.infile).read_text())
    windows = slide_windows(series, width=args.window, overlap=args.overlap)
    if args.activation_model:
        gate = LinearSvmModel.from_dict(json.loads(Path(args.activation_model).read_text()))
        windows = [w for w in windows if is_active(w, gate)]
    spans = []
    if args.labels:
        spans = [
            (s, e, lab)
            for s, e, lab in truth_from_csv(Path(args.labels).read_text())
            if lab != IDLE
        ]
    starts = [w.start_index for w in windows]
    labels = majority_labels(starts, args.window, spans)
    rows = [(s, s + args.window, lab) for s, lab in zip(starts, labels)]
    Path(args.out).write_text(truth_to_csv(rows))
    _summary(command="segment", windows=len(rows), out=args.out)


def _cmd_extract(args):
    _, windows = _windows_from_files(args.infile, args.windows)
    labels = [w.label.name if w.label is not None else "" for w in windows]
    X = np.array([window_features(w) for w in windows]).reshape(len(windows), len(FEATURE_NAMES))
    _write_features(args.out, labels, X)
    _summary(command="extract", windows=len(windows), features=X.shape[1], out=args.out)


def _cmd_fit_pca(args):
    _, X = _read_features(args.infile)
    model = fit_pca(X, retention=args.retention)
    Path(args.out).write_text(model.to_json() + "\n")
    _summary(command="fit-pca", k=model.k, retention=args.retention, out=args.out)


def _split(n, test_fraction, seed):
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test fraction must lie in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return order[n_test:], order[:n_test]


def _cmd_train(args):
    labels, X = _read_features(args.infile)
    keep = [i for i, lab in enumerate(labels) if lab]
    if not keep:
        raise StrokeSenseError("no labeled rows to train on")
    X = X[keep]
    y = np.array([int(StrokeLabel.from_name(labels[i])) for i in keep])
    pca = PcaModel.from_json(Path(args.pca).read_text())
    Z = transform(pca, X)
    train_idx, test_idx = _split(len(Z), args.test_fraction, args.seed)
    if len(train_idx) == 0:
        raise StrokeSenseError("empty training split")

    if args.model == "dagsvm":
        model = train_dagsvm(Z[train_idx], y[train_idx], c=args.svm_c, gamma=args.gamma)
        predicted = dag_predict_batch(model, Z[test_idx]) if len(test_idx) else np.array([])
        payload = model.to_dict()
    else:
        net = mlp_init(Z.shape[1], seed=args.seed)
        data = [(Z[i], int(y[i])) for i in train_idx]
        net = mlp_train(net, data, lr=args.lr, epochs=args.epochs, seed=args.seed)
        predicted = mlp_predict_batch(net, Z[test_idx]) if len(test_idx) else np.array([])
        payload = net.to_dict()

    accuracy = float((predicted == y[test_idx]).mean()) if len(test_idx) else None
    _dump_json(args.out, payload)
    _summary(
        command="train",
        model=args.model,
        train_size=len(train_idx),
        test_size=len(test_idx),
        test_accuracy=accuracy,
        out=args.out,
    )


def _cmd_predict(args):
    labels, X = _read_features(args.infile)
    pca = PcaModel.from_json(Path(args.pca).read_text())
    Z = transform(pca, X)
    payload = json.loads(Path(args.model).read_text())
    if payload.get("type") == "dagsvm":
        predicted = dag_predict_batch(DagSvmModel.from_dict(payload), Z)
    elif payload.get("type") == "mlp":
        predicted = mlp_predict_batch(MlpModel.from_dict(payload), Z)
    else:
        raise StrokeSenseError(f"unknown model type {payload.get('type')!r}")
    lines = ["true,predicted"]
    for lab, pred in zip(labels, predicted):
        true_code = int(StrokeLabel.from_name(lab)) if lab else -1
        lines.append(f"{true_code},{int(pred)}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    _summary(command="predict", samples=len(predicted), out=args.out)


def _cmd_evaluate(args):
    _, windows = _windows_from_files(args.infile, args.windows)
    if args.stroke:
        wanted = StrokeLabel.from_name(args.stroke)
        windows = [w for w in windows if w.label == wanted]
    if args.build_profile:
        windows = [w for w in windows if w.label is not None]
        profile = build_profile(windows)
        Path(args.build_profile).write_text(profile.to_json() + "\n")
        _summary(
            command="evaluate",
            mode="build-profile",
            windows=len(windows),
            stroke=profile.stroke.name,
            out=args.build_profile,
        )
        return
    profile = StandardProfile.from_json(Path(args.profile).read_text())
    windows = [w for w in windows if w.label in (None, profile.stroke)]
    weights = ahp_weights(REFERENCE_AHP_MATRIX)
    lines = ["stroke,Q1,Q2,Q3,Q4,Q5,Q"]
    totals = []
    for w in windows:
        rep = score_window(w, profile, weights=weights)
        totals.append(rep.total)
        qs = ",".join(repr(float(q)) for q in rep.q)
        lines.append(f"{rep.stroke.name},{qs},{rep.total!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    mean_q = float(np.mean(totals)) if totals else None
    _summary(command="evaluate", mode="score", windows=len(totals), mean_q=mean_q, out=args.out)


def _svg_heatmap(counts, path):
    """Minimal SVG confusion heat map; no plotting dependency."""
    counts = np.asarray(counts, dtype=float)
    n = counts.shape[0]
    cell, margin = 40, 30
    size = margin * 2 + cell * n
    peak = counts.max() or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    for i in range(n):
        for j in range(n):
            shade = int(255 * (1 - counts[i, j] / peak))
            x, y = margin + j * cell, margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                f'text-anchor="middle" font-size="12">{int(counts[i, j])}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("".join(parts) + "\n")


def _cmd_report(args):
    lines = Path(args.predictions).read_text().splitlines()[1:]
    pairs = [tuple(int(v) for v in line.split(",")) for line in lines if line.strip()]
    pairs = [(t, p) for t, p in pairs if t >= 0]  # drop unlabeled windows
    if not pairs:
        raise StrokeSenseError("report needs ground-truth labels in the predictions file")
    true = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    m = confusion(true, pred)
    report = classification_report(m, alpha=args.alpha)
    _dump_json(args.out, report)
    if args.heatmap:
        Path(args.heatmap).write_text(heatmap_csv(m))
    if args.svg:
        _svg_heatmap(m.counts, args.svg)
    _summary(
        command="report",
        samples=len(pairs),
        accuracy=report["accuracy"],
        macro_f=report["macro"]["f_measure"],
        out=args.out,
    )


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strokesense", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        help="JSON file of flag defaults for the chosen subcommand; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = GenConfig()
    p = sub.add_parser("synth", help="generate a labeled synthetic stream")
    p.add_argument("--seed", type=int, default=gen.seed)
    p.add_argument("--strokes-per-class", type=int, default=gen.strokes_per_class)
    p.add_argument("--noise-sigma", type=float, default=gen.noise_sigma)
    p.add_argument("--spike-rate", type=float, default=gen.spike_rate)
    p.add_argument("--dropout-rate", type=float, default=gen.dropout_rate)
    p.add_argument("--idle-fraction", type=float, default=gen.idle_fraction)
    p.add_argument("--period", type=float, default=gen.period)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="clean all nine channels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k0", type=float, default=DEFAULT_K0)
    p.add_argument("--delta-a", type=float, default=None)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("segment", help="cut sliding windows, optionally gated")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="ground-truth labels CSV for window labeling")
    p.add_argument("--activation-model", help="linear gate model JSON")
    p.add_argument("--window", type=int, default=DEFAULT_WIDTH)
    p.add_argument("--overlap", type=float, default=DEFAULT_OVERLAP)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("extract", help="featurize windows")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("fit-pca", help="fit the linear reduction")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--retention", type=float, default=DEFAULT_RETENTION)
    p.set_defaults(func=_cmd_fit_pca)

    p = sub.add_parser("train", help="train a stroke classifier")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pca", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["dagsvm", "mlp"], default="dagsvm")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--svm-c", type=float, default=1.0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="classify featurized windows")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pca", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="build or apply a scoring profile")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--windows", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--build-profile", help="write a profile JSON from reference windows")
    mode.add_argument("--profile", help="score windows against this profile JSON")
    p.add_argument("--stroke", help="restrict to one stroke class (e.g. FOREHAND_ATTACK)")
    p.add_argument("--out", default="scores.csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="confusion matrix and P/R/F report")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--heatmap", help="write the matrix as CSV")
    p.add_argument("--svg", help="write a simple SVG heat map")
    p.set_defaults(func=_cmd_report)

    parser.subcommands = sub.choices
    return parser


def _apply_config(parser, argv):
    """Fold ``--config FILE`` into argv: each value becomes a
    ``--flag=value`` placed right after the subcommand.  argparse keeps the
    last occurrence of a flag, so an explicit flag, in any spelling it
    accepts (``--seed 3``, ``--seed=3``, ``--se 3``), wins; config values
    still pass argparse's type and choice checks and satisfy required
    flags."""
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        spec = json.loads(Path(known.config).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {known.config}: {exc}")
    if not isinstance(spec, dict):
        parser.error("config must be a JSON object of flag values")
    at = next((k for k, arg in enumerate(rest) if not arg.startswith("-")), None)
    if at is None or rest[at] not in parser.subcommands:
        parser.error("--config requires a subcommand")
    command = rest[at]
    flags = {
        a.dest: a.option_strings[0]
        for a in parser.subcommands[command]._actions
        if a.option_strings
    }
    extra = []
    for key, value in spec.items():
        if key not in flags:
            parser.error(f"config key {key!r} is not a flag of {command}")
        extra.append(f"{flags[key]}={value}")
    return rest[: at + 1] + extra + rest[at + 1 :]


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        args.func(args)
    except (StrokeSenseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
