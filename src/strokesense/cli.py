"""Pipeline orchestration CLI.

Subcommands: synth, preprocess, segment, extract, fit-pca, train, predict,
evaluate, report.  Each stage reads declared inputs, writes declared
outputs and prints a one-line JSON summary on stdout.  Exit codes: 0
success, 1 usage error, 2 data error.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import StrokeSenseError
# window_features and score_window stay imported: perfbench/workloads.py times them here by name
from .features import FEATURE_NAMES, N_FEATURES, feature_matrix, window_features
from .io import parse_series, serialize_series
from .labels import IDLE, N_CLASSES, StrokeLabel, parse_label
from .metrics import DEFAULT_ALPHA, classification_report, confusion, heatmap_csv
from .mlp import DEFAULT_EPOCHS, DEFAULT_LR, MlpModel, mlp_init, mlp_predict_batch, mlp_train
from .pca import DEFAULT_RETENTION, PcaModel, fit_pca, transform
from .preprocessing import DEFAULT_K0, preprocess_series
from .scoring import StandardProfile, build_profile, score_window, score_windows
from .svm import DagSvmModel, dag_predict_batch, train_dagsvm
from .synth import GenConfig, generate, truth_on_grid
from .windows import DEFAULT_OVERLAP, DEFAULT_WIDTH, cut_windows, majority_labels, slide_windows

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


# --- artifact formats -----------------------------------------------------

def _dump_json(path, obj):
    """Write ``obj`` as JSON; a non-finite number, which no reader takes,
    is a data error that names the file and writes nothing."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise StrokeSenseError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")


def _read(path, parse):
    """``parse`` of the text of ``path``; a file that does not decode, or
    that ``parse`` rejects, is a data error that names the file: ``<path>
    line <n>: <reason>`` for a row, ``<path>: <reason>`` otherwise."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, KeyError, TypeError) as exc:
        sep = " " if str(exc).startswith("line ") else ": "
        raise StrokeSenseError(f"{path}{sep}{exc}") from None


def _json_object(text):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise StrokeSenseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_json(path, convert):
    """``convert`` of the JSON object in ``path``."""
    return _read(path, lambda text: convert(_json_object(text)))


def _write_csv(path, header, rows):
    """Write a header and rows of already formatted fields."""
    lines = [",".join(header)] + [",".join(fields) for fields in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path, convert):
    """``convert(fields)`` for each data row of a CSV artifact, skipping the
    header and blank lines; a row that ``convert`` rejects is a data error
    that names the file and line."""
    def parse(text):
        out = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno == 1 or not line.strip():
                continue
            try:
                out.append(convert(line.split(",")))
            except (ValueError, KeyError) as exc:
                raise StrokeSenseError(f"line {lineno}: {exc}") from None
        return out

    return _read(path, parse)


def _fields(fields, n):
    if len(fields) != n:
        raise StrokeSenseError(f"expected {n} fields, got {len(fields)}")
    return fields


def _write_spans(path, spans):
    rows = ([str(s), str(e), lab] for s, e, lab in spans)
    _write_csv(path, ["start_index", "end_index", "label"], rows)


def _read_spans(path, series, data_path, shortest):
    """The ``(start, end, label)`` rows of a span CSV, ``labels.csv`` or
    ``windows.csv``, over ``series`` as read from ``data_path``.  A label
    is read by :func:`parse_label` and given back as its canonical stroke
    name, or ``IDLE`` for no stroke; a span is a run of at least
    ``shortest`` rows of the series: ``0 <= start`` and ``start + shortest
    <= end <= rows``."""
    rows = len(series)

    def convert(fields):
        start, end, label = _fields(fields, 3)
        stroke = parse_label(label)
        label = IDLE if stroke is None else stroke.name
        start, end = int(start), int(end)
        if not (0 <= start and start + shortest <= end <= rows):
            raise StrokeSenseError(
                f"span {start},{end} is not a run of at least {shortest} of the "
                f"{rows} rows of {data_path}"
            )
        return start, end, label

    return _read_csv(path, convert)


def _feature_row(fields):
    label, *values = _fields(fields, 1 + N_FEATURES)
    row = np.array(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        name, v = FEATURE_NAMES[bad[0]], row[bad[0]]
        raise StrokeSenseError(f"feature {name} must be finite, got {v}")
    stroke = parse_label(label)
    return -1 if stroke is None else int(stroke), row


def _read_features(path):
    """Label codes (-1 for an unlabelled row) and the feature matrix."""
    rows = _read_csv(path, _feature_row)
    codes = np.array([code for code, _ in rows], dtype=int)
    X = np.array([values for _, values in rows]) if rows else np.empty((0, N_FEATURES))
    return codes, X


def _prediction(fields):
    """A true code (-1 for an unlabelled row) and a predicted code."""
    true, pred = (int(v) for v in _fields(fields, 2))
    if not -1 <= true < N_CLASSES:
        raise StrokeSenseError(f"true code {true} outside -1..{N_CLASSES - 1}")
    if not 0 <= pred < N_CLASSES:
        raise StrokeSenseError(f"predicted code {pred} outside 0..{N_CLASSES - 1}")
    return true, pred


def _classifier(payload):
    """The DAGSVM or MLP a model file holds, and the ``pca_sha256`` of the
    PCA file it was trained with."""
    kind = {"dagsvm": DagSvmModel, "mlp": MlpModel}.get(payload.get("type"))
    if kind is None:
        raise StrokeSenseError(f"unknown model type {payload.get('type')!r}")
    if "pca_sha256" not in payload:
        raise StrokeSenseError("no pca_sha256 names the PCA it was trained with; retrain it")
    return kind.from_dict(payload), payload["pca_sha256"]


def _project(args, X):
    """The PCA model in ``--pca``, the SHA-256 of its text, and ``X``, read
    from ``--in``, projected by it; a projection that is not finite is a
    data error that names both files."""
    pca, digest = _read(args.pca, lambda text: (
        PcaModel.from_dict(_json_object(text)), hashlib.sha256(text.encode()).hexdigest()))
    try:
        return pca, digest, transform(pca, X)
    except StrokeSenseError as exc:
        raise StrokeSenseError(f"{args.pca}: {exc} for {args.infile}") from None


def _windows_from_files(data_path, windows_path):
    """The windows a ``windows.csv`` cuts from a data CSV; a window needs
    2 rows for its statistics."""
    series = _read(data_path, parse_series)
    return cut_windows(series, _read_spans(windows_path, series, data_path, shortest=2))


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
    truth = truth_on_grid(series, truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "data.csv").write_text(serialize_series(series))
    _write_spans(out / "labels.csv", truth)
    strokes = sum(1 for _, _, lab in truth if lab != IDLE)
    _summary(command="synth", samples=len(series), strokes=strokes, out=str(out))


def _cmd_preprocess(args):
    series = _read(args.infile, parse_series)
    cleaned = preprocess_series(series, k0=args.k0, delta_a=args.delta_a)
    Path(args.out).write_text(serialize_series(cleaned))
    _summary(
        command="preprocess",
        samples_in=len(series),
        samples_out=len(cleaned),
        out=args.out,
    )


def _cmd_segment(args):
    series = _read(args.infile, parse_series)
    windows = slide_windows(series, width=args.window, overlap=args.overlap)
    spans = []
    if args.labels:
        # an IDLE gap in labels.csv can be a single row
        spans = _read_spans(args.labels, series, args.infile, shortest=1)
        spans = [s for s in spans if s[2] != IDLE]
    starts = [w.start_index for w in windows]
    labels = majority_labels(starts, args.window, spans)
    rows = [(s, s + args.window, lab) for s, lab in zip(starts, labels)]
    _write_spans(args.out, rows)
    _summary(command="segment", windows=len(rows), out=args.out)


def _cmd_extract(args):
    windows = _windows_from_files(args.infile, args.windows)
    labels = [w.label.name if w.label is not None else "" for w in windows]
    # a finite sample near the float range overflows its moments
    with np.errstate(over="ignore", invalid="ignore"):
        X = feature_matrix(windows)
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        start = windows[i].start_index
        raise StrokeSenseError(
            f"{args.infile}: feature {FEATURE_NAMES[j]} of window {start},{start + windows[i].width} "
            f"must be finite, got {X[i, j]}"
        )
    rows = ([lab, *map(repr, row)] for lab, row in zip(labels, X.tolist()))
    _write_csv(args.out, ["label", *FEATURE_NAMES], rows)
    _summary(command="extract", windows=len(windows), features=X.shape[1], out=args.out)


def _cmd_fit_pca(args):
    _, X = _read_features(args.infile)
    if len(X) < 2:
        raise StrokeSenseError(f"{args.infile}: need at least 2 rows to fit")
    model = fit_pca(X, retention=args.retention)
    _dump_json(args.out, model.to_dict())
    _summary(command="fit-pca", k=model.k, retention=args.retention, out=args.out)


def _split(n, test_fraction, seed):
    if not 0 <= test_fraction < 1:
        raise StrokeSenseError(f"test fraction must lie in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return order[n_test:], order[:n_test]


def _cmd_train(args):
    y, X = _read_features(args.infile)
    keep = y >= 0
    if not keep.any():
        raise StrokeSenseError(f"{args.infile}: no labeled rows to train on")
    X, y = X[keep], y[keep]
    _, digest, Z = _project(args, X)
    train_idx, test_idx = _split(len(Z), args.test_fraction, args.seed)
    if len(train_idx) == 0:
        raise StrokeSenseError(f"{args.infile}: empty training split")

    if args.model == "dagsvm":
        try:
            model = train_dagsvm(Z[train_idx], y[train_idx], c=args.svm_c, gamma=args.gamma)
            predicted = dag_predict_batch(model, Z[test_idx])
        except StrokeSenseError as exc:
            raise StrokeSenseError(f"{args.infile}: {exc}") from None
        payload = model.to_dict()
        run = {}
    else:
        net = mlp_init(Z.shape[1], seed=args.seed)
        data = [(Z[i], int(y[i])) for i in train_idx]
        net = mlp_train(net, data, lr=args.lr, epochs=args.epochs, seed=args.seed)
        predicted = mlp_predict_batch(net, Z[test_idx])
        payload = net.to_dict()
        run = {"epochs": len(net.loss_history), "final_loss": net.loss_history[-1]}

    accuracy = float((predicted == y[test_idx]).mean()) if len(test_idx) else None
    _dump_json(args.out, {**payload, "pca_sha256": digest})
    _summary(
        command="train",
        model=args.model,
        train_size=len(train_idx),
        test_size=len(test_idx),
        test_accuracy=accuracy,
        out=args.out,
        **run,
    )


def _cmd_predict(args):
    y, X = _read_features(args.infile)
    pca, digest, Z = _project(args, X)
    model, trained_with = _load_json(args.model, _classifier)
    if model.n_inputs not in (None, pca.k):
        raise StrokeSenseError(
            f"{args.pca} keeps {pca.k} components but {args.model} takes {model.n_inputs} inputs"
        )
    if trained_with != digest:
        raise StrokeSenseError(f"{args.model} was trained with another PCA than {args.pca}")
    predict = dag_predict_batch if isinstance(model, DagSvmModel) else mlp_predict_batch
    try:
        predicted = predict(model, Z)
    except StrokeSenseError as exc:
        raise StrokeSenseError(f"{args.infile}: {exc}") from None
    rows = ([str(true), str(int(pred))] for true, pred in zip(y.tolist(), predicted))
    _write_csv(args.out, ["true", "predicted"], rows)
    _summary(command="predict", samples=len(predicted), out=args.out)


def _cmd_evaluate(args):
    windows = _windows_from_files(args.infile, args.windows)
    if args.stroke:
        wanted = StrokeLabel.from_name(args.stroke)
        windows = [w for w in windows if w.label == wanted]
    if args.build_profile:
        windows = [w for w in windows if w.label is not None]
        profile = build_profile(windows)
        _dump_json(args.build_profile, profile.to_dict())
        _summary(
            command="evaluate",
            mode="build-profile",
            windows=len(windows),
            stroke=profile.stroke.name,
            out=args.build_profile,
        )
        return
    profile = _load_json(args.profile, StandardProfile.from_dict)
    if args.stroke and wanted != profile.stroke:
        raise StrokeSenseError(
            f"--stroke {wanted.name}, but {args.profile} is a {profile.stroke.name} profile"
        )
    windows = [w for w in windows if w.label in (None, profile.stroke)]
    q, totals = score_windows(windows, profile)
    rows = ([profile.stroke.name, *map(repr, row)] for row in np.column_stack([q, totals]).tolist())
    _write_csv(args.out, ["stroke", "Q1", "Q2", "Q3", "Q4", "Q5", "Q"], rows)
    mean_q = float(totals.mean()) if len(totals) else None
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
    # unlabelled windows have true code -1
    pairs = [(t, p) for t, p in _read_csv(args.predictions, _prediction) if t >= 0]
    if not pairs:
        raise StrokeSenseError(
            f"{args.predictions}: report needs ground-truth labels in the predictions file"
        )
    m = confusion(*zip(*pairs))
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
    parser = _Parser(prog="strokesense", description=__doc__, allow_abbrev=False)
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

    p = sub.add_parser("segment", help="cut sliding windows")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="ground-truth labels CSV for window labeling")
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
    """Fold ``--config FILE`` (or ``--config=FILE``; a prefix such as
    ``--c`` is no config flag) into argv: each value becomes a
    ``--flag=value`` placed right after the subcommand.  argparse keeps the
    last occurrence of a flag, so an explicit flag, in any spelling it
    accepts (``--seed 3``, ``--seed=3``, ``--se 3``), wins; config values
    still pass argparse's type and choice checks and satisfy required
    flags."""
    pre = _Parser(prog=parser.prog, add_help=False, allow_abbrev=False)
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
