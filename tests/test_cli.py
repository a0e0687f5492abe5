import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strokesense
from strokesense.cli import _read_features, _read_spans, _write_spans, build_parser, main
from strokesense.errors import StrokeSenseError
from strokesense.features import FEATURE_NAMES, window_features
from strokesense.io import parse_series
from strokesense.labels import IDLE, StrokeLabel, parse_label
from strokesense.metrics import DEFAULT_ALPHA
from strokesense.mlp import DEFAULT_EPOCHS, DEFAULT_LR
from strokesense.pca import DEFAULT_RETENTION
from strokesense.preprocessing import DEFAULT_K0
from strokesense.scoring import StandardProfile, score_window
from strokesense.synth import GenConfig, generate
from strokesense.windows import DEFAULT_OVERLAP, DEFAULT_WIDTH, MotionWindow


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> segment -> extract -> fit-pca chain."""
    d = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--seed", 5, "--strokes-per-class", 8, "--out", d) == 0
    assert (
        run(
            "segment",
            "--in", d / "data.csv",
            "--labels", d / "labels.csv",
            "--out", d / "windows.csv",
        )
        == 0
    )
    assert (
        run(
            "extract",
            "--in", d / "data.csv",
            "--windows", d / "windows.csv",
            "--out", d / "features.csv",
        )
        == 0
    )
    assert (
        run("fit-pca", "--in", d / "features.csv", "--out", d / "pca.json") == 0
    )
    return d


_GEN = GenConfig()

#: (a subcommand's required flags, the library values of its defaults)
_DEFAULTS = [
    (["synth", "--out", "d"], {
        "seed": _GEN.seed, "strokes_per_class": _GEN.strokes_per_class,
        "noise_sigma": _GEN.noise_sigma, "spike_rate": _GEN.spike_rate,
        "dropout_rate": _GEN.dropout_rate, "idle_fraction": _GEN.idle_fraction,
        "period": _GEN.period,
    }),
    (["preprocess", "--in", "a", "--out", "b"], {"k0": DEFAULT_K0}),
    (["segment", "--in", "a", "--out", "b"], {"window": DEFAULT_WIDTH, "overlap": DEFAULT_OVERLAP}),
    (["fit-pca", "--in", "a", "--out", "b"], {"retention": DEFAULT_RETENTION}),
    (["train", "--in", "a", "--pca", "p", "--out", "b"], {"lr": DEFAULT_LR, "epochs": DEFAULT_EPOCHS}),
    (["report", "--predictions", "a", "--out", "b"], {"alpha": DEFAULT_ALPHA}),
]


@pytest.mark.parametrize("argv, library", _DEFAULTS, ids=[argv[0] for argv, _ in _DEFAULTS])
def test_flag_defaults_are_library_defaults(argv, library):
    args = vars(build_parser().parse_args(argv))
    assert {key: args[key] for key in library} == library


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("synth", "--bogus", "1", "--out", "x") == 1
        capsys.readouterr()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run("preprocess", "--in", tmp_path / "nope.csv", "--out", tmp_path / "o.csv") == 2
        capsys.readouterr()

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not,a,sensor,stream\n")
        assert run("preprocess", "--in", bad, "--out", tmp_path / "o.csv") == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["preprocess", "--in", "a", "--out", "b", "--no-filter"],
            ["preprocess", "--in", "a", "--out", "b", "--no-outlier"],
            ["fit-pca", "--in", "a", "--out", "b", "--no-standardize"],
            ["evaluate", "--in", "a", "--windows", "w", "--profile", "p", "--json-out", "j"],
            ["segment", "--in", "a", "--out", "b", "--activation-model", "g.json"],
        ],
        ids=["no-filter", "no-outlier", "no-standardize", "json-out", "activation-model"],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [1, 0, -5])
    def test_window_narrower_than_two_rows_is_data_error(self, pipeline, tmp_path, capsys, width):
        out = tmp_path / "windows.csv"
        assert run("segment", "--in", pipeline / "data.csv", "--window", width,
                   "--overlap", 0, "--out", out) == 2
        assert f"window width must be at least 2, got {width}" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_outputs_and_summary(self, tmp_path, capsys):
        assert run("synth", "--seed", 1, "--strokes-per-class", 2, "--out", tmp_path) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        summary = json.loads(out)
        assert summary["command"] == "synth"
        assert (tmp_path / "data.csv").exists()
        assert (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("period", ["inf", "nan", "0"])
    def test_bad_period_is_data_error(self, tmp_path, capsys, period):
        assert run("synth", "--period", period, "--out", tmp_path) == 2
        assert "period" in capsys.readouterr().err
        assert not (tmp_path / "data.csv").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--seed", 3, "--strokes-per-class", 2, "--out", a)
        run("synth", "--seed", 3, "--strokes-per-class", 2, "--out", b)
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


@pytest.fixture(scope="module")
def faulty(tmp_path_factory):
    """A corpus with spikes and dropped rows, cleaned, then cut, featurized
    and reduced from ``clean.csv``, and both models trained on it; the
    ``train`` summary of each model, by model name."""
    d = tmp_path_factory.mktemp("faulty")
    steps = [
        ["synth", "--seed", 1, "--strokes-per-class", 10, "--spike-rate", 0.002,
         "--dropout-rate", 0.01, "--out", d],
        ["preprocess", "--in", d / "data.csv", "--out", d / "clean.csv"],
        ["segment", "--in", d / "clean.csv", "--labels", d / "labels.csv", "--out", d / "windows.csv"],
        ["extract", "--in", d / "clean.csv", "--windows", d / "windows.csv", "--out", d / "features.csv"],
        ["fit-pca", "--in", d / "features.csv", "--out", d / "pca.json"],
    ]
    for step in steps:
        assert run(*step) == 0, step[0]
    summaries = {}
    for model in ("dagsvm", "mlp"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run("train", "--in", d / "features.csv", "--pca", d / "pca.json",
                       "--model", model, "--out", d / f"{model}.json") == 0
        summaries[model] = json.loads(buf.getvalue())
    return d, summaries


class TestFaultyCorpus:
    """``labels.csv`` indexes the nominal sample grid, the rows of
    ``clean.csv``, so the chain on the cleaned stream learns true labels."""

    @pytest.mark.parametrize("model", ["dagsvm", "mlp"])
    def test_held_out_accuracy(self, faulty, model):
        _, summaries = faulty
        assert summaries[model]["test_accuracy"] >= 0.9

    def test_labels_end_on_the_last_clean_row(self, faulty):
        d, _ = faulty
        clean = parse_series((d / "clean.csv").read_text())
        assert _read_spans(d / "labels.csv", clean, d / "clean.csv", 1)[-1][1] == len(clean)

    def test_segment_rejects_labels_past_the_rows_of_in(self, faulty, tmp_path, capsys):
        d, _ = faulty
        data, labels, out = d / "data.csv", d / "labels.csv", tmp_path / "windows.csv"
        rows = len(parse_series(data.read_text()))
        clean = parse_series((d / "clean.csv").read_text())
        spans = _read_spans(labels, clean, d / "clean.csv", 1)
        k, (start, end, _) = next((k, s) for k, s in enumerate(spans) if s[1] > rows)
        assert run("segment", "--in", data, "--labels", labels, "--out", out) == 2
        err = capsys.readouterr().err
        assert (
            f"{labels} line {k + 2}: span {start},{end} is not a run of at least 1 "
            f"of the {rows} rows of {data}"
        ) in err
        assert not out.exists()

    def test_labels_may_hold_a_one_row_span(self, tmp_path):
        # the floor of a labels.csv span is 1 row: this corpus has a 1-row IDLE gap
        assert run("synth", "--seed", 1, "--strokes-per-class", 20, "--idle-fraction", 0.01,
                   "--dropout-rate", 0.01, "--spike-rate", 0.002, "--out", tmp_path) == 0
        data, clean = tmp_path / "data.csv", tmp_path / "clean.csv"
        assert run("preprocess", "--in", data, "--out", clean) == 0
        series = parse_series(clean.read_text())
        spans = _read_spans(tmp_path / "labels.csv", series, clean, 1)
        assert (1, IDLE) in {(e - s, lab) for s, e, lab in spans}
        assert run("segment", "--in", clean, "--labels", tmp_path / "labels.csv",
                   "--out", tmp_path / "windows.csv") == 0


class TestPreprocess:
    def test_round_trip_clean_stream(self, pipeline, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        assert run("preprocess", "--in", pipeline / "data.csv", "--out", out) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "preprocess"
        assert out.exists()

    @pytest.mark.parametrize("delta_a", ["nan", "inf", "0"])
    def test_bad_delta_a_is_data_error(self, pipeline, tmp_path, capsys, delta_a):
        out = tmp_path / "clean.csv"
        assert run("preprocess", "--in", pipeline / "data.csv", "--out", out,
                   "--delta-a", delta_a) == 2
        assert "delta_a" in capsys.readouterr().err
        assert not out.exists()


class TestTrainPredictReport:
    @pytest.mark.parametrize("model", ["dagsvm", "mlp"])
    def test_no_test_split_reports_null_accuracy(self, pipeline, tmp_path, capsys, model):
        code = run(
            "train",
            "--in", pipeline / "features.csv",
            "--pca", pipeline / "pca.json",
            "--out", tmp_path / "model.json",
            "--model", model,
            "--test-fraction", 0,
            "--epochs", 1,
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["test_size"] == 0
        assert summary["test_accuracy"] is None

    def test_full_chain(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = run(
            "train",
            "--in", pipeline / "features.csv",
            "--pca", pipeline / "pca.json",
            "--out", model,
            "--model", "dagsvm",
            "--seed", 0,
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["test_accuracy"] >= 0.5

        preds = tmp_path / "preds.csv"
        assert (
            run(
                "predict",
                "--in", pipeline / "features.csv",
                "--pca", pipeline / "pca.json",
                "--model", model,
                "--out", preds,
            )
            == 0
        )
        capsys.readouterr()

        report = tmp_path / "report.json"
        heatmap = tmp_path / "heat.csv"
        svg = tmp_path / "heat.svg"
        assert (
            run(
                "report",
                "--predictions", preds,
                "--out", report,
                "--heatmap", heatmap,
                "--svg", svg,
            )
            == 0
        )
        capsys.readouterr()
        body = json.loads(report.read_text())
        assert body["accuracy"] >= 0.5
        assert heatmap.read_text().count("\n") == 7
        assert svg.read_text().startswith("<svg")

    def test_mlp_train(self, pipeline, tmp_path, capsys):
        model = tmp_path / "mlp.json"
        code = run(
            "train",
            "--in", pipeline / "features.csv",
            "--pca", pipeline / "pca.json",
            "--out", model,
            "--model", "mlp",
            "--epochs", 60,
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert json.loads(model.read_text())["type"] == "mlp"
        assert 1 <= summary["epochs"] <= 60
        assert summary["final_loss"] > 0

    @pytest.mark.parametrize(
        "flags",
        [
            ("--test-fraction", -0.2),
            ("--test-fraction", 1.0),
            ("--test-fraction", "nan"),
            ("--svm-c", 0),
            ("--svm-c", -1),
            ("--gamma", -1),
            ("--gamma", 0),
            ("--gamma", "inf"),
            ("--model", "mlp", "--lr", -1),
            ("--model", "mlp", "--lr", 0),
            ("--model", "mlp", "--lr", "nan"),
            ("--model", "mlp", "--epochs", 0),
            ("--model", "mlp", "--epochs", -3),
        ],
    )
    def test_out_of_range_training_input_rejected(self, pipeline, tmp_path, capsys, flags):
        model = tmp_path / "model.json"
        code = run(
            "train",
            "--in", pipeline / "features.csv",
            "--pca", pipeline / "pca.json",
            "--out", model,
            "--model", "dagsvm",
            *flags,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("labelled, flags, message", [
        (0, [], "no labeled rows to train on"),
        (1, ["--test-fraction", 0.6], "empty training split"),
    ], ids=["no-labeled-row", "empty-split"])
    def test_too_few_labeled_rows_rejected(self, pipeline, tmp_path, capsys, labelled, flags,
                                           message):
        header, *rows = (pipeline / "features.csv").read_text().splitlines()
        rows = [row for row in rows if not row.startswith(",")]
        rows = rows[:labelled] + ["," + row.split(",", 1)[1] for row in rows[labelled:]]
        features, model = tmp_path / "features.csv", tmp_path / "model.json"
        features.write_text("\n".join([header, *rows]) + "\n")
        assert run("train", "--in", features, "--pca", pipeline / "pca.json",
                   "--out", model, *flags) == 2
        assert capsys.readouterr().err == f"error: {features}: {message}\n"
        assert not model.exists()

    @pytest.mark.parametrize("rows, flags, message", [
        (1, [], "{features}: need at least 2 rows to fit"),
        # the flag is at fault, not the file
        (3, ["--retention", 0], "retention must lie in (0, 1], got 0.0"),
    ], ids=["one-row", "bad-retention"])
    def test_fit_pca_names_features_only_for_its_fault(self, pipeline, tmp_path, capsys, rows,
                                                        flags, message):
        lines = (pipeline / "features.csv").read_text().splitlines()
        features, pca = tmp_path / "features.csv", tmp_path / "pca.json"
        features.write_text("\n".join(lines[:1 + rows]) + "\n")
        assert run("fit-pca", "--in", features, "--out", pca, *flags) == 2
        assert capsys.readouterr().err == f"error: {message.format(features=features)}\n"
        assert not pca.exists()

    def test_report_without_ground_truth_rejected(self, tmp_path, capsys):
        preds, report = tmp_path / "preds.csv", tmp_path / "report.json"
        preds.write_text("true,predicted\n-1,3\n-1,0\n")
        assert run("report", "--predictions", preds, "--out", report) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: ")
        assert "report needs ground-truth labels" in err
        assert not report.exists()

    def test_no_windows(self, artifacts, pipeline, tmp_path, capsys):
        """extract -> predict and evaluate --profile on a header-only
        windows.csv: empty artifacts, exit 0."""
        windows, features = tmp_path / "windows.csv", tmp_path / "features.csv"
        model, preds = tmp_path / "mlp.json", tmp_path / "preds.csv"
        scores = tmp_path / "scores.csv"
        windows.write_text("start_index,end_index,label\n")
        assert run("extract", "--in", pipeline / "data.csv", "--windows", windows,
                   "--out", features) == 0
        assert features.read_text() == ",".join(["label", *FEATURE_NAMES]) + "\n"
        assert run("evaluate", "--in", pipeline / "data.csv", "--windows", windows,
                   "--profile", artifacts / "profile.json", "--out", scores) == 0
        assert scores.read_text() == "stroke,Q1,Q2,Q3,Q4,Q5,Q\n"
        assert run("train", "--in", pipeline / "features.csv", "--pca", pipeline / "pca.json",
                   "--out", model, "--model", "mlp", "--epochs", 2) == 0
        assert run("predict", "--in", features, "--pca", pipeline / "pca.json",
                   "--model", model, "--out", preds) == 0
        summary = {s["command"]: s for s in map(json.loads, capsys.readouterr().out.splitlines())}
        assert summary["extract"]["windows"] == 0
        assert summary["predict"]["samples"] == 0
        assert summary["evaluate"]["windows"] == 0
        assert summary["evaluate"]["mean_q"] is None
        assert preds.read_text() == "true,predicted\n"


class TestEvaluate:
    def test_profile_and_scores(self, pipeline, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        code = run(
            "evaluate",
            "--in", pipeline / "data.csv",
            "--windows", pipeline / "windows.csv",
            "--stroke", "FOREHAND_ATTACK",
            "--build-profile", profile,
        )
        assert code == 0
        capsys.readouterr()
        scores = tmp_path / "scores.csv"
        code = run(
            "evaluate",
            "--in", pipeline / "data.csv",
            "--windows", pipeline / "windows.csv",
            "--profile", profile,
            "--out", scores,
        )
        assert code == 0
        capsys.readouterr()
        rows = scores.read_text().strip().splitlines()
        assert len(rows) > 1
        totals = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.0 <= t <= 1.0 for t in totals)

    @pytest.mark.parametrize("mode", [[], ["--build-profile", "a.json", "--profile", "b.json"]],
                             ids=["neither", "both"])
    def test_needs_exactly_one_mode(self, pipeline, tmp_path, capsys, mode):
        assert run("evaluate", "--in", pipeline / "data.csv", "--windows", pipeline / "windows.csv",
                   *mode) == 1
        assert "--build-profile" in capsys.readouterr().err

    def test_non_finite_profile_rejected(self, pipeline, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        assert run("evaluate", "--in", pipeline / "data.csv", "--windows", pipeline / "windows.csv",
                   "--stroke", "FOREHAND_ATTACK", "--build-profile", profile) == 0
        body = json.loads(profile.read_text())
        body["indicators"][0]["center"] = float("nan")
        profile.write_text(json.dumps(body))
        scores = tmp_path / "scores.csv"
        assert run("evaluate", "--in", pipeline / "data.csv", "--windows", pipeline / "windows.csv",
                   "--profile", profile, "--out", scores) == 2
        assert "error:" in capsys.readouterr().err
        assert not scores.exists()

    def test_profile_of_another_stroke_names_both(self, artifacts, tmp_path, capsys):
        """A profile built for one stroke scores no window of another; asking
        for that is a data error, not an empty scores.csv."""
        scores = tmp_path / "scores.csv"
        assert run("evaluate", "--in", artifacts / "data.csv", "--windows", artifacts / "windows.csv",
                   "--stroke", "BACKHAND_CHOP", "--profile", artifacts / "profile.json",
                   "--out", scores) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "--stroke BACKHAND_CHOP" in err
        assert f"{artifacts / 'profile.json'} is a FOREHAND_ATTACK profile" in err
        assert not scores.exists()


def test_batched_outputs_match_per_window_reference(artifacts, tmp_path, capsys):
    """extract and evaluate --profile each featurize or score all windows
    in one batched call: on a windows.csv of 150- and 200-row spans, some
    unlabelled and some of another stroke, features.csv and scores.csv are
    byte-equal to rows built one window at a time."""
    data, profile_path = artifacts / "data.csv", artifacts / "profile.json"
    labels = ["FOREHAND_ATTACK", "", IDLE, "BACKHAND_CHOP"]
    # a run of 40 equal widths spans two blocks; then widths alternate
    widths = [200] * 40 + [150, 150, 200, 150, 200, 200, 150] * 6
    spans = [(100 * i, 100 * i + w, labels[i % 4]) for i, w in enumerate(widths)]
    windows = tmp_path / "windows.csv"
    _write_spans(windows, spans)
    features, scores = tmp_path / "features.csv", tmp_path / "scores.csv"
    assert run("extract", "--in", data, "--windows", windows, "--out", features) == 0
    assert run("evaluate", "--in", data, "--windows", windows, "--profile", profile_path,
               "--out", scores) == 0
    summary = {s["command"]: s for s in map(json.loads, capsys.readouterr().out.splitlines())}

    series = parse_series(data.read_text())
    profile = StandardProfile.from_dict(json.loads(profile_path.read_text()))
    feature_rows = [["label", *FEATURE_NAMES]]
    score_rows = [["stroke", "Q1", "Q2", "Q3", "Q4", "Q5", "Q"]]
    for start, end, label in spans:
        stroke = StrokeLabel.from_name(label) if label not in (IDLE, "") else None
        w = MotionWindow(start, series.channels[start:end], series.sample_period, stroke)
        feature_rows.append([stroke.name if stroke is not None else "",
                             *map(repr, window_features(w).tolist())])
        if stroke in (None, profile.stroke):
            report = score_window(w, profile)
            score_rows.append([profile.stroke.name, *map(repr, report.q.tolist()), repr(report.total)])
    assert features.read_text() == "".join(",".join(row) + "\n" for row in feature_rows)
    assert scores.read_text() == "".join(",".join(row) + "\n" for row in score_rows)
    assert summary["evaluate"]["windows"] == len(score_rows) - 1
    assert len(score_rows) - 1 == sum(label != "BACKHAND_CHOP" for *_, label in spans)


class TestWindowSpans:
    def test_csv_round_trip(self, tmp_path):
        series, truth = generate(GenConfig(seed=6, strokes_per_class=2))
        path = tmp_path / "labels.csv"
        _write_spans(path, truth)
        assert path.read_text().splitlines()[0] == "start_index,end_index,label"
        assert _read_spans(path, series, "data.csv", 1) == truth

    @pytest.mark.parametrize("span", ["past_end", "reversed", "negative", "empty", "one_row"])
    @pytest.mark.parametrize("command", ["segment", "extract", "build-profile"])
    def test_span_outside_series_is_data_error(self, pipeline, tmp_path, capsys, span, command):
        data = pipeline / "data.csv"
        rows = len(data.read_text().splitlines()) - 2
        start, end = {
            "past_end": (rows - 48, rows + 152),
            "reversed": (300, 100),
            "negative": (-10, 190),
            "empty": (100, 100),
            "one_row": (100, 101),
        }[span]
        spans = tmp_path / ("labels.csv" if command == "segment" else "windows.csv")
        spans.write_text(
            f"start_index,end_index,label\n0,200,FOREHAND_ATTACK\n\n"
            f"{start},{end},FOREHAND_ATTACK\n"
        )
        out = tmp_path / "out"
        argv = {
            "segment": ["segment", "--labels", spans, "--out", out],
            "extract": ["extract", "--windows", spans, "--out", out],
            "build-profile": ["evaluate", "--windows", spans, "--build-profile", out],
        }[command]
        code = run(*argv, "--in", data)
        if command == "segment" and span == "one_row":
            assert code == 0  # a labels.csv span needs 1 row, a window 2
            return
        assert code == 2
        shortest = 1 if command == "segment" else 2
        err = capsys.readouterr().err
        assert (
            f"{spans} line 4: span {start},{end} is not a run of at least {shortest} "
            f"of the {rows} rows of {data}"
        ) in err
        assert not out.exists()

    def test_segment_writes_canonical_stroke_names(self, pipeline, tmp_path):
        text = (pipeline / "labels.csv").read_text()
        for label in StrokeLabel:
            text = text.replace(label.name, label.name.lower())
        assert "forehand_attack" in text
        lower = tmp_path / "labels.csv"
        lower.write_text(text)
        out = tmp_path / "windows.csv"
        assert run("segment", "--in", pipeline / "data.csv", "--labels", lower, "--out", out) == 0
        assert out.read_bytes() == (pipeline / "windows.csv").read_bytes()


@pytest.fixture(scope="module")
def artifacts(pipeline, tmp_path_factory):
    """Every artifact the CLI reads, from the ``pipeline`` chain onwards."""
    d = tmp_path_factory.mktemp("artifacts")
    for name in ("data.csv", "labels.csv", "windows.csv", "features.csv", "pca.json"):
        (d / name).write_bytes((pipeline / name).read_bytes())
    assert run("train", "--in", d / "features.csv", "--pca", d / "pca.json",
               "--out", d / "model.json") == 0
    assert run("train", "--in", d / "features.csv", "--pca", d / "pca.json",
               "--out", d / "mlp.json", "--model", "mlp", "--epochs", 2) == 0
    assert run("predict", "--in", d / "features.csv", "--pca", d / "pca.json",
               "--model", d / "model.json", "--out", d / "predictions.csv") == 0
    assert run("evaluate", "--in", d / "data.csv", "--windows", d / "windows.csv",
               "--stroke", "FOREHAND_ATTACK", "--build-profile", d / "profile.json") == 0
    return d


def _replace_field(k, value):
    def edit(line):
        fields = line.split(",")
        fields[k] = value
        return ",".join(fields)
    return edit


def _drop_last_field(line):
    return line.rsplit(",", 1)[0]


#: id: (artifact, line, edit of that line, what the error names, command);
#: ``BAD`` stands for the corrupted artifact, ``OUT`` for the output.
_CSV_CASES = {
    "data-short-row-preprocess": ("data.csv", 5, _drop_last_field, "expected 10 fields, got 9",
                                  ["preprocess", "--in", "BAD", "--out", "OUT"]),
    "data-short-row-segment": ("data.csv", 5, _drop_last_field, "expected 10 fields, got 9",
                               ["segment", "--in", "BAD", "--labels", "labels.csv",
                                "--out", "OUT"]),
    "data-short-row-extract": ("data.csv", 5, _drop_last_field, "expected 10 fields, got 9",
                               ["extract", "--in", "BAD", "--windows", "windows.csv",
                                "--out", "OUT"]),
    "data-short-row-evaluate": ("data.csv", 5, _drop_last_field, "expected 10 fields, got 9",
                                ["evaluate", "--in", "BAD", "--windows", "windows.csv",
                                 "--profile", "profile.json", "--out", "OUT"]),
    "labels-short-row": ("labels.csv", 3, lambda _: "0,200", "expected 3 fields, got 2",
                         ["segment", "--in", "data.csv", "--labels", "BAD", "--out", "OUT"]),
    "labels-unknown-stroke": ("labels.csv", 2, lambda _: "0,300,LOB", "unknown stroke label 'LOB'",
                              ["segment", "--in", "data.csv", "--labels", "BAD", "--out", "OUT"]),
    "windows-bad-label": ("windows.csv", 3, lambda _: "0,200,FOREHAND", "'FOREHAND'",
                          ["extract", "--in", "data.csv", "--windows", "BAD", "--out", "OUT"]),
    "features-bad-float": ("features.csv", 3, _replace_field(1, "1x5"), "'1x5'",
                           ["fit-pca", "--in", "BAD", "--out", "OUT"]),
    "features-short-row": ("features.csv", 4, _drop_last_field,
                           "expected 181 fields, got 180",
                           ["fit-pca", "--in", "BAD", "--out", "OUT"]),
    "features-lowercase-unknown-label": ("features.csv", 2, _replace_field(0, "lob"),
                                         "unknown stroke label 'lob'",
                                         ["fit-pca", "--in", "BAD", "--out", "OUT"]),
    "features-bad-label-train": ("features.csv", 3, _replace_field(0, "BOGUS"), "'BOGUS'",
                                 ["train", "--in", "BAD", "--pca", "pca.json", "--out", "OUT"]),
    "features-bad-label-predict": ("features.csv", 5, _replace_field(0, "BOGUS"), "'BOGUS'",
                                   ["predict", "--in", "BAD", "--pca", "pca.json",
                                    "--model", "model.json", "--out", "OUT"]),
    "features-nan": ("features.csv", 3, _replace_field(1, "nan"), "must be finite, got nan",
                     ["predict", "--in", "BAD", "--pca", "pca.json",
                      "--model", "model.json", "--out", "OUT"]),
    "features-inf": ("features.csv", 4, _replace_field(7, "-inf"), "must be finite, got -inf",
                     ["train", "--in", "BAD", "--pca", "pca.json", "--out", "OUT"]),
    "features-overflow": ("features.csv", 3, _replace_field(2, "1e999"), "must be finite, got inf",
                          ["fit-pca", "--in", "BAD", "--out", "OUT"]),
    "predictions-bad-int": ("predictions.csv", 3, lambda _: "3,x", "'x'",
                            ["report", "--predictions", "BAD", "--out", "OUT"]),
    "predictions-short-row": ("predictions.csv", 2, lambda _: "3", "expected 2 fields, got 1",
                              ["report", "--predictions", "BAD", "--out", "OUT"]),
    "predictions-predicted-code": ("predictions.csv", 3, lambda _: "3,6",
                                   "predicted code 6 outside 0..5",
                                   ["report", "--predictions", "BAD", "--out", "OUT"]),
    "predictions-true-code": ("predictions.csv", 2, lambda _: "-2,3", "true code -2 outside -1..5",
                              ["report", "--predictions", "BAD", "--out", "OUT"]),
}

_JSON_CASES = {
    "pca": ("pca.json", ["train", "--in", "features.csv", "--pca", "BAD", "--out", "OUT"]),
    "model": ("model.json", ["predict", "--in", "features.csv", "--pca", "pca.json",
                             "--model", "BAD", "--out", "OUT"]),
    "profile": ("profile.json", ["evaluate", "--in", "data.csv", "--windows", "windows.csv",
                                 "--profile", "BAD", "--out", "OUT"]),
}

_PREDICT = _JSON_CASES["model"][1]

_PREDICT_PCA = ["predict", "--in", "features.csv", "--pca", "BAD", "--model", "model.json",
                "--out", "OUT"]

#: id: (artifact, edit of its JSON object, what the error names, command);
#: each edit keeps the file valid JSON but makes its shapes disagree, puts
#: in a value that no fit writes (a non-finite number, a scale of 0), or
#: drops the PCA a model names.
_SHAPE_CASES = {
    "pca-component-column": ("pca.json",
                             lambda d: d.update(components=[r[:-1] for r in d["components"]]),
                             "components",
                             ["train", "--in", "features.csv", "--pca", "BAD", "--out", "OUT"]),
    "mlp-bias": ("mlp.json", lambda d: d["biases"].__setitem__(0, d["biases"][0][:-1]),
                 "biases", _PREDICT),
    "dagsvm-coef": ("model.json", lambda d: d["models"][0].update(coef=d["models"][0]["coef"][:-1]),
                    "coef", _PREDICT),
    "dagsvm-support-vector-width": ("model.json",
                                    lambda d: d["models"][1].update(support_vectors=[
                                        r + [0.0] for r in d["models"][1]["support_vectors"]]),
                                    "of width", _PREDICT),
    "dagsvm-class-pair": ("model.json", lambda d: d["models"][0].update(class_pair=[0, 9]),
                          "(0, 9)", _PREDICT),
    "dagsvm-duplicate-pair": ("model.json",
                              lambda d: d["models"].append(dict(d["models"][0], b=1e6)),
                              "pair (0, 1) is listed twice", _PREDICT),
    "dagsvm-class-order": ("model.json", lambda d: d.update(class_order=d["class_order"][::-1]),
                           "class_order must be 0-5 in order", _PREDICT),
    "mlp-output-width": ("mlp.json",
                         lambda d: [r.append(0.0) for r in [*d["weights"][-1], d["biases"][-1]]],
                         "needs 6 outputs", _PREDICT),
    "pca-zero-scale": ("pca.json", lambda d: d["scale"].__setitem__(0, 0.0),
                       "scale must be positive", _PREDICT_PCA),
    "pca-nan-mean": ("pca.json", lambda d: d["mean"].__setitem__(0, float("nan")),
                     "mean must be finite", _PREDICT_PCA),
    "mlp-nan-weight": ("mlp.json", lambda d: d["weights"][0][0].__setitem__(0, float("nan")),
                       "layer 0: weights and biases must be finite", _PREDICT),
    "dagsvm-nan-coef": ("model.json", lambda d: d["models"][0]["coef"].__setitem__(0, float("nan")),
                        "coef must be finite", _PREDICT),
    "dagsvm-infinite-b": ("model.json", lambda d: d["models"][0].update(b=float("inf")),
                          "b must be finite", _PREDICT),
    "dagsvm-nan-gamma": ("model.json", lambda d: d["models"][0].update(gamma=float("nan")),
                         "gamma must be finite", _PREDICT),
    "dagsvm-zero-gamma": ("model.json", lambda d: d["models"][2].update(gamma=0.0),
                          "pair (0, 3): gamma must be positive, got 0.0", _PREDICT),
    "dagsvm-negative-gamma": ("model.json", lambda d: d["models"][2].update(gamma=-1.0),
                              "pair (0, 3): gamma must be positive, got -1.0", _PREDICT),
    # finite, but its squared norm, which every kernel value needs, is not
    "dagsvm-huge-support-vector": ("model.json",
                                   lambda d: d["models"][0]["support_vectors"][0].__setitem__(
                                       0, 1e308),
                                   "pair (0, 1): support vector squared norms must be finite",
                                   _PREDICT),
    "unknown-model-type": ("model.json", lambda d: d.update(type="svm"),
                           "unknown model type 'svm'", _PREDICT),
    "model-without-its-pca": ("mlp.json", lambda d: d.pop("pca_sha256"),
                              "no pca_sha256 names the PCA it was trained with; retrain it",
                              _PREDICT),
    # finite, but it projects the features past the float range
    "pca-huge-component": ("pca.json", lambda d: d["components"][0].__setitem__(0, 1e308),
                           "projection is not finite", _PREDICT_PCA),
    "pca-huge-component-train": ("pca.json", lambda d: d["components"][0].__setitem__(0, 1e308),
                                 "projection is not finite", _JSON_CASES["pca"][1]),
    "pca-nan-retention": ("pca.json", lambda d: d.update(retention=float("nan")),
                          "retention must be finite", _JSON_CASES["pca"][1]),
    "dagsvm-nan-c": ("model.json", lambda d: [m.update(c=float("nan")) for m in d["models"]],
                     "pair (0, 1): c must be finite", _PREDICT),
    # an infinite integer field once escaped main as an OverflowError
    "pca-infinite-k": ("pca.json", lambda d: d.update(k=float("inf")), "k must be finite",
                       _JSON_CASES["pca"][1]),
    "dagsvm-infinite-class-pair": ("model.json",
                                   lambda d: d["models"][0].update(class_pair=[0, float("inf")]),
                                   "class_pair must be finite", _PREDICT),
    "profile-infinite-k2": ("profile.json",
                            lambda d: d["indicators"][3].update(k2=float("inf")),
                            "k2 must be finite", _JSON_CASES["profile"][1]),
}

#: Each input kind a subcommand reads, by a command that reads it as ``BAD``.
_INPUT_KINDS = {
    "data.csv": _CSV_CASES["data-short-row-preprocess"][4],
    "labels.csv": _CSV_CASES["labels-short-row"][4],
    "windows.csv": _CSV_CASES["windows-bad-label"][4],
    "features.csv": _CSV_CASES["features-short-row"][4],
    "predictions.csv": _CSV_CASES["predictions-short-row"][4],
    "pca.json": _JSON_CASES["pca"][1],
    "model.json": _PREDICT,
    "mlp.json": _PREDICT,
    "profile.json": _JSON_CASES["profile"][1],
}


class TestMalformedArtifacts:
    @staticmethod
    def _run(artifacts, tmp_path, bad, argv):
        names = {"BAD": bad, "OUT": tmp_path / "out"}
        code = run(*(names.get(a) or (artifacts / a if "." in a else a) for a in argv))
        assert not (tmp_path / "out").exists()
        return code

    @pytest.mark.parametrize("case", list(_CSV_CASES))
    def test_csv_error_names_file_and_line(self, artifacts, tmp_path, capsys, case):
        name, lineno, edit, reason, argv = _CSV_CASES[case]
        lines = (artifacts / name).read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} line {lineno}: ")
        assert reason in err

    @pytest.mark.parametrize("case", list(_JSON_CASES))
    def test_truncated_json_names_file(self, artifacts, tmp_path, capsys, case):
        name, argv = _JSON_CASES[case]
        text = (artifacts / name).read_text()
        bad = tmp_path / name
        bad.write_text(text[: len(text) // 2])
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("case", list(_JSON_CASES))
    @pytest.mark.parametrize("body", ["[1, 2]", '{"type": "mlp", "weights": 3}'],
                             ids=["list", "wrong-field-type"])
    def test_misshapen_json_names_file(self, artifacts, tmp_path, capsys, case, body):
        name, argv = _JSON_CASES[case]
        bad = tmp_path / name
        bad.write_text(body)
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("case", list(_SHAPE_CASES))
    def test_inconsistent_shapes_name_file(self, artifacts, tmp_path, capsys, case):
        name, edit, reason, argv = _SHAPE_CASES[case]
        body = json.loads((artifacts / name).read_text())
        edit(body)
        bad = tmp_path / name
        bad.write_text(json.dumps(body))
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert reason in err

    @pytest.mark.parametrize("name", list(_INPUT_KINDS))
    def test_undecodable_bytes_name_file(self, artifacts, tmp_path, capsys, name):
        data = (artifacts / name).read_bytes()
        bad = tmp_path / name
        bad.write_bytes(data[: len(data) // 2] + b"\xc0\x80" + data[len(data) // 2:])
        assert self._run(artifacts, tmp_path, bad, _INPUT_KINDS[name]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_huge_feature_names_pca_and_features(self, artifacts, tmp_path, capsys):
        """A finite 1e308 feature projects past the float range: the fault
        may lie in either file, so the error names both."""
        lines = (artifacts / "features.csv").read_text().splitlines()
        lines[2] = _replace_field(8, "1e308")(lines[2])
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = _CSV_CASES["features-nan"][4]
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {artifacts / 'pca.json'}: projection is not finite for {bad}\n"

    @pytest.mark.parametrize("model", ["model.json", "mlp.json"], ids=["dagsvm", "mlp"])
    def test_pca_and_model_of_other_widths_name_both(self, artifacts, tmp_path, capsys, model):
        pca = tmp_path / "pca.json"
        assert run("fit-pca", "--in", artifacts / "features.csv", "--retention", 0.5,
                   "--out", pca) == 0
        capsys.readouterr()
        k = json.loads(pca.read_text())["k"]
        width = json.loads((artifacts / "pca.json").read_text())["k"]
        assert k != width
        assert run("predict", "--in", artifacts / "features.csv", "--pca", pca,
                   "--model", artifacts / model, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{pca} keeps {k} components" in err
        assert f"{artifacts / model} takes {width} inputs" in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_profile_names_file(self, artifacts, tmp_path, capsys):
        body = json.loads((artifacts / "profile.json").read_text())
        for spec in body["indicators"]:
            spec["up"] = spec["down"]
        bad = tmp_path / "profile.json"
        bad.write_text(json.dumps(body))
        argv = _JSON_CASES["profile"][1]
        assert self._run(artifacts, tmp_path, bad, argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: up - down collapsed")

    def test_unknown_stroke_names_label(self, artifacts, tmp_path, capsys):
        assert run("evaluate", "--in", artifacts / "data.csv", "--windows",
                   artifacts / "windows.csv", "--stroke", "BOGUS",
                   "--build-profile", tmp_path / "out") == 2
        assert "unknown stroke label 'BOGUS'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestModelNamesItsPca:
    """``train`` records the SHA-256 of the ``--pca`` text in the model file
    (``pca_sha256``), and ``predict`` takes the model with that PCA only."""

    @pytest.mark.parametrize("model", ["model.json", "mlp.json"], ids=["dagsvm", "mlp"])
    def test_model_records_its_pca(self, artifacts, model):
        digest = hashlib.sha256((artifacts / "pca.json").read_text().encode()).hexdigest()
        assert json.loads((artifacts / model).read_text())["pca_sha256"] == digest

    @pytest.mark.parametrize("model", ["model.json", "mlp.json"], ids=["dagsvm", "mlp"])
    def test_other_pca_of_the_same_width_names_both(self, artifacts, tmp_path, capsys, model):
        body = json.loads((artifacts / "pca.json").read_text())
        body["retention"] = 0.5
        pca = tmp_path / "pca.json"
        pca.write_text(json.dumps(body, sort_keys=True) + "\n")
        assert run("predict", "--in", artifacts / "features.csv", "--pca", pca,
                   "--model", artifacts / model, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {artifacts / model} was trained with another PCA than {pca}\n"
        assert not (tmp_path / "out").exists()


class TestHugeFiniteNumbers:
    """A finite number that overflows once it is used: the stage gives the
    exact limit without a warning, or exits 2 and names the file."""

    def test_extract_refuses_non_finite_features(self, seven, tmp_path, capsys):
        lines = (seven / "data.csv").read_text().splitlines()
        lines[4] = _replace_field(1, "1e308")(lines[4])
        data, out = tmp_path / "data.csv", tmp_path / "features.csv"
        data.write_text("\n".join(lines) + "\n")
        assert run("extract", "--in", data, "--windows", seven / "windows.csv", "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: ")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["k1", "k2"])
    def test_tiny_loss_coefficient_scores_the_limit(self, artifacts, tmp_path, k):
        """exp(-d/k) of a distance d > 0 past the band is 0 once d/k overflows."""
        body = json.loads((artifacts / "profile.json").read_text())
        for spec in body["indicators"]:
            spec[k] = 1e-320
        profile, out = tmp_path / "profile.json", tmp_path / "scores.csv"
        profile.write_text(json.dumps(body))
        assert run("evaluate", "--in", artifacts / "data.csv", "--windows",
                   artifacts / "windows.csv", "--profile", profile, "--out", out) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv", [["predict", "--model", "dagsvm.json"],
                                      ["train", "--model", "dagsvm", "--gamma", "0.01"]],
                             ids=["predict", "train"])
    def test_huge_projection_names_features(self, faulty, tmp_path, capsys, argv):
        """A finite 1e308 feature projects to a finite row whose squared
        norm overflows, so each of its kernel values would be NaN: the
        DAGSVM refuses the row, and the error names ``--in``."""
        d, _ = faulty
        lines = (d / "features.csv").read_text().splitlines()
        lines[2] = _replace_field(1, "1e308")(lines[2])
        bad, out = tmp_path / "features.csv", tmp_path / "out"
        bad.write_text("\n".join(lines) + "\n")
        command, *rest = argv
        assert run(command, "--in", bad, "--pca", d / "pca.json", "--out", out,
                   *(d / a if a.endswith(".json") else a for a in rest)) == 2
        assert capsys.readouterr().err == f"error: {bad}: row squared norms must be finite\n"
        assert not out.exists()

    def test_huge_mlp_weight_saturates(self, artifacts, tmp_path):
        """tanh of an input that overflows to ±inf is its limit, ±1."""
        body = json.loads((artifacts / "mlp.json").read_text())
        body["weights"][0][0][0] = 1e308
        model, out = tmp_path / "mlp.json", tmp_path / "predictions.csv"
        model.write_text(json.dumps(body))
        assert run("predict", "--in", artifacts / "features.csv", "--pca",
                   artifacts / "pca.json", "--model", model, "--out", out) == 0
        assert out.exists()


@pytest.fixture(scope="module")
def seven(tmp_path_factory):
    """The ``synth --seed 7 --strokes-per-class 2`` corpus, cut and featurized."""
    d = tmp_path_factory.mktemp("seven")
    assert run("synth", "--seed", 7, "--strokes-per-class", 2, "--out", d) == 0
    assert run("segment", "--in", d / "data.csv", "--labels", d / "labels.csv",
               "--out", d / "windows.csv") == 0
    assert run("extract", "--in", d / "data.csv", "--windows", d / "windows.csv",
               "--out", d / "features.csv") == 0
    return d


class TestLabelRule:
    """One rule reads the label field of labels.csv, windows.csv and
    features.csv: blank or ``IDLE`` in any case is no stroke, a stroke name
    may be in any case, and anything else is a data error."""

    @pytest.mark.parametrize("field, expected", [
        ("", None), ("  ", None), (IDLE, None), ("idle", None), (" Idle ", None),
        ("FOREHAND_ATTACK", StrokeLabel.FOREHAND_ATTACK),
        ("backhand_chop", StrokeLabel.BACKHAND_CHOP),
        (" Forehand_Push ", StrokeLabel.FOREHAND_PUSH),
    ])
    def test_parse_label(self, field, expected):
        assert parse_label(field) is expected

    def test_forehand_attack_is_code_zero_not_none(self):
        label = parse_label("forehand_attack")
        assert label is not None and int(label) == 0

    @pytest.mark.parametrize("field", ["LOB", "IDLE_", "FOREHAND", "0"])
    def test_parse_label_rejects_unknown_names(self, field):
        with pytest.raises(StrokeSenseError, match=f"unknown stroke label '{field}'"):
            parse_label(field)

    @pytest.mark.parametrize("label", [IDLE, "idle", " Idle ", ""],
                             ids=["IDLE", "idle", "padded", "blank"])
    def test_no_stroke_span_loses_a_tie_in_labels_csv(self, seven, tmp_path, label):
        labels, out = tmp_path / "labels.csv", tmp_path / "windows.csv"
        labels.write_text(f"start_index,end_index,label\n0,100,{label}\n100,300,FOREHAND_ATTACK\n")
        assert run("segment", "--in", seven / "data.csv", "--labels", labels, "--out", out) == 0
        assert out.read_text().splitlines()[1] == "0,200,FOREHAND_ATTACK"

    def test_idle_in_any_case_leaves_a_window_unlabelled(self, seven, tmp_path):
        out = {}
        for label in (IDLE, "idle", ""):
            windows = tmp_path / f"windows_{label}.csv"
            windows.write_text(f"start_index,end_index,label\n0,200,{label}\n200,400,backhand_push\n")
            out[label] = tmp_path / f"features_{label}.csv"
            assert run("extract", "--in", seven / "data.csv", "--windows", windows,
                       "--out", out[label]) == 0
        rows = out[""].read_text().splitlines()
        assert [row.split(",", 1)[0] for row in rows[1:]] == ["", "BACKHAND_PUSH"]
        assert out[IDLE].read_text() == out["idle"].read_text() == out[""].read_text()

    @pytest.mark.parametrize("label", [IDLE, "idle"])
    def test_idle_feature_row_is_unlabelled(self, seven, tmp_path, label):
        lines = (seven / "features.csv").read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if i and not line.startswith(","))
        codes, _ = _read_features(seven / "features.csv")
        assert codes[k - 1] >= 0
        lines[k] = label + "," + lines[k].split(",", 1)[1]
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines) + "\n")
        got, _ = _read_features(bad)
        assert list(got) == [*codes[: k - 1], -1, *codes[k:]]
        assert run("fit-pca", "--in", bad, "--out", tmp_path / "pca.json") == 0

    def test_evaluate_stroke_must_be_a_stroke(self, seven, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert run("evaluate", "--in", seven / "data.csv", "--windows", seven / "windows.csv",
                   "--stroke", "idle", "--build-profile", out) == 2
        assert "unknown stroke label 'idle'" in capsys.readouterr().err
        assert not out.exists()


def test_fit_pca_refuses_to_write_a_non_finite_model(seven, tmp_path, capsys):
    """A finite 1e308 feature overflows the PCA scale; fit-pca names the
    file it would have written and writes nothing, since no reader takes
    ``Infinity``."""
    lines = (seven / "features.csv").read_text().splitlines()
    lines[2] = _replace_field(1, "1e308")(lines[2])
    features, out = tmp_path / "features.csv", tmp_path / "pca.json"
    features.write_text("\n".join(lines) + "\n")
    with pytest.warns(RuntimeWarning):
        assert run("fit-pca", "--in", features, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert not out.exists()


def test_feature_fields_read_as_float_reads_them(tmp_path):
    """A features.csv field reads as ``float`` reads it: underscores,
    padding, signs, underflow to zero and non-ASCII digits alike."""
    fields = [" 1_0", "+1.5", "-0.0", "1e-400", "１２"]
    row = ",".join(["FOREHAND_ATTACK", *fields, *["0"] * (len(FEATURE_NAMES) - len(fields))])
    path = tmp_path / "features.csv"
    path.write_text(",".join(["label", *FEATURE_NAMES]) + "\n" + row + "\n")
    codes, X = _read_features(path)
    assert codes.tolist() == [int(StrokeLabel.FOREHAND_ATTACK)]
    assert list(map(repr, X[0, : len(fields)].tolist())) == [repr(float(f)) for f in fields]


#: The ``artifacts`` scoring chain, for a fresh interpreter: ``{d}`` is its
#: output directory.
_SCORING_CHAIN = [
    ["synth", "--seed", "5", "--strokes-per-class", "8", "--out", "{d}"],
    ["segment", "--in", "{d}/data.csv", "--labels", "{d}/labels.csv", "--out", "{d}/windows.csv"],
    ["evaluate", "--in", "{d}/data.csv", "--windows", "{d}/windows.csv",
     "--stroke", "FOREHAND_ATTACK", "--build-profile", "{d}/profile.json"],
    ["evaluate", "--in", "{d}/data.csv", "--windows", "{d}/windows.csv",
     "--profile", "{d}/profile.json", "--out", "{d}/scores.csv"],
]

_WITHOUT_SCIPY = """\
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from strokesense.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_scoring_chain_runs_without_scipy(artifacts, tmp_path, capsys):
    """The runtime needs numpy only: where scipy cannot be imported, the
    CLI scoring chain writes the same scores.csv as an in-process run."""
    assert run("evaluate", "--in", artifacts / "data.csv", "--windows", artifacts / "windows.csv",
               "--profile", artifacts / "profile.json", "--out", tmp_path / "scores.csv") == 0
    capsys.readouterr()
    d = tmp_path / "fresh"
    chain = [[arg.format(d=d) for arg in argv] for argv in _SCORING_CHAIN]
    path = [str(Path(strokesense.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(chain)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (d / "scores.csv").read_bytes() == (tmp_path / "scores.csv").read_bytes()


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "strokes_per_class": 2, "out": str(tmp_path / "c")}))
        assert run("synth", "--config", cfg) == 0
        capsys.readouterr()
        direct = tmp_path / "d"
        run("synth", "--seed", 9, "--strokes-per-class", 2, "--out", direct)
        capsys.readouterr()
        assert (tmp_path / "c" / "data.csv").read_bytes() == (direct / "data.csv").read_bytes()

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        out_a = tmp_path / "a"
        run("synth", "--config", cfg, "--seed", 4, "--strokes-per-class", 2, "--out", out_a)
        capsys.readouterr()
        out_b = tmp_path / "b"
        run("synth", "--seed", 4, "--strokes-per-class", 2, "--out", out_b)
        capsys.readouterr()
        assert (out_a / "data.csv").read_bytes() == (out_b / "data.csv").read_bytes()

    def test_explicit_equals_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        out_a = tmp_path / "a"
        run("synth", "--config", cfg, "--seed=3", "--strokes-per-class", 2, "--out", out_a)
        capsys.readouterr()
        out_b = tmp_path / "b"
        run("synth", "--seed", 3, "--strokes-per-class", 2, "--out", out_b)
        capsys.readouterr()
        assert (out_a / "data.csv").read_bytes() == (out_b / "data.csv").read_bytes()

    @pytest.mark.parametrize("spelling", [["--se", "3"], ["--se=3"]])
    def test_abbreviated_flag_beats_config(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        out_a = tmp_path / "a"
        run("synth", "--config", cfg, *spelling, "--strokes-per-class", 2, "--out", out_a)
        capsys.readouterr()
        out_b = tmp_path / "b"
        run("synth", "--seed", 3, "--strokes-per-class", 2, "--out", out_b)
        capsys.readouterr()
        assert (out_a / "data.csv").read_bytes() == (out_b / "data.csv").read_bytes()

    def test_config_equals_form_and_dest_keys(self, tmp_path, capsys):
        data = tmp_path / "s"
        assert run("synth", "--seed", 2, "--strokes-per-class", 1, "--out", data) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"infile": str(data / "data.csv"), "out": str(tmp_path / "a.csv")}))
        assert run(f"--config={cfg}", "preprocess") == 0
        assert run("preprocess", "--in", data / "data.csv", "--out", tmp_path / "b.csv") == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k0": 0.2}))
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 1
        assert "k0" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [None, "{not json", "[1, 2]"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        if body is not None:
            cfg.write_text(body)
        assert run("--config", cfg, "synth", "--out", tmp_path / "x") == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--in", "f.csv", "--pca", "p.json", "--out", "m.json", "--c", "-1"],
         "error: unrecognized arguments: --c -1"),
        (["--conf", "cfg.json", "synth", "--out", "x"], "invalid choice: 'cfg.json'"),
    ], ids=["after-subcommand", "before-subcommand"])
    def test_abbreviated_config_is_unknown_flag(self, capsys, argv, message):
        """Only ``--config`` spelled out names a config file: a prefix of
        it is a usage error, never a file to read."""
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "cannot read config" not in err

    def test_config_without_subcommand_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert run("--config", cfg) == 1
        assert "error: --config requires a subcommand" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 1
        capsys.readouterr()
