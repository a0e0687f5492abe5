import json
from pathlib import Path

import numpy as np
import pytest

from strokesense.cli import build_parser, main
from strokesense.metrics import DEFAULT_ALPHA
from strokesense.mlp import DEFAULT_EPOCHS, DEFAULT_LR
from strokesense.pca import DEFAULT_RETENTION
from strokesense.preprocessing import DEFAULT_K0
from strokesense.synth import GenConfig
from strokesense.windows import DEFAULT_OVERLAP, DEFAULT_WIDTH, LinearSvmModel


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
        ],
        ids=["no-filter", "no-outlier", "no-standardize", "json-out"],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


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
        capsys.readouterr()
        assert json.loads(model.read_text())["type"] == "mlp"

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

    def test_gate_keeping_no_window(self, pipeline, tmp_path, capsys):
        """segment -> extract -> predict on a session the gate rejects
        whole: empty artifacts, exit 0."""
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps(LinearSvmModel(w=np.zeros(6), b=-1.0, c=1.0).to_dict()))
        windows, features = tmp_path / "windows.csv", tmp_path / "features.csv"
        model, preds = tmp_path / "mlp.json", tmp_path / "preds.csv"
        assert run("segment", "--in", pipeline / "data.csv", "--activation-model", gate,
                   "--out", windows) == 0
        assert run("extract", "--in", pipeline / "data.csv", "--windows", windows,
                   "--out", features) == 0
        assert run("train", "--in", pipeline / "features.csv", "--pca", pipeline / "pca.json",
                   "--out", model, "--model", "mlp", "--epochs", 2) == 0
        assert run("predict", "--in", features, "--pca", pipeline / "pca.json",
                   "--model", model, "--out", preds) == 0
        summary = {s["command"]: s for s in map(json.loads, capsys.readouterr().out.splitlines())}
        assert summary["segment"]["windows"] == summary["extract"]["windows"] == 0
        assert summary["predict"]["samples"] == 0
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


class TestWindowSpans:
    @pytest.mark.parametrize("span", ["past_end", "reversed", "negative", "empty"])
    @pytest.mark.parametrize("command", ["extract", "build-profile"])
    def test_span_outside_series_is_data_error(self, pipeline, tmp_path, capsys, span, command):
        rows = len((pipeline / "data.csv").read_text().splitlines()) - 2
        start, end = {
            "past_end": (rows - 48, rows + 152),
            "reversed": (300, 100),
            "negative": (-10, 190),
            "empty": (100, 100),
        }[span]
        windows = tmp_path / "windows.csv"
        windows.write_text(
            f"start_index,end_index,label\n0,200,FOREHAND_ATTACK\n\n"
            f"{start},{end},FOREHAND_ATTACK\n"
        )
        out = tmp_path / "out"
        if command == "extract":
            argv = ["extract", "--out", out]
        else:
            argv = ["evaluate", "--build-profile", out]
        assert run(*argv, "--in", pipeline / "data.csv", "--windows", windows) == 2
        err = capsys.readouterr().err
        assert f"{windows} line 4: span {start},{end}" in err
        assert f"the {rows} rows" in err
        assert not out.exists()


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 1
        capsys.readouterr()
