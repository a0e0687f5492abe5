"""Drive the full pipeline through the command-line interface.

Every stage of the pipeline is also a `strokesense` subcommand; this demo
runs the whole chain (synthesize -> segment -> featurize -> reduce ->
train -> predict -> report -> build a scoring profile -> score) exactly as
a shell script would, into a temporary directory.

Run: python demos/04_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from strokesense.cli import main

root = Path(tempfile.mkdtemp(prefix="strokesense-demo-"))
print(f"working in {root}\n")

steps = [
    ["synth", "--seed", "7", "--strokes-per-class", "12", "--out", str(root)],
    ["segment", "--in", str(root / "data.csv"),
     "--labels", str(root / "labels.csv"), "--out", str(root / "windows.csv")],
    ["extract", "--in", str(root / "data.csv"),
     "--windows", str(root / "windows.csv"), "--out", str(root / "features.csv")],
    ["fit-pca", "--in", str(root / "features.csv"), "--out", str(root / "pca.json")],
    ["train", "--in", str(root / "features.csv"), "--pca", str(root / "pca.json"),
     "--out", str(root / "model.json"), "--model", "dagsvm"],
    ["predict", "--in", str(root / "features.csv"), "--pca", str(root / "pca.json"),
     "--model", str(root / "model.json"), "--out", str(root / "predictions.csv")],
    ["report", "--predictions", str(root / "predictions.csv"),
     "--out", str(root / "report.json"), "--heatmap", str(root / "heatmap.csv")],
    ["evaluate", "--in", str(root / "data.csv"), "--windows", str(root / "windows.csv"),
     "--stroke", "FOREHAND_ATTACK", "--build-profile", str(root / "profile.json")],
    ["evaluate", "--in", str(root / "data.csv"), "--windows", str(root / "windows.csv"),
     "--profile", str(root / "profile.json"), "--out", str(root / "scores.csv")],
]

for step in steps:
    print(f"$ strokesense {' '.join(step)}")
    code = main(step)
    assert code == 0, f"{step[0]} exited {code}"
    print()

report = json.loads((root / "report.json").read_text())
print(f"final accuracy {report['accuracy']:.3f}, "
      f"macro F {report['macro']['f_measure']:.3f}")
totals = [float(row.split(",")[-1]) for row in (root / "scores.csv").read_text().split()[1:]]
print(f"mean skill score Q {sum(totals) / len(totals):.3f} over {len(totals)} windows")
print(f"artifacts left in {root}")
