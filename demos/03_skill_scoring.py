"""Score simulated players against a reference profile.

Builds a standard profile from clean "professional" forehand-attack
windows, then scores three simulated players whose execution degrades
progressively (noise and orientation offsets), showing how the five level
scores and the weighted total separate them.

Run: python demos/03_skill_scoring.py
"""

import numpy as np

from strokesense.labels import StrokeLabel
from strokesense.scoring import (
    LEVEL_NAMES,
    REFERENCE_AHP_MATRIX,
    ahp_weights,
    build_profile,
    consistency,
    score_windows,
)
from strokesense.synth import GenConfig, generate, stroke_windows
from strokesense.windows import MotionWindow

STROKE = StrokeLabel.FOREHAND_ATTACK

# --- level weights from the pairwise comparison matrix ---------------------
weights = ahp_weights(REFERENCE_AHP_MATRIX)
lam, ci, cr = consistency(REFERENCE_AHP_MATRIX)
print("level weights (pairwise-comparison derived):")
for name, w in zip(LEVEL_NAMES, weights):
    print(f"  {name:<18} {w:.4f}")
print(f"consistency: lambda_max={lam:.4f}, CI={ci:.4f}, CR={cr:.4f} (< 0.1 ok)")

# --- reference windows -----------------------------------------------------
cfg = GenConfig(seed=303, strokes_per_class=40, noise_sigma=0.02)
series, truth = generate(cfg)
reference = [w for w in stroke_windows(series, truth) if w.label == STROKE]
profile = build_profile(reference)
print(f"\nprofile built from {len(reference)} reference {STROKE.name} windows")


def degrade(window, noise, offset, rng):
    """A sloppier execution: extra jitter plus a constant pose offset."""
    channels = (
        window.channels
        + rng.normal(scale=noise, size=window.channels.shape)
        + rng.uniform(-offset, offset, size=(1, 9))
    )
    return MotionWindow(
        window.start_index, channels, sample_period=window.sample_period,
        label=window.label,
    )


# --- three simulated players ----------------------------------------------
rng = np.random.default_rng(1)
players = {
    "professional": reference,
    "club player": [degrade(w, noise=0.3, offset=0.5, rng=rng) for w in reference],
    "beginner": [degrade(w, noise=3.0, offset=8.0, rng=rng) for w in reference],
}

print(f"\n{'player':<14}" + "".join(f"{n[:9]:>11}" for n in LEVEL_NAMES) + f"{'total':>9}")
for name, windows in players.items():
    q, totals = score_windows(windows, profile, weights=weights)
    cells = "".join(f"{v:11.3f}" for v in q.mean(axis=0))
    print(f"{name:<14}{cells}{totals.mean():9.3f}")
