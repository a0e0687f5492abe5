"""Walk one noisy channel through the cleaning stages.

Generates a short synthetic stream, injects a spike and a dropout into one
acceleration channel, then shows what each stage (outlier removal, Newton
fill, adaptive smoothing) does to it.  A channel is plain arrays: the
values, their sample positions and a known/missing mask.

Run: python demos/01_signal_cleaning.py
"""

import numpy as np

from strokesense.preprocessing import (
    adaptive_filter,
    diff_stats,
    newton_fill,
    preprocess_channel,
    remove_outliers,
)

rng = np.random.default_rng(0)

# A plausible stroke-ish waveform with measurement noise.
t = np.arange(300) * 0.01
clean = 8.0 * np.sin(2 * np.pi * t / 2.0) ** 2 * np.sin(2 * np.pi * t)
noisy = clean + rng.normal(scale=0.8, size=t.size)

# Corrupt it: one transmission spike, one dropped sample.
noisy[120] += 40.0
present = np.ones(t.size, dtype=bool)
present[200] = False

print(f"input: {t.size} samples, 1 spike at i=120, 1 gap at i=200")

# Stage 1: the gap must be filled before difference statistics make sense.
filled = newton_fill(noisy, t, present)
ex, sigma = diff_stats(filled)
print(f"first-difference stats: mean={ex:+.4f}, std={sigma:.4f}")

# Stage 2: the 3-sigma rule on first differences finds the spike.
flagged = remove_outliers(filled)
removed = np.flatnonzero(~flagged)
print(f"3-sigma rule removed sample(s) at {removed.tolist()}")

# Stage 3: refill the hole the outlier rule punched, using the cubic
# Newton interpolant on the four nearest known samples.
refilled = newton_fill(filled, t, flagged)
err = abs(refilled[120] - clean[120])
print(f"interpolated replacement at i=120 is within {err:.3f} of the truth")

# Stage 4: adaptive smoothing - strong smoothing for small corrections,
# backing off when the correction would be large (a real transient).
smoothed = adaptive_filter(refilled, k0=0.6)
resid_before = np.sqrt(np.mean((refilled - clean) ** 2))
resid_after = np.sqrt(np.mean((smoothed - clean) ** 2))
print(f"rms error vs truth: {resid_before:.4f} raw -> {resid_after:.4f} smoothed")

# Or do all of it in one call.
result = preprocess_channel(noisy, t, present)
print(f"preprocess_channel end-to-end: {len(result)} samples, gap-free")
