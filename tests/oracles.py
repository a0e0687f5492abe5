"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written as straight-line loops over the
defining formulas, sharing no code with the library paths it checks.  The
gap fill and the CSV parser and writer keep their first,
one-sample-at-a-time implementations, and the window statistics (features, activation markers,
scoring indicators) their first one-window, one-channel-at-a-time numpy
implementations, so the faster library paths can be held to them bit for
bit.  The skill scorer keeps its first scalar, one-indicator-at-a-time
form over plain per-indicator dicts.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import minimize

from strokesense.errors import StrokeSenseError


def brute_diff_stats(values):
    """Two-pass mean/std of first differences, plain loops."""
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    ex = sum(diffs) / len(diffs)
    var = sum((d - ex) ** 2 for d in diffs) / len(diffs)
    return ex, math.sqrt(var)


def brute_outlier_flags(values):
    """Indices removed by the 3-sigma first-difference rule (the flagged
    sample is the one following an abnormal difference)."""
    ex, sigma = brute_diff_stats(values)
    if sigma < 1e-12 * max(1.0, abs(ex)):
        return set()
    flagged = set()
    for i in range(len(values) - 1):
        d = values[i + 1] - values[i]
        if not (ex - 3 * sigma < d < ex + 3 * sigma):
            flagged.add(i + 1)
    return flagged


def lagrange_eval(xs, ys, x):
    """Lagrange form of the interpolating polynomial on the given nodes."""
    total = 0.0
    for i in range(len(xs)):
        term = ys[i]
        for j in range(len(xs)):
            if j != i:
                term *= (x - xs[j]) / (xs[i] - xs[j])
        total += term
    return total


def reference_adaptive_filter(x, k0, delta_a):
    """Scalar re-implementation of the adaptive smoother recurrence."""
    y = [x[0]]
    for n in range(1, len(x)):
        provisional = k0 * x[n] + (1 - k0) * y[-1]
        delta = provisional - y[-1]
        if abs(delta) > delta_a:
            m = (1 - delta_a / abs(delta)) * k0
            m = min(max(m, 0.0), k0)
        else:
            m = 0.0
        y.append(m * x[n] + (1 - m) * y[-1])
    return np.array(y)


def naive_channel_stats(x, pair):
    """The 15 per-channel statistics computed formula by formula."""
    n = len(x)
    mean = sum(x) / n
    variance = sum((v - mean) ** 2 for v in x) / n
    x_max, x_min = max(x), min(x)
    pv = x_max - x_min
    mean_square = sum(v * v for v in x) / n
    rms = math.sqrt(mean_square)
    mean_abs = sum(abs(v) for v in x) / n

    pmean = sum(pair) / n
    cov = sum((a - mean) * (b - pmean) for a, b in zip(x, pair)) / n
    sx = math.sqrt(variance)
    sp = math.sqrt(sum((b - pmean) ** 2 for b in pair) / n)

    def ratio(num, den):
        return 0.0 if abs(den) < 1e-12 else num / den

    corr = ratio(cov, sx * sp)
    crest = ratio(pv, rms)
    pulse = ratio(pv, mean_abs)
    margin = ratio(pv, (sum(math.sqrt(abs(v)) for v in x) / n) ** 2)
    kurtosis_factor = ratio(sum(v**4 for v in x) / n, rms)
    waveform = ratio(rms, mean_abs)
    skewness = ratio(sum((v - mean) ** 3 for v in x) / n, variance**1.5)
    kurt = ratio(sum((v - mean) ** 4 for v in x) / n, variance**2)
    kurtosis = kurt - 3.0 if kurt != 0.0 else 0.0
    return [
        mean,
        variance,
        x_max,
        x_min,
        pv,
        mean_square,
        rms,
        corr,
        crest,
        pulse,
        margin,
        kurtosis_factor,
        waveform,
        skewness,
        kurtosis,
    ]


def jacobi_eigh(A, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi rotations for a symmetric matrix; returns
    (eigenvalues desc, eigenvectors as columns)."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(A[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol * max(1.0, np.abs(np.diag(A)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + math.sqrt(theta**2 + 1))
                if theta == 0:
                    t = 1.0
                c = 1 / math.sqrt(t**2 + 1)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    order = np.argsort(np.diag(A))[::-1]
    return np.diag(A)[order], V[:, order]


def naive_forward(weights, biases, x):
    """Layer-by-layer MLP forward pass with explicit loops."""
    h = list(x)
    for layer in range(len(weights)):
        w, b = weights[layer], biases[layer]
        out = []
        for j in range(w.shape[1]):
            z = b[j] + sum(h[i] * w[i, j] for i in range(w.shape[0]))
            out.append(z)
        if layer < len(weights) - 1:
            h = [math.tanh(z) for z in out]
        else:
            mx = max(out)
            exps = [math.exp(z - mx) for z in out]
            total = sum(exps)
            h = [e / total for e in exps]
    return np.array(h)


def count_confusion(true, pred, n_classes=6):
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(true, pred):
        counts[t][p] += 1
    return np.array(counts)


def reference_newton_fill(values, positions, present, support=4):
    """Gap fill as first written: for every missing sample, a stable
    argsort of the distances to all samples known so far, the `support`
    nearest taken in index order, and the Newton divided-difference form
    evaluated by Horner's rule.  Returns the filled values."""
    values = np.array(values, dtype=float)
    positions = np.asarray(positions, dtype=float)
    known = np.array(present, dtype=bool)
    for j in np.nonzero(~known)[0]:
        avail = np.nonzero(known)[0]
        order = np.argsort(np.abs(positions[avail] - positions[j]), kind="stable")
        picked = np.sort(avail[order[:support]])
        xs, coeffs = positions[picked], values[picked].copy()
        n = len(xs)
        for k in range(1, n):
            for i in range(n - 1, k - 1, -1):
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
        result = coeffs[-1]
        for i in range(n - 2, -1, -1):
            result = result * (float(positions[j]) - xs[i]) + coeffs[i]
        values[j] = float(result)
        known[j] = True
    return values


def reference_parse_series(text):
    """The line-by-line CSV parser as first written.  Returns
    (t, channels, period) or raises the library's error for the first
    bad line (only the exception types are shared with the library)."""
    period = 0.01
    ts, rows = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("period="):
                try:
                    period = float(body.split("=", 1)[1])
                except ValueError:
                    raise StrokeSenseError(f"line {lineno}: bad period directive {line!r}")
            continue
        if line.replace(" ", "") == "t,ax,ay,az,gx,gy,gz,rx,ry,rz":
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise StrokeSenseError(f"line {lineno}: expected 10 fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise StrokeSenseError(f"line {lineno}: non-numeric field in {line!r}")
        if not all(math.isfinite(v) for v in values):
            raise StrokeSenseError(f"line {lineno}: non-finite value")
        ts.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise StrokeSenseError("no data rows in input")
    t = np.array(ts)
    if t.size > 1 and not (np.diff(t) > 0).all():
        raise StrokeSenseError("timestamps must be strictly increasing")
    return t, np.array(rows), period


def reference_serialize_series(series):
    """The CSV writer as first written: the period line, the header, then
    one ``repr`` per field, row by row."""
    lines = [f"# period={series.sample_period!r}", "t,ax,ay,az,gx,gy,gz,rx,ry,rz"]
    for t, row in zip(series.t.tolist(), series.channels.tolist()):
        lines.append(",".join(map(repr, [t, *row])))
    return "\n".join(lines) + "\n"


# --- window statistics as first written, one window at a time ---------------

#: Correlation partner per channel of the 12-channel feature layout.
REFERENCE_CORR_PARTNER = [1, 2, 0, 7, 5, 6, 4, 11, 9, 10, 8, 3]


def _reference_guarded(num, den):
    return 0.0 if abs(den) < 1e-12 else num / den


def reference_channel_stats(x, pair):
    """The 15 statistics of one channel as first written: one numpy
    reduction per statistic, ratios guarded on Python floats."""
    x = np.asarray(x, dtype=float)
    pair = np.asarray(pair, dtype=float)
    mean = float(x.mean())
    centered = x - mean
    variance = float(np.mean(centered**2))
    x_max, x_min = float(x.max()), float(x.min())
    pv = x_max - x_min
    mean_square = float(np.mean(x**2))
    rms = float(np.sqrt(mean_square))
    mean_abs = float(np.mean(np.abs(x)))

    pair_mean = pair.mean()
    cov = float(np.mean((x - mean) * (pair - pair_mean)))
    sig_x = float(np.sqrt(variance))
    sig_p = float(np.sqrt(np.mean((pair - pair_mean) ** 2)))
    corr = _reference_guarded(cov, sig_x * sig_p)

    crest = _reference_guarded(pv, rms)
    pulse = _reference_guarded(pv, mean_abs)
    margin = _reference_guarded(pv, float(np.mean(np.sqrt(np.abs(x)))) ** 2)
    kurtosis_factor = _reference_guarded(float(np.mean(x**4)), rms)
    waveform = _reference_guarded(rms, mean_abs)
    skewness = _reference_guarded(float(np.mean(centered**3)), variance**1.5)
    kurt_raw = _reference_guarded(float(np.mean(centered**4)), variance**2)
    kurtosis = kurt_raw - 3.0 if kurt_raw != 0.0 else 0.0
    return np.array([
        mean, variance, x_max, x_min, pv, mean_square, rms, corr, crest,
        pulse, margin, kurtosis_factor, waveform, skewness, kurtosis,
    ])


def reference_window_features(window):
    """The 180 features: magnitudes appended per sensor, then the 15
    statistics of each of the 12 channels of the (width, 12) array."""
    cols = []
    for block in (window.acc, window.gyro, window.angle):
        cols.append(block)
        cols.append(np.linalg.norm(block, axis=1)[:, None])
    chans = np.hstack(cols)
    return np.concatenate([
        reference_channel_stats(chans[:, ci], chans[:, REFERENCE_CORR_PARTNER[ci]])
        for ci in range(12)
    ])


def reference_activation_features(window):
    """Mean, variance and peak-valley of the acc and gyro magnitudes."""
    out = np.empty(6)
    for k, block in enumerate((window.acc, window.gyro)):
        mag = np.linalg.norm(block, axis=1)
        out[3 * k : 3 * k + 3] = (mag.mean(), mag.var(), mag.max() - mag.min())
    return out


def _reference_direction_angles(vec):
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return np.full(3, 90.0)
    return np.degrees(np.arccos(np.clip(vec / norm, -1.0, 1.0)))


def reference_indicator_values(window):
    """The 15 scoring indicators of one window."""
    acc = window.acc - window.acc.mean(axis=0)
    v = cumulative_trapezoid(acc, dx=window.sample_period, axis=0, initial=0.0)
    return np.concatenate([
        np.abs(window.acc).mean(axis=0),
        _reference_direction_angles(window.acc.mean(axis=0)),
        np.abs(v).mean(axis=0),
        _reference_direction_angles(v.mean(axis=0)),
        window.angle.mean(axis=0),
    ])


def reference_profile_specs(values):
    """Per-indicator reference statistics as first pooled, one column of
    an (m, 15) indicator matrix at a time: (center, up, down, lo, hi, k)."""
    specs = []
    for i in range(values.shape[1]):
        col = values[:, i]
        center = float(col.mean())
        up, down = float(col.max()), float(col.min())
        eps = 1e-6 * max(1.0, abs(center))
        if up - down < eps:
            up, down = center + eps, center - eps
        lo, hi = float(np.percentile(col, 5)), float(np.percentile(col, 95))
        k = max(float(col.std()), eps)
        specs.append((center, up, down, lo, hi, k))
    return specs


REFERENCE_LEVEL_KINDS = ["maximal", "interval", "maximal", "interval", "interval"]


def reference_indicator_dicts(values):
    """The 15 per-indicator dicts a profile was first stored as, from an
    (m, 15) indicator matrix: the level's kind, the pooled statistics and
    k1 = k2 = k."""
    return [
        {"kind": REFERENCE_LEVEL_KINDS[i // 3], "center": center, "up": up, "down": down,
         "lo": lo, "hi": hi, "k1": k, "k2": k}
        for i, (center, up, down, lo, hi, k) in enumerate(reference_profile_specs(values))
    ]


def reference_level_scores(values, specs):
    """Five level scores of a (15,) indicator vector against 15
    per-indicator dicts, scored one scalar indicator at a time as first
    written: a logistic map for maximal indicators, 1 inside [lo, hi] and
    exponential decay outside it for interval ones; each level the mean of
    its three axes."""
    q = np.empty(5)
    for level in range(5):
        scores = []
        for axis in range(3):
            i = 3 * level + axis
            spec, value = specs[i], values[i]
            if spec["kind"] == "maximal":
                span = spec["up"] - spec["down"]
                scores.append(1.0 - 1.0 / (1.0 + np.exp((value - spec["center"]) / span)))
            elif spec["lo"] <= value <= spec["hi"]:
                scores.append(1.0)
            else:
                if value < spec["lo"]:
                    d_over_k = (spec["lo"] - value) / spec["k1"]
                else:
                    d_over_k = (value - spec["hi"]) / spec["k2"]
                scores.append(float(np.exp(-d_over_k)))
        q[level] = np.mean(scores)
    return q


def reference_svm_dual(K, y, c):
    """The soft-margin SVM dual solved by a general-purpose optimizer:
    minimize 1/2 a'Qa - e'a, Q_ij = y_i y_j K_ij, over 0 <= a <= c with
    a'y = 0, by scipy's SLSQP.  Returns (alphas, objective)."""
    y = np.asarray(y, dtype=float)
    Q = np.outer(y, y) * K
    result = minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(len(y)),
        jac=lambda a: Q @ a - 1.0,
        method="SLSQP",
        bounds=[(0.0, c)] * len(y),
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    return result.x, float(result.fun)
