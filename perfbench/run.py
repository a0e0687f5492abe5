"""Benchmark of the strokesense pipeline: one workload per process, closed
loop with one client.

    python3 perfbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets the workload up ``SETUP_REPEATS`` times, runs one untimed warm-up
job, then runs and checks jobs until ``--seconds`` have passed.  It prints
a short report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The full result, with the environment, every job's time, counts and
output digest, and in a traced run every span, is written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# One BLAS thread: never more than nproc, and no contention with the
# single client's own core.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# job_tail_s is the highest percentile with this many jobs beyond it,
# never below the median.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "samples_per_s": "1/s",
    "dag_accuracy": "ratio",
    "mlp_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = [
    "io.parse", "io.serialize", "preprocessing.preprocess_series",
    "windows.slide", "windows.gate", "windows.train_activation",
    "features.feature_matrix", "pca.fit", "pca.transform",
    "svm.train_dagsvm", "svm.dag_predict", "mlp.train", "mlp.predict",
    "scoring.build_profile", "scoring.score", "metrics.report",
    "cli.synth", "cli.preprocess", "cli.segment", "cli.extract", "cli.fit-pca",
    "cli.train-dagsvm", "cli.train-mlp", "cli.predict", "cli.report",
    "cli.evaluate-build", "cli.evaluate-score",
]
COUNTS = [
    "io.rows", "io.bytes", "preprocessing.rows_restored", "windows.cut",
    "windows.kept", "features.windows", "pca.k", "svm.support_vectors",
    "svm.decisions", "mlp.epochs", "scoring.windows_scored",
]

PER_LAYER = {
    **{layer + "_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTS},
    "windows.kept_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


@dataclass
class Job:
    index: int  # 0 is the warm-up
    traced: bool
    seconds: Optional[float] = None
    checked: object = None  # workloads.Checked, None if the job failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["session", "train", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--strokes-per-class", type=int, default=20,
                   help="corpus size; the smoke test uses a tiny one")
    return p.parse_args(argv)


def tail(times):
    """(value, percentile) of the highest rank with TAIL_BEYOND jobs
    beyond it, never below the median rank."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def ratio(tallies, model):
    correct = sum(t[model][0] for t in tallies)
    total = sum(t[model][1] for t in tallies)
    return correct / total if total else 0.0


def end_to_end(setup_times, timed):
    times = [job.seconds for job in timed]
    checked = [job.checked for job in timed]
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(setup_times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "samples_per_s": sum(c.rows for c in checked) / sum(times),
        "dag_accuracy": ratio([c.tallies for c in checked], "dag"),
        "mlp_accuracy": ratio([c.tallies for c in checked], "mlp"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, timed):
    """Median self time per layer over the traced jobs that call it, or
    over the set-ups for layers that only set-up calls; counts from the
    first timed job; tracing overhead and uncovered job time."""
    selfs = tracer.self_times()
    traced = [("job", job.index) for job in timed if job.traced]
    setups = [("setup", k) for k in range(SETUP_REPEATS)]
    out = {}
    for layer in LAYERS:
        values = [selfs[u][layer] for u in traced if layer in selfs[u]] or [
            selfs[u][layer] for u in setups if layer in selfs[u]
        ]
        out[layer + "_s"] = statistics.median(values) if values else 0.0
    counts = timed[0].checked.counts
    for name in COUNTS + ["windows.kept_ratio"]:
        out[name] = counts.get(name, 0)
    traced_times = [job.seconds for job in timed if job.traced]
    untraced_times = [job.seconds for job in timed if not job.traced]
    out["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    out["trace.uncovered_s"] = statistics.median(selfs[u]["job"] for u in traced)
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "strokesense" / "__init__.py").is_file():
        print(f"error: strokesense sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    from spans import Tracer
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, Tracer(bool(args.trace)), WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tracer, workload_cls, workdir):
    origin = time.perf_counter()
    wl = workload_cls(args.seed, args.strokes_per_class, tracer, workdir)
    setup_times = []
    for k in range(SETUP_REPEATS):
        tracer.begin(("setup", k), tracer.enabled)
        t0 = time.perf_counter()
        wl.setup(k)
        setup_times.append(time.perf_counter() - t0)

    def run_job(index, traced):
        job = Job(index, traced)
        inp = wl.make_input(index)
        tracer.begin(("job", index), traced)
        try:
            t0 = time.perf_counter()
            with tracer.span("job"):
                out = wl.run(inp)
            job.seconds = time.perf_counter() - t0
            tracer.begin(None, False)
            job.checked = wl.check(inp, out)
        except Exception:  # a failed job is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
        tracer.begin(None, False)
        return job

    # The traced run alternates traced and untraced jobs to measure the
    # tracing overhead, so it needs at least two timed jobs.
    warmup = run_job(0, False)
    min_jobs = 2 if tracer.enabled else 1
    jobs = []
    deadline = time.perf_counter() + args.seconds
    while len(jobs) < min_jobs or time.perf_counter() < deadline:
        index = len(jobs) + 1
        jobs.append(run_job(index, tracer.enabled and index % 2 == 1))

    attempted = [warmup] + jobs
    failed = sum(job.checked is None for job in attempted)
    timed = [job for job in jobs if job.checked is not None]
    result = {"correct": failed == 0, "attempted": len(attempted), "failed": failed}
    names = PER_LAYER if tracer.enabled else END_TO_END
    if timed and (not tracer.enabled or len({job.traced for job in timed}) == 2):
        values = per_layer(tracer, timed) if tracer.enabled else end_to_end(setup_times, timed)
        result["metrics"] = {name: {"value": values[name], "unit": names[name]} for name in names}
    else:
        result["correct"] = False
        result["metrics"] = {}

    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    times = [job.seconds for job in timed]
    tail_at = tail(times)[1] if times else None
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "strokes_per_class": args.strokes_per_class,
        "env": environment(),
        "setup_times": setup_times,
        "tail_percentile": tail_at,
        "failed_ratio": failed / len(attempted),
        "jobs": [
            {
                "job": job.index,
                "traced": job.traced,
                "seconds": job.seconds,
                "rows": job.checked and job.checked.rows,
                "digest": job.checked and job.checked.digest,
                "counts": job.checked and job.checked.counts,
                "tallies": job.checked and job.checked.tallies,
            }
            for job in attempted
        ],
        **result,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer.enabled:
        tracer.write(stem.with_suffix(".spans.jsonl"), origin)

    env = detail["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  blas threads {BLAS_THREADS}")
    print(f"jobs {len(jobs)} timed + 1 warm-up, failed {failed} of {len(attempted)} "
          f"(failed_ratio {detail['failed_ratio']:.4f})")
    if times:
        print(f"job_tail_s is p{tail_at:.0f} of {len(times)} timed jobs; "
              f"first job digest {timed[0].checked.digest}")
    print(f"details in {stem.with_suffix('.json').relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
