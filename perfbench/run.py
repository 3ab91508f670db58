"""quickmatch benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload central-2d --seed 1 --seconds 35 --trace 0

Set-up generates the workload's dataset from ``--seed`` with
``quickmatch generate`` and runs a small warm-up job. The measured part then
runs jobs back to back for ``--seconds``: the matching command followed by
``eval --mode compare --truth``, through ``quickmatch.cli.main`` in this
process. Every job is checked; one failed check makes the run fail.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates each
untraced CLI job with a traced replay of it through the public functions of
each module and reports the per-layer metrics, writing the spans to
``.perfbench_out/``. The last line of standard output is one JSON object;
the lines before it repeat the figures for a reader. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported, and keep QM_*
# overrides in the caller's environment from changing CLI defaults.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [k for k in os.environ if k.startswith("QM_")]:
    del os.environ[_var]

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "features_per_s": "features/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MiB",
    "f1_truth_min": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def set_up(w, wl, seed: int, work: Path):
    """Generate the datasets and run the warm-up job, ``SETUP_REPEATS`` times;
    returns the datasets and the median repeat time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        datasets = [
            wl.generate(w, w.entities, wl.data_seed(w.name, seed, k), work / f"data{k}") for k in range(w.datasets)
        ]
        warm = wl.generate(w, w.warmup_entities, wl.data_seed(w.name, seed, -1), work / "warm")
        warm_job = wl.cli_job(w, warm, work / "warm" / "clusters.json", wl.Consistency())
        if warm_job.problems:
            raise RuntimeError(f"warm-up job failed: {warm_job.problems}")
        times.append(time.perf_counter() - t0)
    return datasets, statistics.median(times)


def loop(seconds: float, step) -> None:
    """Call ``step`` back to back while the next call is expected to end
    within ``seconds``; always at least once."""
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)


def end_to_end(results, n: int, setup_s: float) -> tuple[dict, dict]:
    walls = [r.wall_s for r in results]
    f1 = [r.f1_truth for r in results if not math.isnan(r.f1_truth)]
    metrics = {
        "setup_s": setup_s,
        "features_per_s": n * len(walls) / sum(walls),
        "job_s_p50": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "f1_truth_min": min(f1, default=0.0),
    }
    extra = {"job_samples": (len(walls), "jobs")}
    wires = [r.wire for r in results if r.wire]
    if wires:
        extra["wire_msgs_per_feature"] = (statistics.median(x["messages"] for x in wires) / n, "msg/feature")
        extra["wire_bytes_per_feature"] = (statistics.median(x["bytes"] for x in wires) / n, "B/feature computed")
    return metrics, extra


def main(argv=None, workloads=None) -> int:
    """Run one workload and print its result; ``workloads`` replaces the
    workload table, which the smoke test uses to run tiny sizes."""
    args = parse_args(argv)
    if not (SRC / "quickmatch" / "__init__.py").is_file():
        print(f"perfbench: no quickmatch package under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import replay
    import workloads as wl
    from quickmatch.centralized import MatchParams, quickmatch
    from quickmatch.core import load_clustering
    from spans import SpanRecorder

    import_s = time.perf_counter() - t0
    table = workloads or wl.WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    label = f"{w.name}-s{args.seed}-t{args.trace}"
    work = WORK / f"{label}-{os.getpid()}"
    try:
        datasets, setup_s = set_up(w, wl, args.seed, work)
        setup_s += import_s
        references = {}  # dataset index -> centralized clustering, for traced distributed jobs
        gates = [wl.Consistency() for _ in datasets]
        cli_out = work / "job" / "clusters.json"
        replay_out = work / "replay" / "clusters.json"
        cli_out.parent.mkdir()
        replay_out.parent.mkdir()
        cli_results, traced = [], []
        rec = SpanRecorder()

        def step(i: int) -> None:
            k = i % len(datasets)
            data, gate = datasets[k], gates[k]
            cli_results.append(wl.cli_job(w, data, cli_out, gate))
            if args.trace:
                # A distributed replay is compared with centralized matching on
                # the same file, a centralized one with the CLI job's output.
                ref = None
                if w.distributed:
                    if k not in references:
                        references[k] = quickmatch(data.fs, MatchParams(kernel=w.kernel))
                    ref = references[k]
                elif not cli_results[-1].problems:
                    ref = load_clustering(cli_out)
                gc.collect()
                rec.job = i
                result = replay.replay_job(w, data, replay_out, rec, gate, cli_results[-1].report, ref)
                traced.append((i, result, data, cli_results[-1].wall_s))

        loop(args.seconds, step)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = cli_results + [t[1] for t in traced]
    failures = [p for r in results for p in r.problems]
    env = environment()
    if args.trace:
        passed = [t for t in traced if not t[1].problems]
        metrics = replay.layer_metrics(rec, passed)
        units = replay.LAYER_UNITS
        extra = {"traced_jobs": (len(traced), "jobs")}
        rec.write(OUT / f"spans-{label}.json", {"workload": w.name, "seed": args.seed, "environment": env})
    else:
        metrics, extra = end_to_end(cli_results, datasets[0].n, setup_s)
        units = END_TO_END_UNITS
    failed = sum(1 for r in results if r.problems)
    extra["failed_share"] = (failed / len(results), "ratio")

    summary = {
        "correct": not failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "environment": env,
        "extra": extra,
        "job_walls_s": [r.wall_s for r in results],
        **summary,
    }
    (OUT / f"result-{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    features = f"{len(datasets)}x{datasets[0].n}"
    print(f"# quickmatch perfbench {label} features={features} " + " ".join(f"{k}={v}" for k, v in env.items()))
    rows = [(name, e["value"], e["unit"]) for name, e in summary["metrics"].items()]
    for name, value, unit in rows + [(name, value, unit) for name, (value, unit) in extra.items()]:
        print(f"{name:40s} {value:>14.6g} {unit}")
    for problem in failures:
        print(f"FAILED: {problem}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
