"""End-to-end and per-layer benchmark of ssred.

Run from the root of a source checkout:

    python3 bench/run.py --workload gfp-ss --seed 1 --seconds 20 --trace 0

One process, one caller, one call at a time (a closed loop).  Set-up
draws the workload's inputs from the seed, passes them through the
representation-file format and builds the oracle's group tables.  The
timed phase then runs whole passes over the fixed batch until --seconds
have elapsed, timing every public call from outside and every verify()
separately, and checking every output.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics.  With --trace 1 the public functions of each
module are wrapped (see tracing.py) and the last line carries the
per-layer metrics of set-up plus one pass.  The line before it holds
context fields that are not gated.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("gfp-ss", "qq-ss", "oracle-small")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run set-up and exit; used to sample setup_s")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's own src/ first on the path and import from it."""
    if not (SRC / "ssred" / "__init__.py").is_file():
        sys.exit(f"bench: no ssred sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: F401  (imports ssred and sympy)
    return workloads


def set_up(workloads, name, seed):
    """Inputs of the workload after the repfile round-trip, tables built.

    Also runs the fixed smoke inputs through every layer and returns the
    check failures it found, so a broken program shows before timing.
    """
    from ssred.exact import Field
    from ssred.oracle import get_table

    jobs = workloads.round_trip(workloads.generate(name, seed))
    smoke = workloads.smoke_jobs()
    for p, n in workloads.oracle_fields(jobs + smoke):
        get_table(Field.prime(p), n)
    rec = workloads.Recorder()
    workloads.run_pass(rec, smoke)
    problems = rec.wrong + [f"smoke {k} x{v}" for k, v in rec.errors.items()]
    return jobs, problems


def sample_setup(args):
    """Wall time of SETUP_SAMPLES fresh processes that only run set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"bench: set-up sample failed:\n{done.stderr}")
    return times


def tail_latency(latencies, per_pass):
    """(value, percentile) at the highest percentile of one pass that has
    TAIL_BEYOND samples above it.

    The percentile comes from the number of calls in one pass, the fixed
    batch, and is read off the calls of all passes together; so it does
    not move with the number of passes a run fits in.
    """
    ordered = sorted(latencies)
    keep = max(per_pass - TAIL_BEYOND, 1)
    idx = -(-keep * len(ordered) // per_pass) - 1  # ceil in integers
    return ordered[idx], 100.0 * keep / per_pass


def timed_passes(workloads, jobs, seconds):
    """Whole passes over the batch until `seconds` of wall time have gone."""
    recs = []
    start = time.perf_counter()
    while not recs or time.perf_counter() - start < seconds:
        rec = workloads.Recorder()
        workloads.run_pass(rec, jobs)
        recs.append(rec)
    return recs, time.perf_counter() - start


def context_fields(args, extra):
    import sympy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "ssred").glob("*.py")))
    raw_mb = os.environ.get("SSRED_MAX_MEMORY_MB")
    ctx = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_ssred_lines": src_lines,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # the oracle's orbit cache reads this variable and defaults to 512
        "ssred_max_memory_mb": int(raw_mb) if raw_mb is not None else 512,
    }
    ctx.update(extra)
    return ctx


def run_untraced(args, workloads):
    setup_times = sample_setup(args)
    jobs, problems = set_up(workloads, args.workload, args.seed)
    recs, wall = timed_passes(workloads, jobs, args.seconds)

    latencies = [x for r in recs for x in r.latencies]
    verify_total = sum(r.verify_s for r in recs)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    for r in recs:
        problems += r.wrong
    tail, tail_pct = tail_latency(latencies, len(recs[0].latencies))
    extra = {
        "setup_samples_s": setup_times,
        "jobs_per_pass": len(jobs),
        "passes": len(recs),
        "timed_wall_s": wall,
        "op_samples": len(latencies),
        "op_samples_per_pass": len(recs[0].latencies),
        "op_tail_percentile": tail_pct,
        "errors": dict(sum((r.errors for r in recs), Counter())),
        "per_op_p50_ms": per_op_medians(recs),
    }
    if args.workload == "qq-ss":
        probe = workloads.known_defect_probe()
        problems += probe.pop("wrong")
        extra["known_defect_q8_on_h"] = probe
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / (wall - verify_total), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "verify_s": (statistics.median(r.verify_s for r in recs), "s"),
        "ok_ratio": (1 - failed / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed, problems, extra


def per_op_medians(recs):
    by_op = {}
    for r in recs:
        for name, t in zip(r.op_names, r.latencies):
            by_op.setdefault(name, []).append(t)
    return {name: 1000 * statistics.median(ts) for name, ts in sorted(by_op.items())}


def run_traced(args, workloads):
    from tracing import Tracer, metric_specs

    tracer = Tracer()
    tracer.install()
    try:
        jobs, problems = set_up(workloads, args.workload, args.seed)
    finally:
        tracer.uninstall()
    plain = workloads.Recorder()
    start = time.perf_counter()
    workloads.run_pass(plain, jobs)
    untraced_wall = time.perf_counter() - start

    traced = workloads.Recorder()
    tracer.install()
    try:
        start = time.perf_counter()
        workloads.run_pass(traced, jobs)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    problems += plain.wrong + traced.wrong
    values = tracer.metrics()
    metrics = {name: (values[name], unit) for name, unit, _ in metric_specs()}
    extra = {
        "jobs_per_pass": len(jobs),
        "untraced_pass_s": untraced_wall,
        "traced_pass_s": traced_wall,
        "tracing_overhead_s": traced_wall - untraced_wall,
        "orbit_cache_hit_ratio_base": values["oracle.OrbitIndex.orbit_id.calls"],
    }
    return metrics, traced.attempted, traced.failed, problems, extra


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    workloads = import_program()
    if args.setup_only:
        set_up(workloads, args.workload, args.seed)
        return 0
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, problems, extra = runner(args, workloads)
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    extra["problems"] = len(problems)
    print(json.dumps({"context": context_fields(args, extra)}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
