"""The benchmark tracer's timing rules, on a recursive function and on a
traced `qq-ss` job.

`bench/tracing.py` counts every call of a wrapped function but adds only
the outermost call of a recursion to its total time, and a call's self
time excludes the wrapped calls made inside it.  No wrapped `ssred`
function recurses through its own name, so a recursive stand-in is
wrapped under one of the traced names.
"""

import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import ssred.exact  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _countdown(k):
    """k nested calls through the module attribute, with the work at the
    innermost one, so timing every level would count it k + 1 times."""
    if k == 0:
        end = time.perf_counter() + 0.005
        while time.perf_counter() < end:
            pass
        return 0
    return 1 + ssred.exact.charpoly(k - 1)


def test_recursion_is_counted_per_call_and_timed_once(monkeypatch):
    monkeypatch.setattr(ssred.exact, "charpoly", _countdown)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert ssred.exact.charpoly(3) == 3
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert ssred.exact.charpoly is _countdown
    m = tracer.metrics()
    assert m["exact.charpoly.calls"] == 4
    assert 0.005 <= m["exact.charpoly.total_s"] <= wall
    # each level's self time is its duration less the next level's, so
    # they add up to the outermost call's duration
    assert math.isclose(m["exact.charpoly.self_s"], m["exact.charpoly.total_s"],
                        rel_tol=1e-9, abs_tol=1e-12)


def test_self_time_of_every_target_excludes_its_children():
    jobs = workloads.round_trip(workloads.generate("qq-ss", 0))[:1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_pass(workloads.Recorder(), jobs)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["pipeline.semisimplify.calls"] == 2 and m["reps.is_semisimple.calls"] >= 1
    for module, qualname in tracing.TARGETS:
        key = f"{module}.{qualname}"
        assert 0 <= m[f"{key}.self_s"] <= m[f"{key}.total_s"] + 1e-9, key
    assert m["reps.is_semisimple.total_s"] <= sum(
        m[f"pipeline.{f}.total_s"] for f in ("semisimplify", "is_gcr_over_k"))
