"""Tests of the benchmark's own tracing and result format.

Run from the root of a source checkout:

    python3 -m pytest -q bench/tests

The traced runs make these tests take a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer, metric_specs  # noqa: E402

# The workload each wrapped function does its work in (README.md, "Which
# layer moves which metric").  parse_rep and get_table run in set-up.
WORKS_IN = {
    "gfp-ss": (
        "exact.rref", "exact.right_kernel", "exact.solve_linear", "exact.spin",
        "exact.charpoly", "reps.enveloping_basis", "reps.factor_poly",
        "reps.find_submodule", "reps.is_semisimple", "reps.composition_series",
        "reps.IrreducibleWitness.verify", "reps.SemisimpleCertificate.verify",
        "flags.c_lambda", "flags.flag_to_cocharacter", "pipeline.semisimplify",
        "pipeline.is_gcr_over_k", "pipeline.conjugacy_certificate",
        "pipeline.SsResult.verify", "pipeline.ConjugacyCertificate.verify",
    ),
    "qq-ss": (
        "exact.rref", "exact.solve_linear", "exact.solve_conjugating",
        "reps.enveloping_basis", "reps.factor_poly", "reps.find_submodule",
        "reps.module_iso", "flags.c_lambda",
    ),
    "oracle-small": (
        "exact.solve_conjugating", "reps.module_iso", "flags.c_lambda",
        "pipeline.optimal_flag", "pipeline.clifford_joint_ss",
        "oracle.preserved_flags", "oracle.OrbitIndex.orbit_id",
        "oracle.OrbitIndex.orbit_members",
    ),
}
SET_UP = ("repfile.parse_rep", "oracle.get_table")
COUNT_UNITS = ("count", "1")


def test_map_names_every_wrapped_function():
    listed = {key for keys in WORKS_IN.values() for key in keys} | set(SET_UP)
    assert listed == {f"{m}.{q}" for m, q in TARGETS}


def test_benchmark_json_lists_the_traced_metrics():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == metric_specs()


def test_patches_every_namespace_and_restores_them():
    import ssred
    import ssred.exact
    import ssred.pipeline
    import ssred.reps
    from ssred.reps import IrreducibleWitness

    spin = ssred.exact.spin
    verify = IrreducibleWitness.__dict__["verify"]
    tracer = Tracer()
    tracer.install()
    try:
        assert ssred.exact.spin is not spin
        assert ssred.reps.spin is ssred.exact.spin
        assert ssred.pipeline.spin is ssred.exact.spin
        assert workloads.semisimplify is ssred.pipeline.semisimplify
        assert ssred.semisimplify is ssred.pipeline.semisimplify
        assert IrreducibleWitness.__dict__["verify"] is not verify
    finally:
        tracer.uninstall()
    assert ssred.exact.spin is spin and ssred.reps.spin is spin
    assert IrreducibleWitness.__dict__["verify"] is verify


def test_recursion_is_timed_once_and_self_time_excludes_children():
    jobs = workloads.round_trip(workloads.generate("qq-ss", 0))[:1]
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_pass(workloads.Recorder(), jobs)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["reps.is_semisimple.calls"] > m["pipeline.is_gcr_over_k.calls"]
    for module, qualname in TARGETS:
        key = f"{module}.{qualname}"
        assert 0 <= m[f"{key}.self_s"] <= m[f"{key}.total_s"] + 1e-9
    assert m["reps.is_semisimple.total_s"] <= sum(
        m[f"pipeline.{f}.total_s"] for f in ("semisimplify", "is_gcr_over_k"))


@pytest.mark.parametrize("name", sorted(WORKS_IN))
def test_each_function_works_in_its_workload(name):
    tracer = Tracer()
    tracer.install()
    try:
        jobs, problems = run.set_up(workloads, name, 3)
    finally:
        tracer.uninstall()
    assert not problems
    setup_calls = tracer.metrics()
    for key in SET_UP:
        if key == "repfile.parse_rep" or name == "oracle-small":
            assert setup_calls[f"{key}.calls"] > 0, key
    tracer = Tracer()
    tracer.install()
    rec = workloads.Recorder()
    try:
        workloads.run_pass(rec, jobs)
    finally:
        tracer.uninstall()
    assert not rec.wrong and rec.failed == 0
    calls = tracer.metrics()
    missing = [key for key in WORKS_IN[name] if calls[f"{key}.calls"] == 0]
    assert not missing


def _traced_counts(name, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = {spec[0]: spec[1] for spec in metric_specs()}
    assert set(result["metrics"]) == set(units)
    return {k: v["value"] for k, v in result["metrics"].items() if units[k] in COUNT_UNITS}


@pytest.mark.parametrize("name", sorted(WORKS_IN))
def test_two_traced_runs_report_identical_counts(name):
    first = _traced_counts(name, 5)
    assert first["exact.rref.cells"] > 0
    assert first == _traced_counts(name, 5)


def test_tail_percentile_comes_from_one_pass():
    one_pass = [float(i) for i in range(100)]
    assert run.tail_latency(one_pass, 100) == (89.0, 90.0)
    assert run.tail_latency(one_pass * 3, 100) == (89.0, 90.0)


def test_fails_without_the_program_sources():
    # a checkout that holds only BENCHMARK.json and bench/, kept inside the
    # repository so the test writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".bare-", dir=BENCH) as bare:
        bare = Path(bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".bare-*"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "qq-ss", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
