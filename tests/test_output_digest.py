"""Same outputs, pinned: one seed-1 and one seed-7 pass of each benchmark
workload, every public output serialized canonically and hashed.

The batches and their call sequences come from `bench/workloads.py`,
imported read-only.  Every public call of the pass is recorded with its
output (verdicts, flags, weights, ss generators, certificates with their
summands and witnesses, conjugating matrices, `optimal_flag` reports,
oracle verdicts and accessible closed orbit ids), every `verify()` with
its outcome, and every composition series that `semisimplify` builds.
An object is serialized through its slots, recursively, and a set is
sorted, so a record says what the program returned and nothing about
where it lives in memory.

A refactor must leave the digests unchanged; a change of outputs on
purpose updates them and says which records changed.  When a digest
differs, find the first record that changed with, from the root of
each checkout,

    PYTHONPATH=src python tests/test_output_digest.py dump gfp-ss new.json [SEED]
    (the same in a checkout of the parent, into old.json)
    PYTHONPATH=src python tests/test_output_digest.py diff old.json new.json
"""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ssred.pipeline
from ssred.exact import Field

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEED = 1
# seed 7 gives a second, shuffled batch of recursions
DIGESTS = {
    1: {
        "gfp-ss": "c687e7e9a19e29635812beaa7fb5f10b41807f378cf115dae0cdf8130ec5faa8",
        "oracle-small": "75a36a8e02387817268b13adc6f9eef7b9526edc78ee1f4c519f9ab5d6979148",
        "qq-ss": "ad3f56d6e3a5d5549dd735937bd0f4f5e24e3daacf918a2013c5237d7bc14a40",
    },
    7: {
        "gfp-ss": "a7e70ee99aacc6c24fc8b48fcacb8f7f07e616f02878ca4c8fa0fe031ef1dddb",
        "oracle-small": "0965d36e9804c36694cc6d9d509373e4c41890ad2a42821f7754d05e8ac1ee1d",
        "qq-ss": "a81f4a28373dbe90d537b731f125922bc8496b454c10f506240b5f5609a10956",
    },
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical(x):
    """x as JSON-ready data: exact scalars as ints or strings, sequences
    as lists, sets sorted, and any other object as its type name and its
    public slots."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Field):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canonical(v) for v in x), key=_dumps)
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())
             if not s.startswith("_")]
    if not slots:
        raise TypeError(f"no canonical form for {type(x).__name__}")
    return {"type": type(x).__name__, **{s: canonical(getattr(x, s)) for s in slots}}


def records(workload: str, seed: int = SEED) -> list:
    """The canonical records of one pass of the workload, in call order."""
    wl = _load_workloads()
    out = []

    class Recording(wl.Recorder):
        def call(self, name, fn, *args, **kwargs):
            failed = self.failed
            result = super().call(name, fn, *args, **kwargs)
            out.append({"call": name, "failed": self.failed > failed,
                        "out": canonical(result)})
            return result

        def verify(self, label, fn, *args):
            wrong = len(self.wrong)
            super().verify(label, fn, *args)
            out.append({"verify": label, "ok": len(self.wrong) == wrong})

    real_series = ssred.pipeline.composition_series

    def recorded_series(*args, **kwargs):
        series = real_series(*args, **kwargs)
        out.append({"series": canonical(series)})
        return series

    jobs = wl.round_trip(wl.generate(workload, seed))
    indexes = wl.fresh_indexes(jobs)
    rec = Recording()
    ssred.pipeline.composition_series = recorded_series
    try:
        for job in jobs:
            out.append({"job": job.label})
            if job.kind == "ss":
                wl.run_ss_job(rec, job)
            elif job.kind == "oracle":
                wl.run_oracle_job(rec, job, indexes)
            else:
                wl.run_clifford_job(rec, job)
    finally:
        ssred.pipeline.composition_series = real_series
    out.append({"errors": dict(sorted(rec.errors.items())), "wrong": len(rec.wrong)})
    return out


def digest(recs) -> str:
    return hashlib.sha256("\n".join(map(_dumps, recs)).encode()).hexdigest()


def first_difference(old, new) -> str | None:
    """The first record that differs between two record lists, with the
    job it belongs to, or None when they are equal."""
    job = None
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return f"record {i} (job {job!r}):\n  old {_dumps(a)}\n  new {_dumps(b)}"
        job = a.get("job", job)
    if len(old) != len(new):
        return f"{len(old)} records against {len(new)}"
    return None


@pytest.mark.parametrize("workload, seed", [
    pytest.param(w, seed, id=w if seed == SEED else f"{w}-seed{seed}")
    for seed, pinned in DIGESTS.items() for w in sorted(pinned)])
def test_outputs_match_the_pinned_digest(workload, seed):
    recs = records(workload, seed)
    assert recs[-1] == {"errors": {}, "wrong": 0}
    assert digest(recs) == DIGESTS[seed][workload], (
        f"the outputs of a seed-{seed} {workload} pass changed; see this file's "
        "docstring for the first record that differs")


def test_first_difference_names_the_record_and_its_job():
    old = [{"job": "a"}, {"call": "f", "out": 1}, {"job": "b"}, {"call": "f", "out": 2}]
    new = old[:3] + [{"call": "f", "out": 3}]
    assert "record 3 (job 'b')" in first_difference(old, new)
    assert first_difference(old, old) is None
    assert first_difference(old, old[:2]) == "4 records against 2"


def test_canonical_form_sorts_sets_and_reads_slots():
    from ssred.exact import Matrix

    m = Matrix(Field.prime(3), [[1, 2], [0, 1]])
    assert canonical(m) == {"type": "Matrix", "field": "GF(3)", "nrows": 2, "ncols": 2,
                            "entries": [[1, 2], [0, 1]]}
    assert canonical(frozenset({(2, 1), (1, 2)})) == [[1, 2], [2, 1]]
    assert canonical(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(TypeError):
        canonical(object())


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) in (4, 5):
        seed = int(sys.argv[4]) if len(sys.argv) == 5 else SEED
        Path(sys.argv[3]).write_text(json.dumps(records(sys.argv[2], seed)), encoding="utf-8")
    elif sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        old, new = (json.loads(Path(a).read_text(encoding="utf-8")) for a in sys.argv[2:])
        print(first_difference(old, new) or "same records")
    else:
        sys.exit("usage: test_output_digest.py dump WORKLOAD OUT.json [SEED]"
                 " | diff OLD.json NEW.json")
