"""Seeded inputs and the call sequence each benchmark workload runs.

A workload is a fixed batch of jobs drawn from a seed.  Each job holds
inputs that went through `serialize_rep` and `parse_rep`, so the program
sees what the CLI would see, and a call sequence whose outputs are all
checked.  `Recorder` times each public call from outside and each
`verify()` separately.
"""

import itertools
import random
import time
import traceback
from collections import Counter

from ssred.errors import SsredError
from ssred.exact import Field, Matrix
from ssred.oracle import (
    OrbitIndex,
    accessible_closed_orbits,
    generic_tuple,
    get_table,
    oracle_gcr,
)
from ssred.pipeline import (
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    optimal_flag,
    semisimplify,
)
from ssred.repfile import parse_rep, serialize_rep
from ssred.reps import Representation

QQ = Field.rational()
F2, F3, F101, F65521 = (Field.prime(p) for p in (2, 3, 101, 65521))

# Batch composition: (field, n, kind, count).  Kinds:
#   nonss      two generators [[A, B], [0, A]]: two equal diagonal blocks
#   blockdiag  two generators [[A, 0], [0, C]]: a semisimple control
#   irred      two random generators: generically irreducible, so the
#              semisimplification returns them unchanged
GFP_CLASSES = (
    (F101, 8, "nonss", 1),
    (F101, 12, "nonss", 2),
    (F65521, 12, "nonss", 1),
    (F2, 12, "nonss", 1),
    (F101, 12, "blockdiag", 1),
    (F2, 8, "irred", 1),
    (F65521, 6, "irred", 10),
)
QQ_CLASSES = (
    (QQ, 4, "nonss", 8),
    (QQ, 6, "nonss", 1),
    (QQ, 8, "nonss", 1),
    (QQ, 4, "irred", 2),
    (QQ, 6, "irred", 4),
)
# oracle-small: every element of GL2(F2), GL2(F3) and GL3(F2), then
# random tuples of one to three elements, then one GL3(F3) pair
ORACLE_ALL_ELEMENTS = ((F2, 2), (F3, 2), (F2, 3))
ORACLE_RANDOM = ((F3, 2, 40), (F2, 3, 40))
CLIFFORD_PAIRS = ((F3, 2, 3), (F2, 3, 3))
QQ_ENTRY = 3


class Job:
    """One input of a workload and the calls made on it."""

    __slots__ = ("kind", "label", "reps")

    def __init__(self, kind, label, reps):
        self.kind = kind
        self.label = label
        self.reps = tuple(reps)


def _random_entry(rng, field):
    if field.p is None:
        return rng.randint(-QQ_ENTRY, QQ_ENTRY)
    return rng.randrange(field.p)


def random_square(rng, field, n):
    return Matrix(field, [[_random_entry(rng, field) for _ in range(n)]
                          for _ in range(n)])


def random_invertible(rng, field, n):
    while True:
        m = random_square(rng, field, n)
        if m.det() != 0:
            return m


def _two_blocks(field, a, b, c):
    k = a.nrows
    zero = field.zero
    top = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    bottom = [[zero] * k + list(rc) for rc in c.entries]
    return Matrix(field, top + bottom)


def make_rep(rng, field, n, kind):
    k = n // 2
    gens = []
    for _ in range(2):
        if kind == "irred":
            gens.append(random_invertible(rng, field, n))
            continue
        a = random_invertible(rng, field, k)
        if kind == "nonss":
            gens.append(_two_blocks(field, a, random_square(rng, field, k), a))
        else:
            zero = Matrix(field, [[0] * k for _ in range(k)])
            gens.append(_two_blocks(field, a, zero, random_invertible(rng, field, k)))
    return Representation(gens, name=f"{kind} {field!r} n={n}")


def q8_on_h():
    """Q8 acting on the quaternions by left multiplication (basis 1, i, j, k).

    The module is irreducible over QQ but not absolutely irreducible.
    """
    left_i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    left_j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return Representation([Matrix(QQ, left_i), Matrix(QQ, left_j)], name="Q8 on H")


def all_invertible(field, n):
    """Every element of GL_n(F_p), listed by the benchmark itself."""
    out = []
    for flat in itertools.product(range(field.p), repeat=n * n):
        m = Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
        if m.det() != 0:
            out.append(m)
    return out


def _random_tuple(rng, field, n, count):
    return Representation([random_invertible(rng, field, n) for _ in range(count)])


def _upper_triangular(rng, field, n):
    while True:
        rows = [[rng.randrange(field.p) if j >= i else 0 for j in range(n)]
                for i in range(n)]
        m = Matrix(field, rows)
        if m.det() != 0:
            return m


def gl3_f3_pair(rng):
    """A random conjugate of a fixed irreducible pair in GL3(F3).

    The pair is the companion matrix of x^3 - x - 1, which has no root
    in F3, and a transvection.  All its conjugates lie in one orbit of
    one size, so the oracle does the same work for it on every seed;
    a random pair costs four times as much when it is reducible, which
    made throughput move with the seed.
    """
    c = Matrix(F3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    t = Matrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    g = random_invertible(rng, F3, 3)
    gi = g.inverse()
    return Representation([g * c * gi, g * t * gi], name="GL3(F3) pair")


def normal_pair(rng, field, n):
    """An upper-triangular group and a normal subgroup of it.

    The subgroup is generated by the transvection I + E_{1n}, which is
    normal in every group of invertible upper-triangular matrices.  It is
    added to the ambient generators, so it lies in the ambient group.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][n - 1] = 1
    u = Matrix(field, rows)
    m = Representation([_upper_triangular(rng, field, n), u], name="ambient")
    return m, Representation([u], name="normal")


def generate(workload, seed):
    """The workload's batch for this seed, before the repfile round-trip."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload in ("gfp-ss", "qq-ss"):
        classes = GFP_CLASSES if workload == "gfp-ss" else QQ_CLASSES
        for k, (field, n, kind, count) in enumerate(classes):
            for i in range(count):
                job = Job("ss", f"{kind} {field!r} n={n} #{i}", [make_rep(rng, field, n, kind)])
                jobs.append(((i + 0.5) / count, k, job))
        # Each class's jobs are spread evenly over the pass, so a slow
        # spell of the machine does not land on the calls that set the
        # median or the tail alone.
        return [job for *_, job in sorted(jobs, key=lambda t: t[:2])]
    if workload == "oracle-small":
        # The elements are the same for every seed and come first, so the
        # orbit caches reach the random tuples in one state.  Their calls
        # also set the tail: the accessible closed orbits of the
        # non-semisimple elements of GL3(F2) are a large cluster of
        # similar calls, so the tail does not sit between two classes of
        # random calls whose sizes move with the seed.
        for field, n in ORACLE_ALL_ELEMENTS:
            for g in all_invertible(field, n):
                jobs.append(Job("oracle", f"GL{n}({field!r}) element",
                                [Representation([g])]))
        # One, two and three elements in turn, the proportions the corpus
        # draws them in, so that every seed has the same mix.
        for field, n, count in ORACLE_RANDOM:
            for i in range(count):
                jobs.append(Job("oracle", f"random GL{n}({field!r}) tuple",
                                [_random_tuple(rng, field, n, i % 3 + 1)]))
        jobs.append(Job("oracle", "GL3(GF(3)) pair", [gl3_f3_pair(rng)]))
        for field, n, count in CLIFFORD_PAIRS:
            for _ in range(count):
                jobs.append(Job("clifford", f"normal pair GL{n}({field!r})",
                                normal_pair(rng, field, n)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def round_trip(jobs):
    """Pass every input through the representation-file format."""
    return [Job(j.kind, j.label, [parse_rep(serialize_rep(r)) for r in j.reps])
            for j in jobs]


def oracle_fields(jobs):
    """(field, n) of every group table the oracle calls will need."""
    return sorted({(r.field.p, r.n) for j in jobs if j.kind == "oracle" for r in j.reps})


class Recorder:
    """Times public calls and verify() calls and collects check failures."""

    def __init__(self):
        self.latencies = []
        self.op_names = []
        self.verify_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.wrong = []

    def call(self, name, fn, *args, **kwargs):
        """The call's result, or None when it raised (counted as failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except SsredError as exc:
            self._fail(name, type(exc).__name__)
            return None
        except Exception:
            # not a typed error: a defect, so the outputs are not correct
            self._fail(name, "crash")
            self.wrong.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        self.latencies.append(time.perf_counter() - start)
        self.op_names.append(name)
        return out

    def skip(self, name):
        """A call whose input is missing because an earlier call failed."""
        self.attempted += 1
        self._fail(name, "missing input")

    def _fail(self, name, why):
        self.failed += 1
        self.errors[f"{name}: {why}"] += 1

    def verify(self, label, fn, *args):
        start = time.perf_counter()
        try:
            ok = fn(*args)
        except Exception:
            self.verify_s += time.perf_counter() - start
            self.wrong.append(f"{label}: verify raised {traceback.format_exc(limit=3)}")
            return
        self.verify_s += time.perf_counter() - start
        if ok is not True:
            self.wrong.append(f"{label}: verify() returned {ok!r}")

    def check(self, label, condition, what):
        if not condition:
            self.wrong.append(f"{label}: {what}")


def _is_trivial_flag(result):
    return result.flag.block_sizes == (result.input.n,)


def run_ss_job(rec, job):
    (rep,) = job.reps
    label = job.label
    results = [rec.call("semisimplify", semisimplify, rep, seed=s) for s in (0, 1)]
    for s, res in zip((0, 1), results):
        if res is not None:
            rec.verify(f"{label} SsResult seed {s}", res.verify)
    if None in results:
        rec.skip("conjugacy_certificate")
    else:
        cert = rec.call("conjugacy_certificate", conjugacy_certificate, *results)
        if cert is not None:
            rec.verify(f"{label} ConjugacyCertificate", cert.verify)
    gcr = rec.call("is_gcr_over_k", is_gcr_over_k, rep)
    if gcr is None:
        return
    rec.verify(f"{label} SemisimpleCertificate", gcr.verify, rep)
    for s, res in zip((0, 1), results):
        if res is not None:
            rec.check(label, gcr.semisimple == _is_trivial_flag(res),
                      f"is_gcr_over_k says {gcr.semisimple} but semisimplify "
                      f"seed {s} returned blocks {res.flag.block_sizes}")


def run_oracle_job(rec, job, indexes):
    (rep,) = job.reps
    label = job.label
    index = indexes[(rep.field.p, rep.n)]
    gcr = rec.call("is_gcr_over_k", is_gcr_over_k, rep)
    if gcr is not None:
        rec.verify(f"{label} SemisimpleCertificate", gcr.verify, rep)
    truth = rec.call("oracle_gcr", oracle_gcr, rep, index)
    if gcr is not None and truth is not None:
        rec.check(label, gcr.semisimple == truth,
                  f"is_gcr_over_k says {gcr.semisimple}, oracle_gcr says {truth}")
    orbits = rec.call("accessible_closed_orbits", accessible_closed_orbits,
                      generic_tuple(rep), index)
    if orbits is not None:
        rec.check(label, len(orbits) == 1,
                  f"{len(orbits)} accessible closed orbits, expected one")
    if gcr is None:
        rec.skip("optimal_flag")
    elif not gcr.semisimple:
        report = rec.call("optimal_flag", optimal_flag, rep)
        if report is not None:
            rec.check(label, len(report.argmax) > 0 and report.measure > 0,
                      "optimal_flag returned no destabilizing flag")
            if rep.n == 2:
                rec.check(label, not report.findings,
                          "rank-one degeneration reported a non-semisimple limit")


def run_clifford_job(rec, job):
    m, h = job.reps
    res = rec.call("clifford_joint_ss", clifford_joint_ss, m, h)
    if res is None:
        return
    rec.verify(f"{job.label} ambient SsResult", res.ambient.verify)
    rec.verify(f"{job.label} normal SsResult", res.normal.verify)
    rec.check(job.label, res.ambient.flag == res.normal.flag,
              "ambient and normal limits use different flags")


def fresh_indexes(jobs):
    """Cold orbit indexes over the set-up's group tables, one per shape.

    A pass starts from empty orbit caches, as one `ssred oracle` process
    does, so every pass does the same work.
    """
    return {key: OrbitIndex(get_table(Field.prime(key[0]), key[1]))
            for key in oracle_fields(jobs)}


def run_pass(rec, jobs):
    indexes = fresh_indexes(jobs)
    for job in jobs:
        if job.kind == "ss":
            run_ss_job(rec, job)
        elif job.kind == "oracle":
            run_oracle_job(rec, job, indexes)
        else:
            run_clifford_job(rec, job)


def known_defect_probe():
    """Run the Q8-on-H control, which ROADMAP defect D3 makes fail.

    Returns the outcome for the run's context record: the typed error's
    name while the defect stands, or a checked result once it is fixed.
    """
    rep = parse_rep(serialize_rep(q8_on_h()))
    rec = Recorder()
    run_ss_job(rec, Job("ss", "Q8 on H", [rep]))
    return {"attempted": rec.attempted, "failed": rec.failed,
            "errors": dict(rec.errors), "wrong": rec.wrong}


def smoke_jobs():
    """Tiny fixed inputs that reach every traced layer, checked before timing."""
    transvection = Matrix(F2, [[1, 1], [0, 1]])
    rotation = Matrix(F2, [[0, 1], [1, 1]])
    m, h = normal_pair(random.Random(0), F2, 2)
    return round_trip([
        Job("ss", "smoke transvection", [Representation([transvection])]),
        Job("ss", "smoke rotation", [Representation([rotation])]),
        Job("oracle", "smoke transvection", [Representation([transvection])]),
        Job("clifford", "smoke pair", [m, h]),
    ])

