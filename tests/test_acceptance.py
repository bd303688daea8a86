"""End-to-end acceptance suite.

One test per criterion, each recording a single pass/fail line that the
terminal summary hook prints after the run.  Every criterion checks a
theorem-level prediction against either the brute-force oracle or an
independently frozen expectation.
"""

import random
import time
from fractions import Fraction

from acceptance_log import record
from conftest import F2, F3, random_invertible
from oracle_probes import normalizer_elements, oracle_irreducible
from theory_checks import iso_class_multiset, levi_descent

from ssred.exact import Field, Matrix, Subspace, rref, spin
from ssred.flags import Flag, block_diagonal, c_lambda, flag_to_cocharacter
from ssred.oracle import (
    accessible_closed_orbits,
    generic_tuple,
    invariant_subspaces,
    oracle_gcr,
    subgroup_closure,
)
from ssred.pipeline import (
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    optimal_flag,
    semisimplify,
)
from ssred.reps import Representation, composition_series

QQ = Field.rational()


def test_criterion_1_oracle_equivalence(full_corpus):
    start = time.monotonic()
    checked = 0
    for rep in full_corpus:
        assert is_gcr_over_k(rep).semisimple == oracle_gcr(rep)
        checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 300
    record(1, ok, f"pipeline and oracle G-cr verdicts agree on all "
                  f"{checked} corpus reps in {elapsed:.1f}s")
    assert ok


def test_criterion_2_unique_accessible_closed_orbit(full_corpus):
    for rep in full_corpus:
        orbits = accessible_closed_orbits(generic_tuple(rep))
        assert len(orbits) == 1
    record(2, True, f"exactly one accessible cocharacter-closed orbit for all "
                    f"{len(full_corpus)} corpus generic tuples")


def test_criterion_3_conjugacy_certificates(full_corpus, gl3_f3_sample):
    seeds = (0, 1, 2)
    corpus = list(full_corpus) + list(gl3_f3_sample)
    certs = 0
    paired = 0
    for rep in corpus:
        results = [semisimplify(rep, seed=s) for s in seeds]
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                cert = conjugacy_certificate(results[i], results[j])
                assert cert.verify()
                assert cert.g.det() != 0
                certs += 1
                # equal limits are conjugate by the identity; different
                # ones by a conjugator built from paired summands
                paired += results[i].ss_generators != results[j].ss_generators
    assert paired > 0
    record(3, True, f"{certs} conjugating certificates across seeds {seeds} "
                    f"all verified on {len(corpus)} corpus reps, "
                    f"{paired} of them built by pairing summands")


def test_criterion_4_jordan_holder(full_corpus):
    seeds = (0, 1, 2)
    for rep in full_corpus:
        multisets = [iso_class_multiset(composition_series(rep, seed=s))
                     for s in seeds]
        for other in multisets[1:]:
            assert multisets[0].matches(other)
    record(4, True, f"composition-factor multisets identical across seeds "
                    f"{seeds} for all {len(full_corpus)} corpus reps")


def test_criterion_5_minimal_flag_irreducible_factors(full_corpus, gl3_f3_sample):
    reps = list(full_corpus) + list(gl3_f3_sample)
    for rep in reps:
        series = composition_series(rep)
        inv = invariant_subspaces(rep)
        chain = [Subspace.zero(rep.field, rep.n)] + list(series.flag.steps)
        for prev, nxt in zip(chain, chain[1:]):
            for w in inv:
                strictly_between = (prev.dim < w.dim < nxt.dim
                                    and nxt.contains(w) and w.contains(prev))
                assert not strictly_between
        for factor in series.factors:
            assert oracle_irreducible(factor)
    record(5, True, f"composition flags minimal and all factors irreducible "
                    f"by subspace exhaustion on {len(reps)} reps")


def test_criterion_6_clifford_descent():
    rng = random.Random(20260804)
    shapes = [(F2, 2), (F3, 2), (F2, 3)]
    pairs = ambient_ss = 0
    while pairs < 100:
        field, n = shapes[pairs % len(shapes)]
        h = Representation([random_invertible(rng, field, n)
                            for _ in range(rng.randrange(1, 3))])
        h_set = subgroup_closure(field, h.generators)
        normalizer = normalizer_elements(h)
        outside = [g for g in normalizer if g not in h_set]
        extra = rng.choice(outside if outside else normalizer)
        m = Representation(list(h.generators) + [extra])
        pairs += 1
        if is_gcr_over_k(m).semisimple:
            ambient_ss += 1
            assert is_gcr_over_k(h).semisimple
        joint = clifford_joint_ss(m, h)
        assert joint.ambient.certificate.semisimple
        assert joint.normal.certificate.semisimple
        assert joint.ambient.flag == joint.normal.flag
    record(6, True, f"{pairs} normal pairs: semisimple ambient implies "
                    f"semisimple subgroup ({ambient_ss} cases) and joint "
                    f"limits verified semisimple")


def test_criterion_7_levi_descent():
    rng = random.Random(20260805)
    for trial in range(50):
        field = (F2, F3)[trial % 2]
        sizes = [rng.randrange(1, 3) for _ in range(rng.randrange(2, 4))]
        gens = []
        for _ in range(rng.randrange(1, 3)):
            gens.append(block_diagonal(
                field, [random_invertible(rng, field, s) for s in sizes]))
        report = levi_descent(Representation(gens), sizes)
        assert report.agrees
    record(7, True, "full-space and per-block complete-reducibility verdicts "
                    "agree on 50 block-diagonal embeddings")


def _transport_flag(g: Matrix, flag: Flag) -> Flag:
    steps = [Subspace.from_vectors(flag.field, flag.ambient_dim,
                                   [g.apply(v) for v in s.basis.entries])
             for s in flag.steps]
    return Flag(steps)


def test_criterion_8_optimal_flag_properties(full_corpus):
    non_ss = finding_count = 0
    for rep in full_corpus:
        if is_gcr_over_k(rep).semisimple:
            continue
        non_ss += 1
        report = optimal_flag(rep, max_weight_height=4)
        assert report.argmax, "argmax flag set must be nonempty"
        argmax_keys = {(c.flag, c.weights) for c in report.argmax}
        for g in normalizer_elements(rep):
            moved = {(_transport_flag(g, f), w) for f, w in argmax_keys}
            assert moved == argmax_keys
        bad = {tuple(f["dims"]) for f in report.findings}
        for c in report.argmax:
            dims = tuple(v.dim for v in c.flag.steps)
            limit_ss = is_gcr_over_k(Representation(c.limit_generators)).semisimple
            assert limit_ss or dims in bad
            if not limit_ss:
                finding_count += 1
        if rep.n == 2:
            assert not report.findings  # rank-one degenerations are diagonal
    record(8, True, f"{non_ss} non-semisimple corpus reps: argmax nonempty and "
                    f"normalizer-stable; {finding_count} non-semisimple argmax "
                    f"limits all emitted as findings")


def test_criterion_9_rational_pipeline():
    unipotent = Representation([Matrix(QQ, [[1, 1], [0, 1]])])
    result = semisimplify(unipotent)
    assert result.ss_generators == (Matrix.identity(QQ, 2),)
    assert result.verify()

    three = Representation([Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])])
    result3 = semisimplify(three)
    assert [v.dim for v in result3.flag.steps] == [1, 2, 3]
    assert result3.ss_generators == (Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),)
    assert result3.verify()
    for x in (xx for m in result3.ss_generators for row in m.entries for xx in row):
        assert isinstance(x, Fraction) or isinstance(x, int)

    for res in (result, result3):
        again = semisimplify(res.ss_representation())
        assert again.flag.block_sizes == (res.input.n,)
        assert again.ss_generators == res.ss_generators
    record(9, True, "rational 2x2 and 3x3 pipelines exact, verified "
                    "semisimple, and idempotent")


def test_criterion_10_kernel_properties():
    rng = random.Random(20260806)
    cases = 10_000

    for _ in range(cases):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 4)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(rng.randrange(1, 4))])
        reduced, rank, pivots = rref(m)
        again, rank2, pivots2 = rref(reduced)
        assert again == reduced and rank2 == rank and pivots2 == pivots

    for _ in range(cases):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 4)
        ops = [random_invertible(rng, field, n) for _ in range(rng.randrange(1, 3))]
        seed = tuple(rng.randrange(field.p) for _ in range(n))
        w = spin(field, n, [seed], ops)
        for op in ops:
            for v in w.basis.entries:
                assert w.contains_vector(op.apply(v))

    homs = 0
    while homs < cases:
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(2, 4)
        g = random_invertible(rng, field, n)
        cols = g.transpose().entries
        dims = sorted(rng.sample(range(1, n), rng.randrange(0, n))) + [n]
        flag = Flag([Subspace.from_vectors(field, n, cols[:d]) for d in dims])
        lam = flag_to_cocharacter(flag)
        a = random_invertible(rng, field, n)
        b = random_invertible(rng, field, n)
        if not (flag.is_preserved_by([a]) and flag.is_preserved_by([b])):
            continue
        homs += 1
        assert c_lambda(a * b, lam) == c_lambda(a, lam) * c_lambda(b, lam)

    record(10, True, f"rref idempotence, spin invariance, and limit-map "
                     f"multiplicativity hold on {cases} randomized cases each")
