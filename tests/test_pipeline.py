import hashlib
import random
from fractions import Fraction

import pytest

from oracle_probes import cocharacter_limits_match_flag_limits, oracle_irreducible
from theory_checks import NotBlockDiagonal, iso_class_multiset, levi_descent

from ssred.errors import (
    AlgebraNotStable,
    InvalidInput,
    NotNormal,
    PreconditionNotDestabilizable,
    SsredError,
)
from ssred.exact import Field, Matrix, Subspace, solve_linear, sylvester_rows
from ssred.flags import (
    Cocharacter,
    Flag,
    c_lambda,
    chain_flags,
    diagonal_blocks,
    flag_to_cocharacter,
    levi_part,
    splits_adapted,
)
from ssred.oracle import (
    accessible_closed_orbits,
    generic_tuple,
    get_table,
    oracle_gcr,
    subgroup_closure,
)
from ssred.pipeline import (
    CliffordResult,
    ConjugacyCertificate,
    OptimalFlagReport,
    SsResult,
    _invariant_lattice,
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    optimal_flag,
    semisimplify,
)
from ssred.reps import (
    IrreducibleWitness,
    Representation,
    SemisimpleCertificate,
    composition_series,
    enveloping_basis,
    is_semisimple,
    module_iso,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
QQ = Field.rational()


def mat(field, rows):
    return Matrix(field, rows)


def rep(field, *gens, name=None):
    return Representation([mat(field, g) for g in gens], name=name)


def random_rep(rng, field, n, count=None):
    count = count or rng.randrange(1, 3)
    gens = []
    while len(gens) < count:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            gens.append(m)
    return Representation(gens)


def table_conjugate(src, dst) -> bool:
    """Whether some element of GL_n(F_q), found by enumeration, conjugates
    the tuple src onto dst."""
    field, n = src[0].field, src[0].nrows
    return any(all(g * x == y * g for x, y in zip(src, dst))
               for g in get_table(field, n).elements)


TRANSVECTION_F2 = rep(F2, [[1, 1], [0, 1]])
ROTATION_F3 = rep(F3, [[0, -1], [1, 0]])
DIAG_PM1_F3 = rep(F3, [[1, 0], [0, -1]])


def test_is_gcr_frozen():
    assert not is_gcr_over_k(TRANSVECTION_F2).semisimple
    assert is_gcr_over_k(ROTATION_F3).semisimple
    assert is_gcr_over_k(rep(F2, [[1, 0], [0, 1]])).semisimple


def test_semisimplify_transvection():
    result = semisimplify(TRANSVECTION_F2)
    assert [v.dim for v in result.flag.steps] == [1, 2]
    assert result.flag.steps[0].contains_vector((1, 0))
    assert result.cocharacter.weights == (2, 1)
    assert result.ss_generators == (Matrix.identity(F2, 2),)
    assert result.l_irreducible
    assert result.verify()


def test_semisimplify_semisimple_input_is_fixed():
    result = semisimplify(DIAG_PM1_F3)
    assert result.flag.block_sizes == (2,)
    assert result.ss_generators == DIAG_PM1_F3.generators
    assert not result.l_irreducible  # two summands
    assert result.verify()

    result = semisimplify(ROTATION_F3)
    assert result.flag.block_sizes == (2,)
    assert result.ss_generators == ROTATION_F3.generators
    assert result.l_irreducible
    assert result.verify()


def _summands(cert):
    return [s.basis for s in cert.summands], [(w.kind, w.word, w.factor) for w in cert.witnesses]


def test_semisimple_input_keeps_its_seeds_certificate():
    """The trivial flag's certificate comes from the seed's own recursion;
    under seed 0 it is is_gcr_over_k's."""
    rng = random.Random(71)
    differs = False
    for r in [DIAG_PM1_F3] + [random_rep(rng, F3, 3) for _ in range(10)]:
        if not is_gcr_over_k(r).semisimple:
            continue
        for seed in (0, 1, 2):
            result = semisimplify(r, seed=seed)
            assert result.flag.block_sizes == (r.n,) and result.verify()
            own = _summands(composition_series(r, seed=seed).certificate)
            assert _summands(result.certificate) == own
            differs |= own != _summands(is_gcr_over_k(r))
        assert _summands(semisimplify(r).certificate) == _summands(is_gcr_over_k(r))
    assert differs  # DIAG_PM1_F3 lists its lines in another order under seeds 1 and 2


def _bench_nonss(rng, field, n):
    """The benchmark's `nonss` input: two generators [[A, B], [0, A]],
    drawn in its order, entries in [-3, 3] over QQ and below p over GF(p)."""
    def square(k):
        return Matrix(field, [[rng.randint(-3, 3) if field.p is None else rng.randrange(field.p)
                               for _ in range(k)] for _ in range(k)])

    k = n // 2
    gens = []
    for _ in range(2):
        a = square(k)
        while a.det() == 0:
            a = square(k)
        b = square(k)
        gens.append(Matrix(field, [ra + rb for ra, rb in zip(a.entries, b.entries)]
                           + [(0,) * k + ra for ra in a.entries]))
    return Representation(gens)


@pytest.mark.parametrize("field, n, draw, most", [
    (QQ, 12, 2, 24),
    (Field.prime(101), 16, 1, 36),
], ids=["qq-n12", "gf101-n16"])
def test_semisimplify_spins_once_per_level(monkeypatch, field, n, draw, most):
    """The verdict and the series come from one recursion: a separate
    semisimplicity pre-check repeated the discovery spins (36 and 52
    calls on these inputs)."""
    import ssred.reps

    r = _bench_nonss(random.Random(draw), field, n)
    calls = []
    real_spin = ssred.reps.spin

    def counting_spin(*args, **kwargs):
        calls.append(None)
        return real_spin(*args, **kwargs)

    monkeypatch.setattr(ssred.reps, "spin", counting_spin)
    for seed in (0, 1):
        calls.clear()
        assert semisimplify(r, seed=seed).flag.block_sizes == (n // 2, n // 2)
        assert len(calls) <= most


def test_semisimplify_rational_unipotent():
    u = Representation([mat(QQ, [[1, 1], [0, 1]])])
    result = semisimplify(u)
    assert [v.dim for v in result.flag.steps] == [1, 2]
    assert result.flag.steps[0].contains_vector((Fraction(1), Fraction(0)))
    assert result.cocharacter.weights == (2, 1)
    assert result.ss_generators == (Matrix.identity(QQ, 2),)
    assert result.verify()


def test_semisimplify_rational_three_dim():
    g = Representation([mat(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])])
    result = semisimplify(g)
    assert [v.dim for v in result.flag.steps] == [1, 2, 3]
    assert result.cocharacter.weights == (3, 2, 1)
    assert result.ss_generators == (mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),)
    assert result.l_irreducible
    assert result.verify()


def test_semisimplify_idempotent():
    rng = random.Random(53)
    cases = [TRANSVECTION_F2, ROTATION_F3, DIAG_PM1_F3]
    cases += [random_rep(rng, rng.choice([F2, F3]), rng.randrange(1, 4))
              for _ in range(20)]
    for r in cases:
        once = semisimplify(r)
        twice = semisimplify(once.ss_representation())
        assert twice.flag.block_sizes == (r.n,)
        assert twice.ss_generators == once.ss_generators


def test_conjugacy_certificate_same_result():
    a = semisimplify(TRANSVECTION_F2, seed=0)
    b = semisimplify(TRANSVECTION_F2, seed=1)
    cert = conjugacy_certificate(a, b)
    assert cert.verify()
    assert cert.g == Matrix.identity(F2, 2)  # both limits are the trivial group


def test_conjugacy_certificate_across_seeds():
    r = rep(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    results = [semisimplify(r, seed=s) for s in (0, 1, 2, 3)]
    for other in results[1:]:
        cert = conjugacy_certificate(results[0], other)
        assert cert.verify()


def test_conjugacy_certificate_rejects_foreign_inputs():
    a = semisimplify(TRANSVECTION_F2)
    b = semisimplify(rep(F2, [[1, 0], [1, 1]]))
    with pytest.raises(InvalidInput):
        conjugacy_certificate(a, b)
    # a result carrying the input's obstruction instead of a decomposition
    forged = SsResult(a.input, a.flag, a.cocharacter, a.ss_generators, is_semisimple(a.input))
    with pytest.raises(InvalidInput):
        conjugacy_certificate(a, forged)


def test_conjugacy_certificate_pairs_summands_over_qq():
    # seeds 0 and 1 pick different composition series, and the two limits
    # differ, so the conjugator is assembled from the paired summands
    r = rep(QQ, [[1, -1, 1], [1, 2, 0], [1, 1, 1]])
    a, b = semisimplify(r, seed=0), semisimplify(r, seed=1)
    assert a.ss_generators != b.ss_generators
    cert = conjugacy_certificate(a, b)
    assert cert.verify()
    assert cert.g != Matrix.identity(QQ, 3)


def _results_gf2_n3():
    r = rep(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return r, semisimplify(r, seed=0), semisimplify(r, seed=1)


def _fewer_ss_generators(result):
    return SsResult(result.input, result.flag, result.cocharacter, result.ss_generators[:1],
                    result.certificate)


def _with_ss_generators(result, gens):
    return SsResult(result.input, result.flag, result.cocharacter, gens, result.certificate)


def _other_input():
    return semisimplify(rep(F2, [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
                            [[1, 0, 0], [0, 1, 1], [0, 0, 1]]))


I2, I3_F3 = Matrix.identity(F2, 2), Matrix.identity(F3, 3)


@pytest.mark.parametrize("forge", [
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 2), a, b),
    lambda a, b: ConjugacyCertificate(mat(F2, [[1, 0], [0, 1], [0, 0]]), a, b),
    lambda a, b: ConjugacyCertificate(Matrix.identity(F3, 3), a, b),
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), a, _fewer_ss_generators(b)),
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), a, _other_input()),
    # g = I, and equal limits of the wrong shape or field on both sides
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), _with_ss_generators(a, (I2,)),
                                      _with_ss_generators(b, (I2,))),
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), _with_ss_generators(a, (I3_F3,)),
                                      _with_ss_generators(b, (I3_F3,))),
    # limits that are not matrices, with g = I and with another g
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), _with_ss_generators(a, ("x", "y")),
                                      _with_ss_generators(b, ("x", "y"))),
    lambda a, b: ConjugacyCertificate(mat(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                      _with_ss_generators(a, ("x", "y")), b),
    lambda a, b: ConjugacyCertificate(Matrix.identity(F2, 3), a, b.ss_generators),
], ids=["g_2x2", "g_3x2", "g_over_f3", "rhs_fewer_ss_generators", "rhs_of_another_input",
        "ss_generators_2x2", "ss_generators_over_f3", "ss_generators_not_matrices_g_identity",
        "ss_generators_not_matrices", "rhs_not_a_result"])
def test_conjugacy_certificate_verify_rejects_forgeries(forge):
    _, a, b = _results_gf2_n3()
    assert conjugacy_certificate(a, b).verify()
    assert a.ss_generators == _other_input().ss_generators  # g = I would conjugate them
    assert forge(a, b).verify() is False


def test_ss_result_verify_inverts_no_generator(monkeypatch):
    """The witnesses' words name no inverse letter, so verifying inverts
    no generator of the two summands' modules; and invertibility is
    proved for the limit module and its summands' restrictions, so the
    verifier takes no determinant either."""
    result = semisimplify(_bench_nonss(random.Random(1), Field.prime(101), 8))
    calls = []
    real_inverse, real_det = Matrix.inverse, Matrix.det

    def counting_inverse(self):
        calls.append("inverse")
        return real_inverse(self)

    def counting_det(self):
        calls.append("det")
        return real_det(self)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    monkeypatch.setattr(Matrix, "det", counting_det)
    assert result.verify()
    assert calls == []


def test_conjugacy_certificate_rejects_a_singular_g():
    """g a = b g holds for g = 0, and for a singular projection when every
    limit is the identity; only the determinant rejects them."""
    a, b = semisimplify(TRANSVECTION_F2, seed=0), semisimplify(TRANSVECTION_F2, seed=1)
    assert a.ss_generators == (Matrix.identity(F2, 2),)
    for g in (Matrix.zeros(F2, 2, 2), mat(F2, [[1, 0], [0, 0]])):
        assert all(g * x == y * g for x, y in zip(a.ss_generators, b.ss_generators))
        assert ConjugacyCertificate(g, a, b).verify() is False
    assert ConjugacyCertificate(mat(F2, [[0, 1], [1, 0]]), a, b).verify() is True
    assert ConjugacyCertificate(None, a, b).verify() is False


def test_ss_result_verify_rejects_singular_ss_generators():
    """Every subspace is invariant under the zero matrix, so a certificate
    of two lines verifies on it; the limit check rejects the result
    before its module is built without a determinant."""
    flag = Flag.trivial(F2, 2)
    zero = Matrix.zeros(F2, 2, 2)
    lines = [Subspace.from_vectors(F2, 2, [v]) for v in ((1, 0), (0, 1))]
    cert = SemisimpleCertificate(True, summands=lines,
                                 witnesses=[IrreducibleWitness("dimension")] * 2)
    assert cert.verify(Representation([zero], validate=False))
    forged = SsResult(TRANSVECTION_F2, flag, flag_to_cocharacter(flag), (zero,), cert)
    assert forged.verify() is False


def test_ss_result_verify_rejects_a_cocharacter_with_a_wrong_inverse():
    """A Cocharacter takes a given inverse unchecked.  With the zero matrix
    as the inverse, c_lambda sends every generator to 0, which a
    certificate of coordinate lines fits: the verifier checks the
    inverse, since its limits are invertible only when that is right."""
    r, result, _ = _results_gf2_n3()
    assert result.verify()
    lam = result.cocharacter
    forged_lam = Cocharacter(lam.basis_change, lam.weights, inverse=Matrix.zeros(F2, 3, 3))
    limits = c_lambda(r.generators, forged_lam)
    assert all(x.is_zero() for x in limits)
    lines = [Subspace.from_vectors(F2, 3, [v]) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    cert = SemisimpleCertificate(True, summands=lines,
                                 witnesses=[IrreducibleWitness("dimension")] * 3)
    forged = SsResult(r, result.flag, forged_lam, limits, cert)
    assert forged_lam.flag() == result.flag
    assert cert.verify(Representation(limits, validate=False))
    assert forged.verify() is False


def _with_certificate(result, certificate):
    return SsResult(result.input, result.flag, result.cocharacter, result.ss_generators,
                    certificate)


def _singular_basis_change_result():
    """A cocharacter whose basis change [[1, 1], [0, 0]] is singular, given
    the identity as its inverse: the transvection has a limit along it,
    but its columns span no flag."""
    lam = Cocharacter(mat(F2, [[1, 1], [0, 0]]), (2, 1), inverse=Matrix.identity(F2, 2))
    with pytest.raises(InvalidInput):
        lam.flag()
    limits = c_lambda(TRANSVECTION_F2.generators, lam)
    return SsResult(TRANSVECTION_F2, Flag.trivial(F2, 2), lam, limits,
                    is_semisimple(Representation(limits, validate=False)))


def _inverse_not_a_matrix_result():
    """A cocharacter rejects an inverse that is not a Matrix, but its slots
    stay writable, so verify still has to check the type itself."""
    lam = Cocharacter(Matrix.identity(F2, 2), (2, 1))
    lam.basis_change_inv = "inverse"
    return SsResult(TRANSVECTION_F2, Flag.trivial(F2, 2), lam,
                    TRANSVECTION_F2.generators, is_semisimple(TRANSVECTION_F2))


@pytest.mark.parametrize("forge", [
    _singular_basis_change_result,
    lambda: SsResult(TRANSVECTION_F2, Flag.trivial(F2, 2), "lambda",
                     TRANSVECTION_F2.generators, is_semisimple(TRANSVECTION_F2)),
    lambda: _with_certificate(semisimplify(TRANSVECTION_F2), True),
    _inverse_not_a_matrix_result,
], ids=["singular_basis_change", "cocharacter_not_a_cocharacter",
        "certificate_not_a_certificate", "inverse_not_a_matrix"])
def test_ss_result_verify_rejects_malformed_parts(forge):
    """verify answers False, without raising, on parts of the wrong type
    and on a cocharacter that has no flag."""
    assert forge().verify() is False


def _limit_blocks_irreducible(result):
    """Whether the oracle finds every diagonal block of the limit, in the
    cocharacter's adapted basis, irreducible."""
    lam = result.cocharacter
    blocks = [diagonal_blocks(lam.basis_change_inv * g * lam.basis_change, result.flag.block_sizes)
              for g in result.ss_generators]
    return all(oracle_irreducible(Representation(gens)) for gens in zip(*blocks))


def _clifford_results(rng):
    """The ambient and normal results of `clifford_joint_ss` for random
    groups over GF(2) and GF(3), with the normal closure of each generator
    and the center as normal subgroups."""
    out = []
    for field, n in ((F2, 2), (F2, 3), (F3, 2)) * 4:
        m = random_rep(rng, field, n)
        group = subgroup_closure(field, m.generators)
        normal = [{g * x * g.inverse() for g in group} for x in m.generators]
        normal.append({g for g in group if all(g * x == x * g for x in m.generators)})
        for gens in normal:
            h = Representation(sorted(gens, key=lambda c: c.entries))
            result = clifford_joint_ss(m, h)
            out += [result.ambient, result.normal]
    return out


def test_l_irreducible_is_irreducibility_of_every_limit_block(full_corpus, gl3_f3_sample):
    """l_irreducible is read off the certificate (Jordan-Hoelder); the
    oracle decides each block of the limit by its subspace lattice."""
    clifford = _clifford_results(random.Random(47))
    results = [semisimplify(r) for r in list(full_corpus) + list(gl3_f3_sample)] + clifford
    for result in results:
        assert result.l_irreducible == _limit_blocks_irreducible(result)
    assert {r.l_irreducible for r in results} == {True, False}
    assert {r.l_irreducible for r in clifford[1::2]} == {True, False}
    forged = results[0]
    forged.certificate = SemisimpleCertificate(True)
    assert forged.l_irreducible is False


def test_ss_result_verify_rejects_dropped_generators():
    # the identity alone is semisimple, the pair is not; a trivial-flag
    # result keeping only the identity must not verify
    r = rep(F2, [[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert not is_gcr_over_k(r).semisimple
    alone = Representation(r.generators[:1])
    flag = Flag.trivial(F2, 2)
    forged = SsResult(r, flag, flag_to_cocharacter(flag), alone.generators, is_semisimple(alone))
    assert forged.verify() is False
    assert semisimplify(r).verify()


def test_ss_result_verify_rejects_a_flag_the_input_does_not_preserve():
    # the transvection moves e2 off span{e2}, so it has no limit along that
    # flag: verify answers False instead of raising LimitDoesNotExist
    flag = Flag([Subspace.from_vectors(F2, 2, [(0, 1)]), Subspace.full(F2, 2)])
    identity = Representation([Matrix.identity(F2, 2)])
    forged = SsResult(TRANSVECTION_F2, flag, flag_to_cocharacter(flag), identity.generators,
                      is_semisimple(identity))
    assert forged.verify() is False


def test_module_iso_rejects_reducible_first_module():
    # the two diagonal orderings are conjugate by the coordinate swap, but
    # the first intertwiner is a singular coordinate map, which proves the
    # first module reducible
    a = rep(F3, [[1, 0], [0, -1]])
    b = rep(F3, [[-1, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        module_iso(a, b)


def test_semisimplify_conjugation_equivariance():
    rng = random.Random(59)
    for _ in range(25):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 4)
        r = random_rep(rng, field, n)
        while True:
            g = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
            if g.det() != 0:
                break
        gi = g.inverse()
        moved = Representation([g * x * gi for x in r.generators])
        ss_a = semisimplify(r)
        ss_b = semisimplify(moved)
        # both limits are semisimple, so matching composition factors is
        # isomorphism
        assert iso_class_multiset(composition_series(ss_a.ss_representation())).matches(
            iso_class_multiset(composition_series(ss_b.ss_representation())))


def test_levi_descent_frozen():
    report = levi_descent(DIAG_PM1_F3, (1, 1))
    assert report.full_gcr and all(report.block_gcr) and report.agrees

    blocky = rep(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    report = levi_descent(blocky, (2, 1))
    assert not report.full_gcr
    assert report.block_gcr == (False, True)
    assert report.agrees

    report = levi_descent(TRANSVECTION_F2, (2,))
    assert report.agrees  # single block is a tautology

    with pytest.raises(NotBlockDiagonal):
        levi_descent(TRANSVECTION_F2, (1, 1))
    with pytest.raises(InvalidInput):
        levi_descent(TRANSVECTION_F2, (1, 2))


@pytest.mark.parametrize("sizes", [(1.9, 1.2), (1.0, 1), ("a", 1), (True, True)], ids=repr)
def test_levi_descent_rejects_non_int_block_sizes(sizes):
    with pytest.raises(InvalidInput):
        levi_descent(DIAG_PM1_F3, sizes)


# two 2x2 Jordan blocks over GF(5): the seed picks between several series
JORDAN_PAIR_F5 = rep(Field.prime(5), [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])


@pytest.mark.parametrize("seed", [None, 1.5, "x", True, 2.0], ids=repr)
def test_seeds_must_be_ints(seed):
    for r in (JORDAN_PAIR_F5, DIAG_PM1_F3):  # non-semisimple, then semisimple
        with pytest.raises(InvalidInput):
            semisimplify(r, seed=seed)
    with pytest.raises(InvalidInput):
        composition_series(JORDAN_PAIR_F5, seed=seed)
    with pytest.raises(InvalidInput):
        clifford_joint_ss(TRANSVECTION_F2, TRANSVECTION_F2, seed=seed)


def test_levi_descent_randomized_agreement():
    rng = random.Random(61)
    for _ in range(25):
        field = rng.choice([F2, F3])
        sizes = [rng.randrange(1, 3) for _ in range(rng.randrange(1, 3))]
        count = rng.randrange(1, 3)
        gens = []
        for _ in range(count):
            blocks = []
            for s in sizes:
                while True:
                    b = Matrix(field, [[rng.randrange(field.p) for _ in range(s)]
                                       for _ in range(s)])
                    if b.det() != 0:
                        blocks.append(b)
                        break
            from ssred.flags import block_diagonal
            gens.append(block_diagonal(field, blocks))
        report = levi_descent(Representation(gens), sizes)
        assert report.agrees


def test_clifford_self():
    result = clifford_joint_ss(TRANSVECTION_F2, TRANSVECTION_F2)
    assert isinstance(result, CliffordResult)
    assert result.ambient.ss_generators == result.normal.ss_generators
    assert result.normal.certificate.semisimple


def test_clifford_dihedral():
    m = rep(F3, [[0, 1], [1, 0]], [[1, 0], [0, -1]])
    klein = rep(F3, [[1, 0], [0, -1]], [[-1, 0], [0, 1]])
    result = clifford_joint_ss(m, klein)
    assert result.ambient.flag.block_sizes == (2,)  # m is irreducible
    assert result.normal.ss_generators == klein.generators
    assert result.normal.certificate.semisimple


def test_clifford_not_normal():
    m = rep(F3, [[0, 1], [1, 0]], [[1, 0], [0, -1]])
    h = rep(F3, [[1, 0], [0, -1]])
    with pytest.raises(NotNormal):
        clifford_joint_ss(m, h)


def test_clifford_outside_group():
    m = rep(F3, [[1, 1], [0, 1]])
    h = rep(F3, [[2, 0], [0, 2]])
    with pytest.raises(NotNormal):
        clifford_joint_ss(m, h)


def test_clifford_borel():
    u = [[1, 1], [0, 1]]
    d = [[2, 0], [0, 1]]
    m = rep(F3, u, d)
    h = rep(F3, u)
    result = clifford_joint_ss(m, h)
    assert [v.dim for v in result.ambient.flag.steps] == [1, 2]
    assert result.normal.ss_generators == (Matrix.identity(F3, 2),)
    assert result.normal.certificate.semisimple
    assert result.normal.l_irreducible
    assert result.ambient.ss_generators == (Matrix.identity(F3, 2), mat(F3, d))


def test_clifford_rational_algebra_stability():
    upper = Representation([mat(QQ, [[1, 1], [0, 1]])])
    lower = Representation([mat(QQ, [[1, 0], [1, 1]])])
    with pytest.raises(AlgebraNotStable):
        clifford_joint_ss(lower, upper)
    borel = Representation([mat(QQ, [[1, 1], [0, 1]]), mat(QQ, [[2, 0], [0, 3]])])
    result = clifford_joint_ss(borel, upper)
    assert result.normal.certificate.semisimple
    assert result.normal.ss_generators == (Matrix.identity(QQ, 2),)


def _stabilizes_every_basis_element(m, h):
    """Reference: conjugation by each generator of m maps every basis
    element of h's enveloping algebra into that algebra."""
    algebra = enveloping_basis(h)
    return all(algebra.contains(g * b * g.inverse())
               for g in m.generators for b in algebra.algebra_basis)


def test_clifford_rational_stability_checks_generators_only():
    """Checking h's generators decides what checking every basis element of
    its enveloping algebra decides, on random upper triangular and random
    full QQ pairs."""
    rng = random.Random(2115)

    def random_gens(n, upper):
        gens = []
        while len(gens) < rng.randrange(1, 3):
            g = Matrix(QQ, [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                             if i <= j or not upper else 0 for j in range(n)] for i in range(n)])
            if g.det() != 0:
                gens.append(g)
        return gens

    outcomes = []
    for k in range(30):
        n = rng.randrange(2, 4)
        h = Representation(random_gens(n, upper=True))
        m = Representation(random_gens(n, upper=k % 3 != 0))
        try:
            clifford_joint_ss(m, h)
            raised = False
        except AlgebraNotStable:
            raised = True
        except SsredError:
            raised = False
        stable = _stabilizes_every_basis_element(m, h)
        assert raised == (not stable)
        outcomes.append(stable)
    assert set(outcomes) == {True, False}


def test_optimal_flag_skips_flags_without_weight_classes(monkeypatch):
    """The 6x6 Jordan block over GF(2) has a chain of five proper invariant
    subspaces.  At height 4 a flag has at most 5 steps with a weight class,
    so the one 6-step chain gets no cocharacter, and per_flag_data is what
    it was when that chain was still inverted, split-tested and spun."""
    import ssred.pipeline

    steps = []
    real = ssred.pipeline.flag_to_cocharacter

    def recording(flag):
        steps.append(flag.length)
        return real(flag)

    monkeypatch.setattr(ssred.pipeline, "flag_to_cocharacter", recording)
    jordan = rep(F2, [[1 if j in (i, i + 1) else 0 for j in range(6)] for i in range(6)])
    report = optimal_flag(jordan, max_weight_height=4)
    data = [([v.dim for v in c.flag.steps], c.weights, c.w_min, str(c.measure))
            for c in report.per_flag_data]
    assert len(data) == 100 and {len(d[0]) for d in data} == {2, 3, 4, 5}
    assert hashlib.sha256(repr(data).encode()).hexdigest() == (
        "80de35472f72f2d72113fd60834951909ee851231a3ce0ebe9895463c2fe1267")
    assert len(steps) == 2**5 - 2 and max(steps) == 5
    steps.clear()
    report = optimal_flag(jordan, max_weight_height=5)
    assert len(steps) == 2**5 - 1 and max(steps) == 6
    assert max(c.flag.length for c in report.per_flag_data) == 6


_NOT_A_REP = [TRANSVECTION_F2.generators, list(TRANSVECTION_F2.generators), None]


@pytest.mark.parametrize("call", [
    composition_series,
    is_semisimple,
    semisimplify,
    is_gcr_over_k,
    optimal_flag,
    lambda x: clifford_joint_ss(x, TRANSVECTION_F2),
    lambda x: clifford_joint_ss(TRANSVECTION_F2, x),
    lambda x: levi_descent(x, [1, 1]),
    lambda x: Flag([x]),
    lambda x: Flag([Subspace.from_vectors(F2, 2, [(1, 0)]), x]),
], ids=["composition_series", "is_semisimple", "semisimplify", "is_gcr_over_k",
        "optimal_flag", "clifford_ambient", "clifford_normal", "levi_descent",
        "flag_step", "flag_second_step"])
@pytest.mark.parametrize("arg", _NOT_A_REP, ids=["tuple", "list", "none"])
def test_wrong_argument_types_raise_invalid_input(call, arg):
    with pytest.raises(InvalidInput):
        call(arg)


_SS_TRANSVECTION = semisimplify(TRANSVECTION_F2)
_WRONG_TYPE_CALLS = {
    "conjugacy_lhs": lambda x: conjugacy_certificate(x, _SS_TRANSVECTION),
    "conjugacy_rhs": lambda x: conjugacy_certificate(_SS_TRANSVECTION, x),
    "c_lambda_matrix": lambda x: c_lambda(x, _SS_TRANSVECTION.cocharacter),
    "c_lambda_cocharacter": lambda x: c_lambda(TRANSVECTION_F2.generators[0], x),
    "c_lambda_empty_tuple": lambda x: c_lambda((), x),
    "flag_to_cocharacter": flag_to_cocharacter,
    "iso_class_multiset": iso_class_multiset,
    "oracle_gcr": oracle_gcr,
    "accessible_closed_orbits": accessible_closed_orbits,
    "generic_tuple": generic_tuple,
    "clifford_seed": lambda x: clifford_joint_ss(TRANSVECTION_F2, TRANSVECTION_F2, seed=x),
    "certificate_verify": _SS_TRANSVECTION.certificate.verify,
    "obstruction_verify": is_semisimple(TRANSVECTION_F2).verify,
    "witness_verify": IrreducibleWitness("dimension").verify,
}


@pytest.mark.parametrize("name", sorted(_WRONG_TYPE_CALLS))
@pytest.mark.parametrize("arg", [None, 1.5, "x"], ids=repr)
def test_exported_entry_points_refuse_wrong_types(monkeypatch, name, arg):
    """A wrong-type argument raises InvalidInput, never an AttributeError,
    and a certificate's verify() returns False for it; a seed is checked
    before any subgroup closure is built."""
    def no_closure(*args):
        raise AssertionError("a subgroup closure was built")

    monkeypatch.setattr("ssred.pipeline.subgroup_closure", no_closure)
    call = _WRONG_TYPE_CALLS[name]
    if name.endswith("verify"):
        assert call(arg) is False
    else:
        with pytest.raises(InvalidInput):
            call(arg)


@pytest.mark.parametrize("height", [2.0, "4", True])
def test_non_int_heights_raise_invalid_input(height):
    with pytest.raises(InvalidInput):
        optimal_flag(TRANSVECTION_F2, max_weight_height=height)
    with pytest.raises(InvalidInput):
        cocharacter_limits_match_flag_limits(TRANSVECTION_F2, height=height)


def test_optimal_flag_transvection_frozen():
    report = optimal_flag(TRANSVECTION_F2, max_weight_height=3)
    assert len(report.argmax) == 1
    best = report.argmax[0]
    assert [v.dim for v in best.flag.steps] == [1, 2]
    assert best.flag.steps[0].contains_vector((1, 0))
    assert best.weights == (1, -1)
    assert best.w_min == 2
    assert report.measure == Fraction(2)
    assert report.findings == ()


def test_optimal_flag_requires_non_cr_input():
    with pytest.raises(PreconditionNotDestabilizable):
        optimal_flag(DIAG_PM1_F3, max_weight_height=3)


def test_optimal_flag_jordan_block_findings(monkeypatch):
    import ssred.flags as flags_module
    solves = []
    real_solve = flags_module.solve_sylvester

    def counting_solve(a, d, b):
        solves.append(a)
        return real_solve(a, d, b)

    monkeypatch.setattr(flags_module, "solve_sylvester", counting_solve)
    j3 = rep(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    report = optimal_flag(j3, max_weight_height=4)
    assert report.measure == Fraction(3, 2)
    assert len(report.argmax) == 2
    dims = sorted(tuple(v.dim for v in c.flag.steps) for c in report.argmax)
    assert dims == [(1, 3), (2, 3)]
    # the length-two flags cover three distinct flags overall
    flags = {tuple(v.dim for v in c.flag.steps) for c in report.per_flag_data}
    assert flags == {(1, 3), (2, 3), (1, 2, 3)}
    # j3 has two proper invariant subspaces, so these are all the flag
    # chains; each is tested for splitting by at most one solve per step
    # past the first, not once per weight class
    assert len(solves) <= sum(len(dims) - 1 for dims in flags)
    assert len(solves) < len(report.per_flag_data)
    # (1, 2, 3) stops at its first step: j3 acts on span{e1, e2} as J2
    assert len(solves) == len(flags)
    # both argmax limits are non-semisimple: reported, not suppressed
    assert len(report.findings) == 2
    assert all(f["kind"] == "non_semisimple_argmax_limit" for f in report.findings)


def test_optimal_flag_measure_invariants():
    rng = random.Random(67)
    seen = 0
    while seen < 12:
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, rng.randrange(2, 4))
        if is_gcr_over_k(r).semisimple:
            continue
        seen += 1
        report = optimal_flag(r, max_weight_height=4)
        assert report.measure > 0
        assert all(c.measure == report.measure for c in report.argmax)
        assert all(c.measure <= report.measure for c in report.per_flag_data)
        for c in report.argmax:
            assert c.flag.is_preserved_by(r.generators)
            assert not table_conjugate(r.generators, c.limit_generators)  # destabilizing


def _flag_cases(r):
    """(adapted generators, their limits, cocharacter) for every flag chain
    of r's invariant lattice."""
    for flag in chain_flags(_invariant_lattice(r, {}, []), Subspace.full(r.field, r.n)):
        lam = flag_to_cocharacter(flag)
        p, p_inv = lam.basis_change, lam.basis_change_inv
        adapted = [p_inv * g * p for g in r.generators]
        yield adapted, [levi_part(a, lam.weights) for a in adapted], lam


def test_in_unipotent_orbit_matches_brute_force(full_corpus):
    # the splitting test against conjugation by every element of GL_n(F_q),
    # on every flag chain of every non-semisimple corpus rep
    outcomes = []
    for r in full_corpus:
        if is_gcr_over_k(r).semisimple:
            continue
        for adapted, _levi, lam in _flag_cases(r):
            conjugate = splits_adapted(adapted, lam.flag().block_sizes)
            assert conjugate == table_conjugate(r.generators, c_lambda(r.generators, lam))
            outcomes.append(conjugate)
    assert set(outcomes) == {True, False}


def _unipotent_orbit_reference(hs, ls, lam):
    """Whether some u = I + N in R_u(P_lambda)(k) conjugates each h onto
    its limit l, both in lambda's adapted basis: N h - l N = l - h for each
    pair, N zero outside the blocks above the diagonal, solved as one
    affine system in at most n(n-1)/2 unknowns."""
    n, w = lam.n, lam.weights
    unknowns = [i * n + j for i in range(n) for j in range(n) if w[i] > w[j]]
    rows, rhs = [], []
    for h, lim in zip(hs, ls):
        # sylvester_rows(lim, h) is N -> lim N - N h
        rows += [tuple(row[c] for c in unknowns) for row in sylvester_rows(lim, h)]
        rhs += [x for row in (h - lim).entries for x in row]
    system = Matrix(lam.field, rows, ncols=len(unknowns), validate=False)
    return solve_linear(system, rhs) is not None


def _block_upper_cases(rng, field, count):
    """Generators in the standard flag's adapted basis for random block
    sizes: random block upper triangular ones, and, for every other case,
    ones conjugated from a block diagonal tuple by some u in R_u(P)."""
    for case in range(count):
        n = rng.randrange(2, 6)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(1, n)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        w = [len(sizes) - k for k, size in enumerate(sizes) for _ in range(size)]
        lam = Cocharacter(Matrix.identity(field, n), w)

        def entry():
            return rng.randrange(-3, 4) if field.p is None else rng.randrange(field.p)

        hs = [Matrix(field, [[entry() if w[i] >= w[j] else 0 for j in range(n)]
                             for i in range(n)]) for _ in range(rng.randrange(1, 3))]
        if case % 2:
            u = Matrix(field, [[1 if i == j else entry() if w[i] > w[j] else 0
                                for j in range(n)] for i in range(n)])
            hs = [u.inverse() * levi_part(h, w) * u for h in hs]
        yield hs, [levi_part(h, w) for h in hs], lam


def test_splitting_matches_the_unipotent_radical_system():
    # the splitting test against the one affine system in R_u(P_lambda),
    # both outcomes on each input family
    rng = random.Random(1931)
    families = {
        "small groups": [case for field, n in ((F2, 2), (F3, 2), (F2, 3))
                         for g in get_table(field, n).elements
                         if not is_gcr_over_k(Representation([g])).semisimple
                         for case in _flag_cases(Representation([g]))],
        "random tuples": [case for _ in range(12) for field in (F2, F3, Field.prime(5))
                          for case in _flag_cases(random_rep(rng, field, rng.randrange(2, 6)))],
        "block upper": [case for field in (QQ, Field.prime(101), F2, F3)
                        for case in _block_upper_cases(rng, field, 24)],
    }
    for name, cases in families.items():
        outcomes = set()
        for hs, ls, lam in cases:
            split = splits_adapted(hs, lam.flag().block_sizes)
            assert split == _unipotent_orbit_reference(hs, ls, lam), (name, hs)
            outcomes.add(split)
        assert outcomes == {True, False}, name


RATIONAL_PINNED = rep(QQ, [[1, 0, 0, 1], [0, 1, -1, 2], [0, 0, 1, 2], [0, 0, 0, 3]])


def test_optimal_flag_rational_pinned():
    # one rational generator; each flag's conjugacy question is a split test
    report = optimal_flag(RATIONAL_PINNED)
    assert report.measure == Fraction(4, 3)
    assert len(report.per_flag_data) == 30
    assert len(report.argmax) == 1
    assert report.findings == ()


def test_optimal_flag_rational_pinned_spins_once(monkeypatch):
    """The verdict and the composition flag's steps come from one
    recursion: a verdict from `is_semisimple` followed by a series-only
    recursion made 38 `spin` calls here."""
    import ssred.pipeline
    import ssred.reps

    calls = []
    real_spin = ssred.reps.spin

    def counting_spin(*args, **kwargs):
        calls.append(None)
        return real_spin(*args, **kwargs)

    monkeypatch.setattr(ssred.reps, "spin", counting_spin)
    monkeypatch.setattr(ssred.pipeline, "spin", counting_spin)
    assert optimal_flag(RATIONAL_PINNED).measure == Fraction(4, 3)
    assert len(calls) <= 30


def reference_w_min(r, flag, weights):
    """w_min as the least positive weight of a nonzero entry of any
    enveloping-algebra basis element conjugated into the flag's adapted
    basis, or None when there is none."""
    lam = flag_to_cocharacter(flag)
    n = r.n
    adapted = [lam.basis_change_inv * a * lam.basis_change
               for a in enveloping_basis(r).algebra_basis]
    return min((weights[i] - weights[j] for a in adapted
                for i in range(n) for j in range(n)
                if weights[i] > weights[j] and a.entries[i][j] != 0), default=None)


def test_optimal_flag_candidates_match_algebra_and_limit_map(full_corpus, gl3_f3_sample):
    # w_min read off spins equals the enveloping-algebra definition, the
    # adapted-basis limit equals c_lambda, and a finding is reported for
    # exactly the argmax limits that are not semisimple
    checked, outcomes = 0, set()
    for r in list(full_corpus) + list(gl3_f3_sample) + [RATIONAL_PINNED]:
        if is_gcr_over_k(r).semisimple:
            continue
        report = optimal_flag(r)
        for c in report.per_flag_data:
            assert c.w_min == reference_w_min(r, c.flag, c.weights)
            assert c.limit_generators == c_lambda(r.generators, flag_to_cocharacter(c.flag))
            checked += 1
        expected = []
        for c in report.argmax:
            semisimple = is_semisimple(Representation(c.limit_generators)).semisimple
            outcomes.add(semisimple)
            if not semisimple:
                expected.append({"kind": "non_semisimple_argmax_limit",
                                 "dims": [v.dim for v in c.flag.steps],
                                 "weights": list(c.weights),
                                 "measure": str(c.measure)})
        assert list(report.findings) == expected
    assert checked >= 500
    assert outcomes == {True, False}


def test_ss_result_shape():
    result = semisimplify(TRANSVECTION_F2)
    assert isinstance(result, SsResult)
    assert isinstance(conjugacy_certificate(result, result), ConjugacyCertificate)
    assert isinstance(optimal_flag(TRANSVECTION_F2), OptimalFlagReport)
