import random
from fractions import Fraction

import pytest

from ssred.errors import (
    AlgebraNotStable,
    InvalidInput,
    NotBlockDiagonal,
    NotNormal,
    PreconditionNotDestabilizable,
)
from ssred.exact import Field, Matrix
from ssred.pipeline import (
    CliffordResult,
    ConjugacyCertificate,
    OptimalFlagReport,
    SsResult,
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    levi_descent,
    optimal_flag,
    semisimplify,
)
from ssred.reps import Representation, module_iso

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


def test_diagonal_swap_is_module_iso():
    # the two diagonal orderings are conjugate by the coordinate swap
    a = rep(F3, [[1, 0], [0, -1]])
    b = rep(F3, [[-1, 0], [0, 1]])
    assert module_iso(a, b) == mat(F3, [[0, 1], [1, 0]])


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
        witness = module_iso(ss_a.ss_representation(), ss_b.ss_representation())
        assert witness is not None


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
    import ssred.pipeline as pipeline_module
    iso_calls = []
    real_iso = pipeline_module.module_iso

    def counting_iso(a, b, **kwargs):
        iso_calls.append(b)
        return real_iso(a, b, **kwargs)

    monkeypatch.setattr(pipeline_module, "module_iso", counting_iso)
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
    # chains, and the limit of each is compared with the input once, not
    # once per weight class
    assert len(iso_calls) == len(flags)
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
            limit_rep = Representation(c.limit_generators)
            assert module_iso(r, limit_rep) is None  # genuinely destabilizing


def test_ss_result_shape():
    result = semisimplify(TRANSVECTION_F2)
    assert isinstance(result, SsResult)
    assert isinstance(conjugacy_certificate(result, result), ConjugacyCertificate)
    assert isinstance(optimal_flag(TRANSVECTION_F2), OptimalFlagReport)
