import random

import pytest

from ssred.errors import DimensionMismatch, InvalidInput, LimitDoesNotExist
from ssred.exact import Field, Matrix, Subspace
from ssred.flags import (
    Cocharacter,
    Flag,
    block_diagonal,
    c_lambda,
    diagonal_blocks,
    flag_to_cocharacter,
)

F2 = Field.prime(2)
F3 = Field.prime(3)


def mat(field, rows):
    return Matrix(field, rows)


def span(field, n, *vectors):
    return Subspace.from_vectors(field, n, vectors)


def random_invertible(rng, field, n):
    while True:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def random_flag(rng, field, n):
    g = random_invertible(rng, field, n)
    cols = g.transpose().entries
    dims = sorted(rng.sample(range(1, n), rng.randrange(0, n))) + [n]
    return Flag([Subspace.from_vectors(field, n, cols[:d]) for d in dims])


def random_parabolic_element(rng, lam):
    """A random invertible element of P_lambda, built block upper
    triangular in the adapted basis."""
    field = lam.field
    n = lam.n
    w = lam.weights
    while True:
        rows = [[rng.randrange(field.p) if w[i] >= w[j] else 0 for j in range(n)]
                for i in range(n)]
        m = Matrix(field, rows)
        if m.det() != 0:
            return lam.basis_change * m * lam.basis_change_inv


def test_flag_validation():
    line = span(F2, 2, (1, 0))
    full = Subspace.full(F2, 2)
    f = Flag([line, full])
    assert f.block_sizes == (1, 1) and f.length == 2
    with pytest.raises(InvalidInput):
        Flag([line])  # does not end at the full space
    with pytest.raises(InvalidInput):
        Flag([full, full])
    line3 = span(F2, 3, (1, 0, 0))
    disjoint_plane = span(F2, 3, (0, 1, 0), (0, 0, 1))
    with pytest.raises(InvalidInput):
        Flag([line3, disjoint_plane, Subspace.full(F2, 3)])  # not nested
    assert Flag.trivial(F2, 2).block_sizes == (2,)


def test_flag_over_two_fields_rejected():
    with pytest.raises(DimensionMismatch, match="mixed base fields"):
        Flag([span(Field.prime(3), 2, (1, 0)), Subspace.full(Field.prime(5), 2)])


def test_flag_to_cocharacter_trivial():
    lam = flag_to_cocharacter(Flag.trivial(F2, 2))
    assert lam.weights == (1, 1)
    assert lam.basis_change == Matrix.identity(F2, 2)
    assert lam.canonical == (0, 0)


def test_flag_to_cocharacter_standard_line():
    f = Flag([span(F2, 2, (1, 0)), Subspace.full(F2, 2)])
    lam = flag_to_cocharacter(f)
    assert lam.weights == (2, 1)
    assert lam.basis_change == Matrix.identity(F2, 2)
    assert lam.canonical == (1, -1)
    assert lam.norm_sq() == 2


def test_flag_to_cocharacter_skew_line():
    f = Flag([span(F2, 2, (1, 1)), Subspace.full(F2, 2)])
    lam = flag_to_cocharacter(f)
    assert lam.weights == (2, 1)
    # adapted basis columns: e1+e2 then the fresh standard vector e2
    assert lam.basis_change == mat(F2, [[1, 0], [1, 1]])
    assert lam.basis_change.det() != 0


def test_cocharacter_flag_roundtrip():
    rng = random.Random(101)
    for _ in range(60):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 5)
        f = random_flag(rng, field, n)
        lam = flag_to_cocharacter(f)
        assert lam.flag() == f


def test_adapted_inverse_is_the_eliminated_inverse():
    """flag_to_cocharacter reads the inverse basis change off the echelon
    rows; it is the inverse Gauss-Jordan elimination gives, over GF(p)
    and over QQ."""
    rng = random.Random(103)
    qq = Field.rational()
    for _ in range(80):
        field = rng.choice([F2, F3, Field.prime(101)])
        n = rng.randrange(1, 6)
        lam = flag_to_cocharacter(random_flag(rng, field, n))
        assert lam.basis_change_inv == lam.basis_change.inverse()
    for _ in range(20):
        n = rng.randrange(1, 5)
        g = Matrix(qq, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if g.det() == 0:
            continue
        cols = g.transpose().entries
        dims = sorted(rng.sample(range(1, n), rng.randrange(0, n))) + [n]
        lam = flag_to_cocharacter(Flag([Subspace.from_vectors(qq, n, cols[:d]) for d in dims]))
        assert lam.basis_change_inv == lam.basis_change.inverse()


def test_canonical_weights():
    ident3 = Matrix.identity(F3, 3)
    assert Cocharacter(ident3, (2, 1, 1)).canonical == (2, -1, -1)
    assert Cocharacter(ident3, (5, 5, 5)).canonical == (0, 0, 0)
    assert Cocharacter(Matrix.identity(F3, 2) , (4, 2)).canonical == (1, -1)
    with pytest.raises(InvalidInput):
        Cocharacter(ident3, (1, 2, 3))


@pytest.mark.parametrize("weights", [(1.5, 0), (1, 0.0), ("a", 0), (True, False)], ids=repr)
def test_cocharacter_rejects_non_int_weights(weights):
    with pytest.raises(InvalidInput):
        Cocharacter(Matrix.identity(F3, 2), weights)


@pytest.mark.parametrize("basis, inverse, error", [
    ("basis", None, InvalidInput),
    (Matrix.identity(F2, 2), "inverse", InvalidInput),
    (Matrix.identity(F2, 2), Matrix.identity(F3, 2), DimensionMismatch),
    (Matrix.identity(F2, 2), Matrix.identity(F2, 3), DimensionMismatch),
    (Matrix.identity(F2, 2), Matrix(F2, [[1, 0]]), DimensionMismatch),
], ids=["basis_not_a_matrix", "inverse_not_a_matrix", "inverse_other_field",
        "inverse_other_size", "inverse_not_square"])
def test_cocharacter_rejects_malformed_parts(basis, inverse, error):
    with pytest.raises(error):
        Cocharacter(basis, (2, 1), inverse=inverse)


def has_limit(m, lam):
    """Whether c_lambda finds a limit, m lying in P_lambda."""
    try:
        c_lambda(m, lam)
    except LimitDoesNotExist:
        return False
    return True


def test_limit_existence_frozen():
    lam = Cocharacter(Matrix.identity(F2, 2), (2, 1))
    assert has_limit(Matrix.identity(F2, 2), lam)
    assert has_limit(mat(F2, [[1, 1], [0, 1]]), lam)
    assert not has_limit(mat(F2, [[1, 0], [1, 1]]), lam)
    central = Cocharacter(Matrix.identity(F2, 2), (1, 1))
    assert has_limit(mat(F2, [[1, 0], [1, 1]]), central)


def test_c_lambda_frozen():
    lam = Cocharacter(Matrix.identity(F2, 2), (2, 1))
    assert c_lambda(mat(F2, [[1, 1], [0, 1]]), lam) == Matrix.identity(F2, 2)
    with pytest.raises(LimitDoesNotExist):
        c_lambda(mat(F2, [[1, 0], [1, 1]]), lam)
    blockm = mat(F2, [[1, 0], [0, 1]])
    assert c_lambda(blockm, lam) == blockm
    central = Cocharacter(Matrix.identity(F2, 2), (1, 1))
    anym = mat(F2, [[1, 0], [1, 1]])
    assert c_lambda(anym, central) == anym
    # entrywise on tuples
    pair = c_lambda((blockm, mat(F2, [[1, 1], [0, 1]])), lam)
    assert pair == (blockm, Matrix.identity(F2, 2))


def test_central_c_lambda_matches_the_conjugation_route(monkeypatch):
    """Along a one-level cocharacter with a random adapted basis P, the
    limit P levi_part(P^-1 m P) P^-1 is m itself, which c_lambda returns
    without a product."""
    from ssred.flags import levi_part

    rng = random.Random(227)
    cases = []
    for _ in range(60):
        field = rng.choice([F2, F3, Field.prime(101)])
        n = rng.randrange(1, 5)
        p = random_invertible(rng, field, n)
        lam = Cocharacter(p, [rng.randrange(-3, 4)] * n)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        pi = lam.basis_change_inv
        cases.append((m, lam, p * levi_part(pi * m * p, lam.weights) * pi))
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    for m, lam, conjugated in cases:
        assert lam.is_central
        assert c_lambda(m, lam) == conjugated == m
    assert calls == []
    assert not Cocharacter(Matrix.identity(F2, 2), (2, 1)).is_central


def test_c_lambda_homomorphism_randomized():
    rng = random.Random(211)
    for _ in range(200):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 5)
        lam = flag_to_cocharacter(random_flag(rng, field, n))
        a = random_parabolic_element(rng, lam)
        b = random_parabolic_element(rng, lam)
        assert c_lambda(a * b, lam) == c_lambda(a, lam) * c_lambda(b, lam)


def test_limit_depends_only_on_flag():
    rng = random.Random(223)
    for _ in range(100):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 5)
        f = random_flag(rng, field, n)
        lam = flag_to_cocharacter(f)
        # same adapted basis, different strictly decreasing block weights
        r = len(f.block_sizes)
        values = sorted(rng.sample(range(1, 40), r), reverse=True)
        alt_weights = []
        for size, v in zip(f.block_sizes, values):
            alt_weights.extend([v] * size)
        alt = Cocharacter(lam.basis_change, alt_weights)
        m = random_parabolic_element(rng, lam)
        assert has_limit(m, alt)
        assert c_lambda(m, lam) == c_lambda(m, alt)


def test_limit_exists_exactly_on_flag_preservers():
    rng = random.Random(227)
    for _ in range(150):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 5)
        f = random_flag(rng, field, n)
        lam = flag_to_cocharacter(f)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        preserves = all(
            v.contains_vector(m.apply(col))
            for v in f.steps[:-1]
            for col in v.basis.entries
        )
        assert has_limit(m, lam) == preserves


def test_parabolic_of_conjugated_cocharacter():
    rng = random.Random(229)
    for _ in range(100):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 4)
        lam = flag_to_cocharacter(random_flag(rng, field, n))
        g = random_invertible(rng, field, n)
        gi = g.inverse()
        moved = Cocharacter(g * lam.basis_change, lam.weights)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        assert has_limit(m, moved) == has_limit(gi * m * g, lam)


def test_block_utilities():
    m = mat(F3, [[1, 2, 0], [0, 1, 0], [0, 0, 2]])
    blocks = diagonal_blocks(m, (2, 1))
    assert blocks[0] == mat(F3, [[1, 2], [0, 1]])
    assert blocks[1] == mat(F3, [[2]])
    assert block_diagonal(F3, blocks) == mat(F3, [[1, 2, 0], [0, 1, 0], [0, 0, 2]])
