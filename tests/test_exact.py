import random
from fractions import Fraction

import pytest

from conftest import spin_closure

from ssred.exact import (
    EchelonBasis,
    Field,
    Matrix,
    Subspace,
    all_vectors,
    charpoly,
    linear_combination,
    poly_eval_matrix,
    projective_vectors,
    rref,
    right_kernel,
    solve_conjugating,
    solve_linear,
    spin,
    sylvester_rows,
)
from ssred.errors import DimensionMismatch, InvalidInput

F2 = Field.prime(2)
F3 = Field.prime(3)
QQ = Field.rational()


def mat(field, rows):
    return Matrix(field, rows)


def random_matrix(rng, field, n):
    return Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, field, n):
    while True:
        m = random_matrix(rng, field, n)
        if m.det() != 0:
            return m


def test_field_interning_and_validation():
    assert Field.prime(5) is Field.prime(5)
    assert Field.rational() is Field.rational()
    assert Field.prime(3) is not Field.rational()
    with pytest.raises(InvalidInput):
        Field.prime(4)
    with pytest.raises(InvalidInput):
        Field.prime(2**31 + 11)
    with pytest.raises(InvalidInput):
        Field.prime(2**127 - 1)  # prime, and refused before any trial division
    with pytest.raises(InvalidInput):
        Field.prime(10**5000)  # past the digits an int may print


@pytest.mark.parametrize("bad", [7.0, Fraction(7), "7", True], ids=repr)
def test_field_order_type_checked_before_interning(bad):
    """7.0 and Fraction(7) equal 7, so they would find GF(7) among the
    interned fields if the lookup ran first."""
    assert Field(7) is Field.prime(7)
    with pytest.raises(InvalidInput):
        Field(bad)
    with pytest.raises(InvalidInput):
        Field.prime(bad)


def test_inexact_scalars_rejected():
    """ROADMAP defect D4: a float over either field, and anything but an
    int over GF(p), is refused with InvalidInput, never a TypeError."""
    f5 = Field.prime(5)
    with pytest.raises(InvalidInput):
        Matrix(f5, [[0.5]])
    with pytest.raises(InvalidInput):
        Matrix(f5, [[Fraction(1, 2)]])
    with pytest.raises(InvalidInput):
        Matrix(QQ, [[0.1]])
    a = Matrix(QQ, [[1, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        solve_linear(a, (0.5, 1))
    assert solve_linear(a, (Fraction(1, 2), 1)) == (Fraction(1, 2), Fraction(1))
    assert Matrix(f5, [[7, -1]]).entries == ((2, 4),)


@pytest.mark.parametrize("validate", [True, False])
def test_matrix_construction_errors(validate):
    with pytest.raises(DimensionMismatch, match="ragged"):
        Matrix(F3, [[1, 2], [0]], validate=validate)
    with pytest.raises(DimensionMismatch, match="ragged"):
        Matrix(F3, [[1], [0, 1], [1]], validate=validate)
    with pytest.raises(DimensionMismatch, match="explicit ncols"):
        Matrix(F3, [], validate=validate)
    with pytest.raises(DimensionMismatch, match="ncols disagrees"):
        Matrix(F3, [[1, 2]], ncols=3, validate=validate)
    empty = Matrix(QQ, (), ncols=4, validate=validate)
    assert (empty.nrows, empty.ncols, empty.entries) == (0, 4, ())
    wide = Matrix(F3, [[], []], validate=validate)
    assert (wide.nrows, wide.ncols) == (2, 0)


@pytest.mark.parametrize("field", [F3, QQ], ids=repr)
@pytest.mark.parametrize("bad", [0.5, 2.0, "1", "a"], ids=repr)
def test_matrix_float_and_str_entries_rejected(field, bad):
    with pytest.raises(InvalidInput):
        Matrix(field, [[1, bad]])
    with pytest.raises(InvalidInput):
        Matrix(field, [[1, 0], [0, bad]], ncols=2)


def test_field_arithmetic_small():
    assert F3.add(2, 2) == 1
    assert F3.inv(2) == 2
    assert F2.neg(1) == 1
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)


def test_matrix_mul_identity_and_shapes():
    a = mat(F3, [[1, 2], [0, 1]])
    assert a * Matrix.identity(F3, 2) == a
    assert Matrix.identity(F3, 2) * a == a
    with pytest.raises(DimensionMismatch):
        a * mat(F3, [[1, 0, 0]])
    # inner dimension 0: the product is the zero matrix of the outer shape
    for field in (F3, QQ):
        assert Matrix.zeros(field, 2, 0) * Matrix.zeros(field, 0, 3) == Matrix.zeros(field, 2, 3)


def test_matrix_inverse_and_det():
    a = mat(F3, [[0, 2], [1, 0]])
    ai = a.inverse()
    assert ai is not None
    assert a * ai == Matrix.identity(F3, 2)
    assert a.det() == F3.neg(2)
    singular = mat(F2, [[1, 1], [1, 1]])
    assert singular.inverse() is None
    assert singular.det() == 0


def test_rref_frozen_examples():
    red, rank, pivots = rref(Matrix.identity(F2, 3))
    assert red == Matrix.identity(F2, 3)
    assert rank == 3 and pivots == [0, 1, 2]

    red, rank, pivots = rref(mat(F2, [[1, 1], [1, 1]]))
    assert red == mat(F2, [[1, 1], [0, 0]])
    assert rank == 1 and pivots == [0]

    red, rank, pivots = rref(mat(QQ, [[2, 4], [1, 3]]))
    assert red == Matrix.identity(QQ, 2)
    assert rank == 2


def test_rref_is_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(200):
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 5)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n + 1)] for _ in range(n)])
        red, rank, pivots = rref(m)
        again, rank2, pivots2 = rref(red)
        assert again == red
        assert (rank, pivots) == (rank2, pivots2)


def test_right_kernel_matches_definition():
    rng = random.Random(11)
    for _ in range(100):
        field = rng.choice([F2, F3])
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])
        basis = right_kernel(m)
        _, rank, _ = rref(m)
        assert len(basis) == cols - rank
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_solve_linear():
    a = mat(F3, [[1, 2], [0, 1]])
    x = solve_linear(a, (0, 1))
    assert x is not None and a.apply(x) == (0, 1)
    inconsistent = mat(F2, [[1, 1], [1, 1]])
    assert solve_linear(inconsistent, (0, 1)) is None


def test_subspace_basics():
    v = Subspace.from_vectors(F2, 2, [(1, 1), (1, 1)])
    assert v.dim == 1
    assert v.contains_vector((1, 1))
    assert not v.contains_vector((1, 0))
    assert Subspace.full(F2, 2).contains(v)
    assert v.contains(Subspace.zero(F2, 2))
    assert v.coordinates((1, 1)) == (1,)
    assert v.coordinates((0, 1)) is None
    assert v.pivots == (0,)
    assert Subspace.full(F2, 2).pivots == (0, 1) and Subspace.zero(F2, 2).pivots == ()



@pytest.mark.parametrize("method", ["contains", "sum", "intersection"])
def test_subspace_pair_over_another_field_rejected(method):
    f5 = Field.prime(5)
    line = Subspace.from_vectors(F3, 2, [(1, 0)])
    with pytest.raises(DimensionMismatch, match="mixed base fields"):
        getattr(Subspace.full(f5, 2), method)(line)


@pytest.mark.parametrize("method", ["contains", "sum", "intersection"])
def test_subspace_pair_in_another_ambient_dimension_rejected(method):
    # the zero space has no basis rows, so containment must check the
    # ambient dimension itself rather than test rows that are not there
    with pytest.raises(DimensionMismatch, match="different ambient spaces"):
        getattr(Subspace.full(F3, 2), method)(Subspace.zero(F3, 3))
    with pytest.raises(DimensionMismatch, match="different ambient spaces"):
        getattr(Subspace.full(F3, 3), method)(Subspace.from_vectors(F3, 2, [(1, 0)]))


def test_invariance_under_another_field_rejected():
    line = Subspace.from_vectors(F3, 2, [(1, 0)])
    assert line.is_invariant_under([mat(F3, [[1, 1], [0, 1]])])
    with pytest.raises(DimensionMismatch, match="mixed base fields"):
        line.is_invariant_under([mat(Field.prime(5), [[1, 1], [0, 1]])])

def test_subspace_pivots_and_residual_randomized():
    rng = random.Random(43)
    for _ in range(100):
        field = rng.choice([F2, F3, QQ])
        n = rng.randrange(1, 6)
        vecs = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randrange(0, n + 1))]
        w = Subspace.from_vectors(field, n, vecs)
        assert w.pivots == tuple(next(j for j, x in enumerate(row) if x)
                                 for row in w.basis.entries)
        v = tuple(field.coerce(rng.randrange(3)) for _ in range(n))
        res = w.residual(v)
        assert all(res[pc] == 0 for pc in w.pivots)
        assert w.contains_vector([field.sub(a, b) for a, b in zip(v, res)])
        assert (not any(res)) == w.contains_vector(v)


def test_coset_coordinates_are_the_residual_at_the_free_columns():
    rng = random.Random(44)
    for _ in range(100):
        field = rng.choice([F2, F3, QQ, Field.prime(101)])
        n = rng.randrange(1, 7)
        vecs = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(rng.randrange(0, n + 1))]
        w = Subspace.from_vectors(field, n, vecs)
        free = w.free_columns
        assert sorted(free + list(w.pivots)) == list(range(n))
        vectors = [tuple(field.coerce(rng.randrange(-5, 5)) for _ in range(n)) for _ in range(3)]
        assert w.coset_coordinates(vectors) == [[w.residual(v)[j] for j in free] for v in vectors]


def test_sylvester_rows_match_definition():
    rng = random.Random(47)
    for _ in range(40):
        field = rng.choice([F3, QQ])
        k, m = rng.randrange(1, 4), rng.randrange(1, 4)

        def rand(r, c):
            return Matrix(field, [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)])

        a, d, x = rand(k, k), rand(m, m), rand(k, m)
        rows = Matrix(field, sylvester_rows(a, d))
        lhs = rows.apply(tuple(e for row in x.entries for e in row))
        rhs = a * x - x * d
        assert lhs == tuple(e for row in rhs.entries for e in row)


def test_subspace_sum_intersection_dimension_formula():
    rng = random.Random(23)
    for _ in range(120):
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 5)
        u = Subspace.from_vectors(field, n,
                                  [tuple(rng.randrange(field.p) for _ in range(n))
                                   for _ in range(rng.randrange(0, n + 1))])
        w = Subspace.from_vectors(field, n,
                                  [tuple(rng.randrange(field.p) for _ in range(n))
                                   for _ in range(rng.randrange(0, n + 1))])
        s = u.sum(w)
        i = u.intersection(w)
        assert s.dim + i.dim == u.dim + w.dim
        assert u.contains(i) and w.contains(i)
        assert s.contains(u) and s.contains(w)


def test_spin_transvection():
    t = mat(F2, [[1, 1], [0, 1]])
    line = spin(F2, 2, [(1, 0)], [t])
    assert line.dim == 1 and line.contains_vector((1, 0))
    everything = spin(F2, 2, [(0, 1)], [t])
    assert everything.dim == 2


def test_spin_result_is_invariant_randomized():
    rng = random.Random(31)
    for _ in range(150):
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 5)
        ops = [random_matrix(rng, field, n) for _ in range(rng.randrange(1, 3))]
        seed = tuple(rng.randrange(field.p) for _ in range(n))
        w = spin(field, n, [seed], ops)
        assert w.contains_vector(seed)
        assert w.is_invariant_under(ops)
        # minimality: spinning any member again stays inside
        for row in w.basis.entries:
            assert spin(field, n, [row], ops).dim <= w.dim


SPIN_FIELDS = [Field.prime(p) for p in (2, 3, 101, 65521, 2**31 - 1)] + [QQ]


def _spin_scalar(rng, field):
    """Mostly 0, 1 or 2, so that spans stay small, and otherwise any
    element: over QQ a fraction with a denominator."""
    if rng.random() < 0.6:
        return rng.randrange(3)
    if field.p is None:
        return Fraction(rng.randint(-9, 9), rng.randint(2, 7))
    return rng.randrange(field.p)


def _spin_seeds(rng, field, n, start):
    """One to three seeds, zero before column start; a later one may be
    zero or a combination of the ones before it."""
    def draw():
        return (0,) * start + tuple(_spin_scalar(rng, field) for _ in range(n - start))

    seeds = [draw()]
    for _ in range(rng.randrange(3)):
        kind = rng.random()
        if kind < 0.25:
            seeds.append((0,) * n)
        elif kind < 0.5:
            coeffs = [field.coerce(_spin_scalar(rng, field)) for _ in seeds]
            seeds.append(linear_combination(field, coeffs,
                                            [tuple(map(field.coerce, v)) for v in seeds], n))
        else:
            seeds.append(draw())
    return seeds


def test_spin_matches_closure_and_respects_limit_randomized():
    """spin against the closure reference over every field the kernel
    serves: the same basis rows and pivots, `Subspace.full` when the
    span is everything, and None exactly at every limit the invariant
    span reaches."""
    rng = random.Random(37)
    outcomes = {field: set() for field in SPIN_FIELDS}
    for field in SPIN_FIELDS:
        for _ in range(60):
            n = rng.randrange(1, 7)
            ops = [Matrix(field, [[_spin_scalar(rng, field) for _ in range(n)] for _ in range(n)])
                   for _ in range(rng.randrange(1, 3))]
            start = 0
            if rng.random() < 0.5:
                # [[A, 0], [C, D]] keeps the span of the last n - k
                # coordinates, where seeds are often drawn
                k = rng.randrange(1, n + 1)
                ops = [Matrix(field, [[x if i >= k or j < k else 0 for j, x in enumerate(row)]
                                      for i, row in enumerate(m.entries)]) for m in ops]
                start = rng.choice((0, k))
            seeds = _spin_seeds(rng, field, n, start)
            ref = spin_closure(field, n, seeds, ops)
            w = spin(field, n, seeds, ops)
            assert w.basis.entries == ref.basis.entries and w.pivots == ref.pivots
            if ref.dim == n:
                assert w == Subspace.full(field, n)
            outcomes[field].add("full" if ref.dim == n else "zero" if ref.dim == 0 else "proper")
            for limit in range(n + 2):
                w = spin(field, n, seeds, ops, limit=limit)
                if ref.dim >= limit:
                    assert w is None
                else:
                    assert w.basis.entries == ref.basis.entries and w.pivots == ref.pivots
                    assert w.is_invariant_under(ops)
    for field, seen in outcomes.items():
        assert seen == {"full", "proper", "zero"}, field


def test_wrong_length_vectors_rejected():
    f5 = Field.prime(5)
    line = Subspace.from_vectors(f5, 3, [(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        line.coordinates((1, 0, 0, 5))
    with pytest.raises(DimensionMismatch):
        line.contains_vector((0, 1))
    with pytest.raises(DimensionMismatch):
        line.residual((1, 0))
    acc = EchelonBasis(f5, 3)
    with pytest.raises(DimensionMismatch):
        acc.add((1, 0))
    with pytest.raises(DimensionMismatch):
        acc.add((1, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(f5, 2, [(1, 0, 0)])
    gens = [mat(f5, [[2]])]
    # rank 1 = n is reached by the seed alone, before any operator applies
    with pytest.raises(DimensionMismatch):
        spin(f5, 1, [(1, 0)], gens)
    with pytest.raises(DimensionMismatch):
        spin(f5, 1, [(1,), (1, 0)], gens)
    with pytest.raises(DimensionMismatch):
        spin(f5, 2, [(1,)], [mat(f5, [[1, 0], [0, 1]])], limit=1)
    # an operator is checked before any image is formed
    with pytest.raises(DimensionMismatch):
        spin(f5, 1, [(1,)], [mat(f5, [[1, 0], [0, 1]])])
    with pytest.raises(DimensionMismatch):
        spin(f5, 2, [(1, 0)], [mat(f5, [[1, 0]])])


def test_membership_and_combinations_reject_wrong_length():
    f5 = Field.prime(5)
    acc = EchelonBasis(f5, 3)
    acc.add((1, 0, 0))
    assert acc.contains((4, 0, 0)) and not acc.contains((0, 0, 4))
    for vec in [(1, 0, 0, 4), (1, 0), ()]:
        with pytest.raises(DimensionMismatch):
            acc.contains(vec)
    assert linear_combination(f5, (1, 1), [(1, 0, 0), (0, 1, 0)], 3) == (1, 1, 0)
    with pytest.raises(DimensionMismatch):
        linear_combination(f5, (1, 1), [(1, 0, 0), (0, 1)], 3)
    with pytest.raises(DimensionMismatch):
        linear_combination(f5, (0, 1), [(1, 0, 0, 0), (0, 1, 0)], 3)


def test_charpoly_frozen():
    rot = mat(F3, [[0, 2], [1, 0]])
    # det(xI - rot) = x^2 - 2 = x^2 + 1 over GF(3)
    assert charpoly(rot) == [1, 0, 1]
    jordan = mat(QQ, [[1, 1], [0, 1]])
    assert charpoly(jordan) == [Fraction(1), Fraction(-2), Fraction(1)]


def test_charpoly_cayley_hamilton_randomized():
    rng = random.Random(43)
    for _ in range(100):
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 5)
        m = random_matrix(rng, field, n)
        coeffs = charpoly(m)
        assert len(coeffs) == n + 1 and coeffs[-1] == field.one
        assert poly_eval_matrix(coeffs, m).is_zero()


def _naive_poly_eval(coeffs, m):
    """Horner's rule from the zero matrix, one product per coefficient."""
    ident = Matrix.identity(m.field, m.nrows)
    acc = Matrix.zeros(m.field, m.nrows, m.nrows)
    for c in reversed(list(coeffs)):
        acc = acc * m + ident.scale(c)
    return acc


def test_poly_eval_matrix_takes_one_product_less_than_the_degree(monkeypatch):
    """Horner's rule starts at the leading coefficient, so a polynomial of
    degree d > 0 takes d - 1 products: a monic linear factor takes none."""
    rng = random.Random(53)
    f101 = Field.prime(101)
    cases = []
    for field in (F2, f101, QQ):
        for coeffs in ([], [3], [5, 1], [2, 0, 1], [1, 2, 3, 1], [0, 0, 4, 0]):
            m = mat(field, [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
            cases.append((coeffs, m, _naive_poly_eval(coeffs, m)))
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    for coeffs, m, expected in cases:
        calls.clear()
        assert poly_eval_matrix(coeffs, m) == expected
        assert len(calls) == max(len(coeffs) - 2, 0), coeffs


def test_charpoly_trace_det_coefficients():
    rng = random.Random(47)
    for _ in range(60):
        m = random_matrix(rng, F3, 3)
        coeffs = charpoly(m)
        trace = sum(m.entries[i][i] for i in range(3)) % 3
        assert coeffs[2] == F3.neg(trace)
        assert coeffs[0] == F3.neg(m.det())


def test_charpoly_rational_bignum():
    big = Fraction(10**30, 7)
    m = mat(QQ, [[big, 1], [0, big]])
    coeffs = charpoly(m)
    assert coeffs == [big * big, -2 * big, Fraction(1)]


def test_vector_enumeration():
    assert len(list(all_vectors(F3, 2))) == 9
    lines2 = list(projective_vectors(F2, 2))
    assert lines2 == [(1, 0), (1, 1), (0, 1)]
    lines3 = list(projective_vectors(F3, 2))
    assert len(lines3) == 4
    with pytest.raises(InvalidInput):
        list(all_vectors(QQ, 2))


def test_solve_conjugating_first_solution():
    # the centralizer of a transvection is {x I + y N}; the first kernel
    # basis vector is N, singular, and is returned as it is
    a = mat(F3, [[1, 1], [0, 1]])
    assert solve_conjugating([a], [a]) == mat(F3, [[0, 1], [0, 0]])
    ident = Matrix.identity(F2, 2)
    upper = mat(F2, [[1, 1], [0, 1]])
    assert solve_conjugating([ident], [upper]) == mat(F2, [[1, 0], [0, 0]])


def test_solve_conjugating_transvections_frozen():
    lower = mat(F2, [[1, 0], [1, 1]])
    upper = mat(F2, [[1, 1], [0, 1]])
    g = solve_conjugating([upper], [lower])
    assert g == mat(F2, [[0, 1], [1, 0]])

    # independent brute force over every 2x2 matrix mod 2
    found = []
    for a, b, c, d in all_vectors(F2, 4):
        cand = mat(F2, [[a, b], [c, d]])
        if cand * upper == lower * cand:
            found.append(cand)
    assert g in found


def test_solve_conjugating_certified_absence():
    # g (a - 2I) = 0 with a - 2I invertible: only g = 0 intertwines
    a = mat(F3, [[1, 1], [0, 1]])
    b = mat(F3, [[2, 0], [0, 2]])
    assert solve_conjugating([a], [b]) is None
    for g in map(lambda e: mat(F3, [e[:2], e[2:]]), all_vectors(F3, 4)):
        assert g * a != b * g or g.is_zero()


def test_solve_conjugating_randomized_roundtrip():
    rng = random.Random(61)
    for _ in range(40):
        field = rng.choice([F2, F3])
        n = rng.randrange(2, 4)
        mats = [random_matrix(rng, field, n) for _ in range(rng.randrange(1, 3))]
        g = random_invertible(rng, field, n)
        gi = g.inverse()
        twisted = [g * m * gi for m in mats]
        h = solve_conjugating(mats, twisted)
        assert h is not None and not h.is_zero()
        for m, t in zip(mats, twisted):
            assert h * m == t * h


def test_solve_conjugating_rational():
    a = mat(QQ, [[1, 1], [0, 1]])
    b = mat(QQ, [[1, 0], [1, 1]])
    g = solve_conjugating([a], [b])
    assert g == mat(QQ, [[0, 1], [1, 0]])
    assert g * a == b * g
    # one shared eigenvalue: a singular intertwiner; none: only g = 0
    c = mat(QQ, [[2, 0], [0, 3]])
    d = mat(QQ, [[2, 0], [0, 4]])
    assert solve_conjugating([c], [d]) == mat(QQ, [[1, 0], [0, 0]])
    assert solve_conjugating([c], [mat(QQ, [[5, 0], [0, 4]])]) is None
    with pytest.raises(DimensionMismatch):
        solve_conjugating([c], [mat(QQ, [[1]])])


@pytest.mark.parametrize("lhs, rhs", [
    ([[[1, 1], [0, 1]]], [mat(F3, [[1, 1], [0, 1]])]),
    ([mat(F3, [[1, 1], [0, 1]])], ["x"]),
], ids=["nested-list", "string"])
def test_solve_conjugating_rejects_entries_that_are_not_matrices(lhs, rhs):
    with pytest.raises(InvalidInput, match="Matrix"):
        solve_conjugating(lhs, rhs)


def test_echelon_basis_incremental():
    acc = EchelonBasis(F3, 3)
    assert acc.add((1, 2, 0))
    assert not acc.add((2, 1, 0))
    assert acc.add((0, 0, 1))
    assert acc.dim == 2
    assert acc.contains((1, 2, 2))
    assert not acc.contains((0, 1, 0))
