"""`solve_sylvester`, `solve_conjugating` and `module_iso` against the
whole Sylvester system.

The reference below is the n^2-unknown intertwining solve: the rows of
rhs[i] g - g lhs[i] for every pair, then the first `right_kernel`
vector.  `solve_conjugating` now spins a standard basis of the first
module instead, unless every lhs matrix is upper triangular, and must
return the same Matrix or None.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ssred.errors import UndecidedIrreducibility
from ssred.exact import (
    EchelonBasis,
    Field,
    Matrix,
    right_kernel,
    solve_conjugating,
    solve_linear,
    solve_sylvester,
    sylvester_rows,
)
from ssred.reps import IrreducibleWitness, Representation, find_submodule, module_iso

FIELDS = [Field.prime(2), Field.prime(3), Field.prime(101), Field.rational()]


def reference_solve_conjugating(lhs, rhs):
    field, n = lhs[0].field, lhs[0].nrows
    rows = [row for a, b in zip(lhs, rhs) for row in sylvester_rows(b, a)]
    kernel = right_kernel(Matrix(field, tuple(rows), ncols=n * n, validate=False))
    if not kernel:
        return None
    return Matrix(field, [kernel[0][i * n:(i + 1) * n] for i in range(n)],
                  ncols=n, validate=False)


def scalar(rng, field):
    if field.p is None:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return rng.randrange(field.p)


def random_matrix(rng, field, nrows, ncols=None, upper=False):
    ncols = nrows if ncols is None else ncols
    return Matrix(field, [[scalar(rng, field) if not upper or j >= i else 0
                           for j in range(ncols)] for i in range(nrows)], ncols=ncols)


def random_invertible(rng, field, n):
    while True:
        m = random_matrix(rng, field, n)
        if m.det() != 0:
            return m


def is_upper(m):
    return not any(m.entries[i][j] for j in range(m.ncols) for i in range(j + 1, m.nrows))


def split_matrix(rng, field, n, p, pinv):
    """p diag(X, Y) p^-1 for blocks X and Y that are random or, for a
    large centralizer, scalar."""
    k = rng.randint(1, n - 1)
    if rng.randrange(2):
        x, y = random_matrix(rng, field, k), random_matrix(rng, field, n - k)
    else:
        x = Matrix.identity(field, k).scale(scalar(rng, field))
        y = Matrix.identity(field, n - k).scale(scalar(rng, field))
    return p * Matrix(field, [list(r) + [0] * (n - k) for r in x.entries]
                      + [[0] * k + list(r) for r in y.entries]) * pinv


def conjugating_cases(field, seed):
    """(kind, lhs, rhs): conjugate, unrelated and equal pairs.  The lhs is
    random, upper triangular, or split in a random basis, where the first
    solution of an equal pair is often singular."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 5)
        shape = rng.choice(("random", "upper", "split") if n > 1 else ("random",))
        count = rng.randint(1, 2)
        if shape == "split":
            p = random_invertible(rng, field, n)
            pinv = p.inverse()
            lhs = [split_matrix(rng, field, n, p, pinv) for _ in range(count)]
        else:
            lhs = [random_matrix(rng, field, n, upper=shape == "upper") for _ in range(count)]
        kind = rng.choice(("conjugate", "unrelated", "equal"))
        if kind == "conjugate":
            p = random_invertible(rng, field, n)
            pinv = p.inverse()
            rhs = [p * m * pinv for m in lhs]
        elif kind == "unrelated":
            rhs = [random_matrix(rng, field, n) for _ in lhs]
        else:
            rhs = list(lhs)
        yield kind, lhs, rhs


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_conjugating_matches_the_whole_system(field):
    seen = Counter()
    for kind, lhs, rhs in conjugating_cases(field, f"conjugating {field!r}"):
        got = solve_conjugating(lhs, rhs)
        assert got == reference_solve_conjugating(lhs, rhs), (kind, lhs, rhs)
        seen[kind, all(map(is_upper, lhs)),
             "none" if got is None else "singular" if got.det() == 0 else "invertible"] += 1
    # every kind of pair on both paths, and each outcome off the upper
    # triangular one
    assert {(kind, upper) for kind, upper, _outcome in seen} == {
        (kind, upper) for kind in ("conjugate", "unrelated", "equal") for upper in (True, False)}
    assert {outcome for _kind, upper, outcome in seen if not upper} == {
        "none", "singular", "invertible"}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_sylvester_matches_the_whole_system(field):
    """x is the `solve_linear` solution of the k*m-unknown system and the
    kernel its `right_kernel` basis, on both paths, with and without a
    solution."""
    rng = random.Random(f"sylvester {field!r}")
    outcomes = Counter()
    for _ in range(60):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        shape = rng.choice(("random", "upper", "conjugate"))
        count = rng.randint(1, 2)
        a = [random_matrix(rng, field, k) for _ in range(count)]
        if shape == "conjugate":
            # D_i = q A_i q^-1 leaves the homogeneous system a kernel
            m, q = k, random_invertible(rng, field, k)
            d = [q * ai * q.inverse() for ai in a]
        else:
            d = [random_matrix(rng, field, m, upper=shape == "upper") for _ in range(count)]
        if rng.random() < 0.5:
            # B = X0 D - A X0 has the solution X0
            x0 = random_matrix(rng, field, k, m)
            b = [(x0 * di - ai * x0).entries for ai, di in zip(a, d)]
        else:
            b = [random_matrix(rng, field, k, m).entries for _ in range(count)]
        system = Matrix(field, tuple(row for ai, di in zip(a, d) for row in sylvester_rows(ai, di)),
                        ncols=k * m, validate=False)
        rhs = [field.neg(c) for bi in b for row in bi for c in row]
        x, kernel = solve_sylvester(a, d, b)
        expected = solve_linear(system, rhs)
        assert (x is None) == (expected is None)
        if x is not None:
            assert tuple(x) == expected
            assert kernel == right_kernel(system)
        outcomes[all(map(is_upper, d)), x is None, bool(kernel)] += 1
    assert {upper for upper, _none, _kernel in outcomes} == {True, False}
    assert {none for _upper, none, _kernel in outcomes} == {True, False}
    assert any(has_kernel for _upper, none, has_kernel in outcomes if not none)


def irreducible_rep(rng, field, n):
    while True:
        r = Representation([random_invertible(rng, field, n) for _ in range(rng.randint(1, 2))])
        try:
            if isinstance(find_submodule(r), IrreducibleWitness):
                return r
        except UndecidedIrreducibility:
            pass


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_iso_on_random_irreducible_pairs(field):
    rng = random.Random(f"module_iso {field!r}")
    outcomes = set()
    for _ in range(12):
        n = rng.randint(1, 4)
        a = irreducible_rep(rng, field, n)
        if rng.randrange(2):
            p = random_invertible(rng, field, n)
            pinv = p.inverse()
            b = Representation([p * g * pinv for g in a.generators])
        else:
            b = Representation([random_invertible(rng, field, n) for _ in a.generators])
        g = module_iso(a, b)
        assert g == reference_solve_conjugating(a.generators, b.generators)
        if g is not None:
            gi = g.inverse()
            assert all(g * x * gi == y for x, y in zip(a.generators, b.generators))
        outcomes.add(g is None)
    assert outcomes == {True, False}


def test_module_iso_solves_n_unknowns_not_n_squared(monkeypatch):
    """The companion matrix of x^8 - 2 generates an irreducible QQ-module
    whose first standard vector spins to a basis, so the system has 8
    unknowns.  The whole Sylvester system would eliminate 64 rows of
    width 64; only the 8 homogeneous solutions, one per dimension of
    End = QQ(2^(1/8)), may be reduced at that width."""
    qq, n = Field.rational(), 8
    c = Matrix(qq, [[int(j == i - 1) + 2 * (i == 0 and j == n - 1) for j in range(n)]
                    for i in range(n)])
    p = random_invertible(random.Random(8), qq, n)
    a, b = Representation([c]), Representation([p * c * p.inverse()])
    widths = Counter()
    real_add = EchelonBasis.add

    def counting_add(self, vec):
        widths[self.width] += 1
        return real_add(self, vec)

    monkeypatch.setattr(EchelonBasis, "add", counting_add)
    g = module_iso(a, b)
    assert g is not None and g * c == b.generators[0] * g
    assert widths[n * n] <= n
