"""`rref`, `right_kernel`, `solve_linear` and `Matrix.inverse` against
sympy's `DomainMatrix`, an elimination that shares no code with
`ssred.exact`.

The oracle is built on `ssred.exact`, so it cannot catch a fault in the
package's elimination; this differential test can.  The expected kernel
basis and particular solution are read off sympy's reduced echelon form
by their definitions: one kernel vector per free column with a 1 there,
and the free variables of a solution set to zero.
"""

import random
from fractions import Fraction

import pytest
from sympy import GF as SymGF
from sympy import QQ as SymQQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from ssred.exact import Field, Matrix, rref, right_kernel, solve_linear

FIELDS = [Field.prime(2), Field.prime(3), Field.prime(101), Field.rational()]
MAX_ROWS, MAX_COLS = 12, 13


def scalar(rng, field):
    if field.p is None:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return rng.randrange(field.p)


def random_matrix(rng, field, nrows, ncols, rank=None):
    """A random matrix, of rank at most `rank` when one is given."""
    if rank is None:
        return Matrix(field, [[scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)],
                      ncols=ncols)
    if rank == 0:
        return Matrix(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)
    return random_matrix(rng, field, nrows, rank) * random_matrix(rng, field, rank, ncols)


def cases(field, seed):
    """Tall, wide, square, rank-deficient, all-zero and 0-row matrices."""
    rng = random.Random(seed)
    out = [Matrix(field, [], ncols=c) for c in (1, 5, MAX_COLS)]
    out += [random_matrix(rng, field, r, c, rank=0) for r, c in ((1, 1), (4, 6), (MAX_ROWS, MAX_COLS))]
    out += [random_matrix(rng, field, r, c) for r, c in ((MAX_ROWS, 3), (2, MAX_COLS),
                                                          (MAX_ROWS, MAX_COLS))]
    for _ in range(40):
        r, c = rng.randint(1, MAX_ROWS), rng.randint(1, MAX_COLS)
        rank = rng.choice((None, rng.randint(1, min(r, c))))
        out.append(random_matrix(rng, field, r, c, rank))
    return out


def square_cases(field, seed):
    rng = random.Random(seed)
    out = [Matrix(field, [], ncols=0), random_matrix(rng, field, 3, 3, rank=0)]
    for _ in range(30):
        n = rng.randint(1, MAX_ROWS)
        out.append(random_matrix(rng, field, n, n, rng.choice((None, None, rng.randint(1, n)))))
    return out


def sympy_domain(field):
    return SymQQ if field.p is None else SymGF(field.p, symmetric=False)


def to_sympy(field, rows, ncols):
    dom = sympy_domain(field)
    if field.p is None:
        entries = [[dom(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        entries = [[dom(x) for x in row] for row in rows]
    return DomainMatrix(entries, (len(entries), ncols), dom)


def from_sympy(field, dm):
    if field.p is None:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in dm.to_list()]
    return [[int(x) % field.p for x in row] for row in dm.to_list()]


def sympy_rref(field, rows, ncols):
    red, pivots = to_sympy(field, rows, ncols).rref()
    return from_sympy(field, red), list(pivots)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_and_right_kernel_match_sympy(field):
    deficient = 0
    for m in cases(field, seed=1000 + (field.p or 0)):
        red, pivots = sympy_rref(field, m.entries, m.ncols)
        deficient += 0 < len(pivots) < min(m.nrows, m.ncols)
        ours, rank, our_pivots = rref(m)
        assert [list(r) for r in ours.entries] == red, m
        assert (rank, our_pivots) == (len(pivots), pivots), m
        kernel = []
        for j in range(m.ncols):
            if j not in pivots:
                v = [0] * m.ncols
                v[j] = 1
                for i, pc in enumerate(pivots):
                    v[pc] = -red[i][j] % field.p if field.p else -red[i][j]
                kernel.append(tuple(v))
        assert right_kernel(m) == kernel, m
    assert deficient > 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_linear_matches_sympy(field):
    rng = random.Random(2000 + (field.p or 0))
    for m in cases(field, seed=3000 + (field.p or 0)):
        if rng.random() < 0.5:
            b = m.apply([scalar(rng, field) for _ in range(m.ncols)])
        else:
            b = tuple(field.coerce(scalar(rng, field)) for _ in range(m.nrows))
        red, pivots = sympy_rref(field, [row + (x,) for row, x in zip(m.entries, b)],
                                 m.ncols + 1)
        if m.ncols in pivots:
            expected = None
        else:
            x = [0] * m.ncols
            for i, pc in enumerate(pivots):
                x[pc] = red[i][m.ncols]
            expected = tuple(x)
        assert solve_linear(m, b) == expected, (m, b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inverse_matches_sympy(field):
    invertible = 0
    for m in square_cases(field, seed=4000 + (field.p or 0)):
        try:
            expected = from_sympy(field, to_sympy(field, m.entries, m.ncols).inv())
        except DMNonInvertibleMatrixError:
            expected = None
        ours = m.inverse()
        assert (None if ours is None else [list(r) for r in ours.entries]) == expected, m
        invertible += expected is not None
    assert invertible > 0
