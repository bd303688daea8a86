"""Exact dense linear algebra over GF(p) and over the rationals.

Scalars are plain Python ints reduced mod p, or `fractions.Fraction`
values kept in lowest terms; matrices are immutable tuples of row tuples.
There is no floating point anywhere in the package.  `Field` is the one
place that knows which kind of scalar it holds: `coerce` admits a scalar,
`reduce` and `axpy` make rows of field elements, and every matrix and row
operation below is written on those three.  Field arithmetic lives here:
other modules go through `linear_combination`, `Subspace.residual`,
`Subspace.coset_coordinates` and `Matrix`, save the back-substitution
in `flags.flag_to_cocharacter`.

The public surface is deliberately small: reduced row echelon form,
kernels, linear solving, subspaces with canonical echelon bases, orbit
closure of vectors under a set of operators ("spinning"), characteristic
polynomials, factorization of polynomials over GF(p) and Rabin's
irreducibility test, which share one packed-integer kernel for
GF(p)[x]/(f) (`_Residues`), and one solver of A_i X - X D_i = -B_i,
`solve_sylvester`, behind invariant complements (B the coupling block)
and module isomorphisms (`solve_conjugating`, B = 0).  One Gauss-Jordan
routine, `EchelonBasis.add`, does the elimination behind the linear
algebra, save two: `spin` keeps a semi-echelon basis in the order it
finds its rows and hands only a proper result's rows to `EchelonBasis`
for the canonical basis, and `Matrix.det` keeps its own elimination, so
that it stays an independent reference for `charpoly`.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import add, mod, mul, neg, sub

from .errors import DimensionMismatch, InvalidInput

_PRIME_CAP = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    top = isqrt(p)
    while d <= top:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(p) for a prime p below 2^31, or the rationals when p is None.

    Instances are interned, so fields compare by identity.  Elements are
    bare ints in [0, p) respectively Fraction values; the field object
    carries the arithmetic and is the only code that tells them apart.
    """

    __slots__ = ("p",)
    _instances: dict = {}

    def __new__(cls, p: int | None = None):
        # checked before the lookup: 7.0 and Fraction(7) hash and compare
        # equal to 7
        if p is not None and type(p) is not int:
            raise InvalidInput(f"field order {p!r} is not an int")
        if p in cls._instances:
            return cls._instances[p]
        if p is not None:
            # the cap first: trial division up to sqrt(p) never ends on a large prime
            if p >= _PRIME_CAP:
                raise InvalidInput(f"a field order of {p.bit_length()} bits exceeds the 2^31 cap")
            if not _is_prime(p):
                raise InvalidInput(f"field order {p!r} is not prime")
        obj = super().__new__(cls)
        obj.p = p
        cls._instances[p] = obj
        return obj

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rational(cls) -> "Field":
        return cls(None)

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, x):
        """x as a field element.  Only exact scalars are admitted: an int
        over GF(p), an int or a Fraction over the rationals."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        elif isinstance(x, int):
            return x % self.p
        raise InvalidInput(f"{x!r} is not an exact scalar of {self!r}")

    def reduce(self, xs) -> list:
        """The entries of xs, sums and products of field elements, as field
        elements."""
        p = self.p
        if p is None:
            return list(xs)
        return [x % p for x in xs]

    def axpy(self, u, c, v) -> list:
        """u - c*v, entry by entry."""
        p = self.p
        if p is None:
            return [a - c * b for a, b in zip(u, v)]
        return [(a - c * b) % p for a, b in zip(u, v)]

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        if self.p is None:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


class Matrix:
    """Immutable dense matrix over a Field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, entries, ncols: int | None = None, validate: bool = True):
        rows = (tuple(tuple(map(field.coerce, row)) for row in entries) if validate
                else tuple(map(tuple, entries)))
        if rows:
            if len(set(map(len, rows))) > 1:
                raise DimensionMismatch("ragged rows")
            width = len(rows[0])
            if ncols is not None and ncols != width:
                raise DimensionMismatch("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit ncols")
        self.field = field
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = (field.one,), (field.zero,)
        return cls(field, tuple([zero * i + one + zero * (n - 1 - i) for i in range(n)]),
                   ncols=n, validate=False)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows)),
                   ncols=ncols, validate=False)

    def _check_same_field(self, other: "Matrix"):
        if self.field is not other.field:
            raise DimensionMismatch("mixed base fields")

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        reduce = self.field.reduce
        cols = tuple(zip(*other.entries)) if other.entries else ((),) * other.ncols
        rows = [reduce([sum(map(mul, row, col)) for col in cols]) for row in self.entries]
        return Matrix(self.field, rows, ncols=other.ncols, validate=False)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        reduce = self.field.reduce
        rows = [reduce(map(add, r1, r2)) for r1, r2 in zip(self.entries, other.entries)]
        return Matrix(self.field, rows, ncols=self.ncols, validate=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        reduce = self.field.reduce
        rows = [reduce(map(neg, r)) for r in self.entries]
        return Matrix(self.field, rows, ncols=self.ncols, validate=False)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        reduce = self.field.reduce
        rows = [reduce([c * a for a in r]) for r in self.entries]
        return Matrix(self.field, rows, ncols=self.ncols, validate=False)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.ncols == other.ncols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field.p, self.ncols, self.entries))

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix(self.field, tuple(() for _ in range(self.ncols)),
                          ncols=0, validate=False)
        return Matrix(self.field, tuple(zip(*self.entries)), ncols=self.nrows, validate=False)

    def apply(self, v) -> tuple:
        """Act on a vector: returns M*v with v read as a column, as a tuple."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length does not match matrix width")
        return tuple(self.field.reduce([sum(map(mul, row, v)) for row in self.entries]))

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for row in self.entries for x in row)

    def det(self):
        """Exact determinant by fraction-producing Gaussian elimination."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.nrows
        field = self.field
        rows = [list(r) for r in self.entries]
        sign = False
        acc = field.one
        for c in range(n):
            piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if piv is None:
                return field.zero
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                sign = not sign
            pv = rows[c][c]
            acc = field.mul(acc, pv)
            inv = field.inv(pv)
            for i in range(c + 1, n):
                f = rows[i][c]
                if f != 0:
                    f = field.mul(f, inv)
                    rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[c])]
        return field.neg(acc) if sign else acc

    def inverse(self) -> "Matrix | None":
        """Inverse matrix, or None when singular."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        field = self.field
        ident = Matrix.identity(field, n)
        aug = Matrix(field,
                     tuple(r + i for r, i in zip(self.entries, ident.entries)),
                     ncols=2 * n, validate=False)
        red, rank, pivots = rref(aug)
        if rank < n or pivots[:n] != list(range(n)):
            return None
        return Matrix(field, tuple(row[n:] for row in red.entries), ncols=n, validate=False)

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.entries]!r})"


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form.

    Returns (echelon matrix, rank, pivot column indices).  The rows of m
    go through `EchelonBasis.add`, the one elimination in this module;
    its reduced echelon basis, padded with zero rows to m's height, is
    canonical for the row space.
    """
    acc = EchelonBasis(m.field, m.ncols)
    for row in m.entries:
        acc.add(row)
    rows = acc.rows + [(m.field.zero,) * m.ncols] * (m.nrows - acc.dim)
    return Matrix(m.field, rows, ncols=m.ncols, validate=False), acc.dim, acc.pivots


def right_kernel(m: "Matrix | EchelonBasis") -> list[tuple]:
    """Basis of {v : M v = 0}, one vector per free column, in column order.
    M may also be an EchelonBasis that already holds M's reduced rows."""
    field = m.field
    if isinstance(m, EchelonBasis):
        rows, pivots, width = m.rows, m.pivots, m.width
    else:
        red, _rank, pivots = rref(m)
        rows, width = red.entries, m.ncols
    pivot_set = set(pivots)
    basis = []
    for j in range(width):
        if j in pivot_set:
            continue
        v = [field.zero] * width
        v[j] = field.one
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[j])
        basis.append(tuple(v))
    return basis


def solve_linear(a: Matrix, b) -> tuple | None:
    """One solution x of A x = b (free variables set to zero), or None.

    The augmented rows are eliminated one at a time, and the solve stops
    at the first one that reduces to 0 = c with c nonzero.
    """
    field = a.field
    bvec = tuple(field.coerce(x) for x in b)
    if len(bvec) != a.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    acc = EchelonBasis(field, a.ncols + 1)
    for row, bv in zip(a.entries, bvec):
        if acc.add(row + (bv,)) and acc.pivots[-1] == a.ncols:
            return None
    x = [field.zero] * a.ncols
    for row, pc in zip(acc.rows, acc.pivots):
        x[pc] = row[-1]
    return tuple(x)


def linear_combination(field: Field, coeffs, rows, n: int) -> tuple:
    """sum_i coeffs[i] * rows[i], a vector of length n, reduced once at
    the end."""
    vec = [field.zero] * n
    for c, row in zip(coeffs, rows):
        if len(row) != n:
            raise DimensionMismatch("row length does not match the vector length")
        if c:
            vec = [x + c * y for x, y in zip(vec, row)]
    return tuple(field.reduce(vec))


def _residual(field: Field, rows, pivots, vec) -> list:
    """vec minus its combination of reduced echelon rows.

    A reduced echelon row vanishes at the other rows' pivot columns, so
    the coefficients of that combination are vec's own entries there; the
    residual vanishes at the pivots and is zero exactly when vec lies in
    the span of the rows.  It is reduced once, and only when a row was
    subtracted.
    """
    v = vec
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return list(vec) if v is vec else field.reduce(v)


class EchelonBasis:
    """Accumulates vectors and keeps a reduced echelon basis of their span.

    `add` is the module's one Gauss-Jordan elimination: `rref` (and so
    `right_kernel` and `Matrix.inverse`), `solve_linear`, `Subspace`, a
    proper `spin` result and the enveloping algebra all feed it their
    vectors.
    """

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec) -> list:
        """vec minus its combination of the basis rows: zero exactly when
        vec lies in the span, and zero at every pivot column."""
        if len(vec) != self.width:
            raise DimensionMismatch("vector length does not match the basis width")
        return _residual(self.field, self.rows, self.pivots, vec)

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span.

        The residual of vec is scaled to a leading 1 and cleared from the
        other rows at its leading column, so the rows stay the reduced
        echelon basis of the span, sorted by pivot column.
        """
        if len(vec) != self.width:
            raise DimensionMismatch("vector length does not match the basis width")
        field = self.field
        rows = self.rows
        v = _residual(field, rows, self.pivots, vec)
        for lead, pv in enumerate(v):
            if pv:
                break
        else:
            return False
        if pv != 1:
            inv = field.inv(pv)
            v = field.reduce([x * inv for x in v])
        for k, row in enumerate(rows):
            c = row[lead]
            if c:
                rows[k] = field.axpy(row, c, v)
        at = bisect_right(self.pivots, lead)
        rows.insert(at, v)
        self.pivots.insert(at, lead)
        return True

    def subspace(self) -> "Subspace":
        return Subspace(Matrix(self.field, self.rows, ncols=self.width, validate=False),
                        self.pivots)


class Subspace:
    """A subspace of k^n held by its canonical reduced-echelon basis rows
    and their pivot columns."""

    __slots__ = ("ambient_dim", "basis", "pivots", "dim")

    def __init__(self, basis: Matrix, pivots):
        pivots = tuple(pivots)
        if len(pivots) != basis.nrows:
            raise DimensionMismatch("one pivot column per basis row")
        self.ambient_dim = basis.ncols
        self.basis = basis
        self.pivots = pivots
        self.dim = basis.nrows

    @classmethod
    def from_vectors(cls, field: Field, n: int, vectors) -> "Subspace":
        acc = EchelonBasis(field, n)
        for v in vectors:
            acc.add(tuple(field.coerce(x) for x in v))
        return acc.subspace()

    @classmethod
    def zero(cls, field: Field, n: int) -> "Subspace":
        return cls(Matrix(field, (), ncols=n, validate=False), ())

    @classmethod
    def full(cls, field: Field, n: int) -> "Subspace":
        return cls(Matrix.identity(field, n), range(n))

    @property
    def field(self) -> Field:
        return self.basis.field

    def residual(self, v) -> list:
        """v minus its combination of the basis rows read off at the pivots:
        zero exactly when v lies in the subspace, and otherwise supported
        on the free columns."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match the ambient dimension")
        return _residual(self.field, self.basis.entries, self.pivots, v)

    @property
    def free_columns(self) -> list[int]:
        """The columns without a pivot, ascending."""
        pivots = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivots]

    def coset_coordinates(self, vectors) -> list[list]:
        """The coordinates of v + W in k^n / W, W this subspace, in the
        basis of the standard vectors at the free columns, one list per
        vector v: the residual of v read at the free columns, which are
        the only entries computed."""
        field = self.field
        free = self.free_columns
        # a basis row that vanishes at the free columns changes none of them
        tails = []
        for row, pc in zip(self.basis.entries, self.pivots):
            tail = [row[j] for j in free]
            if any(tail):
                tails.append((tail, pc))
        out = []
        for v in vectors:
            r = [v[j] for j in free]
            for tail, pc in tails:
                c = v[pc]
                if c:
                    r = field.axpy(r, c, tail)
            out.append(r)
        return out

    def contains_vector(self, v) -> bool:
        field = self.field
        return not any(self.residual(tuple(field.coerce(x) for x in v)))

    def _check_same_space(self, other: "Subspace"):
        self.basis._check_same_field(other.basis)
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient spaces")

    def contains(self, other: "Subspace") -> bool:
        self._check_same_space(other)
        # echelon rows are field elements already
        return not any(any(self.residual(row)) for row in other.basis.entries)

    def coordinates(self, v) -> tuple | None:
        """Coefficients of v in the echelon basis, or None when v is outside."""
        field = self.field
        vv = tuple(field.coerce(x) for x in v)
        if any(self.residual(vv)):
            return None
        return tuple(vv[pc] for pc in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        """The larger basis is already reduced echelon, so only the
        smaller one's rows are eliminated against it."""
        self._check_same_space(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        acc = EchelonBasis(self.field, self.ambient_dim)
        acc.rows, acc.pivots = list(big.basis.entries), list(big.pivots)
        grew = [acc.add(row) for row in small.basis.entries]
        return acc.subspace() if any(grew) else big

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check_same_space(other)
        field = self.field
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(field, n)
        stacked = Matrix(field, self.basis.entries + other.basis.entries, ncols=n, validate=False)
        relations = right_kernel(stacked.transpose())
        return Subspace.from_vectors(field, n, [
            linear_combination(field, rel[:self.dim], self.basis.entries, n)
            for rel in relations])

    def is_invariant_under(self, mats) -> bool:
        mats = tuple(mats)
        for m in mats:
            self.basis._check_same_field(m)
        # apply returns field elements, so they need no coercion
        return not any(any(self.residual(m.apply(row)))
                       for m in mats for row in self.basis.entries)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def spin(field: Field, n: int, seeds, operators, limit: int | None = None) -> Subspace | None:
    """Smallest operator-invariant subspace containing the seed vectors.

    The span is kept as a semi-echelon basis (Parker's MeatAxe): rows in
    the order they were found, each zero at the lead columns of the rows
    before it and kept with its lead column and the inverse of its lead
    entry.  An image is formed unreduced from the operator's rows, each
    earlier row is eliminated with one multiplication for its coefficient,
    and the residual is reduced once; the rows themselves are spun.

    The span only grows while it spins, so the loop stops as soon as it
    is all of k^n, whatever is still queued, and returns `Subspace.full`.
    With a limit, returns None once the span reaches `limit` dimensions,
    that is exactly when the invariant subspace has at least `limit` of
    them; a partly spun span is never returned.  Only a proper result's
    rows go through `EchelonBasis` for its canonical basis.
    """
    seeds = [tuple(map(field.coerce, v)) for v in seeds]
    if any(len(v) != n for v in seeds):
        raise DimensionMismatch("seed length does not match the dimension")
    if any(op.nrows != n or op.ncols != n for op in operators):
        raise DimensionMismatch("operator size does not match the dimension")
    fmul, inv, reduce = field.mul, field.inv, field.reduce
    rows = []  # (row, lead column, inverse of the lead entry)
    stop = n if limit is None else min(n, limit)

    def grows(v) -> bool:
        for row, lead, li in rows:
            c = fmul(v[lead], li)
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        v = reduce(v)
        for lead, x in enumerate(v):
            if x:
                rows.append((v, lead, inv(x)))
                return True
        return False

    for v in seeds:
        if len(rows) == stop:
            break
        grows(v)
    i = 0
    while len(rows) < stop and i < len(rows):
        v = rows[i][0]
        i += 1
        for op in operators:
            if grows([sum(map(mul, r, v)) for r in op.entries]) and len(rows) == stop:
                break
    if limit is not None and len(rows) >= limit:
        return None
    if len(rows) == n:
        return Subspace.full(field, n)
    acc = EchelonBasis(field, n)
    for row, _lead, _li in rows:
        acc.add(row)
    return acc.subspace()


def all_vectors(field: Field, n: int):
    """Every vector of GF(p)^n, in lexicographic order."""
    if field.p is None:
        raise InvalidInput("cannot enumerate vectors over the rationals")
    return itertools.product(range(field.p), repeat=n)


def projective_vectors(field: Field, n: int):
    """One representative per line of GF(p)^n: first nonzero entry is 1."""
    if field.p is None:
        raise InvalidInput("cannot enumerate lines over the rationals")
    p = field.p
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def charpoly(m: Matrix) -> list:
    """Coefficients of det(xI - M), ascending, via Hessenberg reduction.

    Works over any exact field (no division by integer constants), O(n^3).
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.nrows
    field = m.field
    if n == 0:
        return [field.one]
    H = [list(r) for r in m.entries]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pv = H[j + 1][j]
        pv_inv = field.inv(pv)
        for i in range(j + 2, n):
            if H[i][j] != 0:
                t = field.mul(H[i][j], pv_inv)
                H[i] = [field.sub(a, field.mul(t, b)) for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = field.add(row[j + 1], field.mul(t, row[i]))
    # p_m(x) = (x - H[m-1][m-1]) p_{m-1}(x)
    #          - sum_i H[m-1-i][m-1] * (prod of subdiagonal entries) * p_{m-1-i}(x)
    polys = [[field.one]]
    for mdim in range(1, n + 1):
        prev = polys[mdim - 1]
        d = H[mdim - 1][mdim - 1]
        cur = [field.zero] + list(prev)
        for k, c in enumerate(prev):
            cur[k] = field.sub(cur[k], field.mul(d, c))
        prod = field.one
        for i in range(1, mdim):
            prod = field.mul(prod, H[mdim - i][mdim - i - 1])
            coef = field.mul(H[mdim - 1 - i][mdim - 1], prod)
            if coef != 0:
                low = polys[mdim - 1 - i]
                for k, c in enumerate(low):
                    cur[k] = field.sub(cur[k], field.mul(coef, c))
        polys.append(cur)
    return polys[n]


def poly_eval_matrix(coeffs, m: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix.

    Horner's rule starts at the leading coefficient c, whose first step
    c * m is a scaling, so a polynomial of degree d takes d - 1 products.
    """
    field = m.field
    n = m.nrows
    ident = Matrix.identity(field, n)
    coeffs = list(coeffs)
    if not coeffs:
        return Matrix.zeros(field, n, n)
    if len(coeffs) == 1:
        return ident.scale(coeffs[0])
    acc = m.scale(coeffs[-1]) + ident.scale(coeffs[-2])
    for c in reversed(coeffs[:-2]):
        acc = acc * m + ident.scale(c)
    return acc


# Polynomials over GF(p) for factor_mod_p: lists of ints in [0, p),
# ascending, without trailing zeros, so [] is zero and len(f) - 1 the degree.

def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a: list, p: int) -> list:
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pdivmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by a monic b."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] % p
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return q, _trim([c % p for c in r[:db]])


def _psub(a: list, b: list, p: int) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pgcd(a: list, b: list, p: int) -> list:
    """The monic gcd of a and b, which are not both zero."""
    while b:
        b = _monic(b, p)
        a, b = b, _pdivmod(a, b, p)[1]
    return _monic(a, p)


def _squarefree(f: list, p: int) -> list:
    """[(g, e)] with f the product of the g^e, each g monic, squarefree and
    of positive degree, the g pairwise coprime; f monic.

    Yun's gcds with the derivative split off the multiplicities prime to
    p; what is left is c(x) = d(x^p) = d(x)^p, since every element of
    GF(p) is its own p-th root, so the loop goes on with d and p times
    the multiplicity.
    """
    out, scale = [], 1
    while len(f) > 1:
        c = _pgcd(f, _trim([i * x % p for i, x in enumerate(f)][1:]), p)
        w, i = _pdivmod(f, c, p)[0], 1
        while len(w) > 1:
            y = _pgcd(w, c, p)
            g = _pdivmod(w, y, p)[0]
            if len(g) > 1:
                out.append((g, i * scale))
            w, c, i = y, _pdivmod(c, y, p)[0], i + 1
        f, scale = c[::p], scale * p
    return out


# slot width in bytes -> the array format of one machine word, and the
# words per slot; a 16-byte slot is two words, the low one first
_SLOT_WORDS = {1: ("B", 1), 2: ("H", 1), 4: ("I", 1), 8: ("Q", 1), 16: ("Q", 2)}
# elements are packed little-endian; on a big-endian machine the bytes of
# a packed int, read as an array of words, hold the words in reverse
_BIG_ENDIAN = sys.byteorder == "big"


class _Residues:
    """GF(p)[x]/(f) for a monic f of degree d >= 1, on packed ints.

    An element is the int sum_i c_i 2^(i*bits) of its coefficients c_i in
    [0, p), i < d (Kronecker substitution), so a product of two elements
    is one big-int multiply, whose slots do not carry into each other as
    long as each stays below 2^bits.  A product's slot sums at most d
    products of two coefficients, so it holds at most d (p-1)^2; slots d
    and above are folded back by adding their values times the packed
    rows x^(d+k) mod f, which adds at most d of them times p - 1; and all
    slots are then reduced at once through `array` (Dumas, Fousse &
    Salvy, Simultaneous modular reduction and Kronecker substitution for
    small finite fields, J. Symb. Comput. 46, 2011).  So a slot must hold
    d (p-1)^2 (1 + d (p-1)), and its width is the smallest of 1, 2, 4, 8
    and 16 bytes that does.

    `rows` are the Frobenius rows: row i is x^(p*i), a shift while
    p*i < d.  Since h^p = h(x^p) over GF(p), h^p is the sum of h_i times
    row i.
    """

    __slots__ = ("p", "d", "bits", "fmt", "words", "nbytes", "low", "fold", "x", "rows")

    def __init__(self, f: list, p: int):
        d = len(f) - 1
        width = next(w for w in _SLOT_WORDS if d * (p - 1) ** 2 * (1 + d * (p - 1)) < 256**w)
        self.p, self.d, self.bits = p, d, 8 * width
        self.fmt, self.words = _SLOT_WORDS[width]
        self.nbytes = d * width
        self.low = (1 << 8 * self.nbytes) - 1
        # x^d = -(f_0 + ... + f_(d-1) x^(d-1)), and x^(d+k+1) is x^(d+k)
        # shifted, its top coefficient c folded back as c x^d
        fold = [self.pack([-c % p for c in f[:-1]])]
        for _ in range(d - 1):
            r = fold[-1] << self.bits
            c = r >> 8 * self.nbytes
            fold.append(self.pack(map(mod, self.slots((r & self.low) + c * fold[0]), repeat(p)))
                        if c else r)
        self.fold = fold
        self.x = 1 << self.bits if d > 1 else fold[0]
        rows = [1, self.pow(self.x, p)]
        for i in range(2, d):
            rows.append(1 << p * i * self.bits if p * i < d else self.mul(rows[-1], rows[1]))
        self.rows = rows[:d]

    def pack(self, coeffs) -> int:
        """The element with these coefficients, each in [0, p), at most d."""
        if self.words == 2:
            coeffs = [w for c in coeffs for w in (c, 0)]
        words = array(self.fmt, coeffs)
        if _BIG_ENDIAN:
            words.reverse()
        return int.from_bytes(words, "little")

    def slots(self, v: int):
        """The d slot values of v < 2^(d*bits), lowest first."""
        words = memoryview(v.to_bytes(self.nbytes, "little")).cast(self.fmt)
        if _BIG_ENDIAN:
            words = words[::-1]
        if self.words == 2:
            return [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
        return words

    def coeffs(self, v: int) -> list:
        """A reduced element as a polynomial list."""
        return _trim(list(self.slots(v)))

    def reduce(self, v: int) -> int:
        """The element of v, a polynomial of degree below 2d whose slots
        hold at most d(p-1)^2 each."""
        p = self.p
        high = v >> 8 * self.nbytes
        if high:
            v = (v & self.low) + sum(map(mul, self.slots(high), self.fold))
        return self.pack(map(mod, self.slots(v), repeat(p)))

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def pow(self, a: int, e: int) -> int:
        """a^e, squaring from the top bit down.  When a is x, multiplying
        by it is a shift of the square before its reduction, and x^k with
        k < d is reduced as it stands."""
        shift = a == self.x
        out, k = 1, 0
        for bit in bin(e)[2:]:
            sq = out * out
            if bit == "1":
                sq = sq << self.bits if shift else self.reduce(sq) * a
            k = 2 * k + (bit == "1")
            out = sq if shift and k < self.d else self.reduce(sq)
        return out

    def frobenius(self, h: int) -> int:
        """h^p, from the Frobenius rows."""
        return self.reduce(sum(map(mul, self.slots(h), self.rows)))


def _distinct_degree(f: list, ring: "_Residues") -> list:
    """[(d, g)]: g is the product of the degree-d irreducible factors of
    the monic squarefree f, the modulus of `ring`; g != 1.  The degree-d
    factors are those of gcd(f, x^(p^d) - x) once the lower degrees are
    divided out."""
    p = ring.p
    out, h, d = [], ring.x, 1
    while len(f) - 1 >= 2 * d:
        h = ring.frobenius(h)
        g = _pgcd(f, _psub(ring.coeffs(h), [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
        d += 1
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f: list, d: int, ring: "_Residues", rng) -> list:
    """The irreducible factors of f, a product of distinct monic
    irreducibles of degree d, by Cantor-Zassenhaus.  `ring` is GF(p)[x]
    modulo a multiple of f; everything is computed there, since a gcd
    with f sees only the residue mod f.

    For random a mod f, each factor sees a in GF(p^d).  For odd p,
    b = a * a^p * ... * a^(p^(d-1)) is the norm of a in GF(p), and
    b^((p-1)/2) - 1 vanishes at about half of the factors.  For p = 2
    the trace a + a^2 + ... + a^(2^(d-1)) lies in GF(2) and vanishes at
    about half.  The gcd with f then splits it.
    """
    p = ring.p
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = ring.pack([rng.randrange(p) for _ in range(n)])
        s = t = a
        for _ in range(d - 1):
            t = ring.frobenius(t)
            # over GF(2), s - t is s + t
            s = ring.reduce(s + t) if p == 2 else ring.mul(s, t)
        if p == 2:
            s = ring.coeffs(s)
        else:
            s = _psub(ring.coeffs(ring.pow(s, (p - 1) // 2)), [1], p)
        g = _pgcd(f, s, p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, ring, rng)
                    + _equal_degree(_pdivmod(f, g, p)[0], d, ring, rng))


def factor_mod_p(coeffs, p: int) -> list[tuple[tuple, int]]:
    """Factor a polynomial (ascending coefficients) over GF(p).

    Returns [(monic ascending coefficient tuple, multiplicity)], sorted by
    degree then coefficients; [] for zero and for constants.  Squarefree
    decomposition, then distinct-degree factorization with one Frobenius
    matrix per squarefree part, then Cantor-Zassenhaus (Math. Comp. 36,
    1981), both in the packed ring modulo that part.  The random choices
    come from one generator seeded the same way on every call, created at
    the first part that needs splitting and shared by the later ones; the
    factorization is unique, so they change only the time taken.
    """
    f = _trim([int(c) % p for c in coeffs])
    if len(f) < 2:
        return []
    rng = None
    out = []
    for g, e in _squarefree(_monic(f, p), p):
        if len(g) == 2:
            out.append((tuple(g), e))
            continue
        ring = _Residues(g, p)
        for d, h in _distinct_degree(g, ring):
            if rng is None and len(h) - 1 > d:
                rng = random.Random(0)
            out.extend((tuple(u), e) for u in _equal_degree(h, d, ring, rng))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def is_irreducible_mod_p(coeffs, p: int) -> bool:
    """Whether a monic polynomial (ascending coefficients) of positive
    degree d is irreducible over GF(p); a constant or a polynomial that
    is not monic gives False.

    Rabin's test (SIAM J. Comput. 9, 1980): f is irreducible exactly when
    x^(p^d) = x mod f and gcd(x^(p^(d/q)) - x, f) = 1 for each prime q
    dividing d.  The powers x^(p^i) mod f come one Frobenius step at a
    time in the packed ring modulo f, so no factor is ever split off.
    """
    f = [c % p for c in coeffs]
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    if d == 1:
        return True
    ring = _Residues(f, p)
    coprime_at = {d // q for q in range(2, d + 1) if d % q == 0 and _is_prime(q)}
    h = ring.x
    for i in range(1, d + 1):
        h = ring.frobenius(h)
        if i in coprime_at and _pgcd(f, _psub(ring.coeffs(h), [0, 1], p), p) != [1]:
            return False
    return h == ring.x


def sylvester_rows(a: Matrix, d: Matrix) -> list[tuple]:
    """Coefficient rows of the linear map X -> A X - X D.

    A is k x k, D is m x m, and the unknowns are the entries of the
    k x m matrix X numbered row-major; row i*m + j gives entry (i, j).
    """
    field = a.field
    k, m = a.nrows, d.nrows
    ae, de = a.entries, d.entries
    rows = []
    for i in range(k):
        for j in range(m):
            row = [field.zero] * (k * m)
            for c in range(k):
                row[c * m + j] = ae[i][c]
            for c in range(m):
                row[i * m + c] = field.sub(row[i * m + c], de[c][j])
            rows.append(tuple(row))
    return rows


def _quotient_standard_basis(field: Field, quotients):
    """A standard basis u_0, u_1, ... of the quotient: its standard vectors
    e_0, e_1, ... taken in order, each one not yet reached spun to closure
    before the next.

    Returns (origins, basis, relations, inverse).  origins[t] is None when
    u_t is a seed and (t', i) when u_t = D_i u_t'.  relations lists
    (t, i, c) for every other pair, with D_i u_t = sum_s c[s] u_s, and
    inverse[f] holds the coordinates of e_f in the u basis.  Each pair
    (t, i) costs one application of D_i.
    """
    m = quotients[0].nrows
    # rows (v, c) with v = sum_s c[s] u_s: a residual with v-part zero
    # carries minus the coordinates of what it reduced
    acc = EchelonBasis(field, 2 * m)
    tail = (field.zero,) * m
    origins, basis, relations = [], [], []

    def place(v, origin):
        r = acc.residual(v + tail)
        if not any(r[:m]):
            return [field.neg(c) for c in r[m:]]
        r[m + len(basis)] = field.one
        acc.add(r)
        origins.append(origin)
        basis.append(v)
        return None

    t = 0
    for f in range(m):
        if len(basis) == m:
            break
        place(tuple(field.one if j == f else field.zero for j in range(m)), None)
        while t < len(basis):
            for i, d in enumerate(quotients):
                c = place(d.apply(basis[t]), (t, i))
                if c is not None:
                    relations.append((t, i, c))
            t += 1
    return origins, basis, relations, [row[m:] for row in acc.rows]


def solve_sylvester(a, d, b) -> tuple:
    """Solve A_i X - X D_i = -B_i for all i (A_i and D_i square Matrix,
    B_i k x m rows).  Returns (x, kernel) in the unknowns of
    `sylvester_rows`, entry (r, c) of X at r*m + c: x is the solution with
    the free unknowns zero, as `solve_linear` gives it, and kernel the
    `right_kernel` basis of the homogeneous system; (None, None) when
    there is no solution.

    X is a map xi with xi(D_i u) = A_i xi(u) + B_i u, fixed by its values
    on the s seeds of a standard basis of the D-module (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 7.5): k*s unknowns
    instead of k*m.  When every D_i is upper triangular every standard
    vector is a seed, so the k*m rows are eliminated as they stand.
    Either way the rows (C | -r) for C y = r are eliminated as built and
    the solve stops at a row 0 = c; otherwise the last kernel vector is
    (y, 1) and the others, (z, 0), span the homogeneous solutions.
    """
    field = d[0].field
    k, m = a[0].nrows, d[0].nrows
    zero, one = field.zero, field.one
    reduce = field.reduce
    coupled = [any(map(any, bi)) for bi in b]

    def image(t, i):
        """xi(D_i u_t) as k affine rows (y coefficients, then constant)."""
        cols = tuple(zip(*xis[t]))
        bu = [sum(map(mul, brow, basis[t])) for brow in b[i]] if coupled[i] else [zero] * k
        return [reduce([sum(map(mul, arow, col)) for col in cols[:-1]]
                       + [sum(map(mul, arow, cols[-1])) + bt])
                for arow, bt in zip(a[i].entries, bu)]

    def combine(coeffs):
        """sum_t coeffs[t] xi(u_t), entries unreduced."""
        out = [[zero] * width for _ in range(k)]
        for c, xi in zip(coeffs, xis):
            if c:
                out = [[x + c * y for x, y in zip(orow, xrow)] for orow, xrow in zip(out, xi)]
        return out

    upper = not any(dd.entries[i][j] for dd in d for j in range(m) for i in range(j + 1, m))
    if upper:
        width = k * m + 1
        rows = (row + (c,) for ai, di, bi in zip(a, d, b)
                for row, c in zip(sylvester_rows(ai, di), (c for brow in bi for c in brow)))
    else:
        origins, basis, relations, inverse = _quotient_standard_basis(field, d)
        width = k * origins.count(None) + 1
        xis, seeds = [], 0
        for origin in origins:
            if origin is None:
                xis.append([[one if c == k * seeds + r else zero for c in range(width)]
                            for r in range(k)])
                seeds += 1
            else:
                xis.append(image(*origin))
        # only the relations of the spin constrain y, with k rows each
        rows = (reduce(map(sub, have, want)) for t, i, c in relations
                for have, want in zip(combine(c), image(t, i)))
    acc = EchelonBasis(field, width)
    for row in rows:
        if acc.add(row) and acc.pivots[-1] == width - 1:
            return None, None
    *homogeneous, particular = right_kernel(acc)
    if upper:
        return particular[:-1], [z[:-1] for z in homogeneous]
    # X's column f is xi(e_f), read off the u-coordinates of e_f
    columns = [combine(inverse[f]) for f in range(m)]

    def x_coords(point):
        return reduce([sum(map(mul, columns[f][r], point)) for r in range(k) for f in range(m)])

    # a Sylvester kernel vector ends in a 1 at its free column, zeros at
    # the other free ones, so reversed these vectors are the reduced
    # echelon basis of the solutions, and x reduced against it is zero there
    directions = EchelonBasis(field, k * m)
    for z in homogeneous:
        directions.add(x_coords(z)[::-1])
    return (directions.residual(x_coords(particular)[::-1])[::-1],
            [tuple(z[::-1]) for z in reversed(directions.rows)])


def solve_conjugating(lhs, rhs) -> Matrix | None:
    """The first basis vector of {g : g * lhs[i] = rhs[i] * g for all i},
    the `solve_sylvester` kernel of rhs[i] g - g lhs[i] = 0, with g's
    entries read row-major.  Returns None when only g = 0 solves the
    system.  The answer may be singular: whether a singular intertwiner
    means anything is the caller's to decide.
    """
    lhs, rhs = list(lhs), list(rhs)
    if len(lhs) != len(rhs):
        raise DimensionMismatch("conjugation systems of different lengths")
    if not lhs:
        raise InvalidInput("empty conjugation system")
    if not all(isinstance(m, Matrix) for m in itertools.chain(lhs, rhs)):
        raise InvalidInput("every conjugation system entry must be a Matrix")
    field, n = lhs[0].field, lhs[0].nrows
    for m in itertools.chain(lhs, rhs):
        if m.field is not field or m.nrows != n or m.ncols != n:
            raise DimensionMismatch("conjugation system entries must share one square shape")
    _x, kernel = solve_sylvester(rhs, lhs, [Matrix.zeros(field, n, n).entries] * len(lhs))
    if not kernel:
        return None
    return Matrix(field, [kernel[0][i * n:(i + 1) * n] for i in range(n)],
                  ncols=n, validate=False)
