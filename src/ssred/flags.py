"""Flags in k^n, the cocharacters they induce, and the limit map c_lambda.

A flag V_1 < V_2 < ... < V_r = k^n determines a one-parameter subgroup
lambda(a) = diag(a^r, ..., a^1) in a basis adapted to the flag, with the
weight a^(r-i+1) repeated dim(V_i) - dim(V_{i-1}) times.  Conjugation by
lambda(a) contracts the strictly-upper blocks as a -> 0; the limit map
c_lambda kills them and is a group homomorphism from the flag stabilizer
P_lambda onto its block-diagonal Levi subgroup L_lambda.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    FLAG_CANDIDATE_CAP,
    DimensionMismatch,
    InvalidInput,
    LimitDoesNotExist,
    SearchSpaceExceeded,
)
from .exact import Field, Matrix, Subspace, solve_sylvester


class Flag:
    """A strictly increasing chain of subspaces ending at the full space.

    The zero space is left implicit; the trivial flag is the single step
    [k^n].  With validate=False the steps are taken as a nested chain of
    Subspaces of strictly increasing dimension ending at the full space,
    unchecked, as `chain_flags` builds them.
    """

    __slots__ = ("ambient_dim", "steps", "block_sizes")

    def __init__(self, steps, validate: bool = True):
        steps = tuple(steps)
        if validate:
            if not steps:
                raise InvalidInput("a flag needs at least the full space")
            if not all(isinstance(v, Subspace) for v in steps):
                raise InvalidInput("flag steps must be Subspaces")
            n = steps[0].ambient_dim
            prev_dim = 0
            for i, v in enumerate(steps):
                if v.ambient_dim != n:
                    raise DimensionMismatch("flag steps live in different ambient spaces")
                if v.dim <= prev_dim:
                    raise InvalidInput("flag dimensions must strictly increase")
                if i > 0 and not v.contains(steps[i - 1]):
                    raise InvalidInput("flag steps must be nested")
                prev_dim = v.dim
            if steps[-1].dim != n:
                raise InvalidInput("last flag step must be the full space")
        n = steps[-1].ambient_dim
        self.ambient_dim = n
        self.steps = steps
        dims = [0] + [v.dim for v in steps]
        self.block_sizes = tuple(b - a for a, b in zip(dims, dims[1:]))

    @classmethod
    def trivial(cls, field: Field, n: int) -> "Flag":
        return cls([Subspace.full(field, n)])

    @property
    def field(self) -> Field:
        return self.steps[0].field

    @property
    def length(self) -> int:
        return len(self.steps)

    def is_preserved_by(self, mats) -> bool:
        return all(v.is_invariant_under(mats) for v in self.steps[:-1])

    def __eq__(self, other):
        return isinstance(other, Flag) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        dims = [v.dim for v in self.steps]
        return f"Flag(dims={dims})"


def chain_flags(proper, full: Subspace) -> list[Flag]:
    """Flag(chain + [full]) for every strictly increasing chain of the
    proper subspaces, sorted by dimension, depth first; the empty chain is
    left out.  More than FLAG_CANDIDATE_CAP flags raise SearchSpaceExceeded."""
    out = []

    def extend(chain, start):
        for i, s in enumerate(proper[start:], start):
            if not chain or (s.dim > chain[-1].dim and s.contains(chain[-1])):
                out.append(Flag(chain + [s, full], validate=False))
                if len(out) > FLAG_CANDIDATE_CAP:
                    raise SearchSpaceExceeded("flag enumeration exceeded the candidate cap")
                extend(chain + [s], i + 1)

    extend([], 0)
    return out


def canonical_weights(weights) -> tuple[int, ...]:
    """Center to sum zero and divide out the common factor.

    Central shifts of a cocharacter act trivially by conjugation, so this
    normal form is what length measures are computed from.
    """
    n = len(weights)
    s = sum(weights)
    scaled = [n * w - s for w in weights]
    g = 0
    for x in scaled:
        g = gcd(g, abs(x))
    if g > 1:
        scaled = [x // g for x in scaled]
    return tuple(scaled)


class Cocharacter:
    """A cocharacter of GL_n given by an adapted basis and integer weights.

    `basis_change` has the adapted basis as its columns; `weights[i]` is the
    exponent carried by column i and must be non-increasing.  `canonical`
    holds the centered, gcd-reduced weight vector used by length measures.
    A given `inverse` is taken as the inverse of `basis_change` unchecked,
    as `flag_to_cocharacter` reads it off the echelon rows; otherwise it is
    computed, and a singular basis raises InvalidInput.  A part that is not a
    Matrix raises InvalidInput, an inverse of another field or size
    DimensionMismatch.
    """

    __slots__ = ("field", "n", "basis_change", "basis_change_inv", "weights", "canonical")

    def __init__(self, basis_change: Matrix, weights, inverse: Matrix | None = None):
        weights = tuple(weights)
        if any(type(w) is not int for w in weights):
            raise InvalidInput(f"weights {weights!r} are not all ints")
        if not (isinstance(basis_change, Matrix) and isinstance(inverse, (Matrix, type(None)))):
            raise InvalidInput("the basis change and its inverse must be Matrix values")
        n = basis_change.nrows
        if basis_change.ncols != n or len(weights) != n:
            raise DimensionMismatch("adapted basis and weight vector sizes disagree")
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise InvalidInput("weights must be non-increasing")
        inv = basis_change.inverse() if inverse is None else inverse
        if inv is None:
            raise InvalidInput("adapted basis matrix is singular")
        if (inv.field, inv.nrows, inv.ncols) != (basis_change.field, n, n):
            raise DimensionMismatch("the inverse does not match the basis change")
        self.field = basis_change.field
        self.n = n
        self.basis_change = basis_change
        self.basis_change_inv = inv
        self.weights = weights
        self.canonical = canonical_weights(weights)

    def norm_sq(self) -> int:
        return sum(x * x for x in self.canonical)

    @property
    def is_central(self) -> bool:
        """Whether every weight is the same: then lambda(a) is a scalar
        matrix, and conjugating by it fixes every matrix."""
        return len(set(self.weights)) <= 1

    def _levels(self):
        """(start, stop) column ranges of equal weight, largest weight first."""
        start = 0
        for i in range(1, self.n + 1):
            if i == self.n or self.weights[i] < self.weights[i - 1]:
                yield start, i
                start = i

    def flag(self) -> Flag:
        """The flag of weight-level spaces: V_k = span of columns with the
        k largest distinct weights."""
        cols = self.basis_change.transpose().entries
        return Flag([Subspace.from_vectors(self.field, self.n, cols[:stop])
                     for _, stop in self._levels()])

    def block_spans(self) -> list[Subspace]:
        """Span of the columns of each weight, largest weight first: one
        summand per flag block, on which the Levi subgroup acts by its
        diagonal blocks."""
        cols = self.basis_change.transpose().entries
        return [Subspace.from_vectors(self.field, self.n, cols[start:stop])
                for start, stop in self._levels()]

    def __eq__(self, other):
        return (isinstance(other, Cocharacter)
                and self.basis_change == other.basis_change
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.basis_change, self.weights))

    def __repr__(self):
        return f"Cocharacter(weights={self.weights}, canonical={self.canonical})"


def flag_to_cocharacter(f: Flag) -> Cocharacter:
    """The cocharacter diag(a^r, ..., a^1) in a basis adapted to the flag.

    The adapted basis takes, for each step, the rows of its canonical
    echelon basis whose pivot column is new relative to the previous step;
    pivot sets of nested spaces are themselves nested, so this completes
    each step's basis exactly.

    A chosen row is 1 at its pivot and 0 at the pivots of the rows before
    it, all pivots of its own step or an earlier one.  So the coordinates
    c of a vector v in the adapted basis come out in order,
    c_l = v[pivot_l] - sum_(k<l) row_k[pivot_l] c_k, and this recursion
    gives the inverse basis change row by row, without elimination.
    An f that is not a Flag raises InvalidInput.
    """
    if not isinstance(f, Flag):
        raise InvalidInput(f"expected a Flag, got {type(f).__name__}")
    field = f.field
    n = f.ambient_dim
    r = len(f.steps)
    cols = []
    weights = []
    inv_rows = []
    used_pivots: set[int] = set()
    for i, v in enumerate(f.steps):
        w = r - i
        for row, pivot in zip(v.basis.entries, v.pivots):
            if pivot not in used_pivots:
                used_pivots.add(pivot)
                inv_row = [field.zero] * n
                inv_row[pivot] = field.one
                for earlier, inv_earlier in zip(cols, inv_rows):
                    if earlier[pivot]:
                        inv_row = field.axpy(inv_row, earlier[pivot], inv_earlier)
                cols.append(row)
                inv_rows.append(inv_row)
                weights.append(w)
    basis_change = Matrix(field, tuple(cols), ncols=n, validate=False).transpose()
    inverse = Matrix(field, inv_rows, ncols=n, validate=False)
    return Cocharacter(basis_change, weights, inverse=inverse)


def c_lambda(m, lam: Cocharacter):
    """The limit lim_{a->0} lambda(a) m lambda(a)^-1.

    Accepts a single matrix or a tuple/list of them (mapped entrywise).
    In the adapted basis the (i,j) entry is scaled by a^(w_i - w_j), so
    the limit exists, m lying in P_lambda, exactly when every entry with
    w_i < w_j vanishes; otherwise LimitDoesNotExist is raised.  Restricted
    to P_lambda this is a group homomorphism onto L_lambda.  A central
    lambda has P_lambda = L_lambda = GL_n, and the limit is m itself.
    Any other m or a lam that is not a Cocharacter raises InvalidInput.
    """
    if not isinstance(lam, Cocharacter):
        raise InvalidInput(f"expected a Cocharacter, got {type(lam).__name__}")
    if isinstance(m, (tuple, list)):
        return tuple(c_lambda(x, lam) for x in m)
    if not isinstance(m, Matrix):
        raise InvalidInput(f"expected a Matrix, got {type(m).__name__}")
    if m.field is not lam.field or m.nrows != lam.n or m.ncols != lam.n:
        raise DimensionMismatch("matrix does not match the cocharacter's space")
    if lam.is_central:
        return m
    a = lam.basis_change_inv * m * lam.basis_change
    w = lam.weights
    if any(x != 0 and wi < wj for row, wi in zip(a.entries, w) for x, wj in zip(row, w)):
        raise LimitDoesNotExist("matrix lies outside P_lambda")
    return lam.basis_change * levi_part(a, w) * lam.basis_change_inv


def levi_part(a: Matrix, weights) -> Matrix:
    """a with the entries between unequal weights zeroed: for a in P_lambda
    in lambda's adapted basis, its limit there."""
    zero = a.field.zero
    rows = tuple(tuple(x if wi == wj else zero for x, wj in zip(row, weights))
                 for row, wi in zip(a.entries, weights))
    return Matrix(a.field, rows, ncols=a.ncols, validate=False)


def splits_adapted(hs, block_sizes) -> bool:
    """Whether each flag step F_(i-1) < F_i, F_i the span of the first i
    adapted blocks, has an hs-invariant complement in F_i, hs given in the
    adapted basis.  On F_i each h is [[A, B], [0, D]], and the complements
    are the spans of [X; I] with A X - X D = -B for all h: one
    `solve_sylvester` per step, up to the first that fails.

    Then some u = I + N in R_u(P_lambda)(k) has u h = l u for each h and
    its limit l = levi_part(h): u maps each complement onto its block along
    F_(i-1), and conversely u^-1 of block i is a complement.  So this
    decides whether the limits are GL_n(k)-conjugate to hs, by
    Bate-Martin-Roehrle-Tange, Thm 3.3: if a reductive G acts on an affine
    variety and x' = lim_{a->0} lambda(a).x lies in G.x, then x' lies in
    R_u(P_lambda).x.  Here G = GL_n over the algebraic closure of k, and a
    linear system over k solvable there is solvable over k.
    """
    field, top = hs[0].field, block_sizes[0]
    for size in block_sizes[1:]:
        end = top + size
        a = [Matrix(field, [r[:top] for r in h.entries[:top]], validate=False) for h in hs]
        d = [Matrix(field, [r[top:end] for r in h.entries[top:end]], validate=False) for h in hs]
        if solve_sylvester(a, d, [[r[top:end] for r in h.entries[:top]] for h in hs])[0] is None:
            return False
        top = end
    return True


def diagonal_blocks(m: Matrix, block_sizes) -> list[Matrix]:
    """Cut a square matrix into its diagonal blocks of the given sizes."""
    if sum(block_sizes) != m.nrows or m.nrows != m.ncols:
        raise DimensionMismatch("block sizes do not tile the matrix")
    out = []
    start = 0
    for size in block_sizes:
        out.append(Matrix(m.field,
                          tuple(row[start:start + size]
                                for row in m.entries[start:start + size]),
                          ncols=size, validate=False))
        start += size
    return out


def block_diagonal(field: Field, blocks) -> Matrix:
    """Assemble square blocks into one block-diagonal matrix."""
    n = sum(b.nrows for b in blocks)
    zero = field.zero
    rows = []
    start = 0
    for b in blocks:
        if b.nrows != b.ncols:
            raise DimensionMismatch("blocks must be square")
        for row in b.entries:
            rows.append((zero,) * start + tuple(row) + (zero,) * (n - start - b.ncols))
        start += b.nrows
    return Matrix(field, tuple(rows), ncols=n, validate=False)
