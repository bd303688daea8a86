"""Brute-force ground truth over small finite fields.

Everything here decides questions by exhaustive enumeration: the full
general linear group, the full subspace lattice, every flag, and orbits
of generator tuples under simultaneous conjugation.  None of it consults
the module-theoretic machinery used by the main pipeline, so agreement
between the two is meaningful evidence of correctness.

Closedness and the accessible closed orbits both read the orbit ids of
the limits along a tuple's flags, the chains of its invariant subspaces.
That id set is an orbit invariant, so an OrbitIndex walks each orbit's
flags once and memoizes the set on the index, never at module level.
Orbits are enumerated by conjugating with one element per scalar class
of GL_n, since g and cg conjugate alike for every scalar c.
Conjugation m -> g m g^-1 is linear in the entries of m, so the group
table packs the coefficients of that linear map for all conjugators into
one int per (output entry, input entry) pair, a fixed-width slot per
conjugator.  An entry of every conjugate at once is then one integer
multiply-add over the entries of m, read back slot by slot modulo p,
without building matrices.

All enumerations are capped; exceeding a cap raises ResourceBoundExceeded,
or SearchSpaceExceeded for the flag enumeration, rather than grinding on.
The orbit cache honours the SSRED_MAX_MEMORY_MB environment variable.
"""

import itertools
import math
import os
import sys
from array import array
from operator import mod, mul

from .errors import (
    GROUP_ELEMENTS_CAP,
    SPACE_VECTORS_CAP,
    DimensionMismatch,
    InvalidInput,
    LimitDoesNotExist,
    ResourceBoundExceeded,
)
from .exact import EchelonBasis, Field, Matrix, Subspace, all_vectors
from .flags import Cocharacter, Flag, c_lambda, chain_flags, flag_to_cocharacter
from .reps import Representation

_BYTES_PER_CACHE_ENTRY = 200
# slot width in bytes -> the array/memoryview format of one unsigned slot
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def group_order(q: int, n: int) -> int:
    """Order of GL_n(F_q) by the standard product formula."""
    return math.prod(q**n - q**i for i in range(n))


def _require_finite(field: Field) -> None:
    if field.p is None:
        raise InvalidInput("the brute-force oracle only works over finite fields")


class GroupTable:
    """Exhaustive listing of GL_n(F_q).

    `conjugators` pairs each element whose first nonzero entry in row 0
    is 1 with its inverse: one representative per scalar class, which is
    all that conjugation needs.  A representative is inverted by
    elimination only when its inverse is not yet known from its partner's,
    (c^-1 g^-1)^-1 = c g.  `inverses`, the inverse of every element in
    `elements` order, is built on first use as (c g)^-1 = c^-1 g^-1.

    `columns[i * n + j][a * n + b]` packs the coefficient of m[a][b] in
    entry (i, j) of g m g^-1, which is g[i][a] * g^-1[b][j] mod p, for
    every conjugator at once: one int whose slot t, `slot_bytes` wide in
    `sys.byteorder`, holds that coefficient for the t-th conjugator.
    `slot_bytes` is the smallest of 1, 2, 4 and 8 that holds
    n^2 (p-1)^2, the largest value an entry of a conjugate can take before
    its reduction mod p, so a sum of n^2 columns times entries of m never
    carries from one slot into the next.
    """

    __slots__ = ("field", "n", "elements", "_inverses", "conjugators",
                 "slot_bytes", "columns")

    def __init__(self, field: Field, n: int):
        _require_finite(field)
        order = group_order(field.p, n)
        if order > GROUP_ELEMENTS_CAP:
            raise ResourceBoundExceeded(
                f"|GL_{n}(F_{field.p})| = {order} exceeds the table cap {GROUP_ELEMENTS_CAP}")
        elements = _enumerate_invertible(field, n)
        if len(elements) != order:
            raise ResourceBoundExceeded(
                "group enumeration does not match the order formula")
        p = field.p
        inverse_of = {}
        for g in elements:
            if _leading(g) == 1:
                # re-keyed by g's own entries, so no scaled copy stays a key
                gi = inverse_of.pop(g.entries, None)
                if gi is None:
                    gi = g.inverse()
                    # g^-1's representative c^-1 g^-1 has the inverse c g
                    c = _leading(gi)
                    inverse_of[gi.scale(field.inv(c)).entries] = g.scale(c)
                inverse_of[g.entries] = gi
        self.field = field
        self.n = n
        self.elements = tuple(elements)
        self._inverses = None
        self.conjugators = tuple(
            (g, inverse_of[g.entries]) for g in self.elements if _leading(g) == 1)
        self.slot_bytes = next(w for w in _SLOT_FORMATS if n * n * (p - 1) ** 2 < 256**w)
        fmt = _SLOT_FORMATS[self.slot_bytes]
        # entry k of the t-th conjugator g (or g^-1) is flat[t * n^2 + k]
        g_flat = [x for g, _ in self.conjugators for row in g.entries for x in row]
        gi_flat = [x for _, gi in self.conjugators for row in gi.entries for x in row]
        columns = []
        for i in range(n):
            for j in range(n):
                columns.append(tuple(
                    int.from_bytes(array(fmt, list(map(
                        mod, map(mul, g_flat[i * n + a::n * n], gi_flat[b * n + j::n * n]),
                        itertools.repeat(p)))).tobytes(), sys.byteorder)
                    for a in range(n) for b in range(n)))
        self.columns = tuple(columns)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def inverses(self) -> tuple:
        if self._inverses is None:
            field, p = self.field, self.field.p
            inverse_of = {g.entries: gi for g, gi in self.conjugators}
            inverses = []
            for g in self.elements:
                ci = field.inv(_leading(g))
                rep = tuple(tuple(ci * x % p for x in row) for row in g.entries)
                inverses.append(inverse_of[rep].scale(ci))
            self._inverses = tuple(inverses)
        return self._inverses


def _leading(g: Matrix):
    """The first nonzero entry of row 0 of an invertible matrix."""
    return next(x for x in g.entries[0] if x != 0)


def _enumerate_invertible(field: Field, n: int) -> list:
    """Every invertible n x n matrix, built one independent row at a time."""
    nonzero = [v for v in all_vectors(field, n) if any(x != field.zero for x in v)]
    prefixes = [[]]
    for _ in range(n):
        grown = []
        for rows in prefixes:
            basis = EchelonBasis(field, n)
            for r in rows:
                basis.add(r)
            grown += [rows + [v] for v in nonzero if not basis.contains(v)]
        prefixes = grown
    return [Matrix(field, rows, validate=False) for rows in prefixes]


_TABLES: dict = {}
_SUBSPACES: dict = {}
_INDEXES: dict = {}


def get_table(field: Field, n: int) -> GroupTable:
    key = (field, n)
    if key not in _TABLES:
        _TABLES[key] = GroupTable(field, n)
    return _TABLES[key]


def all_subspaces(field: Field, n: int) -> tuple:
    """Every subspace of F_q^n, zero and full included, via RREF shapes."""
    _require_finite(field)
    key = (field, n)
    if key in _SUBSPACES:
        return _SUBSPACES[key]
    if field.p**n > SPACE_VECTORS_CAP:
        raise ResourceBoundExceeded(
            f"subspace lattice of F_{field.p}^{n} exceeds the cap {SPACE_VECTORS_CAP}")
    scalars = list(range(field.p))
    out = [Subspace.zero(field, n)]
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            free = [(i, c) for i in range(d)
                    for c in range(pivots[i] + 1, n) if c not in pivots]
            for values in itertools.product(scalars, repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                out.append(Subspace.from_vectors(field, n, [tuple(r) for r in rows]))
    result = tuple(out)
    _SUBSPACES[key] = result
    return result


def _cache_entry_limit() -> int:
    raw = os.environ.get("SSRED_MAX_MEMORY_MB", "512")
    try:
        mb = int(raw)
    except ValueError:
        raise InvalidInput(f"SSRED_MAX_MEMORY_MB must be an integer, got {raw!r}")
    if mb < 0:
        raise InvalidInput("SSRED_MAX_MEMORY_MB must be non-negative")
    return mb * (2**20) // _BYTES_PER_CACHE_ENTRY


class OrbitIndex:
    """Orbits of generator tuples under simultaneous conjugation.

    An orbit id is the minimum of the flat integer encodings of the
    orbit's members, so ids are stable across runs and processes.  Every
    member encoding seen is cached; the cache size is bounded by the
    SSRED_MAX_MEMORY_MB budget.  The orbit ids of the flag limits of each
    decided orbit are memoized by orbit id on this index, one entry per
    cached orbit, so the same budget bounds them.
    Members are found for every scalar class at once: entry r of the
    conjugates of a matrix with flat entries v is sum_s v[s] * columns[r][s]
    over the table's packed columns, unpacked slot by slot in
    `sys.byteorder` and reduced modulo p.  Matrices of another field or
    size raise DimensionMismatch.
    """

    __slots__ = ("table", "_cache", "_max_entries", "_limits")

    def __init__(self, table: GroupTable, max_entries: int | None = None):
        self.table = table
        self._cache = {}
        self._max_entries = _cache_entry_limit() if max_entries is None else max_entries
        self._limits = {}

    @staticmethod
    def encode(mats) -> tuple:
        return tuple(x for m in mats for row in m.entries for x in row)

    def _check(self, mats) -> None:
        field, n = self.table.field, self.table.n
        for m in mats:
            if m.field is not field or m.nrows != n or m.ncols != n:
                raise DimensionMismatch(
                    f"{m.nrows}x{m.ncols} matrix over {m.field!r} given to the "
                    f"orbit index of GL_{n}({field!r})")

    def orbit_members(self, mats) -> frozenset:
        mats = tuple(mats)
        self._check(mats)
        table = self.table
        p = table.field.p
        size = len(table.conjugators) * table.slot_bytes
        fmt = _SLOT_FORMATS[table.slot_bytes]
        parts = []
        for v in (self.encode((m,)) for m in mats):
            for entry_columns in table.columns:
                packed = sum(x * c for x, c in zip(v, entry_columns) if x)
                slots = memoryview(packed.to_bytes(size, sys.byteorder)).cast(fmt)
                parts.append(map(mod, slots, itertools.repeat(p)))
        # the empty tuple is its own one-member orbit
        return frozenset(zip(*parts)) if parts else frozenset({()})

    def orbit_id(self, mats) -> tuple:
        mats = tuple(mats)
        self._check(mats)
        key = self.encode(mats)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        members = self.orbit_members(mats)
        oid = min(members)
        if len(self._cache) + len(members) > self._max_entries:
            raise ResourceBoundExceeded(
                "orbit cache would exceed the SSRED_MAX_MEMORY_MB budget")
        self._cache.update(dict.fromkeys(members, oid))
        return oid


def get_index(field: Field, n: int) -> OrbitIndex:
    key = (field, n)
    if key not in _INDEXES:
        _INDEXES[key] = OrbitIndex(get_table(field, n))
    return _INDEXES[key]


def _as_tuple(x) -> tuple:
    mats = tuple(x.generators) if isinstance(x, Representation) else tuple(x)
    if not mats:
        raise InvalidInput("need at least one matrix")
    _require_finite(mats[0].field)
    return mats


def generic_tuple(rep: Representation) -> tuple:
    """Generators followed by their inverses: the tuple fed to the oracle."""
    _require_finite(rep.field)
    return rep.generators + rep.inverses


def preserved_flags(x) -> list:
    """All flags every matrix in the tuple preserves, the trivial flag
    included: the chains of its invariant proper subspaces."""
    mats = _as_tuple(x)
    full = Subspace.full(mats[0].field, mats[0].nrows)
    return [Flag([full])] + chain_flags(
        [s for s in invariant_subspaces(mats) if 0 < s.dim < full.dim], full)


def limit_tuple(x, flag: Flag) -> tuple:
    """Degenerate the matrix tuple along the flag's cocharacter."""
    lam = flag_to_cocharacter(flag)
    return c_lambda(_as_tuple(x), lam)


def _flag_limit_ids(mats: tuple, index: OrbitIndex | None) -> tuple:
    """The tuple's orbit id and the ids of its flag limits, walked once per
    orbit and memoized on the index (by default the shared one), as
    conjugating the tuple moves its flags and their limits along."""
    if index is None:
        index = get_index(mats[0].field, mats[0].nrows)
    home = index.orbit_id(mats)
    ids = index._limits.get(home)
    if ids is None:
        ids = index._limits[home] = frozenset(
            index.orbit_id(limit_tuple(mats, flag)) for flag in preserved_flags(mats))
    return home, ids


def is_cochar_closed(x, index: OrbitIndex | None = None) -> bool:
    """Whether no flag degeneration leaves the conjugation orbit.

    This is the geometric characterization of complete reducibility: the
    orbit of the matrix tuple is closed exactly when every cocharacter
    limit stays inside it, and limits only depend on flags.  The trivial
    flag's limit is the tuple itself, so the orbit is closed exactly when
    its flag limits have no other orbit id.
    """
    home, ids = _flag_limit_ids(_as_tuple(x), index)
    return ids == {home}


def oracle_gcr(rep: Representation, index: OrbitIndex | None = None) -> bool:
    """Ground-truth complete-reducibility test via orbit closedness.

    Builds the generic tuple (generators plus inverses) and checks that
    its conjugation orbit is cocharacter-closed.
    """
    return is_cochar_closed(generic_tuple(rep), index)


def accessible_closed_orbits(x, index: OrbitIndex | None = None) -> frozenset:
    """Orbit ids of closed orbits reachable by one flag degeneration.

    The theory predicts this set is always a singleton: the orbit of the
    semisimplification.  It is read off the memoized flag limit ids; each
    limit orbit's closedness is decided on the tuple its id encodes.
    """
    mats = _as_tuple(x)
    field, n = mats[0].field, mats[0].nrows
    return frozenset(
        oid for oid in _flag_limit_ids(mats, index)[1]
        if is_cochar_closed([Matrix(field, [oid[r:r + n] for r in range(i, i + n * n, n)],
                                    ncols=n, validate=False)
                             for i in range(0, len(oid), n * n)], index))


def invariant_subspaces(x) -> list:
    """All subspaces invariant under every matrix of a tuple or every
    generator of a Representation, zero and full included."""
    mats = _as_tuple(x)
    return [s for s in all_subspaces(mats[0].field, mats[0].nrows) if s.is_invariant_under(mats)]


def oracle_irreducible(rep: Representation) -> bool:
    """Irreducibility by exhausting the subspace lattice."""
    return all(s.dim in (0, rep.n) for s in invariant_subspaces(rep))


def subgroup_closure(field: Field, mats) -> frozenset:
    """The subgroup generated by invertible matrices, as a frozen set.

    Over a finite field every element has finite order, so closing under
    products of the generators alone already gives the group.
    """
    _require_finite(field)
    gens = [m if isinstance(m, Matrix) else Matrix(field, m) for m in mats]
    seen = {Matrix.identity(field, gens[0].nrows if gens else 1)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > GROUP_ELEMENTS_CAP:
                        raise ResourceBoundExceeded(
                            f"subgroup closure exceeds the cap {GROUP_ELEMENTS_CAP}")
        frontier = nxt
    return frozenset(seen)


def normalizer_elements(rep: Representation) -> list:
    """All g in GL_n(F_q) with g H g^-1 = H, by exhaustion."""
    _require_finite(rep.field)
    table = get_table(rep.field, rep.n)
    h_set = subgroup_closure(rep.field, rep.generators)
    out = []
    for g, gi in zip(table.elements, table.inverses):
        if all(g * h * gi in h_set for h in rep.generators):
            out.append(g)
    return out


def cocharacter_limits_match_flag_limits(rep: Representation,
                                         height: int = 3) -> bool:
    """Runtime check that flags see every cocharacter limit.

    Enumerates all cocharacters with adapted basis in GL_n(F_q) and
    weights bounded by `height`, takes the limits that exist, and compares
    the resulting orbit id set with the one produced by flag degenerations
    alone.  Only sensible for very small fields and dimensions.  A height
    that is not an int raises InvalidInput.
    """
    _require_finite(rep.field)
    if type(height) is not int:
        raise InvalidInput(f"height {height!r} is not an int")
    if height < 1:
        raise InvalidInput("height must be at least 1")
    index = get_index(rep.field, rep.n)
    flag_side = _flag_limit_ids(rep.generators, index)[1]
    cochar_side = set()
    # every non-increasing weight vector with entries in [-height, height]
    for weights in itertools.combinations_with_replacement(range(height, -height - 1, -1), rep.n):
        for g in index.table.elements:
            try:
                limit = c_lambda(rep.generators, Cocharacter(g, weights))
            except LimitDoesNotExist:
                continue
            cochar_side.add(index.orbit_id(limit))
    return cochar_side == flag_side
