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
The table of those conjugators is built slot-parallel, many small
residues per machine operation (Dumas, Fousse and Salvy, J. Symb.
Comput. 46, 2011): one vector per matrix entry, holding that entry of
every candidate matrix, so one determinant and one adjugate expansion
serve all elements at once.  Conjugation m -> g m g^-1 is linear in the
entries of m, so the table packs the coefficients of that linear map for
all conjugators into one int per (output entry, input entry) pair, a
fixed-width slot per conjugator.  An entry of every conjugate at once is
then one integer multiply-add over the entries of m, read back slot by
slot modulo p, without building matrices.

The members come out as packed keys, one bytes string per member with its
entries as big-endian words, read with one stride slice each from the
joined per-entry residue strings; no tuple is built per member.

All enumerations are capped; exceeding a cap raises ResourceBoundExceeded,
or SearchSpaceExceeded for the flag enumeration, rather than grinding on.
The orbit cache honours the SSRED_MAX_MEMORY_MB environment variable,
counting _BYTES_PER_CACHE_ENTRY bytes per cached member key.
"""

import functools
import itertools
import math
import os
import sys
from array import array
from operator import add, mod, mul, sub

from .errors import (
    GROUP_ELEMENTS_CAP,
    SPACE_VECTORS_CAP,
    DimensionMismatch,
    InvalidInput,
    ResourceBoundExceeded,
)
from .exact import Field, Matrix, Subspace, all_vectors, projective_vectors
from .flags import Flag, c_lambda, chain_flags, flag_to_cocharacter
from .reps import Representation

_BYTES_PER_CACHE_ENTRY = 200
# slot width in bytes -> the array/memoryview format of one unsigned slot
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _key_width(p: int) -> int:
    """The narrowest of 1, 2 and 4 bytes that holds p - 1."""
    return next(w for w in (1, 2, 4) if p <= 256**w)


def _big_endian(width: int, data) -> array:
    """Unsigned words of `width` bytes, swapped on a little-endian host:
    built from ints, their bytes are big-endian; built from big-endian
    bytes, the words are the ints."""
    words = array(_SLOT_FORMATS[width], data)
    if sys.byteorder == "little":
        words.byteswap()
    return words


def group_order(q: int, n: int) -> int:
    """Order of GL_n(F_q) by the standard product formula."""
    return math.prod(q**n - q**i for i in range(n))


def _require_finite(field: Field) -> None:
    if field.p is None:
        raise InvalidInput("the brute-force oracle only works over finite fields")


def _require_group(field, n) -> None:
    """Refuse a field that is not a finite Field or an n that is not an int."""
    if not isinstance(field, Field) or type(n) is not int:
        raise InvalidInput(f"GL_n needs a Field and an int n, got {field!r} and {n!r}")
    _require_finite(field)


def _cached_per_group(build):
    """Cache build(field, n) per group, checking the arguments first, so a
    wrong or unhashable one raises InvalidInput."""
    cached = functools.cache(build)

    @functools.wraps(build)
    def get(field, n):
        _require_group(field, n)
        return cached(field, n)
    return get


def _require_rep(rep) -> None:
    """Refuse a rep that is not a Representation over a finite field."""
    if not isinstance(rep, Representation):
        raise InvalidInput(f"expected a Representation, got {type(rep).__name__}")
    _require_finite(rep.field)


class GroupTable:
    """Exhaustive listing of GL_n(F_q), one scalar class at a time.

    The table holds the `count` elements g whose first nonzero entry in
    row 0 is 1, one per scalar class, which is all that conjugation needs,
    with their inverses, in lexicographic row order.  They are built as
    entry vectors (see _representative_entries): every determinant and
    every inverse at once, with no per-element loop and no Matrix.
    `conjugators`, the (g, g^-1) pairs as matrices, is built from the
    vectors on first use; `elements`, every c g in lexicographic row
    order, is derived on each use.

    `columns[i * n + j][a * n + b]` packs the coefficient of m[a][b] in
    entry (i, j) of g m g^-1, which is g[i][a] * g^-1[b][j] mod p, for
    every conjugator at once: one int whose slot t, `slot_bytes` wide in
    `sys.byteorder`, holds that coefficient for the t-th conjugator.
    `slot_bytes` is the smallest of 1, 2, 4 and 8 that holds
    n^2 (p-1)^2, the largest value an entry of a conjugate can take before
    its reduction mod p, so a sum of n^2 columns times entries of m never
    carries from one slot into the next.  It also picks the vector kernel
    of _SlotVectors: a one-byte table has p^2 <= 256.
    """

    __slots__ = ("field", "n", "count", "slot_bytes", "columns", "_vectors", "_conjugators")

    def __init__(self, field: Field, n: int):
        _require_group(field, n)
        if n < 1:
            raise DimensionMismatch(f"GL_{n} has no table: n must be at least 1")
        p = field.p
        order = group_order(p, n)
        if order > GROUP_ELEMENTS_CAP:
            raise ResourceBoundExceeded(
                f"|GL_{n}(F_{p})| = {order} exceeds the table cap {GROUP_ELEMENTS_CAP}")
        self.field = field
        self.n = n
        self.slot_bytes = next(w for w in _SLOT_FORMATS if n * n * (p - 1) ** 2 < 256**w)
        vec = _SlotVectors(p, self.slot_bytes == 1)
        g, gi = self._vectors = _representative_entries(vec, field, n)
        self._conjugators = None
        self.count = len(g[0])
        if self.count * (p - 1) != order:
            raise ResourceBoundExceeded(
                "group enumeration does not match the order formula")
        fmt = _SLOT_FORMATS[self.slot_bytes]
        self.columns = tuple(
            tuple(int.from_bytes(array(fmt, vec.combine(mul, g[i * n + a], gi[b * n + j])),
                                 sys.byteorder)
                  for a in range(n) for b in range(n))
            for i in range(n) for j in range(n))

    @property
    def order(self) -> int:
        return self.count * (self.field.p - 1)

    @property
    def conjugators(self) -> tuple:
        """(g, g^-1) for every representative g, in lexicographic row order."""
        if self._conjugators is None:
            field, n = self.field, self.n

            def matrices(vectors):
                return [Matrix(field, [flat[r:r + n] for r in range(0, n * n, n)],
                               ncols=n, validate=False) for flat in zip(*vectors)]

            self._conjugators = tuple(zip(*map(matrices, self._vectors)))
        return self._conjugators

    @property
    def elements(self) -> list:
        return _scalar_multiples(self.field, [g for g, _ in self.conjugators])


@functools.cache
def _byte_tables(p: int) -> dict:
    """Translate tables mod p, for p * p <= 256: add, sub and mul map byte
    a * p + b to op(a, b) mod p, "inverse" maps each nonzero residue to its
    inverse and "reduce" maps each byte to its residue."""
    pad = bytes(256 - p * p)
    tables = {op: bytes(op(*divmod(x, p)) % p for x in range(p * p)) + pad
              for op in (add, sub, mul)}
    tables["inverse"] = bytes(pow(x, -1, p) if x else 0 for x in range(p)) + bytes(256 - p)
    tables["reduce"] = bytes(x % p for x in range(256))
    return tables


class _SlotVectors:
    """Arithmetic mod p on vectors of residues, one position per candidate
    matrix, each operation acting on every position at once.

    For p * p <= 256 a vector is a bytes string, and op(a, b) mod p is one
    int multiply-add, which packs a * p + b into one byte per position,
    read back through a 256-entry translate table.  Otherwise a vector is
    a list and each operation is a C-level map.
    """

    __slots__ = ("p", "seq", "_tables")

    def __init__(self, p: int, one_byte: bool):
        self.p = p
        self.seq = bytes if one_byte else list
        self._tables = _byte_tables(p) if one_byte else None

    def combine(self, op, a, b):
        """op(a, b) mod p at every position, for op one of add, sub, mul."""
        if self._tables is None:
            return list(map(mod, map(op, a, b), itertools.repeat(self.p)))
        packed = int.from_bytes(a, "little") * self.p + int.from_bytes(b, "little")
        return packed.to_bytes(len(a), "little").translate(self._tables[op])

    def inverse(self, a):
        """The inverse mod p at every position; no position may be 0."""
        if self._tables is None:
            return list(map(pow, a, itertools.repeat(-1), itertools.repeat(self.p)))
        return a.translate(self._tables["inverse"])


def _representative_entries(vec: _SlotVectors, field: Field, n: int) -> tuple:
    """Entry vectors of every g whose row 0 leads with 1, and of g^-1, in
    lexicographic row order of g: vector i * n + j holds entry (i, j).

    The candidates take row 0 from `sorted(projective_vectors)` and the
    later rows from the nonzero vectors, the last row fastest, so entry
    (i, j) of each choice for row i repeats once per choice of the rows
    after it.  A Laplace expansion gives every determinant at once, the
    invertible candidates are kept, and entry (j, i) of every inverse is
    the signed (i, j) minor times the inverted determinant."""
    nonzero = [v for v in all_vectors(field, n) if any(v)] if n > 1 else []
    choices = [sorted(projective_vectors(field, n))] + [nonzero] * (n - 1)
    total = math.prod(map(len, choices))
    entries = []
    for i, rows in enumerate(choices):
        inner = math.prod(map(len, choices[i + 1:]))
        for j in range(n):
            run = itertools.chain.from_iterable(
                map(itertools.repeat, [v[j] for v in rows], itertools.repeat(inner)))
            entries.append(vec.seq(run) * (total // (inner * len(rows))))
    full = tuple(range(n))
    det = _minor(vec, entries, n, full, full, {})
    entries = [vec.seq(itertools.compress(e, det)) for e in entries]
    det_inverse = vec.inverse(vec.seq(itertools.compress(det, det)))
    # (-1)^(i + j) / det, the factor of the (i, j) minor in entry (j, i)
    factors = (det_inverse, vec.combine(sub, vec.seq((0,)) * len(det_inverse), det_inverse))
    others = [full[:k] + full[k + 1:] for k in range(n)]
    memo = {}
    inverse = [vec.combine(mul, _minor(vec, entries, n, others[i], others[j], memo),
                           factors[(i + j) % 2])
               for j in range(n) for i in range(n)]
    return entries, inverse


def _minor(vec: _SlotVectors, entries: list, n: int, rows: tuple, cols: tuple,
           memo: dict):
    """The minor on the given increasing rows and columns of every matrix
    whose entry vectors are given, at once: a Laplace expansion along the
    first row, with the smaller minors memoized in `memo`."""
    if not rows:
        return vec.seq((1,)) * len(entries[0])
    if len(rows) == 1:
        return entries[rows[0] * n + cols[0]]
    key = rows, cols
    if key not in memo:
        acc = None
        for k, c in enumerate(cols):
            term = vec.combine(mul, entries[rows[0] * n + c],
                               _minor(vec, entries, n, rows[1:], cols[:k] + cols[k + 1:], memo))
            acc = term if acc is None else vec.combine(sub if k % 2 else add, acc, term)
        memo[key] = acc
    return memo[key]


def _scalar_multiples(field: Field, reps) -> list:
    """Every c g for the given g and nonzero c, in lexicographic row order."""
    return sorted((g.scale(c) for g in reps for c in range(1, field.p)),
                  key=lambda m: m.entries)


@_cached_per_group
def get_table(field: Field, n: int) -> GroupTable:
    return GroupTable(field, n)


def _require_listable_lattice(q: int, n: int) -> None:
    """Raise ResourceBoundExceeded once F_q^n has more than SPACE_VECTORS_CAP
    subspaces, adding up the Gaussian binomials [n, d]_q one d at a time,
    so a large n is refused at its first terms."""
    total = term = 1
    for d in range(1, n + 1):
        # [n, d]_q = [n, d - 1]_q (q^(n-d+1) - 1) / (q^d - 1)
        term = term * (q**(n - d + 1) - 1) // (q**d - 1)
        total += term
        if total > SPACE_VECTORS_CAP:
            raise ResourceBoundExceeded(
                f"subspace lattice of F_{q}^{n} has more than {SPACE_VECTORS_CAP} members")


@_cached_per_group
def all_subspaces(field: Field, n: int) -> tuple:
    """Every subspace of F_q^n, zero and full included, via RREF shapes.
    They are counted first, and more than SPACE_VECTORS_CAP of them raise
    ResourceBoundExceeded before any is built."""
    _require_listable_lattice(field.p, n)
    # F_q^1 has no free entries, and any q is allowed there
    scalars = tuple(range(field.p)) if n > 1 else ()
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
    return tuple(out)


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

    A member key (`encode`) is the bytes of a tuple's entries as unsigned
    big-endian words of the narrowest of 1, 2 and 4 bytes that holds p - 1,
    so keys sort as the entry tuples do; a table with n >= 2 has p <= 37
    under GROUP_ELEMENTS_CAP, so one byte.  An orbit id is the entry tuple
    of the orbit's smallest member key, so ids are stable across runs and
    processes.  Every member key seen is cached; the cache size is bounded
    by the SSRED_MAX_MEMORY_MB budget.  The orbit ids of the flag limits of
    each decided orbit are memoized by orbit id on this index, one entry
    per cached orbit, so the same budget bounds them.
    Members are found for every scalar class at once: entry r of the
    conjugates of a matrix with flat entries v is sum_s v[s] * columns[r][s]
    over the table's packed columns, unpacked slot by slot in
    `sys.byteorder` and reduced modulo p: in a one-byte table by one
    `bytes.translate` for all slots, otherwise one `mod` per slot.  That
    gives one residue string per entry and key byte, and conjugator t's
    key is byte t of each, one slice of stride `count` of their join.
    An argument that is not an iterable of matrices raises InvalidInput,
    matrices of another field or size DimensionMismatch.
    """

    __slots__ = ("table", "_width", "_cache", "_max_entries", "_limits")

    def __init__(self, table: GroupTable, max_entries: int | None = None):
        if not isinstance(table, GroupTable):
            raise InvalidInput(f"expected a GroupTable, got {type(table).__name__}")
        if max_entries is not None and type(max_entries) is not int:
            raise InvalidInput(f"max_entries {max_entries!r} is not an int")
        self.table = table
        self._width = _key_width(table.field.p)
        self._cache = {}
        self._max_entries = _cache_entry_limit() if max_entries is None else max_entries
        self._limits = {}

    def _key(self, mats) -> tuple:
        """The matrices as a tuple, each of the index's field and size, and
        their member key, built in the same pass."""
        try:
            mats = tuple(mats)
        except TypeError:
            raise InvalidInput(f"expected matrices, got {type(mats).__name__}") from None
        field, n = self.table.field, self.table.n
        flat = []
        for m in mats:
            if not isinstance(m, Matrix):
                raise InvalidInput(f"expected a Matrix, got {type(m).__name__}")
            if m.field is not field or m.nrows != n or m.ncols != n:
                raise DimensionMismatch(
                    f"{m.nrows}x{m.ncols} matrix over {m.field!r} given to the "
                    f"orbit index of GL_{n}({field!r})")
            for row in m.entries:
                flat += row
        width = self._width
        return mats, bytes(flat) if width == 1 else _big_endian(width, flat).tobytes()

    def orbit_members(self, mats) -> frozenset:
        mats = self._key(mats)[0]
        table, width = self.table, self._width
        p, count = table.field.p, table.count
        size = count * table.slot_bytes
        fmt = _SLOT_FORMATS[table.slot_bytes]
        reduce = _byte_tables(p)["reduce"] if table.slot_bytes == 1 else None
        parts = []
        for v in ([x for row in m.entries for x in row] for m in mats):
            for entry_columns in table.columns:
                packed = sum(x * c for x, c in zip(v, entry_columns) if x)
                raw = packed.to_bytes(size, sys.byteorder)
                words = raw.translate(reduce) if reduce else _big_endian(
                    width, map(mod, memoryview(raw).cast(fmt), itertools.repeat(p))).tobytes()
                parts += (words[b::width] for b in range(width))
        # the empty tuple's only key is b""
        joined = b"".join(parts)
        return frozenset(joined[t::count] for t in range(count))

    def orbit_id(self, mats) -> tuple:
        mats, key = self._key(mats)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        members = self.orbit_members(mats)
        oid = tuple(_big_endian(self._width, min(members)))
        if len(self._cache) + len(members) > self._max_entries:
            raise ResourceBoundExceeded(
                "orbit cache would exceed the SSRED_MAX_MEMORY_MB budget")
        self._cache.update(dict.fromkeys(members, oid))
        return oid


@_cached_per_group
def get_index(field: Field, n: int) -> OrbitIndex:
    return OrbitIndex(get_table(field, n))


def _as_tuple(x) -> tuple:
    """A Representation's generators or an iterable's matrices; anything
    else, or an element that is not a Matrix, raises InvalidInput."""
    try:
        mats = x.generators if isinstance(x, Representation) else tuple(x)
    except TypeError:
        raise InvalidInput(f"expected matrices, got {type(x).__name__}") from None
    if not mats:
        raise InvalidInput("need at least one matrix")
    if not all(isinstance(m, Matrix) for m in mats):
        raise InvalidInput("every element of the tuple must be a Matrix")
    _require_finite(mats[0].field)
    return mats


def generic_tuple(rep: Representation) -> tuple:
    """Generators followed by their inverses: the tuple fed to the oracle.
    A rep that is not a Representation raises InvalidInput."""
    _require_rep(rep)
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


def _index_for(mats: tuple, index) -> OrbitIndex:
    """The given index, or for None the shared one of the tuple's group;
    anything else raises InvalidInput."""
    if index is None:
        return get_index(mats[0].field, mats[0].nrows)
    if not isinstance(index, OrbitIndex):
        raise InvalidInput(f"expected an OrbitIndex, got {type(index).__name__}")
    return index


def _flag_limit_ids(mats: tuple, index: OrbitIndex | None) -> tuple:
    """The tuple's orbit id and the ids of its flag limits, walked once per
    orbit and memoized on the index (by default the shared one), as
    conjugating the tuple moves its flags and their limits along."""
    index = _index_for(mats, index)
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
    semisimplification.  It is read off the memoized flag limit ids.  A
    limit id is the entries of the smallest member key, so it keys its own
    orbit's memo entry, and the orbit is closed exactly when that entry is
    {id}; only an orbit with no entry yet is decided on the tuple of its id.
    """
    mats = _as_tuple(x)
    index = _index_for(mats, index)
    field, n = mats[0].field, mats[0].nrows

    def closed(oid):
        ids = index._limits.get(oid)
        if ids is not None:
            return ids == {oid}
        return is_cochar_closed([Matrix(field, [oid[r:r + n] for r in range(i, i + n * n, n)],
                                        ncols=n, validate=False)
                                 for i in range(0, len(oid), n * n)], index)

    return frozenset(filter(closed, _flag_limit_ids(mats, index)[1]))


def invariant_subspaces(x) -> list:
    """All subspaces invariant under every matrix of a tuple or every
    generator of a Representation, zero and full included."""
    mats = _as_tuple(x)
    return [s for s in all_subspaces(mats[0].field, mats[0].nrows) if s.is_invariant_under(mats)]


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
