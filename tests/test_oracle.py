import functools
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from oracle_probes import (
    cocharacter_limits_match_flag_limits,
    encode,
    normalizer_elements,
    oracle_irreducible,
)

from ssred import oracle
from ssred.errors import DimensionMismatch, InvalidInput, ResourceBoundExceeded
from ssred.exact import Field, Matrix, Subspace, rref
from ssred.flags import Flag
from ssred.oracle import (
    OrbitIndex,
    accessible_closed_orbits,
    all_subspaces,
    generic_tuple,
    get_index,
    get_table,
    group_order,
    invariant_subspaces,
    is_cochar_closed,
    oracle_gcr,
    preserved_flags,
    subgroup_closure,
)
from ssred.pipeline import is_gcr_over_k, semisimplify
from ssred.reps import Representation

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
F11 = Field.prime(11)
F17 = Field.prime(17)


def mat(field, rows):
    return Matrix(field, rows)


def rep(field, *gens):
    return Representation([mat(field, g) for g in gens])


def test_group_orders_frozen():
    assert group_order(2, 2) == 6
    assert group_order(3, 2) == 48
    assert group_order(2, 3) == 168
    assert group_order(5, 2) == 480
    assert group_order(3, 3) == 11232
    assert group_order(2, 4) == 20160


@functools.cache
def _enumerate_by_rows(field, n):
    """Every invertible n x n matrix, built one independent row at a time
    in lexicographic row order: the reference for `GroupTable.elements`."""
    nonzero = [v for v in itertools.product(range(field.p), repeat=n) if any(v)]
    prefixes = [[]]
    for _ in range(n):
        prefixes = [rows + [v] for rows in prefixes for v in nonzero
                    if Subspace.from_vectors(field, n, rows + [v]).dim == len(rows) + 1]
    return [Matrix(field, rows) for rows in prefixes]


@functools.cache
def _inverted_by_rows(field, n):
    """The reference enumeration, each element with its `Matrix.inverse`."""
    return [(g, g.inverse()) for g in _enumerate_by_rows(field, n)]


# GL2(F7) is a one-byte table; GL2(F11) and GL1(F17) have two-byte slots,
# so their entry vectors are lists
GROUPS = [(F5, 1), (F2, 2), (F3, 2), (F5, 2), (F2, 3), (F3, 3), (F7, 2), (F11, 2), (F17, 1)]


def test_group_table_matches_formula():
    """The elements are the row-by-row enumeration in its order, as many as
    the order formula says, and the conjugators are its members whose row 0
    leads with 1, each with the inverse that `Matrix.inverse` finds."""
    for field, n in GROUPS:
        table = get_table(field, n)
        reference = _enumerate_by_rows(field, n)
        assert table.order == group_order(field.p, n) == len(reference)
        assert table.elements == reference
        assert table.conjugators == tuple((g, gi) for g, gi in _inverted_by_rows(field, n)
                                          if next(x for x in g.entries[0] if x) == 1)
        identity = Matrix.identity(field, n)
        for g, gi in table.conjugators:
            assert g * gi == identity == gi * g


def test_group_table_builds_gl4_f2():
    """GL4(F2), whose row-by-row reference takes seconds: as many
    conjugators as the order formula says, in strictly increasing row
    order, each leading row 0 with 1; on a seeded sample, g g^-1 = I and
    the packed columns hold g[i][a] * g^-1[b][j] mod p in slot t."""
    table = get_table(F2, 4)
    assert table.order == group_order(2, 4) == 20160
    assert table.slot_bytes == 1
    rows = [g.entries for g, _ in table.conjugators]
    assert len(rows) == table.count == 20160
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(next(x for x in r[0] if x) == 1 for r in rows)
    identity = Matrix.identity(F2, 4)
    rng = random.Random(97)
    for t in rng.sample(range(table.count), 200):
        g, gi = table.conjugators[t]
        assert g * gi == identity == gi * g
        i, j, a, b = (rng.randrange(4) for _ in range(4))
        slot = table.columns[i * 4 + j][a * 4 + b].to_bytes(table.count, sys.byteorder)[t]
        assert slot == g.entries[i][a] * gi.entries[b][j] % 2


# every shape above, and GL3(F5), the largest one-byte table of n = 3
BUILT_SHAPES = GROUPS + [(F2, 4), (F5, 3)]


def test_group_table_build_inverts_nothing(monkeypatch):
    """A table is built from entry vectors: every determinant and every
    inverse entry comes out of one Laplace expansion over all candidates,
    so the build constructs no Matrix and calls neither Matrix.inverse nor
    EchelonBasis.add.  `conjugators` is built on first use, once."""
    from ssred import exact
    from ssred.oracle import GroupTable
    calls, made = [], []
    init, inverse, add = Matrix.__init__, Matrix.inverse, exact.EchelonBasis.add
    monkeypatch.setattr(Matrix, "__init__", lambda m, *a, **k: made.append(1) or init(m, *a, **k))
    monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
    monkeypatch.setattr(exact.EchelonBasis, "add", lambda b, v: calls.append(v) or add(b, v))
    for field, n in BUILT_SHAPES:
        table = GroupTable(field, n)
        assert made == [] and calls == []
        if n < 3:
            pairs = table.conjugators
            assert table.conjugators is pairs and len(made) == 2 * table.count
            made.clear()
    assert calls == []


@pytest.mark.parametrize("field, n", [(F3, 2), (F2, 3)])
def test_group_table_inverses_built_on_first_use(field, n):
    """A table stores its entry vectors and builds the (g, g^-1) pairs from
    them on first use; the full element list is not stored but derived each
    time it is used, and every inverse is the one `Matrix.inverse` finds."""
    from ssred.oracle import GroupTable
    table = GroupTable(field, n)
    assert "elements" not in GroupTable.__slots__ and not hasattr(table, "__dict__")
    assert table.elements == table.elements
    assert table.conjugators == tuple((g, g.inverse()) for g in table.elements
                                      if next(x for x in g.entries[0] if x) == 1)


def test_group_table_cap():
    from ssred.oracle import GroupTable
    with pytest.raises(ResourceBoundExceeded):
        GroupTable(F3, 4)  # |GL_4(F_3)| is about 24 million


def test_group_table_needs_a_positive_size():
    from ssred.oracle import GroupTable
    with pytest.raises(DimensionMismatch):
        GroupTable(F2, 0)
    with pytest.raises(DimensionMismatch):
        oracle_gcr(Representation([Matrix(F2, [], ncols=0)]))


def test_subspace_lattice_is_capped_by_its_size():
    """The lattice is counted by the Gaussian binomials, one dimension at a
    time, before any subspace is built: F_2^7 (29212 subspaces), F_3^6
    (56632), F_2^14 and F_2^2000, past SPACE_VECTORS_CAP, are refused at
    once, through invariant_subspaces too, and F_p^1 lists its two for a
    p past any table without listing F_p."""
    for field, n in [(F2, 7), (F3, 6), (F2, 14), (F2, 2000)]:
        start = time.perf_counter()
        with pytest.raises(ResourceBoundExceeded):
            all_subspaces(field, n)
        assert time.perf_counter() - start < 0.1
    tuple7 = (Matrix.identity(F2, 7), mat(F2, [[int(j == (i + 1) % 7) for j in range(7)]
                                               for i in range(7)]))
    start = time.perf_counter()
    with pytest.raises(ResourceBoundExceeded):
        invariant_subspaces(tuple7)
    assert time.perf_counter() - start < 0.1
    big = Field.prime(2**31 - 1)
    start = time.perf_counter()
    assert len(invariant_subspaces((mat(big, [[5]]),))) == 2
    assert len(preserved_flags((mat(big, [[5]]),))) == 1
    assert time.perf_counter() - start < 0.1


def test_all_subspaces_frozen_counts():
    assert len(all_subspaces(F2, 3)) == 16  # 1 + 7 + 7 + 1
    assert len(all_subspaces(F3, 2)) == 6   # 1 + 4 + 1
    for (field, n), count in [((F2, 4), 67), ((F5, 3), 64), ((F2, 5), 374), ((F3, 5), 2664),
                              ((F2, 6), 2825), ((Field.prime(37), 2), 40),
                              ((Field.prime(65521), 1), 2)]:
        assert len(all_subspaces(field, n)) == count
    for s in all_subspaces(F2, 3):
        if s.dim:
            canon, rank, _ = rref(s.basis)
            assert canon == s.basis and rank == s.dim
    assert len(set(all_subspaces(F2, 3))) == 16


def test_enumerate_flags_frozen_counts():
    # the identity preserves every flag
    flags2 = preserved_flags((Matrix.identity(F2, 2),))
    assert len(flags2) == 4  # three lines plus the trivial flag
    assert sum(1 for f in flags2 if len(f.steps) == 1) == 1
    flags3 = preserved_flags((Matrix.identity(F2, 3),))
    assert len(flags3) == 36  # 1 trivial + 7 lines + 7 planes + 21 chains
    assert sum(1 for f in flags3 if len(f.steps) == 3) == 21
    assert len(preserved_flags((Matrix.identity(F3, 2),))) == 5  # four lines plus the trivial flag


def _every_flag(field, n):
    """Every flag of F_q^n, the trivial flag included: each strictly
    increasing chain of proper subspaces, extended depth first."""
    proper = sorted((s for s in all_subspaces(field, n) if 0 < s.dim < n),
                    key=lambda s: (s.dim, s.basis.entries))
    full = Subspace.full(field, n)
    flags = [Flag([full])]

    def rec(chain, start):
        for i in range(start, len(proper)):
            s = proper[i]
            if chain and not (s.dim > chain[-1].dim and s.contains(chain[-1])):
                continue
            flags.append(Flag(chain + [s, full]))
            rec(chain + [s], i + 1)

    rec([], 0)
    return flags


def _triangularizable(rng, field, n):
    """A random conjugate of a random invertible upper triangular matrix."""
    g = _random_invertible(rng, field, n)
    u = Matrix(field, [[rng.randrange(1, field.p) if i == j else rng.randrange(field.p) if i < j
                        else 0 for j in range(n)] for i in range(n)])
    return g * u * g.inverse()


def test_preserved_flags_are_every_flag_filtered(random_corpus_gl3_f2):
    """The chains of a tuple's invariant subspaces are exactly the flags of
    F_q^n that every matrix of the tuple preserves."""
    rng = random.Random(2113)
    tuples = [(g,) for field, n in [(F2, 2), (F3, 2), (F2, 3)]
              for g in get_table(field, n).elements]
    tuples += [r.generators for r in random_corpus_gl3_f2[:60]]
    for k in range(40):
        make = _random_invertible if k % 2 else _triangularizable
        tuples.append(tuple(make(rng, F3, 3) for _ in range(1 + k % 3 // 2)))
    every = {}
    counts = set()
    for mats in tuples:
        field, n = mats[0].field, mats[0].nrows
        if (field, n) not in every:
            every[field, n] = _every_flag(field, n)
        expected = [f for f in every[field, n] if f.is_preserved_by(mats)]
        got = preserved_flags(mats)
        assert len(got) == len(set(got)) == len(expected)
        assert set(got) == set(expected)
        counts.add(len(got))
    assert 1 in counts and max(counts) > 4


def test_oracle_gcr_then_accessible_orbits_walk_each_orbit_once(monkeypatch):
    """After oracle_gcr, accessible_closed_orbits on the same tuple reads
    the memoized flag limits: no orbit's flags are walked twice, and only a
    limit orbit with no memo entry is decided through is_cochar_closed, so
    asking again decides nothing."""
    rng = random.Random(2114)
    reps = [Representation([g]) for g in get_table(F3, 2).elements]
    reps += [Representation([_triangularizable(rng, F2, 3)]) for _ in range(12)]
    walked = []
    decided = []
    real_flags = oracle.preserved_flags
    real_closed = oracle.is_cochar_closed
    index = None

    def recording_flags(x):
        walked.append(index.orbit_id(x))
        return real_flags(x)

    def recording_closed(x, idx=None):
        decided.append(idx.orbit_id(x))
        return real_closed(x, idx)

    monkeypatch.setattr(oracle, "preserved_flags", recording_flags)
    monkeypatch.setattr(oracle, "is_cochar_closed", recording_closed)
    verdicts = set()
    for r in reps:
        index = OrbitIndex(get_table(r.field, r.n))
        mats = generic_tuple(r)
        home = index.orbit_id(mats)
        walked.clear()
        verdicts.add(oracle.oracle_gcr(r, index))
        assert walked[0] == home
        # the fresh index memoizes the home orbit alone
        unknown = {index.orbit_id(oracle.limit_tuple(mats, f)) for f in real_flags(mats)}
        unknown.discard(home)
        decided.clear()
        orbits = oracle.accessible_closed_orbits(mats, index)
        assert sorted(decided) == sorted(unknown)
        assert walked.count(home) == 1
        assert len(walked) == len(set(walked))
        assert len(orbits) == 1
        decided.clear()
        assert oracle.accessible_closed_orbits(mats, index) == orbits
        assert decided == []
    assert verdicts == {True, False}


def test_orbit_ids_identify_conjugates():
    index = get_index(F3, 2)
    a = (mat(F3, [[1, 0], [0, -1]]),)
    b = (mat(F3, [[-1, 0], [0, 1]]),)
    c = (mat(F3, [[1, 1], [0, 1]]),)
    assert index.orbit_id(a) == index.orbit_id(b)
    assert index.orbit_id(a) != index.orbit_id(c)


def _random_invertible(rng, field, n):
    while True:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def test_scalar_class_orbit_matches_every_conjugate():
    """Conjugating by one element per scalar class finds the orbit that
    conjugating by every element of GL_n finds."""
    cases = [(field, n, (g,)) for field, n in [(F3, 2), (F2, 3)]
             for g in get_table(field, n).elements]
    companion = mat(F3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # x^3 - x - 1
    transvection = mat(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    cases.append((F3, 3, generic_tuple(Representation([companion, transvection]))))
    rng = random.Random(79)
    cases += [(F3, 3, (_random_invertible(rng, F3, 3), _random_invertible(rng, F3, 3)))
              for _ in range(3)]
    for field, n, mats in cases:
        every = frozenset(encode(g * m * gi for m in mats)
                          for g, gi in _inverted_by_rows(field, n))
        assert OrbitIndex(get_table(field, n)).orbit_members(mats) == every
    for field, n in [(F3, 2), (F2, 3), (F3, 3)]:
        assert len(get_table(field, n).conjugators) * (field.p - 1) == group_order(field.p, n)


def _orbit_by_generators(mats, gens):
    """Encodings of every simultaneous conjugate of the tuple: its closure
    under conjugation by generators of the group, by Matrix products."""
    pairs = [(g, g.inverse()) for g in gens]
    seen = {encode(mats)}
    frontier = [mats]
    while frontier:
        grown = []
        for t in frontier:
            for g, gi in pairs:
                c = tuple(g * m * gi for m in t)
                if encode(c) not in seen:
                    seen.add(encode(c))
                    grown.append(c)
        frontier = grown
    return frozenset(seen)


def test_action_rows_match_every_conjugate_mod_p():
    """The flat kernel agrees with Matrix conjugation where entry products
    exceed p, for n = 1, for the empty tuple, and with two-byte slots:
    GL2(F11) has n^2 (p-1)^2 = 400, GL2(F7) 144, which still fits one byte.
    At n = 3 a GL3(F5) tuple whose entries are all 4 or 3 takes one-byte
    slot sums up to 144 through the translate reduction; its reference is
    the closure under the transvections I + E_ab and diag(2, 1, 1), which
    generate GL3(F5), as conjugating by all of GL3(F5) would take minutes."""
    rng = random.Random(83)
    cases = [(F5, 1, (g,)) for g in get_table(F5, 1).elements]
    cases.append((F5, 1, tuple(get_table(F5, 1).elements)))
    for _ in range(6):
        plain = tuple(_random_invertible(rng, F5, 2) for _ in range(rng.randrange(1, 4)))
        cases.append((F5, 2, plain))
        cases.append((F5, 2, generic_tuple(Representation(list(plain)))))
    cases.append((F5, 2, (mat(F5, [[4, 3], [2, 2]]), mat(F5, [[1, 4], [0, 3]]))))
    cases.append((F5, 2, ()))
    for field in (F7, F11):
        top = field.p - 1
        # all entries p - 1: GL2(F11) slot sums reach 310 before reduction,
        # past what one byte holds
        cases.append((field, 2, (mat(field, [[top, top], [top, top]]),)))
        plain = [mat(field, [[top, 1], [0, top]]), _random_invertible(rng, field, 2)]
        cases.append((field, 2, generic_tuple(Representation(plain))))
    for field, n, mats in cases:
        every = frozenset(encode(g * m * gi for m in mats)
                          for g, gi in _inverted_by_rows(field, n))
        assert OrbitIndex(get_table(field, n)).orbit_members(mats) == every
    fours = mat(F5, [[4] * 3] * 3)
    mats = (fours, fours + fours + Matrix.identity(F5, 3))
    gens = [mat(F5, [[int(i == j or (i, j) == (a, b)) for j in range(3)] for i in range(3)])
            for a in range(3) for b in range(3) if a != b]
    gens.append(mat(F5, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    members = OrbitIndex(get_table(F5, 3)).orbit_members(mats)
    assert members == _orbit_by_generators(mats, gens)
    assert len(members) == 31 * 25  # a line and a complementary plane


def test_columns_pack_every_conjugator():
    """n^4 packed columns; each slot is as wide as the smallest of 1, 2, 4
    and 8 bytes that holds n^2 (p-1)^2, and slot t of column ((i, j), (a, b))
    is g_t[i][a] * g_t^-1[b][j] mod p for the t-th conjugator."""
    rng = random.Random(89)
    for field, n, width in [(F2, 3, 1), (F3, 2, 1), (F3, 3, 1), (F5, 1, 1),
                            (F7, 2, 1), (F11, 2, 2), (F17, 1, 2)]:
        table = get_table(field, n)
        bound = n * n * (field.p - 1) ** 2
        assert table.slot_bytes == width
        assert bound < 256 ** width
        assert width == 1 or bound >= 256 ** (width // 2)  # the next narrower is too small
        assert len(table.columns) == n * n
        assert all(len(row) == n * n for row in table.columns)
        count = len(table.conjugators)
        for _ in range(40):
            i, j, a, b = (rng.randrange(n) for _ in range(4))
            t = rng.randrange(count)
            g, gi = table.conjugators[t]
            packed = table.columns[i * n + j][a * n + b].to_bytes(count * width, sys.byteorder)
            slot = int.from_bytes(packed[t * width:(t + 1) * width], sys.byteorder)
            assert slot == g.entries[i][a] * gi.entries[b][j] % field.p


def test_wide_member_keys():
    """Over GL1(F257) and GL1(F65521) entries reach 256 and more, so member
    keys take two-byte words, and over GL1(F65537) four-byte ones: the
    members are the keys of the conjugates, the orbit id decodes to the
    entry tuple, oracle_gcr agrees with is_gcr_over_k, and keys sort like
    the entry tuples."""
    rng = random.Random(101)
    for p, width in [(257, 2), (65521, 2), (65537, 4)]:
        field = Field.prime(p)
        mats = (mat(field, [[p - 1]]), mat(field, [[256]]), mat(field, [[rng.randrange(1, p)]]))
        index = OrbitIndex(get_table(field, 1))
        # every element of GL1(F257); 300 of the larger groups, to keep it quick
        scalars = range(1, p) if p < 2**14 else rng.sample(range(1, p), 300)
        every = frozenset(encode(mat(field, [[c]]) * m * mat(field, [[pow(c, -1, p)]])
                                            for m in mats) for c in scalars)
        assert index.orbit_members(mats) == every
        assert len(encode(mats)) == 3 * width
        assert index.orbit_id(mats) == (p - 1, 256, mats[2].entries[0][0])
        r = Representation(list(mats))
        assert is_gcr_over_k(r).semisimple
        # F_p^1 has two subspaces, however many vectors
        assert oracle_gcr(r, index) is True
        tuples = [tuple(rng.choice([0, 1, 255, 256, p - 1, rng.randrange(p)]) for _ in range(3))
                  for _ in range(200)]
        keys = {t: encode(mat(field, [[x]]) for x in t) for t in tuples}
        assert sorted(tuples) == sorted(tuples, key=keys.get)


def test_cache_entries_fit_the_memory_estimate():
    """One orbit put into a fresh index grows traced memory by at most
    _BYTES_PER_CACHE_ENTRY per cached member, the figure the
    SSRED_MAX_MEMORY_MB budget counts with: for the GL3(F3) pair of the
    oracle-small benchmark and for a generic pair in GL4(F2)."""
    rng = random.Random(103)
    companion = mat(F3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    transvection = mat(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    cases = [(F3, 3, generic_tuple(Representation([companion, transvection]))),
             (F2, 4, generic_tuple(Representation(
                 [_random_invertible(rng, F2, 4), _random_invertible(rng, F2, 4)])))]
    for field, n, mats in cases:
        index = OrbitIndex(get_table(field, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index.orbit_id(mats)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(index._cache) > 1000
        assert grown / len(index._cache) <= oracle._BYTES_PER_CACHE_ENTRY


@pytest.mark.parametrize("call", [
    accessible_closed_orbits,
    is_cochar_closed,
    preserved_flags,
    invariant_subspaces,
    lambda x: oracle.limit_tuple(x, Flag([Subspace.full(F2, 2)])),
    lambda x: get_index(F2, 2).orbit_id(x),
    lambda x: get_index(F2, 2).orbit_members(x),
    OrbitIndex,
    lambda x: get_table(F2, x),
    normalizer_elements,
    cocharacter_limits_match_flag_limits,
], ids=["accessible_closed_orbits", "is_cochar_closed", "preserved_flags",
        "invariant_subspaces", "limit_tuple", "orbit_id", "orbit_members", "OrbitIndex",
        "get_table", "normalizer_elements", "cocharacter_limits_match_flag_limits"])
@pytest.mark.parametrize("arg", [None, 1.5, "x", [None], [1.5], (Matrix.identity(F2, 2), "x")],
                         ids=repr)
def test_tuple_entry_points_refuse_wrong_types(call, arg):
    """A non-iterable argument, an element that is not a Matrix, a table
    that is not a GroupTable, an n that is not an int or a rep that is not
    a Representation raises InvalidInput, never an AttributeError or a
    TypeError."""
    with pytest.raises(InvalidInput):
        call(arg)


def test_orbit_index_rejects_other_field_or_size():
    """Matrices of another field or size raise DimensionMismatch, given to
    the index or decided on it; a max_entries that is not an int, or an
    index argument that is not an OrbitIndex, raises InvalidInput."""
    wrong = [(mat(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),),
             (mat(F2, [[1, 1], [0, 1]]),),
             (Matrix.identity(F2, 3), mat(F2, [[0, 1], [1, 0]]))]
    for mats in wrong:
        with pytest.raises(DimensionMismatch):
            OrbitIndex(get_table(F2, 3)).orbit_members(mats)
        with pytest.raises(DimensionMismatch):
            OrbitIndex(get_table(F2, 3)).orbit_id(mats)
        for call in (is_cochar_closed, accessible_closed_orbits):
            with pytest.raises(DimensionMismatch):
                call(mats, OrbitIndex(get_table(F2, 3)))
    for max_entries in ["1", 1.0]:
        with pytest.raises(InvalidInput):
            OrbitIndex(get_table(F2, 3), max_entries)
    mats = (mat(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),)
    for index in ["x", 3, get_table(F2, 3), get_index]:
        with pytest.raises(InvalidInput):
            oracle_gcr(Representation(list(mats)), index)
        for call in (is_cochar_closed, accessible_closed_orbits):
            with pytest.raises(InvalidInput):
                call(mats, index)


def test_memoized_verdicts_do_not_depend_on_call_order(random_corpus_gl3_f2, monkeypatch):
    """A shared index answers as a fresh index per call does, in either
    order, and runs preserved_flags once per distinct orbit decided,
    whichever verdict asks first."""
    reps = [Representation([g]) for field, n in [(F3, 2), (F2, 3)]
            for g in get_table(field, n).elements] + list(random_corpus_gl3_f2)

    def verdicts(r, index_of):
        # through the module, so that the wrappers below see every call
        return (oracle.is_cochar_closed(r.generators, index_of(r)),
                oracle.oracle_gcr(r, index_of(r)),
                oracle.accessible_closed_orbits(r.generators, index_of(r)))

    def fresh_index(r):
        return OrbitIndex(get_table(r.field, r.n))

    fresh = [verdicts(r, fresh_index) for r in reps]

    flag_runs = []
    decided = set()
    asked = []
    real_flags = oracle.preserved_flags
    real_closed = oracle.is_cochar_closed
    real_accessible = oracle.accessible_closed_orbits

    def counting_flags(x):
        flag_runs.append(x)
        return real_flags(x)

    def recording(kind, fn):
        def wrapped(x, index):
            asked.append(kind)
            decided.add(index.orbit_id(x))
            return fn(x, index)
        return wrapped

    monkeypatch.setattr(oracle, "preserved_flags", counting_flags)
    monkeypatch.setattr(oracle, "is_cochar_closed", recording("closed", real_closed))
    monkeypatch.setattr(oracle, "accessible_closed_orbits",
                        recording("accessible", real_accessible))
    for order in (range(len(reps)), range(len(reps) - 1, -1, -1)):
        shared = {}

        def shared_index(r):
            key = (r.field, r.n)
            if key not in shared:
                shared[key] = fresh_index(r)
            return shared[key]

        flag_runs.clear()
        decided.clear()
        asked.clear()
        for i in order:
            assert verdicts(reps[i], shared_index) == fresh[i]
        assert len(flag_runs) == len(decided) < len(asked)


def test_orbit_cache_budget():
    table = get_table(F2, 2)
    tiny = OrbitIndex(table, max_entries=2)
    with pytest.raises(ResourceBoundExceeded):
        tiny.orbit_id((mat(F2, [[1, 1], [0, 1]]),))


def test_oracle_gcr_frozen():
    assert not oracle_gcr(rep(F2, [[1, 1], [0, 1]]))
    assert oracle_gcr(rep(F3, [[0, -1], [1, 0]]))
    assert oracle_gcr(rep(F3, [[1, 0], [0, -1]]))
    assert oracle_gcr(rep(F2, [[1, 0], [0, 1]]))


def test_generic_tuple_appends_inverses():
    r = rep(F3, [[0, -1], [1, 0]])
    gt = generic_tuple(r)
    assert gt == (r.generators[0], mat(F3, [[0, 1], [-1, 0]]))
    # closedness of the generic tuple agrees with the plain generator tuple
    rng = random.Random(73)
    for _ in range(15):
        while True:
            m = Matrix(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
            if m.det() != 0:
                break
        r = Representation([m])
        assert is_cochar_closed(generic_tuple(r)) == is_cochar_closed(r.generators)


def test_orbit_partition_invariant():
    # orbit sizes over all single-matrix tuples partition GL_2(F_2)
    table = get_table(F2, 2)
    index = get_index(F2, 2)
    sizes = {}
    for g in table.elements:
        oid = index.orbit_id((g,))
        sizes[oid] = len(index.orbit_members((g,)))
    assert sum(sizes.values()) == table.order
    for size in sizes.values():
        assert table.order % size == 0


def test_oracle_agrees_with_pipeline_on_gl2_f2():
    for g in get_table(F2, 2).elements:
        r = Representation([g])
        assert oracle_gcr(r) == is_gcr_over_k(r).semisimple


def test_oracle_agrees_with_pipeline_on_two_byte_slots():
    """GL2(F11) tuples, two thirds of them upper triangular (half of those
    with equal diagonal entries, so mostly not completely reducible): the
    oracle's verdict matches is_gcr_over_k and exactly one closed orbit is
    accessible."""
    rng = random.Random(97)
    verdicts = []
    for k in range(21):
        gens = []
        while len(gens) < 1 + k % 2:
            a, d = rng.randrange(1, 11), rng.randrange(1, 11)
            if k % 3 == 0:
                gens.append(mat(F11, [[a, rng.randrange(11)], [0, a]]))
            elif k % 3 == 1:
                gens.append(mat(F11, [[a, rng.randrange(11)], [0, d]]))
            else:
                gens.append(_random_invertible(rng, F11, 2))
        r = Representation(gens)
        verdicts.append(oracle_gcr(r))
        assert verdicts[-1] == is_gcr_over_k(r).semisimple
        assert len(accessible_closed_orbits(generic_tuple(r))) == 1
    assert 3 <= verdicts.count(False) <= 18


def test_rational_input_rejected():
    with pytest.raises(InvalidInput):
        oracle_gcr(Representation([Matrix.identity(Field.rational(), 2)]))


def test_accessible_closed_orbits_frozen():
    index = get_index(F2, 2)
    trans = rep(F2, [[1, 1], [0, 1]])
    orbits = accessible_closed_orbits(trans)
    assert len(orbits) == 1
    assert orbits == {index.orbit_id((Matrix.identity(F2, 2),))}

    rot = rep(F3, [[0, -1], [1, 0]])
    idx3 = get_index(F3, 2)
    assert accessible_closed_orbits(rot) == {idx3.orbit_id(rot.generators)}


def test_accessible_orbit_matches_pipeline_limit():
    rng = random.Random(71)
    idx = get_index(F3, 2)
    for _ in range(20):
        gens = []
        while len(gens) < rng.randrange(1, 3):
            m = Matrix(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
            if m.det() != 0:
                gens.append(m)
        r = Representation(gens)
        orbits = accessible_closed_orbits(r)
        ss = semisimplify(r)
        assert orbits == {idx.orbit_id(ss.ss_generators)}


def test_invariant_subspaces_and_irreducibility():
    trans = rep(F2, [[1, 1], [0, 1]])
    inv = invariant_subspaces(trans)
    assert sorted(s.dim for s in inv) == [0, 1, 2]
    assert inv[1].contains_vector((1, 0)) or any(
        s.dim == 1 and s.contains_vector((1, 0)) for s in inv)
    assert not oracle_irreducible(trans)
    assert oracle_irreducible(rep(F3, [[0, -1], [1, 0]]))


def test_subgroup_closure_frozen_orders(monkeypatch):
    assert len(subgroup_closure(F2, [mat(F2, [[1, 1], [0, 1]])])) == 2
    assert len(subgroup_closure(F3, [mat(F3, [[0, -1], [1, 0]])])) == 4
    dihedral = [mat(F3, [[0, 1], [1, 0]]), mat(F3, [[1, 0], [0, -1]])]
    assert len(subgroup_closure(F3, dihedral)) == 8
    monkeypatch.setattr(oracle, "GROUP_ELEMENTS_CAP", 10)
    with pytest.raises(ResourceBoundExceeded):
        subgroup_closure(F3, [g for g in get_table(F3, 2).elements])


def test_centralizer_and_normalizer_frozen():
    rot = rep(F3, [[0, -1], [1, 0]])
    r = rot.generators[0]
    cent = [g for g in get_table(F3, 2).elements if g * r == r * g]
    assert len(cent) == 8  # invertible elements of F_3[R], R^2 = -1
    norm = normalizer_elements(rot)
    assert len(norm) == 16
    assert all(g in norm for g in cent)
    h_set = subgroup_closure(F3, rot.generators)
    for g in norm:
        gi = g.inverse()
        assert {g * h * gi for h in h_set} == set(h_set)


def _normalizer_by_elements(h, h_set):
    """Every g of the row-by-row enumeration with g H g^-1 = H, inverted by
    `Matrix.inverse`: the reference for `normalizer_elements`."""
    return [g for g, gi in _inverted_by_rows(h.field, h.n)
            if all(g * x * gi in h_set for x in h.generators)]


def test_normalizer_matches_every_element_reference(full_corpus):
    """Walking one element per scalar class lists the same normalizer, in
    the same order, as walking every element, on the subgroup above and
    those whose normalizers the acceptance criteria 6 and 8 take."""
    # criterion 8's non-semisimple corpus reps
    cases = [rep(F3, [[0, -1], [1, 0]])]
    cases += [h for h in full_corpus if not is_gcr_over_k(h).semisimple]
    for h in cases:
        h_set = subgroup_closure(h.field, h.generators)
        assert normalizer_elements(h) == _normalizer_by_elements(h, h_set)
    # criterion 6's subgroups, with its draws from the normalizer
    rng = random.Random(20260804)
    shapes = [(F2, 2), (F3, 2), (F2, 3)]
    for pairs in range(100):
        field, n = shapes[pairs % len(shapes)]
        h = Representation([_random_invertible(rng, field, n)
                            for _ in range(rng.randrange(1, 3))])
        h_set = subgroup_closure(field, h.generators)
        normalizer = normalizer_elements(h)
        assert normalizer == _normalizer_by_elements(h, h_set)
        rng.choice([g for g in normalizer if g not in h_set] or normalizer)


def test_cocharacter_limits_match_flag_limits():
    for g in get_table(F2, 2).elements:
        assert cocharacter_limits_match_flag_limits(Representation([g]), height=3)
    two_gen = rep(F2, [[1, 1], [0, 1]], [[1, 0], [0, 1]])
    assert cocharacter_limits_match_flag_limits(two_gen, height=2)
