import random
import sys

import pytest

from ssred import oracle
from ssred.errors import DimensionMismatch, InvalidInput, ResourceBoundExceeded
from ssred.exact import Field, Matrix, Subspace, rref
from ssred.flags import Flag
from ssred.oracle import (
    OrbitIndex,
    accessible_closed_orbits,
    all_subspaces,
    cocharacter_limits_match_flag_limits,
    generic_tuple,
    get_index,
    get_table,
    group_order,
    invariant_subspaces,
    is_cochar_closed,
    normalizer_elements,
    oracle_gcr,
    oracle_irreducible,
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


def test_group_table_matches_formula():
    for field, n in [(F2, 2), (F3, 2), (F2, 3), (F5, 2)]:
        table = get_table(field, n)
        assert table.order == group_order(field.p, n)
        assert Matrix.identity(field, n) in table.elements
        for g, gi in zip(table.elements, table.inverses):
            assert g * gi == Matrix.identity(field, n) == gi * g
        assert len(set(table.elements)) == table.order


@pytest.mark.parametrize("field, n", [(F3, 2), (F2, 3)])
def test_group_table_inverses_built_on_first_use(field, n):
    from ssred.oracle import GroupTable
    table = GroupTable(field, n)
    assert table._inverses is None
    assert table.inverses == tuple(g.inverse() for g in table.elements)
    assert table.inverses is table.inverses
    assert table.conjugators == tuple((g, g.inverse()) for g in table.elements
                                      if next(x for x in g.entries[0] if x) == 1)


def test_group_table_cap():
    from ssred.oracle import GroupTable
    with pytest.raises(ResourceBoundExceeded):
        GroupTable(F3, 4)  # |GL_4(F_3)| is about 24 million


def test_all_subspaces_frozen_counts():
    assert len(all_subspaces(F2, 3)) == 16  # 1 + 7 + 7 + 1
    assert len(all_subspaces(F3, 2)) == 6   # 1 + 4 + 1
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
    the memoized flag limits: no orbit's flags are walked twice."""
    rng = random.Random(2114)
    reps = [Representation([g]) for g in get_table(F3, 2).elements]
    reps += [Representation([_triangularizable(rng, F2, 3)]) for _ in range(12)]
    walked = []
    real_flags = oracle.preserved_flags
    index = None

    def recording_flags(x):
        walked.append(index.orbit_id(x))
        return real_flags(x)

    monkeypatch.setattr(oracle, "preserved_flags", recording_flags)
    verdicts = set()
    for r in reps:
        index = OrbitIndex(get_table(r.field, r.n))
        home = index.orbit_id(generic_tuple(r))
        walked.clear()
        verdicts.add(oracle.oracle_gcr(r, index))
        assert walked[0] == home
        orbits = oracle.accessible_closed_orbits(generic_tuple(r), index)
        assert walked.count(home) == 1
        assert len(walked) == len(set(walked))
        assert len(orbits) == 1
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
        table = get_table(field, n)
        every = frozenset(OrbitIndex.encode(g * m * gi for m in mats)
                          for g, gi in zip(table.elements, table.inverses))
        assert OrbitIndex(table).orbit_members(mats) == every
    for field, n in [(F3, 2), (F2, 3), (F3, 3)]:
        table = get_table(field, n)
        assert len(table.conjugators) * (field.p - 1) == table.order


def test_action_rows_match_every_conjugate_mod_p():
    """The flat kernel agrees with Matrix conjugation where entry products
    exceed p, for n = 1, for the empty tuple, and with two-byte slots:
    GL2(F11) has n^2 (p-1)^2 = 400, GL2(F7) 144, which still fits one byte."""
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
        table = get_table(field, n)
        every = frozenset(OrbitIndex.encode(g * m * gi for m in mats)
                          for g, gi in zip(table.elements, table.inverses))
        assert OrbitIndex(table).orbit_members(mats) == every


def test_columns_pack_every_conjugator():
    """n^4 packed columns; each slot is as wide as the smallest of 1, 2, 4
    and 8 bytes that holds n^2 (p-1)^2, and slot t of column ((i, j), (a, b))
    is g_t[i][a] * g_t^-1[b][j] mod p for the t-th conjugator."""
    rng = random.Random(89)
    for field, n, width in [(F2, 3, 1), (F3, 2, 1), (F3, 3, 1), (F5, 1, 1),
                            (F7, 2, 1), (F11, 2, 2)]:
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


def test_orbit_index_rejects_other_field_or_size():
    wrong = [(mat(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),),
             (mat(F2, [[1, 1], [0, 1]]),),
             (Matrix.identity(F2, 3), mat(F2, [[0, 1], [1, 0]]))]
    for mats in wrong:
        with pytest.raises(DimensionMismatch):
            OrbitIndex(get_table(F2, 3)).orbit_members(mats)
        with pytest.raises(DimensionMismatch):
            OrbitIndex(get_table(F2, 3)).orbit_id(mats)


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


def test_cocharacter_limits_match_flag_limits():
    for g in get_table(F2, 2).elements:
        assert cocharacter_limits_match_flag_limits(Representation([g]), height=3)
    two_gen = rep(F2, [[1, 1], [0, 1]], [[1, 0], [0, 1]])
    assert cocharacter_limits_match_flag_limits(two_gen, height=2)
