"""`optimal_flag`'s verdict from its own line spins or the MeatAxe, the
lattice closure, and the bound on its weight classes."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssred.pipeline
from ssred.errors import (
    FLAG_CANDIDATE_CAP,
    WEIGHT_CLASS_CAP,
    PreconditionNotDestabilizable,
    SearchSpaceExceeded,
)
from ssred.exact import Field, Matrix, Subspace
from ssred.flags import chain_flags
from ssred.oracle import get_table, invariant_subspaces
from ssred.pipeline import (
    LINE_VERDICT_LINES,
    _invariant_lattice,
    _lines_completely_reducible,
    _spin_seeds,
    optimal_flag,
)
from ssred.reps import Representation, is_semisimple
from test_pipeline import _bench_nonss

F2, F3, F5, F101 = (Field.prime(p) for p in (2, 3, 5, 101))
J3_F2 = Representation([Matrix(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])


def _invertible(rnd, field, n):
    while True:
        m = Matrix(field, [[rnd.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def _block_upper_triangular(rnd, field, n):
    """[[A, B], [0, D]] with A and D invertible and B random, zero in a
    quarter of the draws."""
    k = rnd.randrange(1, n)
    a, d = _invertible(rnd, field, k), _invertible(rnd, field, n - k)
    zero_b = rnd.random() < 0.25
    rows = [list(ra) + [0 if zero_b else rnd.randrange(field.p) for _ in range(n - k)]
            for ra in a.entries]
    rows += [[0] * k + list(rd) for rd in d.entries]
    return Matrix(field, rows)


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["gf2", "gf3", "gf5"])
@pytest.mark.parametrize("family", ["random", "block_upper_triangular"])
def test_verdict_is_complete_reducibility(field, family):
    """optimal_flag raises PreconditionNotDestabilizable exactly when
    is_semisimple says the input is completely reducible, and so does the
    socle of the line spins, also past LINE_VERDICT_LINES, where
    optimal_flag asks is_semisimple; both outcomes occur in every
    family."""
    outcomes = set()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), count=st.integers(1, 3))
    def check(seed, n, count):
        rnd = random.Random(seed)
        if family == "random":
            gens = [_invertible(rnd, field, n) for _ in range(count)]
        else:
            gens = [_block_upper_triangular(rnd, field, n) for _ in range(count)]
        r = Representation(gens)
        semisimple = is_semisimple(r).semisimple
        assert _lines_completely_reducible(field, n, _spin_seeds(r, {})) == semisimple
        try:
            optimal_flag(r, max_weight_height=1)
            raised = False
        except PreconditionNotDestabilizable:
            raised = True
        except SearchSpaceExceeded:
            raised = False
        assert raised == semisimple
        outcomes.add(semisimple)

    check()
    assert outcomes == {True, False}


def test_errors_past_the_space_cap():
    """101^4 vectors are past SPACE_VECTORS_CAP: the verdict still comes
    first, so a completely reducible input raises
    PreconditionNotDestabilizable and the others SearchSpaceExceeded."""
    diagonal = Representation([Matrix(F101, [[2, 0, 0, 0], [0, 3, 0, 0],
                                             [0, 0, 5, 0], [0, 0, 0, 7]])])
    with pytest.raises(PreconditionNotDestabilizable):
        optimal_flag(diagonal)
    with pytest.raises(SearchSpaceExceeded):
        optimal_flag(_bench_nonss(random.Random(1), F101, 4))


@pytest.mark.parametrize("n", [4, 8])
def test_completely_reducible_input_closes_no_lattice(monkeypatch, n):
    """The identity group of GF(2)^n has every subspace invariant; its
    verdict comes before any sum is taken, from the 15 line spins at n = 4
    and from is_semisimple at n = 8."""
    sums = []
    real_sum = Subspace.sum

    def counting_sum(self, other):
        sums.append(None)
        return real_sum(self, other)

    monkeypatch.setattr(Subspace, "sum", counting_sum)
    with pytest.raises(PreconditionNotDestabilizable):
        optimal_flag(Representation([Matrix.identity(F2, n)]))
    assert sums == []


def test_whole_input_semisimplicity_call_only_past_the_line_bound(monkeypatch, full_corpus):
    """With at most LINE_VERDICT_LINES lines is_semisimple only sees
    argmax limit blocks of dimension at least 2; with more, also past
    SPACE_VECTORS_CAP, its first call decides the whole input."""
    seen = []
    real = ssred.pipeline.is_semisimple

    def recording(r):
        seen.append(r)
        return real(r)

    monkeypatch.setattr(ssred.pipeline, "is_semisimple", recording)
    rnd = random.Random(3)
    small = list(full_corpus[::7]) + [J3_F2, Representation([Matrix.identity(F2, 4)])]
    small += [Representation([_block_upper_triangular(rnd, F2, 4)]) for _ in range(5)]
    large = [Representation([_block_upper_triangular(rnd, F2, 5)]) for _ in range(5)]
    large += [_bench_nonss(random.Random(1), F2, 8), Representation([Matrix.identity(F2, 5)])]
    for reps, whole in ((small, False), (large, True)):
        verdicts = set()
        for r in reps:
            assert ((r.field.p**r.n - 1) // (r.field.p - 1) > LINE_VERDICT_LINES) == whole
            seen.clear()
            try:
                optimal_flag(r)
                verdicts.add(False)
            except PreconditionNotDestabilizable:
                verdicts.add(True)
            assert [s for s in seen if s.generators == r.generators] == seen[:whole]
            assert all(1 < s.n < r.n for s in seen[whole:])
        assert verdicts == {True, False}
    seen.clear()
    r = _bench_nonss(random.Random(1), F101, 4)
    with pytest.raises(SearchSpaceExceeded):
        optimal_flag(r)
    assert [s.generators for s in seen] == [r.generators]


def _proper_invariant(r):
    return sorted((s for s in invariant_subspaces(r) if 0 < s.dim < r.n),
                  key=lambda w: (w.dim, w.basis.entries))


def test_lattice_is_every_proper_invariant_subspace(gl3_f3_sample):
    """Against the oracle's filtered subspace lattice: every element of
    GL2(F2), GL2(F3) and GL3(F2), random GL3(F3) tuples, random and block
    upper triangular GF(2)^4 pairs, and the identity of GF(2)^4, whose 65
    subspaces are mostly sums of several lines."""
    rnd = random.Random(71)
    reps = [Representation([g]) for field, n in ((F2, 2), (F3, 2), (F2, 3))
            for g in get_table(field, n).elements]
    reps += [Representation([_invertible(rnd, F2, 4), _block_upper_triangular(rnd, F2, 4)])
             for _ in range(10)]
    reps += [Representation([_block_upper_triangular(rnd, F2, 4)]) for _ in range(10)]
    reps.append(Representation([Matrix.identity(F2, 4)]))
    for r in reps + list(gl3_f3_sample):
        assert _invariant_lattice(r, {}, []) == _proper_invariant(r)
    assert len(_proper_invariant(reps[-1])) == 65


def test_lattice_sums_each_unordered_pair_at_most_once(monkeypatch):
    """A transvection of GF(3)^3 has 8 proper invariant subspaces; the
    closure joins no pair twice and no subspace with itself."""
    pairs = []
    real_sum = Subspace.sum

    def recording_sum(self, other):
        pairs.append(frozenset((self.basis.entries, other.basis.entries)))
        return real_sum(self, other)

    r = Representation([Matrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    monkeypatch.setattr(Subspace, "sum", recording_sum)
    lattice = _invariant_lattice(r, {}, [])
    assert lattice == _proper_invariant(r)
    assert len(lattice) == 8
    assert len(pairs) == len(set(pairs)) and all(len(p) == 2 for p in pairs)
    assert len(pairs) <= comb(len(lattice), 2)


def _class_count(height):
    """C(h, s - 1) weight classes per flag of s steps, over the three
    flags of the 3x3 Jordan block: two of two steps, one of three."""
    return 2 * comb(height, 1) + comb(height, 2)


def test_weight_classes_are_counted_before_any_is_built(monkeypatch):
    built = []
    real = ssred.pipeline.flag_to_cocharacter

    def recording(flag):
        built.append(flag)
        return real(flag)

    monkeypatch.setattr(ssred.pipeline, "flag_to_cocharacter", recording)
    height = next(h for h in range(1, 2000) if _class_count(h) > WEIGHT_CLASS_CAP)
    assert _class_count(height - 1) <= WEIGHT_CLASS_CAP
    with pytest.raises(SearchSpaceExceeded, match="WEIGHT_CLASS_CAP"):
        optimal_flag(J3_F2, max_weight_height=height)
    assert built == []
    # at a lowered cap the count decides exactly where the search stops
    monkeypatch.setattr(ssred.pipeline, "WEIGHT_CLASS_CAP", _class_count(3))
    assert len(optimal_flag(J3_F2, max_weight_height=3).per_flag_data) <= _class_count(3)
    with pytest.raises(SearchSpaceExceeded, match="WEIGHT_CLASS_CAP"):
        optimal_flag(J3_F2, max_weight_height=4)


class _Built(Exception):
    pass


def test_flag_cap_bounds_the_weight_classes_up_to_height_four(monkeypatch):
    """FLAG_CANDIDATE_CAP complete flags of three steps, the most classes a
    flag has up to height 4, stay within WEIGHT_CLASS_CAP: the search goes
    on to build the first cocharacter.  At height 5 the same flags have
    C(5, 2) = 10 classes each and pass it."""
    most = max(comb(h, s - 1) for h in range(1, 5) for s in range(1, h + 2))
    assert most == 6 and most * FLAG_CANDIDATE_CAP <= WEIGHT_CLASS_CAP
    complete = next(f for f in chain_flags(_invariant_lattice(J3_F2, {}, []),
                                           Subspace.full(F2, 3)) if f.length == 3)

    def building(flag):
        raise _Built

    monkeypatch.setattr(ssred.pipeline, "chain_flags",
                        lambda proper, full: [complete] * FLAG_CANDIDATE_CAP)
    monkeypatch.setattr(ssred.pipeline, "flag_to_cocharacter", building)
    with pytest.raises(_Built):
        optimal_flag(J3_F2)
    with pytest.raises(SearchSpaceExceeded, match="WEIGHT_CLASS_CAP"):
        optimal_flag(J3_F2, max_weight_height=5)
