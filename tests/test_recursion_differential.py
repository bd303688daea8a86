"""Differential test of the one recursion over W and V/W.

`composition_series` and `is_semisimple` are views of one recursion that
builds the series and the semisimplicity certificate together.  The
references below are the two recursions it replaced, kept here as they
were, with the helpers that lifted their subspaces: the certificate
recursion split off W along its invariant complement C and recursed
into W and C, and the series recursion recursed into W and V/W.  The
series must be identical for every seed; the verdict must agree; the
new certificates must verify; and the summand dimensions must agree as
multisets (Krull-Schmidt), though not necessarily in order, because C
and V/W are isomorphic modules held in different bases.
"""

import random

import pytest

from ssred.exact import Field, Matrix, Subspace, linear_combination
from ssred.flags import block_diagonal
from ssred.reps import (
    IrreducibleWitness,
    Representation,
    SemisimpleCertificate,
    _discover_submodule,
    _invariant_complement,
    composition_series,
    is_semisimple,
    quotient_mod_subspace,
    restrict_to_subspace,
)

F2, F3, F5, F101 = (Field.prime(p) for p in (2, 3, 5, 101))
QQ = Field.rational()
SEEDS = (0, 1, 2)


def lift_from_subspace(w, s):
    n = w.ambient_dim
    return Subspace.from_vectors(w.field, n, [
        linear_combination(w.field, srow, w.basis.entries, n) for srow in s.basis.entries])


def preimage_of_quotient(w, free, sbar):
    field = w.field
    n = w.ambient_dim
    vectors = list(w.basis.entries)
    for srow in sbar.basis.entries:
        vec = [field.zero] * n
        for c, j in zip(srow, free):
            vec[j] = c
        vectors.append(tuple(vec))
    return Subspace.from_vectors(field, n, vectors)


def reference_is_semisimple(rep, rng=None):
    rng = rng or random.Random(0)
    found = _discover_submodule(rep, range(rep.n), rng)
    if isinstance(found, IrreducibleWitness):
        return SemisimpleCertificate(True, summands=[Subspace.full(rep.field, rep.n)],
                                     witnesses=[found])
    w = found
    complement = _invariant_complement(rep.generators, w)
    if complement is None:
        return SemisimpleCertificate(False, obstruction=w)
    out_summands, out_wits = [], []
    for part in (w, complement):
        part_rep = Representation(restrict_to_subspace(rep.generators, part))
        sub = reference_is_semisimple(part_rep, rng)
        if not sub.semisimple:
            return SemisimpleCertificate(False,
                                         obstruction=lift_from_subspace(part, sub.obstruction))
        out_summands += [lift_from_subspace(part, s) for s in sub.summands]
        out_wits += sub.witnesses
    return SemisimpleCertificate(True, summands=out_summands, witnesses=out_wits)


def _reference_series_rec(rep, rng, shuffled):
    order = list(range(rep.n))
    if shuffled:
        rng.shuffle(order)
    found = _discover_submodule(rep, order, rng)
    if isinstance(found, IrreducibleWitness):
        return [], [rep], [found]
    w = found
    sub_rep = Representation(restrict_to_subspace(rep.generators, w))
    quo_mats, free = quotient_mod_subspace(rep.generators, w)
    quo_rep = Representation(quo_mats)
    chain1, factors1, wits1 = _reference_series_rec(sub_rep, rng, shuffled)
    chain2, factors2, wits2 = _reference_series_rec(quo_rep, rng, shuffled)
    chain = ([lift_from_subspace(w, s) for s in chain1]
             + [w]
             + [preimage_of_quotient(w, free, s) for s in chain2])
    return chain, factors1 + factors2, wits1 + wits2


def reference_series(rep, seed):
    chain, factors, witnesses = _reference_series_rec(rep, random.Random(seed), seed != 0)
    return chain + [Subspace.full(rep.field, rep.n)], factors, witnesses


def _witness_key(w):
    return w.kind, w.word, w.factor


def check_against_references(rep):
    reference = reference_is_semisimple(rep)
    new = is_semisimple(rep)
    assert new.semisimple == reference.semisimple
    assert new.verify(rep)
    if new.semisimple:
        assert sorted(s.dim for s in new.summands) == sorted(s.dim for s in reference.summands)
    for seed in SEEDS:
        series = composition_series(rep, seed=seed)
        steps, factors, witnesses = reference_series(rep, seed)
        assert [s.basis for s in series.flag.steps] == [s.basis for s in steps]
        assert [f.generators for f in series.factors] == [f.generators for f in factors]
        assert list(map(_witness_key, series.witnesses)) == list(map(_witness_key, witnesses))
        cert = series.certificate
        assert cert.semisimple == reference.semisimple
        assert cert.verify(rep)
        if seed == 0:
            # is_semisimple is the seed-0 certificate, computed without the series
            assert (cert.obstruction is None) == (new.obstruction is None)
            assert cert.obstruction is None or cert.obstruction == new.obstruction
            assert (cert.summands is None) == (new.summands is None)
            if cert.summands is not None:
                assert cert.summands == new.summands
        elif cert.semisimple:
            assert sorted(s.dim for s in cert.summands) == sorted(
                s.dim for s in reference.summands)


def _scalar(rng, field):
    return rng.randint(-2, 2) if field.p is None else rng.randrange(field.p)


def _square(rng, field, n):
    return Matrix(field, [[_scalar(rng, field) for _ in range(n)] for _ in range(n)])


def _invertible(rng, field, n):
    while True:
        m = _square(rng, field, n)
        if m.det() != 0:
            return m


def _conjugated(rng, field, gens):
    g = _invertible(rng, field, gens[0].nrows)
    gi = g.inverse()
    return Representation([g * m * gi for m in gens])


def _block_triangular(rng, field, n):
    """Random generators that preserve a random flag, with the
    off-diagonal part zero for some generators, in a random basis."""
    sizes, left = [], n
    while left:
        sizes.append(rng.randrange(1, left + 1))
        left -= sizes[-1]
    gens = []
    for _ in range(rng.randrange(1, 3)):
        m = [list(row) for row in block_diagonal(
            field, [_invertible(rng, field, s) for s in sizes]).entries]
        if rng.random() < 0.7:
            start = 0
            for s in sizes:
                for i in range(start, start + s):
                    for j in range(start + s, n):
                        m[i][j] = field.coerce(_scalar(rng, field))
                start += s
        gens.append(Matrix(field, m))
    return _conjugated(rng, field, gens) if rng.random() < 0.5 else Representation(gens)


def _aba(rng, field):
    """A block sum A + B + A with two generators on each block."""
    a, b = rng.randrange(1, 3), rng.randrange(1, 3)
    blocks_a = [_invertible(rng, field, a) for _ in range(2)]
    blocks_b = [_invertible(rng, field, b) for _ in range(2)]
    gens = [block_diagonal(field, [x, y, x]) for x, y in zip(blocks_a, blocks_b)]
    return _conjugated(rng, field, gens) if rng.random() < 0.5 else Representation(gens)


def test_recursion_matches_references_on_the_corpus(full_corpus, gl3_f3_sample):
    for rep in list(full_corpus) + list(gl3_f3_sample):
        check_against_references(rep)


@pytest.mark.parametrize("field", [F2, F3, F5, F101, QQ], ids=repr)
def test_recursion_matches_references_on_random_modules(field):
    rng = random.Random(f"recursion {field!r}")
    for _ in range(25):
        n = rng.randrange(1, 6 if field.p is not None else 5)
        kind = rng.randrange(3)
        if kind == 0:
            rep = Representation([_invertible(rng, field, n) for _ in range(rng.randrange(1, 3))])
        elif kind == 1:
            rep = _block_triangular(rng, field, n)
        else:
            rep = _aba(rng, field)
        check_against_references(rep)
