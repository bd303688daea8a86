"""Metamorphic relations of the complete-reducibility verdict and of
`semisimplify`, on random representations over GF(2) and GF(3) with
n <= 3.

Conjugating every generator by one g gives an isomorphic module;
permuting the generators, duplicating one and appending a product of two
or an inverse leave the generated group as it is.  Either way the
verdict and the composition factors (the sorted block sizes of the
semisimplification, by Jordan-Hoelder) stay the same.  A block sum of two modules of one generator count is
completely reducible exactly when both blocks are, and its composition
factors are theirs.  The verdict is also checked against the oracle
over GL_2(F_5).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssred.exact import Field, Matrix
from ssred.flags import block_diagonal
from ssred.oracle import oracle_gcr
from ssred.pipeline import is_gcr_over_k, semisimplify
from ssred.reps import Representation, composition_series

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)

SEEDS = st.integers(0, 2**32 - 1)
TRANSFORMS = ("conjugate", "permute", "duplicate", "product", "inverse")


def _invertible(rnd, field, n):
    while True:
        m = Matrix(field, [[rnd.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def _random_rep(field, n, count, seed):
    """Random generators; for an even seed and n > 1 they all fix the span
    of the first k coordinates, so the module is reducible."""
    rnd = random.Random(seed)
    k = rnd.randrange(1, n) if seed % 2 == 0 and n > 1 else 0
    gens = []
    while len(gens) < count:
        g = _invertible(rnd, field, n)
        if k:
            g = Matrix(field, [row if i < k else [0] * k + list(row[k:])
                               for i, row in enumerate(g.entries)])
            if g.det() == 0:
                continue
        gens.append(g)
    return Representation(gens)


def representations(field=None, count=None):
    return st.builds(_random_rep, st.sampled_from((F2, F3)) if field is None else st.just(field),
                     st.integers(1, 3), st.integers(1, 3) if count is None else st.just(count),
                     SEEDS)


def _transform(rep, how, rnd):
    gens = list(rep.generators)
    if how == "conjugate":
        g = _invertible(rnd, rep.field, rep.n)
        g_inv = g.inverse()
        gens = [g * h * g_inv for h in gens]
    elif how == "permute":
        rnd.shuffle(gens)
    elif how == "duplicate":
        gens.insert(rnd.randrange(len(gens) + 1), rnd.choice(gens))
    elif how == "product":
        gens.append(rnd.choice(gens) * rnd.choice(gens))
    else:
        gens.append(rnd.choice(gens).inverse())
    return Representation(gens)


def _invariants(rep):
    """The verdict and the sorted block sizes of a semisimplification that
    verifies."""
    result = semisimplify(rep)
    assert result.verify()
    return is_gcr_over_k(rep).semisimple, sorted(result.flag.block_sizes)


@pytest.mark.parametrize("how", TRANSFORMS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(rep=representations(), seed=SEEDS)
def test_same_group_same_module_invariants(how, rep, seed):
    assert _invariants(_transform(rep, how, random.Random(seed))) == _invariants(rep)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(field=st.sampled_from((F2, F3)), count=st.integers(1, 3), data=st.data())
def test_block_sum_is_completely_reducible_exactly_when_both_blocks_are(field, count, data):
    a = data.draw(representations(field, count))
    b = data.draw(representations(field, count))
    total = Representation([block_diagonal(field, pair)
                            for pair in zip(a.generators, b.generators)])
    assert _invariants(total)[0] == (is_gcr_over_k(a).semisimple
                                     and is_gcr_over_k(b).semisimple)
    assert sorted(composition_series(total).flag.block_sizes) == sorted(
        composition_series(a).flag.block_sizes + composition_series(b).flag.block_sizes)


def test_verdict_matches_the_oracle_over_gl2_f5():
    outcomes = set()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(count=st.integers(1, 2), seed=SEEDS)
    def check(count, seed):
        rep = _random_rep(F5, 2, count, seed)
        verdict = is_gcr_over_k(rep).semisimple
        assert oracle_gcr(rep) == verdict
        outcomes.add(verdict)

    check()
    assert outcomes == {True, False}
