"""The splitting-system complement solve against the brute-force oracle,
and the certificate `semisimplify` builds from the composition series."""

import random

import pytest

from ssred.exact import Field, Matrix, Subspace
from ssred.oracle import get_table, invariant_subspaces
from ssred.pipeline import semisimplify
from ssred.reps import Representation, _invariant_complement

F2 = Field.prime(2)
F3 = Field.prime(3)
QQ = Field.rational()


def oracle_complements(subspaces, w, n):
    return [u for u in subspaces if u.dim == n - w.dim and u.intersection(w).dim == 0]


def test_complement_matches_oracle(random_corpus_gl3_f2):
    reps = [Representation([g]) for g in get_table(F3, 2).elements]
    reps += [Representation([g]) for g in get_table(F2, 3).elements]
    reps += list(random_corpus_gl3_f2)
    pairs = with_complement = 0
    for rep in reps:
        subspaces = invariant_subspaces(rep)
        for w in subspaces:
            if not 0 < w.dim < rep.n:
                continue
            pairs += 1
            expected = oracle_complements(subspaces, w, rep.n)
            found = _invariant_complement(rep.generators, w)
            assert (found is None) == (not expected)
            if found is not None:
                with_complement += 1
                assert found in expected
    assert pairs > 200 and 0 < with_complement < pairs


def upper_triangular_qq(rng):
    return Matrix(QQ, [[1, rng.randint(-2, 2), rng.randint(-2, 2)],
                       [0, 2, rng.randint(-2, 2)],
                       [0, 0, 3]])


@pytest.fixture(scope="module")
def one_pass_corpus(random_corpus_gl3_f2, gl3_f3_sample):
    rng = random.Random(20261018)
    rational = [Representation([upper_triangular_qq(rng) for _ in range(2)])
                for _ in range(4)]
    return list(random_corpus_gl3_f2) + list(gl3_f3_sample) + rational


def test_limit_certificate_is_the_levi_decomposition(one_pass_corpus):
    checked = 0
    for rep in one_pass_corpus:
        for seed in (0, 1, 2):
            result = semisimplify(rep, seed=seed)
            sizes = result.flag.block_sizes
            if len(sizes) == 1:
                continue
            checked += 1
            cert = result.certificate
            assert [s.dim for s in cert.summands] == list(sizes)
            cols = result.cocharacter.basis_change.transpose().entries
            start = 0
            for summand, size in zip(cert.summands, sizes):
                assert summand == Subspace.from_vectors(rep.field, rep.n,
                                                        cols[start:start + size])
                start += size
            assert result.verify()
    assert checked > 150
