import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acceptance_log import LINES

from ssred.exact import Field, Matrix, Subspace
from ssred.oracle import get_table
from ssred.reps import Representation

F2 = Field.prime(2)
F3 = Field.prime(3)


def random_invertible(rng, field, n):
    while True:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(n)])
        if m.det() != 0:
            return m


def spin_closure(field, n, seeds, ops):
    """The invariant span of the seed vectors, recomputed from scratch
    until it stops growing: a reference for `spin` that has no early
    exit."""
    w = Subspace.from_vectors(field, n, seeds)
    while True:
        rows = w.basis.entries
        grown = Subspace.from_vectors(field, n, rows + tuple(m.apply(r) for m in ops for r in rows))
        if grown.dim == w.dim:
            return w
        w = grown


def random_representation(rng, field, n, max_gens=3):
    count = rng.randrange(1, max_gens + 1)
    return Representation([random_invertible(rng, field, n) for _ in range(count)])


@pytest.fixture(scope="session")
def exhaustive_gl2_f2():
    return [Representation([g]) for g in get_table(F2, 2).elements]


@pytest.fixture(scope="session")
def exhaustive_gl2_f3():
    return [Representation([g]) for g in get_table(F3, 2).elements]


@pytest.fixture(scope="session")
def random_corpus_gl2_f3():
    rng = random.Random(20260801)
    return [random_representation(rng, F3, 2) for _ in range(200)]


@pytest.fixture(scope="session")
def random_corpus_gl3_f2():
    rng = random.Random(20260802)
    return [random_representation(rng, F2, 3) for _ in range(200)]


@pytest.fixture(scope="session")
def full_corpus(exhaustive_gl2_f2, exhaustive_gl2_f3,
                random_corpus_gl2_f3, random_corpus_gl3_f2):
    return (list(exhaustive_gl2_f2) + list(exhaustive_gl2_f3)
            + list(random_corpus_gl2_f3) + list(random_corpus_gl3_f2))


@pytest.fixture(scope="session")
def gl3_f3_sample():
    rng = random.Random(20260803)
    return [random_representation(rng, F3, 3) for _ in range(30)]


def pytest_terminal_summary(terminalreporter):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
