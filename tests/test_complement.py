"""The splitting-system complement solve against the brute-force oracle
and against the whole k(n-k)-unknown Sylvester solve, and the
certificate `semisimplify` builds from the composition series."""

import random

import pytest

from ssred.exact import (
    Field,
    Matrix,
    Subspace,
    _quotient_standard_basis,
    linear_combination,
    right_kernel,
    solve_linear,
    solve_sylvester,
    spin,
    sylvester_rows,
)
from ssred.oracle import get_table, invariant_subspaces
from ssred.pipeline import semisimplify
from ssred.reps import (
    Representation,
    SemisimpleCertificate,
    _complement_rows,
    _invariant_complement,
    is_semisimple,
    quotient_mod_subspace,
    restrict_to_subspace,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
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


def sylvester_system(gens, w):
    """The splitting system A X - X D = -B over all generators, with the
    k x m unknown X numbered row-major.  The blocks are read off P^-1 g P
    for P with columns w's basis rows, then e_f at w's free columns."""
    field, n, k = w.field, w.ambient_dim, w.dim
    free = [j for j in range(n) if j not in w.pivots]
    p = Matrix(field, list(w.basis.entries)
               + [[int(i == f) for i in range(n)] for f in free]).transpose()
    pinv = p.inverse()
    rows, rhs = [], []
    for g in gens:
        h = (pinv * g * p).entries
        assert not any(x for row in h[k:] for x in row[:k])
        a = Matrix(field, [row[:k] for row in h[:k]])
        d = Matrix(field, [row[k:] for row in h[k:]])
        rows += sylvester_rows(a, d)
        rhs += [field.neg(x) for row in h[:k] for x in row[k:]]
    return Matrix(field, tuple(rows), ncols=k * len(free), validate=False), rhs, free


def sylvester_complement(gens, w):
    """The reference: the complement of the solution `solve_linear` gives
    the whole Sylvester system, as the solve was before it moved to a
    standard basis of the quotient."""
    field = w.field
    system, rhs, free = sylvester_system(gens, w)
    x = solve_linear(system, rhs)
    if x is None:
        return None
    n = w.ambient_dim
    vectors = []
    for jj, f in enumerate(free):
        vec = list(linear_combination(field, x[jj::len(free)], w.basis.entries, n))
        vec[f] = field.add(vec[f], field.one)
        vectors.append(vec)
    return Subspace.from_vectors(field, n, vectors)


def seed_count(gens, w):
    """s, the number of standard vectors the quotient's spin starts from."""
    quotients, _free = quotient_mod_subspace(gens, w)
    return _quotient_standard_basis(w.field, quotients)[0].count(None)


def test_complement_matches_sylvester_on_every_element():
    pairs = 0
    for field, n in ((F3, 2), (F2, 3)):
        for g in get_table(field, n).elements:
            for w in invariant_subspaces(Representation([g])):
                if 0 < w.dim < n:
                    pairs += 1
                    assert _invariant_complement([g], w) == sylvester_complement([g], w)
    assert pairs > 300


def random_entries(rng, field, nrows, ncols):
    if field.p is None:
        return [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    return [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]


def random_invertible(rng, field, n):
    while True:
        m = Matrix(field, random_entries(rng, field, n, n))
        if m.det() != 0:
            return m


def two_blocks(field, a, b, c):
    """[[a, b], [0, c]]."""
    k = a.nrows
    return Matrix(field, [list(ra) + list(rb) for ra, rb in zip(a.entries, b)]
                  + [[0] * k + list(rc) for rc in c.entries])


def first_coordinates(field, n, k):
    return Subspace.from_vectors(field, n, [[int(i == j) for j in range(n)] for i in range(k)])


@pytest.mark.parametrize("field", [F2, F3, F5], ids=repr)
def test_complement_matches_sylvester_on_random_reps(field):
    """Random reducible reps, conjugated so that the submodule sits at
    arbitrary pivot columns, and the proper spins of standard vectors."""
    rng = random.Random(field.p)
    pairs = standard = 0
    for _ in range(60):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n)
        p = random_invertible(rng, field, n)
        pinv = p.inverse()
        gens = []
        for _ in range(rng.randrange(1, 3)):
            b = random_entries(rng, field, k, n - k)
            if rng.random() < 0.3:
                b = [[0] * (n - k) for _ in range(k)]
            block = two_blocks(field, random_invertible(rng, field, k), b,
                               random_invertible(rng, field, n - k))
            gens.append(p * block * pinv)
        subspaces = {Subspace.from_vectors(field, n, p.transpose().entries[:k])}
        for j in range(n):
            e = [int(i == j) for i in range(n)]
            subspaces.add(spin(field, n, [e], gens))
        for w in subspaces:
            if 0 < w.dim < n:
                pairs += 1
                standard += seed_count(gens, w) < n - w.dim
                assert _invariant_complement(gens, w) == sylvester_complement(gens, w)
    assert pairs > 80 and standard > 20


@pytest.mark.parametrize("field", [F2, Field.prime(101), Field.prime(65521), QQ], ids=repr)
@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["split", "identity", "not_split"])
def test_complement_matches_sylvester_on_block_inputs(field, n, kind):
    """[[A, B], [0, C]] with W the first k coordinates.

    split: C = A and B = A X - X A for one X shared by both generators,
    so complements exist and are not unique; identity: A = C = I, so
    every quotient vector is a spin seed (s = m); not_split: random A, B
    and C."""
    rng = random.Random(f"{field!r} {n} {kind}")
    for _ in range(3):
        k = n // 2 if kind == "split" else rng.randrange(1, n)
        x = Matrix(field, random_entries(rng, field, k, k))
        gens = []
        for _ in range(2):
            if kind == "identity":
                a, c = Matrix.identity(field, k), Matrix.identity(field, n - k)
                b = random_entries(rng, field, k, n - k)
            elif kind == "split":
                a = c = random_invertible(rng, field, k)
                b = (a * x - x * a).entries
            else:
                a, c = random_invertible(rng, field, k), random_invertible(rng, field, n - k)
                b = random_entries(rng, field, k, n - k)
            gens.append(two_blocks(field, a, b, c))
        w = first_coordinates(field, n, k)
        found = _invariant_complement(gens, w)
        assert found == sylvester_complement(gens, w)
        if kind == "split":
            system, _rhs, _free = sylvester_system(gens, w)
            assert found is not None and right_kernel(system)
            assert seed_count(gens, w) < n - k or field is F2
        elif kind == "identity":
            assert seed_count(gens, w) == n - k
        else:
            assert found is None or field is F2


@pytest.mark.parametrize("field", [F2, F3, Field.prime(101), QQ], ids=repr)
def test_block_form_of_restriction_quotient_and_couplings(field):
    """With Q's columns W's basis rows and then the e_f at W's free columns,
    Q^-1 g Q = [[A, B], [0, D]]: A is the restriction, D the quotient
    action and B[i][b] = g[pivot_i][free[b]] the coupling the complement
    solve takes.  W is the spin of a random vector of a reducible module,
    and the complement rows, when there are any, span an invariant
    complement of W."""
    rng = random.Random(f"block form {field!r}")
    seen = []
    for _ in range(60):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n)
        p = random_invertible(rng, field, n)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            b = random_entries(rng, field, k, n - k)
            if rng.random() < 0.4:
                b = [[0] * (n - k) for _ in range(k)]
            block = two_blocks(field, random_invertible(rng, field, k), b,
                               random_invertible(rng, field, n - k))
            gens.append(p * block * p.inverse())
        # a vector of the submodule p spans with its first k columns, or any vector
        seeds = p.transpose().entries[:k] if rng.random() < 0.7 else Matrix.identity(field, n).entries
        v = linear_combination(field, [rng.choice((0, 1, 2)) for _ in seeds], seeds, n)
        w = spin(field, n, [v], gens)
        if not 0 < w.dim < n:
            continue
        free = [j for j in range(n) if j not in w.pivots]
        q = Matrix(field, list(w.basis.entries)
                   + [[int(i == f) for i in range(n)] for f in free]).transpose()
        restrictions = restrict_to_subspace(gens, w)
        quotients, quotient_free = quotient_mod_subspace(gens, w)
        assert quotient_free == free
        m = n - w.dim
        for g, a, d in zip(gens, restrictions, quotients):
            h = (q.inverse() * g * q).entries
            assert not any(x for row in h[w.dim:] for x in row[:w.dim])
            assert a == Matrix(field, [row[:w.dim] for row in h[:w.dim]])
            assert d == Matrix(field, [row[w.dim:] for row in h[w.dim:]], ncols=m)
            assert [list(row[w.dim:]) for row in h[:w.dim]] == [
                [g.entries[pc][f] for f in free] for pc in w.pivots]
        rows = _complement_rows(gens, w, free, restrictions, quotients)
        seen.append(rows is None)
        if rows is not None:
            c = Subspace.from_vectors(field, n, rows)
            assert c.dim == m and c.intersection(w).dim == 0
            assert c.is_invariant_under(gens)
    assert len(seen) > 30 and set(seen) == {True, False}


def complement_inputs(gens, w):
    """The arguments `_complement_rows` takes for w."""
    quotients, free = quotient_mod_subspace(gens, w)
    return gens, w, free, restrict_to_subspace(gens, w), quotients


def solver_rows(gens, w, free, restrictions, quotients):
    """The reference: the complement rows of the X that `solve_sylvester`
    returns, whatever the couplings."""
    field, n, m = w.field, w.ambient_dim, len(free)
    couplings = [[[g.entries[pc][f] for f in free] for pc in w.pivots] for g in gens]
    x, _kernel = solve_sylvester(restrictions, quotients, couplings)
    if x is None:
        return None
    units = Matrix.identity(field, n).entries
    return [linear_combination(field, (*x[jj::m], field.one), w.basis.entries + (units[f],), n)
            for jj, f in enumerate(free)]


def permuted_blocks(rng, field, coupled):
    """Generators [[A, B], [0, D]] conjugated by a random permutation, and
    W, the span of the standard vectors the first block goes to.  Every
    coupling is zero, or, when coupled, one entry of one generator's B."""
    n = rng.randrange(2, 7)
    k = rng.randrange(1, n)
    perm = rng.sample(range(n), n)
    p = Matrix(field, [[int(perm[j] == i) for j in range(n)] for i in range(n)])
    count = rng.randrange(1, 4)
    hit = rng.randrange(count)
    gens = []
    for i in range(count):
        b = [[0] * (n - k) for _ in range(k)]
        if coupled and i == hit:
            b[rng.randrange(k)][rng.randrange(n - k)] = rng.choice((1, 2, -1))
        block = two_blocks(field, random_invertible(rng, field, k), b,
                           random_invertible(rng, field, n - k))
        gens.append(p * block * p.transpose())
    units = Matrix.identity(field, n).entries
    return gens, Subspace.from_vectors(field, n, [units[perm[i]] for i in range(k)])


@pytest.mark.parametrize("field", [F2, Field.prime(101), QQ], ids=repr)
def test_zero_couplings_need_no_solve(monkeypatch, field):
    """With every coupling B zero, X = 0 solves A X - X D = -B and is the
    solution the solver returns, so `_complement_rows` returns the
    standard vectors at W's free columns and calls no solver; with one
    nonzero coupling entry it returns the solver's rows."""
    import ssred.reps as reps_module
    real = reps_module.solve_sylvester

    def refuse(*args):
        raise AssertionError("solve_sylvester called with every coupling zero")

    rng = random.Random(f"zero couplings {field!r}")
    kinds = []
    for _ in range(60):
        coupled = rng.random() < 0.5
        args = complement_inputs(*permuted_blocks(rng, field, coupled))
        expected = solver_rows(*args)
        monkeypatch.setattr(reps_module, "solve_sylvester", real if coupled else refuse)
        rows = _complement_rows(*args)
        assert rows == expected
        if not coupled:
            units = Matrix.identity(field, args[1].ambient_dim).entries
            assert rows == [units[f] for f in args[2]]
        kinds.append("zero" if not coupled else "none" if rows is None else "solved")
    assert set(kinds) == {"zero", "none", "solved"}


def test_zero_couplings_of_a_benchmark_pass_need_no_solve(monkeypatch):
    """One seed-1 pass of the `oracle-small` benchmark workload makes 403
    complement solves, 32 of them at n <= 3 with every coupling zero: on
    each of those `_complement_rows` returns what the solver's X gives."""
    import ssred.reps as reps_module
    from test_output_digest import records

    real = reps_module._complement_rows
    calls = []

    def recording(gens, w, free, restrictions, quotients):
        rows = real(gens, w, free, restrictions, quotients)
        couplings = [g.entries[pc][f] for g in gens for pc in w.pivots for f in free]
        if not any(couplings):
            assert rows == solver_rows(gens, w, free, restrictions, quotients)
        calls.append((not any(couplings), w.ambient_dim))
        return rows

    monkeypatch.setattr(reps_module, "_complement_rows", recording)
    records("oracle-small")
    zero = [n for uncoupled, n in calls if uncoupled]
    assert len(calls) == 403 and len(zero) == 32 and max(zero) <= 3


@pytest.mark.parametrize("field", [F2, Field.prime(101), QQ], ids=repr)
def test_restriction_to_the_full_space_is_the_generators(field):
    """The full space's echelon basis is the identity, so restriction to
    it returns the generators; a certificate summand of full dimension
    whose basis is not the identity is still rejected."""
    rng = random.Random(f"full restriction {field!r}")
    checked = 0
    for _ in range(6):
        n = rng.randrange(2, 6)
        rep = Representation([random_invertible(rng, field, n) for _ in range(2)])
        full = Subspace.full(field, n)
        assert restrict_to_subspace(rep.generators, full) == list(rep.generators)
        cert = is_semisimple(rep)
        if not (cert.semisimple and len(cert.summands) == 1):
            continue
        checked += 1
        assert cert.summands[0] == full and cert.verify(rep)
        # the same span, its pivots at 0..n-1, but row 0 is e_0 + e_1
        rows = [list(row) for row in full.basis.entries]
        rows[0][1] = field.one
        sheared = Subspace(Matrix(field, rows), range(n))
        assert not SemisimpleCertificate(True, [sheared], cert.witnesses).verify(rep)
    assert checked >= 3


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
