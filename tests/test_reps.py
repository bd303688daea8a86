import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_representation, spin_closure
from theory_checks import iso_class_multiset

from ssred.errors import (
    DimensionMismatch,
    GeneratorCountMismatch,
    InvalidInput,
    UndecidedIrreducibility,
)
from ssred.exact import Field, Matrix, Subspace
from ssred.flags import Flag, flag_to_cocharacter
from ssred.oracle import generic_tuple
from ssred.pipeline import SsResult
from ssred.reps import (
    EARLY_SEARCH_MIN_DIM,
    IrreducibleWitness,
    Representation,
    SemisimpleCertificate,
    _discover_submodule,
    _invariant_complement,
    candidate_elements,
    composition_series,
    enveloping_basis,
    evaluate_word,
    factor_poly,
    find_submodule,
    is_semisimple,
    module_iso,
    quotient_mod_subspace,
    restrict_to_subspace,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
QQ = Field.rational()


def mat(field, rows):
    return Matrix(field, rows)


def rep(field, *gens, name=None):
    return Representation([mat(field, g) for g in gens], name=name)


TRANSVECTION_F2 = rep(F2, [[1, 1], [0, 1]])
ROTATION_F3 = rep(F3, [[0, -1], [1, 0]])
DIAG_PM1_F3 = rep(F3, [[1, 0], [0, -1]])
# A cyclic permutation and a transvection: irreducible over F2.
CYCLE_TRANSVECTION_F2 = rep(F2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                            [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
# Q8 acting on the quaternions by left multiplication by i and j.
Q8_ON_H = rep(QQ, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
              [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])


def random_rep(rng, field, n, count=None):
    """Random invertible generators: entries below p over GF(p), small
    fractions over QQ."""
    def entry():
        if field.p is not None:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    count = count or rng.randrange(1, 3)
    gens = []
    while len(gens) < count:
        m = Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            gens.append(m)
    return Representation(gens)


def test_representation_validation():
    with pytest.raises(InvalidInput):
        Representation([])
    with pytest.raises(InvalidInput):
        rep(F2, [[1, 1], [1, 1]])  # singular
    r = rep(F3, [[1, 0], [0, 2]], name="diag")
    assert r.n == 2 and r.field is F3 and r.name == "diag"


@pytest.mark.parametrize("gens", [
    [mat(F3, [[1, 0], [0, 2]]), "x"],
    [mat(F3, [[1, 0], [0, 2]]), [[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]]],
], ids=["string", "nested-list", "only-a-list"])
def test_representation_rejects_generators_that_are_not_matrices(gens):
    with pytest.raises(InvalidInput, match="Matrix"):
        Representation(gens)


def test_representation_rejects_a_non_square_generator():
    with pytest.raises(DimensionMismatch, match="generator 0 is not square"):
        Representation([mat(F3, [[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(DimensionMismatch, match="generators of different sizes"):
        Representation([mat(F3, [[1]]), mat(F3, [[1, 0], [0, 1]])])


def test_generators_are_inverted_once(monkeypatch):
    """The search, the witness verifier and the oracle's generic tuple
    share the representation's inverses: each generator is inverted once,
    not once per caller."""
    r = rep(F3, [[0, -1], [1, 0]], [[1, 1], [0, 1]])
    calls = []
    real_inverse = Matrix.inverse

    def counting_inverse(self):
        calls.append(self)
        return real_inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    witness = find_submodule(r)
    assert isinstance(witness, IrreducibleWitness) and witness.word is not None
    assert witness.verify(r)
    assert generic_tuple(r) == r.generators + tuple(real_inverse(g) for g in r.generators)
    assert len(calls) <= len(r.generators)


def test_enveloping_basis_frozen():
    assert enveloping_basis(rep(F2, [[1, 0], [0, 1]])).algebra_dim == 1
    assert enveloping_basis(TRANSVECTION_F2).algebra_dim == 2
    assert enveloping_basis(ROTATION_F3).algebra_dim == 2


def test_enveloping_basis_closed_under_products():
    rng = random.Random(5)
    from ssred.exact import EchelonBasis
    from ssred.reps import _flatten
    for _ in range(40):
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, rng.randrange(1, 4))
        gt = enveloping_basis(r)
        acc = EchelonBasis(field, r.n * r.n)
        for b in gt.algebra_basis:
            assert acc.add(_flatten(b))  # linearly independent
        for a in gt.algebra_basis:
            for b in gt.algebra_basis:
                assert acc.contains(_flatten(a * b))


def _closure_with_inverses(r):
    """span{I, generators, inverses} closed under left multiplication by
    the generators and their inverses: the enveloping algebra of the
    group by its definition."""
    from ssred.exact import EchelonBasis
    from ssred.reps import _flatten
    letters = r.generators + tuple(g.inverse() for g in r.generators)
    acc = EchelonBasis(r.field, r.n * r.n)
    queue = [m for m in (Matrix.identity(r.field, r.n),) + letters if acc.add(_flatten(m))]
    for m in queue:
        for e in letters:
            product = e * m
            if acc.add(_flatten(product)):
                queue.append(product)
    return queue


@pytest.mark.parametrize("field", [F2, F3, Field.prime(101), QQ], ids=repr)
def test_enveloping_basis_spans_the_closure_with_inverses(field):
    """By Cayley-Hamilton the algebra of the generators holds their
    inverses, so closing under the generators alone reaches the same
    span and inverts nothing."""
    rng = random.Random(41)
    for _ in range(25):
        r = random_rep(rng, field, rng.randrange(1, 4))
        algebra = enveloping_basis(r)
        reference = _closure_with_inverses(r)
        assert algebra.algebra_dim == len(reference)
        assert all(algebra.contains(m) for m in reference)
        assert r._inverses is None


@pytest.mark.parametrize("field", [F2, Field.prime(101), QQ], ids=repr)
def test_evaluate_word_reads_generators_then_inverses(field):
    """Letter i < g is generator i and letter g + i its inverse; a word
    without inverse letters leaves the module's inverses uncomputed."""
    rng = random.Random(43)
    kinds = set()
    for _ in range(20):
        g = rng.randrange(1, 4)
        r = random_rep(rng, field, rng.randrange(1, 4), g)
        letters = r.generators + tuple(x.inverse() for x in r.generators)
        for alphabet in (g, 2 * g):
            word = tuple((rng.randrange(1, field.p or 10),
                          tuple(rng.randrange(alphabet) for _ in range(rng.randrange(0, 5))))
                         for _ in range(rng.randrange(1, 4)))
            expected = Matrix.zeros(field, r.n, r.n)
            for c, indices in word:
                product = Matrix.identity(field, r.n)
                for i in indices:
                    product = product * letters[i]
                expected = expected + product.scale(c)
            assert evaluate_word(word, r) == expected
            names_an_inverse = any(i >= g for _c, indices in word for i in indices)
            kinds.add(names_an_inverse)
            assert (r._inverses is not None) == names_an_inverse
    assert kinds == {True, False}


def _naive_word(word, r):
    """evaluate_word's sum with every product started at the identity."""
    g = len(r.generators)
    total = Matrix.zeros(r.field, r.n, r.n)
    for c, indices in word:
        product = Matrix.identity(r.field, r.n)
        for i in indices:
            product = product * (r.generators[i] if i < g else r.generators[i - g].inverse())
        total = total + product.scale(c)
    return total


@pytest.mark.parametrize("word, products", [
    (((1, (0,)),), 0),
    (((1, (1,)), (-1, ())), 0),  # the first deterministic words
    (((2, (0, 1)),), 1),
    (((1, (0, 1, 0)), (3, (1,))), 2),
    ((), 0),
], ids=["letter", "letter-minus-identity", "pair", "two-terms", "empty"])
def test_evaluate_word_starts_each_product_at_its_first_letter(monkeypatch, word, products):
    """A term of k letters takes k - 1 products: none for one letter or
    for the identity term ()."""
    r = random_rep(random.Random(59), Field.prime(101), 4, count=2)
    expected = _naive_word(word, r)
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert evaluate_word(word, r) == expected
    assert len(calls) == products


def test_factor_poly():
    # x^2 + 1 stays irreducible over GF(3), splits over GF(2)
    assert factor_poly([1, 0, 1], F3) == [((1, 0, 1), 1)]
    assert factor_poly([1, 0, 1], F2) == [((1, 1), 2)]
    facs = factor_poly([Fraction(-2), Fraction(0), Fraction(1)], QQ)
    assert facs == [((Fraction(-2), Fraction(0), Fraction(1)), 1)]
    # non-monic leading factor gets normalized
    facs = factor_poly([Fraction(-1), Fraction(0), Fraction(4)], QQ)
    assert facs == [((Fraction(-1, 2), Fraction(1)), 1), ((Fraction(1, 2), Fraction(1)), 1)]


@pytest.mark.parametrize("field", [Field.prime(5), QQ], ids=repr)
@pytest.mark.parametrize("coeffs", [(), (0, 0), (1, 0, 0)])
def test_factor_poly_of_zero_and_constants_is_empty(field, coeffs):
    assert factor_poly(coeffs, field) == []


@pytest.mark.parametrize("field", [Field.prime(5), QQ], ids=repr)
@pytest.mark.parametrize("coeffs", [(2.5, 1), ("a", 1)], ids=repr)
def test_factor_poly_rejects_inexact_coefficients(field, coeffs):
    with pytest.raises(InvalidInput):
        factor_poly(coeffs, field)


# Over GF(5): x^2 - 2 is irreducible, so the module is; the transvection
# minus the identity has nullity 1 and proves norton_pair with factor x.
IRREDUCIBLE_F5 = rep(Field.prime(5), [[0, 2], [1, 0]], [[1, 1], [0, 1]])
NORTON_PAIR_WORD_F5 = ((1, (1,)), (-1, ()))


@pytest.mark.parametrize("kind", ["cyclic", "norton_pair", "norton_kernel"])
@pytest.mark.parametrize("factor", [(), (0,), (3,), (0, 0), (1,), (0, 2)])
def test_degenerate_factor_rejected(kind, factor):
    """Empty, zero, constant and non-monic factors make verify() return
    False, never raise; (0, 2) is 2x, whose Norton test succeeds, so only
    the irreducible-and-monic check rejects it."""
    good = IrreducibleWitness("norton_pair", word=NORTON_PAIR_WORD_F5, factor=(0, 1))
    assert good.verify(IRREDUCIBLE_F5)
    witness = IrreducibleWitness(kind, word=NORTON_PAIR_WORD_F5, factor=factor)
    assert witness.verify(IRREDUCIBLE_F5) is False


def test_find_submodule_transvection():
    found = find_submodule(TRANSVECTION_F2)
    assert isinstance(found, Subspace)
    assert found.dim == 1 and found.contains_vector((1, 0))


def test_find_submodule_rotation_witness():
    found = find_submodule(ROTATION_F3)
    assert isinstance(found, IrreducibleWitness)
    assert found.kind == "cyclic"
    assert found.verify(ROTATION_F3)
    # independent oracle: none of the four lines of F_3^2 is invariant
    from ssred.exact import projective_vectors, spin
    for v in projective_vectors(F3, 2):
        assert spin(F3, 2, [v], ROTATION_F3.generators).dim == 2


def test_find_submodule_dimension_one():
    found = find_submodule(rep(F3, [[2]]))
    assert isinstance(found, IrreducibleWitness)
    assert found.kind == "dimension" and found.verify(rep(F3, [[2]]))


def test_find_submodule_norton_pair():
    r = CYCLE_TRANSVECTION_F2
    found = find_submodule(r)
    assert isinstance(found, IrreducibleWitness)
    assert found.kind == "norton_pair"
    assert found.verify(r)
    # verify() accepts only the kind Norton's test proves
    relabelled = IrreducibleWitness("norton_kernel", word=found.word, factor=found.factor)
    assert not relabelled.verify(r)


def test_find_submodule_cyclic_on_two_generators():
    r = rep(F3, [[0, -1], [1, 0]], [[1, 1], [0, 1]])
    found = find_submodule(r)
    assert isinstance(found, IrreducibleWitness)
    assert found.kind == "cyclic"
    assert found.verify(r)
    relabelled = IrreducibleWitness("norton_pair", word=found.word, factor=found.factor)
    assert not relabelled.verify(r)


# The transvection minus the identity, with factor x: its kernel is a
# plane, so Norton's test spins every kernel line.
NORTON_KERNEL_WITNESS = IrreducibleWitness("norton_kernel", word=((1, (1,)), (-1, ())),
                                           factor=(0, 1))


def test_norton_kernel_witness_verifies():
    r = CYCLE_TRANSVECTION_F2
    assert NORTON_KERNEL_WITNESS.verify(r)
    relabelled = IrreducibleWitness("norton_pair", word=NORTON_KERNEL_WITNESS.word,
                                    factor=NORTON_KERNEL_WITNESS.factor)
    assert not relabelled.verify(r)


def test_norton_kernel_spins_each_kernel_line_once(monkeypatch):
    """The line pass of the norton_kernel test skips the kernel basis
    vectors, which the basis pass has just spun: verify() spins the two
    kernel basis vectors, the one other kernel line and one dual kernel
    vector."""
    import ssred.reps as reps_module
    seeds = []
    real_spin = reps_module.spin

    def recording_spin(field, n, vectors, operators):
        seeds.append([tuple(v) for v in vectors])
        return real_spin(field, n, vectors, operators)

    monkeypatch.setattr(reps_module, "spin", recording_spin)
    assert NORTON_KERNEL_WITNESS.verify(CYCLE_TRANSVECTION_F2)
    assert seeds == [[(1, 0, 0)], [(0, 0, 1)], [(1, 0, 1)], [(0, 1, 0)]]


def _forged_elements(r, rng, count=4):
    """(word, element) for every deterministic word of r, then for count
    seeded random words."""
    deterministic = len(list(candidate_elements(r)))
    return list(itertools.islice(candidate_elements(r, rng), deterministic + count))


def test_norton_kernel_witness_cannot_be_forged():
    """A norton_kernel witness names only a word and a factor; the
    verifier spins every kernel line itself, so a reducible module has no
    such witness (ROADMAP defect D1: repeating one full-spinning kernel
    line used to verify)."""
    from ssred.exact import charpoly, poly_eval_matrix, right_kernel, spin
    r = rep(F2, [[1, 1, 0], [1, 1, 1], [1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    assert isinstance(find_submodule(r), Subspace)
    full_spinning_kernels = 0
    for word, element in _forged_elements(r, random.Random(3)):
        for factor, _mult in factor_poly(charpoly(element), F2):
            assert not IrreducibleWitness("norton_kernel", word=word, factor=factor).verify(r)
            kernel = right_kernel(poly_eval_matrix(factor, element))
            if any(spin(F2, 3, [v], r.generators).dim == 3 for v in kernel):
                full_spinning_kernels += 1
    assert full_spinning_kernels > 0


def test_verified_witnesses_sit_on_irreducible_modules():
    """Soundness of verify(): every witness built from a deterministic or
    seeded random word and an irreducible factor of some such word's
    charpoly that verifies belongs to a module the oracle finds
    irreducible."""
    from ssred.exact import charpoly
    from oracle_probes import oracle_irreducible

    from ssred.oracle import get_table
    rng = random.Random(7)
    modules = ([Representation([g]) for field in (F2, F3) for g in get_table(field, 2).elements]
               + [random_representation(rng, F2, 3) for _ in range(20)])
    accepted = reducible = 0
    for r in modules:
        irreducible = oracle_irreducible(r)
        reducible += not irreducible
        elements = _forged_elements(r, rng)
        words = [word for word, _element in elements]
        factors = {f for _word, element in elements
                   for f, _mult in factor_poly(charpoly(element), r.field)}
        for kind in ("cyclic", "norton_pair", "norton_kernel"):
            for word in words:
                for factor in sorted(factors):
                    if IrreducibleWitness(kind, word=word, factor=factor).verify(r):
                        assert irreducible, (r, kind, word, factor)
                        accepted += 1
    assert reducible > 0 and accepted > 0


@pytest.mark.parametrize("module", [ROTATION_F3, IRREDUCIBLE_F5, CYCLE_TRANSVECTION_F2],
                         ids=["rotation", "norton-pair", "cycle-transvection"])
def test_gf_p_witness_verification_runs_no_factorizer(monkeypatch, module):
    """Over GF(p) the witness verifier proves its factor irreducible by
    Rabin's test, not with the factorizer the search used."""
    import ssred.reps

    witness = find_submodule(module)
    assert witness.factor is not None

    def refuse(*args):
        raise AssertionError("the verifier factored a polynomial")

    monkeypatch.setattr(ssred.reps, "factor_poly", refuse)
    monkeypatch.setattr(ssred.reps, "factor_mod_p", refuse)
    assert witness.verify(module)


def test_all_lines_witness_verification():
    assert IrreducibleWitness("all_lines").verify(ROTATION_F3)
    assert not IrreducibleWitness("all_lines").verify(TRANSVECTION_F2)


def test_witness_tampering_detected():
    good = find_submodule(ROTATION_F3)
    assert not IrreducibleWitness("cyclic", word=good.word, factor=(1, 1)).verify(ROTATION_F3)
    # the identity word with the right factor has the wrong charpoly
    identity = IrreducibleWitness("cyclic", word=((1, ()),), factor=good.factor)
    assert not identity.verify(ROTATION_F3)
    assert not IrreducibleWitness("cyclic", factor=good.factor).verify(ROTATION_F3)


@pytest.mark.parametrize("word", [
    ((1, (2,)),),  # index equal to the number of entries
    ((1, (-1,)),),  # negative index
    ((1, (True,)),),  # bool index
    ((1, (0.0,)),),  # float index
    ((1, ("0",)),),  # str index
    ((1.0, (0,)),),  # float scalar
    ((1, (0,), 0),),  # a term of three parts
    (1,),  # a term that is not a tuple
    ((1, 0),),  # indices that are not a tuple
    [(1, (0,))],  # a word that is not a tuple
])
def test_malformed_word_rejected(word):
    good = find_submodule(ROTATION_F3)
    assert IrreducibleWitness("cyclic", word=good.word, factor=good.factor).verify(ROTATION_F3)
    assert IrreducibleWitness("cyclic", word=word, factor=good.factor).verify(ROTATION_F3) is False


@pytest.mark.parametrize("module, factor", [
    # coefficients Field.coerce refuses
    (ROTATION_F3, (2.0, 2, 1)),  # equals the charpoly, so it used to verify
    (ROTATION_F3, ("a", 2, 1)),
    (ROTATION_F3, (Fraction(2), 2, 1)),
    (CYCLE_TRANSVECTION_F2, (0.0, 1.0)),
    (CYCLE_TRANSVECTION_F2, ("a", "a")),
    (CYCLE_TRANSVECTION_F2, (Fraction(0), 1)),
    # coefficients Field.coerce changes
    (ROTATION_F3, (5, 2, 1)),
    (ROTATION_F3, (-1, 2, 1)),
    (CYCLE_TRANSVECTION_F2, (2, 1)),
])
def test_malformed_factor_rejected(module, factor):
    good = find_submodule(module)
    assert IrreducibleWitness(good.kind, word=good.word, factor=good.factor).verify(module)
    assert IrreducibleWitness(good.kind, word=good.word, factor=factor).verify(module) is False


def test_composition_series_transvection():
    series = composition_series(TRANSVECTION_F2)
    assert series.length == 2
    assert [v.dim for v in series.flag.steps] == [1, 2]
    assert series.flag.steps[0].contains_vector((1, 0))
    for fac, wit in zip(series.factors, series.witnesses):
        assert fac.n == 1
        assert wit.verify(fac)


def test_composition_series_irreducible():
    series = composition_series(ROTATION_F3)
    assert series.length == 1
    assert series.flag.block_sizes == (2,)
    assert series.witnesses[0].verify(series.factors[0])


def _random_invertible(rng, field, n):
    while True:
        m = Matrix(field, [[rng.randrange(field.p) if field.p else rng.randint(-3, 3)
                            for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def _two_blocks(field, a, b, c):
    """[[A, B], [0, C]]."""
    zero = (field.zero,) * a.nrows
    return Matrix(field, [ra + rb for ra, rb in zip(a.entries, b.entries)]
                  + [zero + rc for rc in c.entries])


def _diag(field, *blocks):
    out = blocks[0]
    for b in blocks[1:]:
        out = _two_blocks(field, out, Matrix.zeros(field, out.nrows, b.nrows), b)
    return out


def _reducible_rep(rng, field):
    """[[A, B], [0, A]], [[A, 0], [0, C]] or a direct sum with repeated
    summands, so that several standard vectors spin to equal dimensions."""
    kind = rng.choice(["nonss", "blockdiag", "repeated"])
    k = rng.randrange(1, 3 if field.p is None else 4)
    m = rng.randrange(1, 3)
    gens = []
    for _ in range(2):
        a = _random_invertible(rng, field, k)
        if kind == "nonss":
            b = Matrix(field, [[rng.randrange(field.p or 5) for _ in range(k)] for _ in range(k)])
            gens.append(_two_blocks(field, a, b, a))
        elif kind == "blockdiag":
            gens.append(_diag(field, a, _random_invertible(rng, field, m)))
        else:
            gens.append(_diag(field, a, a, _random_invertible(rng, field, 1), a))
    return Representation(gens)


def _reference_discovery(r, order):
    """Spin every permuted standard vector to closure and keep the first
    strictly smallest proper span, or None."""
    field, n = r.field, r.n
    best = None
    for idx in order:
        e = tuple(field.one if t == idx else field.zero for t in range(n))
        w = spin_closure(field, n, [e], r.generators)
        if w.dim < n and (best is None or w.dim < best.dim):
            best = w
    return best


def _conjugate(rng, r):
    """A random conjugate: standard vectors then often spin full."""
    g = _random_invertible(rng, r.field, r.n)
    gi = g.inverse()
    return Representation([g * m * gi for m in r.generators])


def _discovery_inputs(rng):
    """Reducible inputs, about a third of them conjugated, then inputs of
    dimension 4 to 6: irreducible two-generator ones, and conjugates of
    reducible ones, whose first seed spins full before a later one spins
    a proper submodule or none does."""
    for field in (F2, F3, Field.prime(101), QQ):
        for _ in range(12):
            r = _reducible_rep(rng, field)
            yield _conjugate(rng, r) if rng.random() < 0.3 else r
    for field, n in ((F2, 6), (Field.prime(101), 5), (Field.prime(65521), 4), (QQ, 4)):
        for _ in range(2):
            yield random_rep(rng, field, n, count=2)
        for _ in range(3):
            r = _reducible_rep(rng, field)
            while r.n < 4:
                r = _reducible_rep(rng, field)
            yield _conjugate(rng, r)


def _outcome(search, *args):
    """What search(*args) returns, a witness as (kind, word, factor), or
    UndecidedIrreducibility when it gives up."""
    try:
        found = search(*args)
    except UndecidedIrreducibility:
        return UndecidedIrreducibility
    if isinstance(found, IrreducibleWitness):
        return found.kind, found.word, found.factor
    return found


def _reference_outcome(search, r, order, rng):
    """The discovery rule spelled out with closure spins: from n =
    EARLY_SEARCH_MIN_DIM on, a first vector that spins full gets the
    search's outcome, and only an UndecidedIrreducibility, with the rng
    set back, falls to the spins; otherwise the first strictly smallest
    proper spin, then the search."""
    field, n = r.field, r.n
    e = tuple(field.one if t == order[0] else field.zero for t in range(n))
    early = n >= EARLY_SEARCH_MIN_DIM and spin_closure(field, n, [e], r.generators).dim == n
    if early:
        before = rng.getstate()
        found = _outcome(search, r, rng)
        if found is not UndecidedIrreducibility:
            return found
        rng.setstate(before)
    spun = _reference_discovery(r, order)
    if spun is not None:
        return spun
    return UndecidedIrreducibility if early else _outcome(search, r, rng)


def test_bounded_discovery_matches_closure_reference(monkeypatch):
    """Discovery returns what `_reference_outcome` returns and leaves the
    rng in the same state.  The inputs are run four times: with the
    search as it is, with no deterministic words, so that every search
    draws from the rng, with no words at all, so that every search past
    the line cap gives up, and with three random words and a Norton test
    that never concludes, so that such a search draws from the rng before
    it gives up.  Each run must reach the listed outcomes of an early
    search: returned, or, for an error, discarded for a later proper
    spin."""
    import ssred.reps as reps_module
    searches = []
    real_search = reps_module.find_submodule

    def recording_search(r, rng=None):
        try:
            found = real_search(r, rng=rng)
        except UndecidedIrreducibility:
            searches.append("error")
            raise
        searches.append("witness" if isinstance(found, IrreducibleWitness) else "submodule")
        return found

    monkeypatch.setattr(reps_module, "find_submodule", recording_search)
    returned = {"witness returned", "submodule returned"}
    errors = {"error returned", "error discarded"}
    no_words, norton = (lambda count: iter(())), reps_module._norton
    runs = [(reps_module.deterministic_words, reps_module.NORTON_TRIALS, norton, returned),
            (no_words, reps_module.NORTON_TRIALS, norton, returned),
            (no_words, 0, norton, returned | errors),
            (no_words, 3, lambda *args: None, errors)]
    for words, trials, test, paths_seen in runs:
        monkeypatch.setattr(reps_module, "deterministic_words", words)
        monkeypatch.setattr(reps_module, "NORTON_TRIALS", trials)
        monkeypatch.setattr(reps_module, "_norton", test)
        paths = set()
        rng = random.Random(53)
        for r in _discovery_inputs(rng):
            orders = [list(range(r.n))]
            for _ in range(2):
                orders.append(rng.sample(range(r.n), r.n))
            for order in orders:
                ref_rng, disc_rng = random.Random(0), random.Random(0)
                ref = _reference_outcome(real_search, r, order, ref_rng)
                searches.clear()
                found = _outcome(_discover_submodule, r, order, disc_rng)
                assert found == ref
                assert disc_rng.getstate() == ref_rng.getstate()
                assert len(searches) <= 1
                if searches and r.n >= EARLY_SEARCH_MIN_DIM:
                    spun = searches[0] == "error" and found is not UndecidedIrreducibility
                    paths.add(f"{searches[0]} {'discarded' if spun else 'returned'}")
        assert paths >= paths_seen


def test_discovery_stops_at_the_early_search(monkeypatch):
    """Work pin: on a conjugated reducible module of dimension 5 whose
    first standard vector spins full, discovery spins that one vector,
    runs the search once and returns the search's submodule, with no spin
    of the other vectors."""
    import ssred.reps as reps_module
    field, n = Field.prime(101), 5
    rng = random.Random(3)
    a, b = _random_invertible(rng, field, 2), _random_invertible(rng, field, 3)
    r = _conjugate(rng, Representation([_diag(field, a, b), _diag(field, a * a, b.inverse())]))
    e = tuple(field.one if t == 0 else field.zero for t in range(n))
    assert r.n == n >= EARLY_SEARCH_MIN_DIM
    assert spin_closure(field, n, [e], r.generators).dim == n
    expected = find_submodule(r, rng=random.Random(0))
    assert isinstance(expected, Subspace)
    calls, searching = [], []
    real_spin, real_search = reps_module.spin, reps_module.find_submodule

    def counting_spin(*args, **kwargs):
        if not searching:
            calls.append("spin")
        return real_spin(*args, **kwargs)

    def counting_search(r, rng=None):
        calls.append("search")
        searching.append(None)
        try:
            return real_search(r, rng=rng)
        finally:
            searching.pop()

    monkeypatch.setattr(reps_module, "spin", counting_spin)
    monkeypatch.setattr(reps_module, "find_submodule", counting_search)
    assert _discover_submodule(r, list(range(n)), random.Random(0)) == expected
    assert calls == ["spin", "search"]


def _nonss_rep(rng, field, n):
    """The benchmark's [[A, B], [0, A]] construction, in its draw order."""
    k = n // 2
    gens = []
    for _ in range(2):
        a = random_rep(rng, field, k, count=1).generators[0]
        b = Matrix(field, [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)])
        gens.append(_two_blocks(field, a, b, a))
    return Representation(gens)


@pytest.mark.parametrize("p, n, kind, call, parent_count", [
    (101, 12, "nonss", is_semisimple, 228),
    (101, 12, "nonss", composition_series, 432),
    (65521, 6, "irred", is_semisimple, 96),
], ids=["gf101-nonss-is_semisimple", "gf101-nonss-composition_series",
        "gf65521-irred-is_semisimple"])
def test_spins_stop_once_the_answer_is_known(monkeypatch, p, n, kind, call, parent_count):
    """Regression pin on wasted spin work: operator applications, the
    images `spin` forms plus the `Matrix.apply` calls, stay at most half
    of what spinning every vector to closure cost (parent_count) on the
    benchmark's inputs.  spin forms an image from the operator's rows,
    so every operator it gets has rows that count each pass over them."""
    import ssred.reps as reps_module
    field = Field.prime(p)
    rng = random.Random(1)
    r = _nonss_rep(rng, field, n) if kind == "nonss" else random_rep(rng, field, n, count=2)
    applies, images = [], []
    real_apply, real_spin = Matrix.apply, reps_module.spin

    class CountingRows(tuple):
        def __iter__(self):
            images.append(None)
            return super().__iter__()

    def counting_apply(self, v):
        applies.append(None)
        return real_apply(self, v)

    def counting_spin(field, n, seeds, operators, limit=None):
        counted = []
        for op in operators:
            op = Matrix(op.field, op.entries, ncols=op.ncols, validate=False)
            op.entries = CountingRows(op.entries)
            counted.append(op)
        return real_spin(field, n, seeds, counted, limit)

    monkeypatch.setattr(Matrix, "apply", counting_apply)
    monkeypatch.setattr(reps_module, "spin", counting_spin)
    call(r)
    assert images and len(applies) + len(images) <= parent_count // 2


def _series_certificate(r):
    return composition_series(r, seed=1).certificate


@pytest.mark.parametrize("p, n, certify, counts", [
    (65521, 6, is_semisimple, [1, 3, 3]),
    (65521, 6, _series_certificate, [1, 3, 3]),
    (2, 8, is_semisimple, [3, 5, 5]),
    (2, 8, _series_certificate, [3, 5, 5]),
], ids=["gf65521-n6-is_semisimple", "gf65521-n6-composition_series",
        "gf2-n8-is_semisimple", "gf2-n8-composition_series"])
def test_an_irreducible_module_is_decided_after_one_spin(monkeypatch, p, n, certify, counts):
    """Regression pin on discovery: on an irreducible module the search
    runs after the first standard vector spins full, so the other n - 1
    spin nothing; the rest are the witness's Norton spins.  Spinning
    every standard vector first made [6, 8, 8] calls at GF(65521), n = 6,
    and [10, 12, 12] at GF(2), n = 8."""
    import ssred.reps as reps_module
    spins = []
    real_spin = reps_module.spin

    def counting_spin(*args, **kwargs):
        spins.append(None)
        return real_spin(*args, **kwargs)

    monkeypatch.setattr(reps_module, "spin", counting_spin)
    made = []
    for seed in range(3):
        r = random_rep(random.Random(seed), Field.prime(p), n, count=2)
        spins.clear()
        cert = certify(r)
        made.append(len(spins))
        assert cert.semisimple and len(cert.summands) == 1
    assert made == counts


def test_an_undecided_module_is_searched_once(monkeypatch):
    """Q8 on H (see test_q8_on_h_irreducible_over_qq) spins full from
    every standard vector, so the early search's UndecidedIrreducibility
    is kept and raised after the last spin without a second search."""
    import ssred.reps as reps_module
    searches = []
    real_search = reps_module.find_submodule

    def counting_search(r, rng=None):
        searches.append(r)
        return real_search(r, rng=rng)

    monkeypatch.setattr(reps_module, "find_submodule", counting_search)
    with pytest.raises(UndecidedIrreducibility):
        composition_series(Q8_ON_H, seed=1)
    assert len(searches) == 1


def test_non_split_complement_stops_at_the_first_inconsistent_row(monkeypatch):
    """Regression pin on the standard-basis complement solve: the rows of
    [[A, B], [0, C]] over GF(101), n = 8, W the first four coordinates,
    go into the elimination as they are built, and the solve stops at the
    first row that reduces to 0 = c.  The quotient's spin has 5 relations
    of k = 4 rows each; the fifth row, the first of the second relation,
    is inconsistent, so the solve reads two relations and eliminates five
    rows.  Building every relation's rows first reads all five."""
    import ssred.exact as exact_module
    field, n, k = Field.prime(101), 8, 4
    rng = random.Random(0)
    gens = [_two_blocks(field, _random_invertible(rng, field, k),
                        Matrix(field, [[rng.randrange(field.p) for _ in range(n - k)]
                                       for _ in range(k)]),
                        _random_invertible(rng, field, n - k)) for _ in range(2)]
    w = Subspace.from_vectors(field, n, [[int(i == j) for j in range(n)] for i in range(k)])
    bases, rows_in, relations_read = [], [], []

    class CountingBasis(exact_module.EchelonBasis):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            bases.append(self)

        def add(self, vec):
            rows_in.append(self)
            return super().add(vec)

    real_standard_basis = exact_module._quotient_standard_basis

    def counting_standard_basis(field, quotients):
        origins, basis, relations, inverse = real_standard_basis(field, quotients)

        def read():
            for relation in relations:
                relations_read.append(relation)
                yield relation
        return origins, basis, read(), inverse

    monkeypatch.setattr(exact_module, "EchelonBasis", CountingBasis)
    monkeypatch.setattr(exact_module, "_quotient_standard_basis", counting_standard_basis)
    assert _invariant_complement(gens, w) is None
    # the solve returns right after its elimination, the last basis built
    assert sum(basis is bases[-1] for basis in rows_in) == 5
    assert len(relations_read) <= 2


def test_composition_series_seed_variation():
    results = set()
    for seed in range(8):
        series = composition_series(DIAG_PM1_F3, seed=seed)
        assert series.length == 2
        first = series.factors[0].generators[0].entries[0][0]
        results.add(first)
    # both coordinate lines occur first for some seed
    assert results == {1, 2}


def test_composition_series_random_flags_invariant():
    rng = random.Random(17)
    for _ in range(40):
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, rng.randrange(1, 4))
        series = composition_series(r, seed=rng.randrange(100))
        assert series.flag.is_preserved_by(r.generators)
        assert sum(f.n for f in series.factors) == r.n
        for fac, wit in zip(series.factors, series.witnesses):
            assert wit.verify(fac)


def test_restriction_and_quotient_multiplicative():
    rng = random.Random(19)
    for _ in range(30):
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, 3, count=2)
        series = composition_series(r)
        if series.length == 1:
            continue
        w = series.flag.steps[0]
        ra, rb = restrict_to_subspace(r.generators, w)
        prod = restrict_to_subspace([r.generators[0] * r.generators[1]], w)[0]
        assert ra * rb == prod
        (qa, qb), _free = quotient_mod_subspace(r.generators, w)
        qprod = quotient_mod_subspace([r.generators[0] * r.generators[1]], w)[0][0]
        assert qa * qb == qprod


def test_is_semisimple_frozen():
    cert = is_semisimple(TRANSVECTION_F2)
    assert not cert.semisimple
    assert cert.obstruction.dim == 1
    assert cert.verify(TRANSVECTION_F2)

    cert = is_semisimple(DIAG_PM1_F3)
    assert cert.semisimple
    assert len(cert.summands) == 2
    assert cert.verify(DIAG_PM1_F3)

    cert = is_semisimple(ROTATION_F3)
    assert cert.semisimple
    assert cert.summands == (Subspace.full(F3, 2),)
    assert cert.verify(ROTATION_F3)


def test_forged_semisimple_certificate_rejected():
    """A witness counts only for the module restricted to its own summand
    (ROADMAP defect D2)."""
    transvection = rep(F3, [[1, 1], [0, 1]])
    rotation = rep(F3, [[0, 2], [1, 0]])
    witness = find_submodule(rotation)
    assert isinstance(witness, IrreducibleWitness) and witness.verify(rotation)
    forged = SemisimpleCertificate(True, summands=[Subspace.full(F3, 2)], witnesses=[witness])
    assert not forged.verify(transvection)
    trivial = Flag.trivial(F3, 2)
    result = SsResult(transvection, trivial, flag_to_cocharacter(trivial),
                      transvection.generators, forged)
    assert not result.verify()


def test_semisimple_certificate_tampering_detected():
    cert = is_semisimple(DIAG_PM1_F3)
    assert cert.verify(DIAG_PM1_F3)
    line = cert.summands[0]
    for summands, witnesses in (
            ([line, line], cert.witnesses),  # not a direct sum
            (cert.summands, cert.witnesses[:1]),  # a summand without a witness
            ([Subspace.from_vectors(F3, 2, [(1, 1)]), cert.summands[1]], cert.witnesses),
            # a zero summand, whose all_lines witness holds vacuously
            ([Subspace.zero(F3, 2)] + list(cert.summands),
             [IrreducibleWitness("all_lines")] + list(cert.witnesses))):
        assert not SemisimpleCertificate(True, summands=summands,
                                         witnesses=witnesses).verify(DIAG_PM1_F3)
    # a positive certificate without summands or witnesses
    assert not SemisimpleCertificate(True).verify(TRANSVECTION_F2)
    assert not SemisimpleCertificate(True, summands=cert.summands).verify(DIAG_PM1_F3)


def test_subspaces_that_are_not_invariant_are_rejected_without_raising():
    """Restriction is the verifier's one invariance check: it raises
    InternalInvariantViolation for a subspace that is not invariant, and
    verify() turns that into False."""
    diagonal = Subspace.from_vectors(F3, 2, [(1, 1)])
    second = Subspace.from_vectors(F3, 2, [(0, 1)])
    # two lines spanning the plane, each with a dimension witness that
    # holds for any one-dimensional module: only invariance fails
    forged = SemisimpleCertificate(True, summands=[diagonal, second],
                                   witnesses=[IrreducibleWitness("dimension")] * 2)
    assert forged.verify(DIAG_PM1_F3) is False
    shear = rep(F3, [[1, 1], [0, 1]])
    assert is_semisimple(shear).verify(shear)
    # span{e2} is not invariant under the shear, which has no second line
    assert SemisimpleCertificate(False, obstruction=second).verify(shear) is False
    assert SemisimpleCertificate(False, obstruction=diagonal).verify(shear) is False


def test_is_semisimple_takes_no_rng():
    """The verdict is the seed-0 certificate of the one recursion, so
    there is nothing to seed."""
    with pytest.raises(TypeError):
        is_semisimple(DIAG_PM1_F3, rng=random.Random(5))


def test_certificate_from_another_space_rejected():
    """A summand or an obstruction counts only as a subspace of the
    module's own space: same field, same dimension, and basis rows that
    read as the identity at the pivots."""
    cycle = rep(F2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # semisimple by Maschke
    assert is_semisimple(cycle).semisimple
    diagonal = Subspace.from_vectors(F3, 3, [(1, 1, 1)])
    forged = SemisimpleCertificate(False, obstruction=diagonal)
    assert not forged.verify(cycle)
    # the same subspace is an honest obstruction for the cycle over GF(3)
    assert forged.verify(Representation([mat(F3, g.entries) for g in cycle.generators]))

    shear = rep(F3, [[1, 0], [2, 1]])
    assert not is_semisimple(shear).semisimple
    lines = [Subspace.from_vectors(F2, 2, [v]) for v in ((1, 0), (0, 1))]
    forged = SemisimpleCertificate(True, summands=lines,
                                   witnesses=[IrreducibleWitness("dimension")] * 2)
    assert not forged.verify(shear)
    trivial = Flag.trivial(F3, 2)
    result = SsResult(shear, trivial, flag_to_cocharacter(trivial), shear.generators, forged)
    assert not result.verify()

    honest = is_semisimple(DIAG_PM1_F3)
    line = honest.summands[0]
    for cert in (
            SemisimpleCertificate(False, obstruction=Subspace.from_vectors(F3, 3, [(1, 0, 0)])),
            SemisimpleCertificate(False, obstruction=line.basis),
            SemisimpleCertificate(False, obstruction=(1, 0)),
            SemisimpleCertificate(True, summands=honest.summands, witnesses=[None, None]),
            SemisimpleCertificate(True, summands=[Subspace.from_vectors(Field.prime(5), 2, [v])
                                                  for v in ((1, 0), (0, 4))],
                                  witnesses=honest.witnesses),
            SemisimpleCertificate(True, summands=[line, Subspace.full(F3, 3)],
                                  witnesses=honest.witnesses)):
        assert cert.verify(DIAG_PM1_F3) is False

    # The full space held by rows that are not the identity at the pivots:
    # read there, the transvection's restriction would be [[2, 1], [1, 1]],
    # whose charpoly x^2 + 1 is irreducible over GF(3).
    transvection = rep(F3, [[1, 1], [0, 1]])
    skewed = Subspace(mat(F3, [[1, 1], [0, 1]]), (0, 1))
    cyclic = IrreducibleWitness("cyclic", word=((1, (0,)),), factor=(1, 0, 1))
    forged = SemisimpleCertificate(True, summands=[skewed], witnesses=[cyclic])
    assert not forged.verify(transvection)


def test_is_semisimple_randomized_certificates():
    rng = random.Random(29)
    for _ in range(60):
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, rng.randrange(1, 4))
        cert = is_semisimple(r)
        assert cert.verify(r)


def test_is_semisimple_conjugation_invariant():
    rng = random.Random(31)
    for _ in range(40):
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 4)
        r = random_rep(rng, field, n)
        while True:
            g = Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
            if g.det() != 0:
                break
        gi = g.inverse()
        moved = Representation([g * m * gi for m in r.generators])
        assert is_semisimple(r).semisimple == is_semisimple(moved).semisimple


def test_module_iso_frozen():
    # an element of order 3 acts irreducibly on F2^2
    a = rep(F2, [[0, 1], [1, 1]])
    same = module_iso(a, a)
    assert same == mat(F2, [[1, 1], [1, 0]])
    assert same * a.generators[0] == a.generators[0] * same
    g = module_iso(a, rep(F2, [[1, 1], [1, 0]]))
    assert g == mat(F2, [[0, 1], [1, 0]])
    assert module_iso(a, TRANSVECTION_F2) is None
    with pytest.raises(GeneratorCountMismatch):
        module_iso(a, rep(F2, [[1, 1], [0, 1]], [[1, 0], [0, 1]]))
    assert module_iso(a, rep(F2, [[1]])) is None  # dimension mismatch


def test_module_iso_rejects_arguments_that_are_not_representations():
    m = mat(F2, [[0, 1], [1, 1]])
    with pytest.raises(InvalidInput, match="Representation"):
        module_iso([m], [m])
    with pytest.raises(InvalidInput, match="Representation"):
        module_iso(rep(F2, [[0, 1], [1, 1]]), [m])


def test_module_iso_symmetry():
    rng = random.Random(37)
    seen = 0
    outcomes = set()
    while seen < 40:
        field = rng.choice([F2, F3])
        n = rng.randrange(1, 4)
        a = random_rep(rng, field, n, count=2)
        if not isinstance(find_submodule(a), IrreducibleWitness):
            continue
        seen += 1
        if rng.randrange(2):
            b = random_rep(rng, field, n, count=2)
            if not isinstance(find_submodule(b), IrreducibleWitness):
                continue
        else:
            x = random_rep(rng, field, n, count=1).generators[0]
            xi = x.inverse()
            b = Representation([x * m * xi for m in a.generators])
        g = module_iso(a, b)
        h = module_iso(b, a)
        assert (g is None) == (h is None)
        outcomes.add(g is None)
        if g is not None:
            gi, hi = g.inverse(), h.inverse()
            for x, y in zip(a.generators, b.generators):
                assert g * x * gi == y
                assert h * y * hi == x
    assert outcomes == {True, False}


def test_iso_class_multiset_frozen():
    classes = iso_class_multiset(composition_series(TRANSVECTION_F2)).classes
    assert len(classes) == 1 and classes[0][1] == 2

    classes = iso_class_multiset(composition_series(DIAG_PM1_F3)).classes
    assert len(classes) == 2 and all(mult == 1 for _, mult in classes)

    classes = iso_class_multiset(composition_series(ROTATION_F3)).classes
    assert len(classes) == 1 and classes[0][1] == 1


def test_jordan_holder_across_seeds():
    rng = random.Random(41)
    for _ in range(25):
        field = rng.choice([F2, F3])
        r = random_rep(rng, field, rng.randrange(2, 4))
        base = iso_class_multiset(composition_series(r, seed=0))
        for seed in (1, 2):
            other = iso_class_multiset(composition_series(r, seed=seed))
            assert base.matches(other)
            assert other.matches(base)


def test_rational_module_basics():
    unipotent = Representation([mat(QQ, [[1, 1], [0, 1]])])
    found = find_submodule(unipotent)
    assert isinstance(found, Subspace)
    assert found.dim == 1 and found.contains_vector((1, 0))
    assert not is_semisimple(unipotent).semisimple

    qrot = Representation([mat(QQ, [[0, -1], [1, 0]])])
    wit = find_submodule(qrot)
    assert isinstance(wit, IrreducibleWitness) and wit.kind == "cyclic"
    assert wit.verify(qrot)
    assert is_semisimple(qrot).semisimple

    three = Representation([mat(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])])
    series = composition_series(three)
    assert series.length == 3
    assert not is_semisimple(three).semisimple


@pytest.mark.xfail(strict=True, raises=UndecidedIrreducibility,
                   reason="ROADMAP defect D3: no candidate element is conclusive for Q8 on H")
def test_q8_on_h_irreducible_over_qq():
    """Q8 acting on the quaternions by left multiplication (basis 1, i, j,
    k) is irreducible over QQ: its enveloping algebra is a division
    algebra, so every f(a) is zero or invertible and every charpoly is a
    square, and no candidate element is conclusive."""
    found = find_submodule(Q8_ON_H)
    assert isinstance(found, IrreducibleWitness) and found.verify(Q8_ON_H)
