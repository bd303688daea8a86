"""Module-theoretic layer: words in the generators, irreducibility
testing, composition series, semisimplicity certificates, and
isomorphism of irreducible modules.

Irreducibility is decided MeatAxe-style (Holt & Rees 1994): take a word
a in the generators and their inverses, factor its characteristic
polynomial (in-house over GF(p), with sympy over the rationals), and run
Norton's test on f(a) for each irreducible factor f.
The test spins kernel vectors of f(a); a proper spin is a submodule.
When the nullity of f(a) equals deg f, one full primal spin plus one
full spin in the dual module proves irreducibility, and over a finite
field the same follows from spinning every kernel line of a singular
f(a).  The search and the witness verifier run this one test on short
fixed words, then random scaled words; a word lies in the enveloping
algebra by construction.  Small finite modules fall back to spinning
every line of the space, which is always conclusive; over the
rationals an inconclusive search raises UndecidedIrreducibility.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import (
    SPACE_VECTORS_CAP,
    DimensionMismatch,
    GeneratorCountMismatch,
    InternalInvariantViolation,
    InvalidInput,
    UndecidedIrreducibility,
)
from .exact import (
    EchelonBasis,
    Field,
    Matrix,
    Subspace,
    charpoly,
    factor_mod_p,
    is_irreducible_mod_p,
    linear_combination,
    poly_eval_matrix,
    projective_vectors,
    right_kernel,
    solve_conjugating,
    solve_sylvester,
    spin,
)
from .flags import Flag

NORTON_TRIALS = 200
NORTON_WORD_LENGTH = 8
# _discover_submodule runs the submodule search after the first full spin
# only from this dimension on: on the oracle-small benchmark inputs
# (Python 3.11, 2-vCPU Xeon) a discovery spin at n <= 3 took 6-14 us and
# a search that found a submodule 92-119 us, and searching at every n
# added 95 such searches to a seed-1 pass and took discovery from 41-44
# to 52-57 ms per pass
EARLY_SEARCH_MIN_DIM = 4


class Representation:
    """A finite list of invertible n x n matrices over one field.

    The generated subgroup of GL_n is the object under study; generator
    order matters only for isomorphism alignment.

    With validate=False the generators are taken unchecked as invertible
    square matrices of one size over one field, which skips a determinant
    per generator.  It is passed only where invertibility is proved (a
    test keeps it there): restrictions to an invariant subspace W and
    quotients by it, as det g = det A * det D for g = [[A, B], [0, D]] in
    a basis through W, and the limits in `SsResult.verify`, as c_lambda
    maps P_lambda onto its Levi subgroup.
    """

    __slots__ = ("field", "n", "generators", "name", "_inverses")

    def __init__(self, generators, name: str | None = None, validate: bool = True):
        generators = tuple(generators)
        if validate:
            if not generators:
                raise InvalidInput("a representation needs at least one generator")
            if not all(isinstance(g, Matrix) for g in generators):
                raise InvalidInput("every generator must be a Matrix")
            field, n = generators[0].field, generators[0].nrows
            for i, g in enumerate(generators):
                if g.field is not field:
                    raise DimensionMismatch("generators over different fields")
                if g.nrows != g.ncols:
                    raise DimensionMismatch(f"generator {i} is not square")
                if g.nrows != n:
                    raise DimensionMismatch("generators of different sizes")
                # a determinant costs less than an inverse, which may never be needed
                if g.det() == 0:
                    raise InvalidInput(f"generator {i} is singular")
        self.field = generators[0].field
        self.n = generators[0].nrows
        self.generators = generators
        self.name = name
        self._inverses = None

    @property
    def inverses(self) -> tuple:
        """The generators' inverses, computed on first use and kept."""
        if self._inverses is None:
            self._inverses = tuple(g.inverse() for g in self.generators)
        return self._inverses

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Representation({self.field!r}, n={self.n}, gens={len(self.generators)}{label})"


def require_representations(*reps) -> None:
    """Raise InvalidInput unless every argument is a Representation."""
    for r in reps:
        if not isinstance(r, Representation):
            raise InvalidInput(f"expected a Representation, got {type(r).__name__}")


class EnvelopingAlgebra:
    """A basis of the enveloping algebra of a group, with the echelon
    basis of its span for membership tests."""

    __slots__ = ("algebra_basis", "algebra_dim", "_span")

    def __init__(self, basis, span: EchelonBasis):
        self.algebra_basis = tuple(basis)
        self.algebra_dim = len(self.algebra_basis)
        self._span = span

    def contains(self, m: Matrix) -> bool:
        return self._span.contains(_flatten(m))


def _flatten(m: Matrix) -> tuple:
    return tuple(x for row in m.entries for x in row)


def evaluate_word(word, rep: Representation) -> Matrix:
    """The sum of c * x_i1 * ... * x_ik over the terms (c, (i1, ..., ik))
    of a word, where () is the identity and, with g generators, letter
    i < g is generator i and letter g + i its inverse.  Only a word that
    names an inverse letter makes the module compute its inverses, and a
    term of k letters takes k - 1 products.  A malformed term, letter or
    scalar raises InvalidInput."""
    gens, field, n = rep.generators, rep.field, rep.n
    g = len(gens)
    if not isinstance(word, tuple):
        raise InvalidInput("a word is a tuple of terms")
    total = None
    for term in word:
        if not (isinstance(term, tuple) and len(term) == 2 and isinstance(term[1], tuple)
                and all(type(i) is int and 0 <= i < 2 * g for i in term[1])):
            raise InvalidInput(f"malformed word term {term!r}")
        letters = [gens[i] if i < g else rep.inverses[i - g] for i in term[1]]
        product = letters[0] if letters else Matrix.identity(field, n)
        for letter in letters[1:]:
            product = product * letter
        product = product.scale(term[0])
        total = product if total is None else total + product
    return Matrix.zeros(field, n, n) if total is None else total


def deterministic_words(count: int):
    """Each of count letters minus the identity, then their pairwise
    differences, sums and products: the words tried before random ones."""
    pairs = list(itertools.combinations(range(count), 2))
    yield from (((1, (i,)), (-1, ())) for i in range(count))
    yield from (((1, (i,)), (-1, (j,))) for i, j in pairs)
    for i, j in pairs:
        yield (1, (i,)), (1, (j,))
        yield ((1, (i, j)),)


def candidate_elements(rep: Representation, rng: random.Random | None = None):
    """(word, element) for each deterministic word over the module's
    letters, generators then inverses, and then, given an rng, for
    NORTON_TRIALS random words."""
    letters = 2 * len(rep.generators)
    words = deterministic_words(letters)
    if rng is not None:
        words = itertools.chain(words, _random_words(rng, letters, rep.field.p))
    for word in words:
        yield word, evaluate_word(word, rep)


def enveloping_basis(rep: Representation) -> EnvelopingAlgebra:
    """Close span{I, generators} under left multiplication by the
    generators.

    By Cayley-Hamilton the inverse of an invertible g is a polynomial in
    g, so the span holds every inverse too: it is the full enveloping
    algebra of the group.
    """
    field = rep.field
    n = rep.n
    acc = EchelonBasis(field, n * n)
    queue = []
    for m in (Matrix.identity(field, n),) + rep.generators:
        if acc.add(_flatten(m)):
            queue.append(m)
    i = 0
    while i < len(queue):
        m = queue[i]
        i += 1
        for e in rep.generators:
            prod = e * m
            if acc.add(_flatten(prod)):
                queue.append(prod)
    return EnvelopingAlgebra(queue, acc)


def factor_poly(coeffs, field: Field) -> list[tuple[tuple, int]]:
    """Factor a polynomial (ascending coefficients) over the field.

    Returns [(monic ascending coefficient tuple, multiplicity)], sorted by
    degree then coefficients, so the output is deterministic; [] for zero
    and for constants.  GF(p) uses `exact.factor_mod_p`; the rationals
    use sympy, imported here so that nothing else loads it.  A coefficient
    that is not an exact scalar of the field raises InvalidInput.
    """
    coeffs = [field.coerce(c) for c in coeffs]
    if field.p is not None:
        return factor_mod_p(coeffs, field.p)
    from sympy import QQ, Poly, Rational, Symbol

    desc = [Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    out = []
    for fac, mult in Poly(desc, Symbol("x"), domain=QQ).factor_list()[1]:
        asc = [Fraction(int(Rational(c).p), int(Rational(c).q)) for c in reversed(fac.all_coeffs())]
        out.append((tuple(c / asc[-1] for c in asc), mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


class IrreducibleWitness:
    """Re-verifiable evidence that a module has no proper submodule.

    kind is one of:
      dimension      the module is one-dimensional
      cyclic         the word's matrix has irreducible charpoly of full degree
      norton_pair    f(a) has nullity deg f; one kernel vector spins to the
                     full space and one dual kernel vector spins to the
                     full dual space
      norton_kernel  f(a) is singular with nullity other than deg f; every
                     kernel line spins full, plus the dual vector check
                     (finite fields)
      all_lines      every line of the space spins full (finite fields)

    A witness holds only a word (see evaluate_word) and the factor f.  The
    verifier evaluates the word to a on the module it is given, reruns
    Norton's test on f(a) and accepts only the kind it proves, and only
    for a monic f that it finds irreducible itself: over GF(p) by Rabin's
    test, which shares no step with the factorizer's splitting, and over
    the rationals by factoring f.
    """

    __slots__ = ("kind", "word", "factor")

    def __init__(self, kind, word=None, factor=None):
        self.kind = kind
        self.word = word
        self.factor = tuple(factor) if factor is not None else None

    def verify(self, rep: Representation) -> bool:
        """Whether the witness proves rep irreducible, False for a rep that
        is not a Representation."""
        if not isinstance(rep, Representation):
            return False
        field = rep.field
        n = rep.n
        if self.kind == "dimension":
            return n == 1
        if self.kind == "all_lines":
            if field.p is None or field.p**n > SPACE_VECTORS_CAP:
                return False
            return all(spin(field, n, [v], rep.generators).dim == n
                       for v in projective_vectors(field, n))
        if self.word is None or self.factor is None:
            return False
        try:
            # a factor coefficient must already be a field element
            if any(field.coerce(c) != c for c in self.factor):
                return False
            a = evaluate_word(self.word, rep)
        except InvalidInput:
            return False
        deg = len(self.factor) - 1
        if self.kind == "cyclic":
            proved = deg == n and charpoly(a) == list(self.factor)
        else:
            proved = _norton(rep, poly_eval_matrix(self.factor, a), deg) == self.kind
        if field.p is not None:
            return proved and is_irreducible_mod_p(self.factor, field.p)
        return proved and factor_poly(self.factor, field) == [(self.factor, 1)]

    def __repr__(self):
        return f"IrreducibleWitness({self.kind!r})"


def _line_count(p: int, k: int) -> int:
    return (p**k - 1) // (p - 1)


def _kernel_lines(field: Field, kernel, n: int):
    """One vector per line of span(kernel), over a finite field, except
    the lines of the kernel vectors themselves."""
    return (linear_combination(field, coeffs, kernel, n)
            for coeffs in projective_vectors(field, len(kernel))
            if coeffs.count(0) < len(coeffs) - 1)


def _norton(rep: Representation, b: Matrix, deg: int):
    """Norton's test on b = f(a) for an irreducible factor f of degree deg.

    Returns a proper submodule, the witness kind the test proves
    ("norton_pair" when nullity(b) = deg, "norton_kernel" over a finite
    field when the kernel lines are within the cap), or None, which it
    always returns for a zero or invertible b.

    Norton (Holt & Rees 1994): a proper submodule W either meets ker b,
    so some kernel vector spins inside W, or b is injective on W, so
    ker b^T lies in the proper dual submodule W^perp and no dual kernel
    vector spins full.  When nullity(b) = deg, ker b is one line over
    k[x]/(f) and spin(v) contains k[a]v, so every kernel vector spins to
    the same subspace and the first one stands for all.
    """
    field = rep.field
    n = rep.n
    kernel = right_kernel(b)
    if not 0 < len(kernel) < n:
        return None
    kind, vectors = None, kernel
    if len(kernel) == deg:
        kind, vectors = "norton_pair", kernel[:1]
    elif field.p is not None and _line_count(field.p, len(kernel)) <= SPACE_VECTORS_CAP:
        kind, vectors = "norton_kernel", itertools.chain(kernel, _kernel_lines(field, kernel, n))
    for v in vectors:
        w = spin(field, n, [v], rep.generators)
        if w.dim < n:
            return w
    if kind is None:
        return None
    dual = spin(field, n, [right_kernel(b.transpose())[0]],
                [g.transpose() for g in rep.generators])
    if dual.dim < n:
        return Subspace.from_vectors(field, n, right_kernel(dual.basis))
    return kind


def _random_words(rng, count: int, p):
    """NORTON_TRIALS random words of one to three terms over count
    letters, each at most NORTON_WORD_LENGTH letters long, with a nonzero
    scalar below p or 10."""
    for _ in range(NORTON_TRIALS):
        terms = []
        for _ in range(rng.randrange(1, 4)):
            indices = tuple(rng.randrange(count)
                            for _ in range(rng.randrange(1, NORTON_WORD_LENGTH + 1)))
            terms.append((rng.randrange(1, p or 10), indices))
        yield tuple(terms)


def find_submodule(rep: Representation, rng: random.Random | None = None):
    """A proper nonzero invariant subspace, or a witness that none exists.

    Over finite fields this is always conclusive when p^n stays under the
    line-enumeration cap.  Over the rationals no dimension is guaranteed:
    when no candidate word is conclusive the search gives up with
    UndecidedIrreducibility (the quaternion module of Q8 does so at n = 4).
    """
    field = rep.field
    n = rep.n
    if n == 1:
        return IrreducibleWitness("dimension")
    for word, a in candidate_elements(rep, rng or random.Random(0)):
        for factor, _mult in factor_poly(charpoly(a), field):
            deg = len(factor) - 1
            found = "cyclic" if deg == n else _norton(rep, poly_eval_matrix(factor, a), deg)
            if isinstance(found, str):
                return IrreducibleWitness(found, word=word, factor=factor)
            if found is not None:
                return found
    if field.p is None:
        raise UndecidedIrreducibility(
            f"rational module of dimension {n}: no candidate word was conclusive")
    if field.p**n <= SPACE_VECTORS_CAP:
        for v in projective_vectors(field, n):
            w = spin(field, n, [v], rep.generators)
            if w.dim < n:
                return w
        return IrreducibleWitness("all_lines")
    raise UndecidedIrreducibility(
        f"no conclusive element found and {field.p}^{n} lines exceed the enumeration cap")


def restrict_to_subspace(gens, w: Subspace) -> list[Matrix]:
    """Matrices of the generator actions on an invariant subspace, in the
    coordinates of its echelon basis.  The full space's echelon basis is
    the identity, so its restrictions are the generators."""
    if w.dim == w.ambient_dim:
        return list(gens)
    field = w.field
    out = []
    for g in gens:
        images = [g.apply(row) for row in w.basis.entries]
        if any(any(w.residual(v)) for v in images):
            raise InternalInvariantViolation("subspace is not invariant")
        # a vector of w has its coordinates at w's pivot columns
        out.append(Matrix(field, [[v[pc] for v in images] for pc in w.pivots],
                          ncols=w.dim, validate=False))
    return out


def quotient_mod_subspace(gens, w: Subspace) -> tuple[list[Matrix], list[int]]:
    """Generator actions on the quotient space, using the standard basis
    vectors at non-pivot columns as coset representatives.

    Returns (matrices, list of the representing column indices).
    """
    free = w.free_columns
    m = len(free)
    # column b of a generator's matrix is the coset of g e_f, f = free[b]
    g_columns = [tuple(zip(*g.entries)) for g in gens]
    columns = w.coset_coordinates(cols[f] for cols in g_columns for f in free)
    return [Matrix(w.field, list(zip(*columns[i * m:(i + 1) * m])), ncols=m, validate=False)
            for i in range(len(gens))], free


def _image(rows, s: Subspace) -> Subspace:
    """The image of s under the linear map that sends e_i to rows[i]."""
    field, n = s.field, len(rows[0])
    return Subspace.from_vectors(field, n, [
        linear_combination(field, srow, rows, n) for srow in s.basis.entries])


class CompositionSeries:
    """A full invariant flag with irreducible successive quotients, and
    the module's semisimplicity certificate."""

    __slots__ = ("flag", "factors", "witnesses", "certificate")

    def __init__(self, flag: Flag, factors, witnesses, certificate):
        factors = tuple(factors)
        witnesses = tuple(witnesses)
        if len(factors) != len(flag.steps) or len(witnesses) != len(factors):
            raise InternalInvariantViolation("series pieces out of step with its flag")
        if tuple(f.n for f in factors) != flag.block_sizes:
            raise InternalInvariantViolation("factor dimensions disagree with the flag")
        self.flag = flag
        self.factors = factors
        self.witnesses = witnesses
        self.certificate = certificate

    @property
    def length(self) -> int:
        return len(self.factors)

    def __repr__(self):
        return f"CompositionSeries(blocks={self.flag.block_sizes})"


def _discover_submodule(rep: Representation, order, rng):
    """The first strictly lowest-dimensional proper spin of the permuted
    standard basis vectors, falling back to the full submodule search.

    A span only grows while it spins, so each spin stops, and loses, once
    it reaches the dimension of the best one so far (n before any).

    From n = EARLY_SEARCH_MIN_DIM on, a first vector that spins full runs
    the search at once, and its witness or submodule is returned: any
    submodule serves, as every composition series gives the same
    k-semisimplification up to conjugacy.  Only when the search gives up
    are the other vectors spun, with the rng set back, and its error
    stands if they all spin full.
    """
    field = rep.field
    n = rep.n
    best = undecided = None
    for idx in order:
        e = tuple(field.one if t == idx else field.zero for t in range(n))
        w = spin(field, n, [e], rep.generators, limit=n if best is None else best.dim)
        if w is not None:
            best = w
        elif best is None and undecided is None and n >= EARLY_SEARCH_MIN_DIM:
            before = rng.getstate()
            try:
                return find_submodule(rep, rng=rng)
            except UndecidedIrreducibility as exc:
                undecided = exc
                rng.setstate(before)
    if best is not None:
        return best
    if undecided is not None:
        raise undecided
    return find_submodule(rep, rng=rng)


def _split(rep: Representation, rng, shuffled: bool, series: bool = True, decide: bool = True):
    """(factors, witnesses, chain, certificate) of V = k^n by one recursion
    over a discovered submodule W and the quotient V/W: the composition
    factors and their witnesses, the composition flag's proper steps
    (empty unless series) and V's SemisimpleCertificate (None unless
    decide).  V is semisimple exactly when W and V/W are and W has an
    invariant complement C.  The module map u -> u + xi(u) from V/W onto
    C carries the summands of V/W, with their witnesses, or its
    obstruction into V.  Complements are solved while the verdict is open.
    """
    order = list(range(rep.n))
    if shuffled:
        rng.shuffle(order)
    found = _discover_submodule(rep, order, rng)
    if isinstance(found, IrreducibleWitness):
        cert = SemisimpleCertificate(True, [Subspace.full(rep.field, rep.n)], [found])
        return [rep], [found], [], cert if decide else None
    w, up = found, found.basis.entries
    restrictions = restrict_to_subspace(rep.generators, w)
    quotients, free = quotient_mod_subspace(rep.generators, w)
    graph = _complement_rows(rep.generators, w, free, restrictions, quotients) if decide else None
    cert = SemisimpleCertificate(False, obstruction=w) if decide and graph is None else None
    if cert is not None and not series:
        return [], [], [], cert
    # det g = det A * det D for g = [[A, B], [0, D]], so both are invertible
    f1, w1, c1, cert1 = _split(Representation(restrictions, validate=False), rng, shuffled,
                               series, decide and cert is None)
    if cert1 is not None and not cert1.semisimple:
        cert = SemisimpleCertificate(False, obstruction=_image(up, cert1.obstruction))
        if not series:
            return [], [], [], cert
    f2, w2, c2, cert2 = _split(Representation(quotients, validate=False), rng, shuffled,
                               series, decide and cert is None)
    if cert2 is not None and not cert2.semisimple:
        cert = SemisimpleCertificate(False, obstruction=_image(graph, cert2.obstruction))
    elif cert2 is not None:
        cert = SemisimpleCertificate(True, [_image(up, s) for s in cert1.summands]
                                     + [_image(graph, s) for s in cert2.summands],
                                     cert1.witnesses + cert2.witnesses)
    chain = []
    if series:
        units = Matrix.identity(rep.field, rep.n).entries
        chain = ([_image(up, s) for s in c1] + [w]
                 + [w.sum(_image([units[f] for f in free], s)) for s in c2])
    return f1 + f2, w1 + w2, chain, cert


def composition_series(rep: Representation, seed: int = 0) -> CompositionSeries:
    """A composition series of k^n under the generators, with the
    semisimplicity certificate of the same recursion.  The seed permutes
    the spin-seed order at every level, so different seeds can return
    different series and certificates when the module admits them; seed 0
    keeps the standard order and gives `is_semisimple`'s certificate.  A
    rep that is not a Representation or a seed that is not an int raises
    InvalidInput.
    """
    require_representations(rep)
    if type(seed) is not int:
        raise InvalidInput(f"seed {seed!r} is not an int")
    rng = random.Random(seed)
    factors, witnesses, chain, cert = _split(rep, rng, shuffled=seed != 0)
    full = Subspace.full(rep.field, rep.n)
    flag = Flag(chain + [full])
    if not flag.is_preserved_by(rep.generators):
        raise InternalInvariantViolation("composition flag is not invariant")
    return CompositionSeries(flag, factors, witnesses, cert)


def is_semisimple(rep: Representation) -> SemisimpleCertificate:
    """Complete reducibility test with a re-verifiable certificate: the
    certificate of `composition_series(rep, 0)`, computed without the
    series, so the recursion stops at the first obstruction.  A rep that
    is not a Representation raises InvalidInput."""
    require_representations(rep)
    return _split(rep, random.Random(0), shuffled=False, series=False)[3]


def _is_subspace_of(s, field: Field, n: int) -> bool:
    """Whether s is a Subspace of field^n whose basis rows read as the
    identity at its pivot columns: then a vector's coordinates are its
    entries there, as residuals and restriction take them to be."""
    return (isinstance(s, Subspace) and s.field is field and s.ambient_dim == n
            and all(0 <= pc < n for pc in s.pivots)
            and all(row[pc] == (1 if i == j else 0) for i, row in enumerate(s.basis.entries)
                    for j, pc in enumerate(s.pivots)))


class SemisimpleCertificate:
    """Outcome of the semisimplicity test.

    Either a direct sum decomposition into invariant summands, each with a
    witness that the generators act irreducibly on it, or an invariant
    subspace with no invariant complement.  The verifier recomputes each
    summand's module by restriction, so a witness only counts for the
    summand it is paired with; a subspace of another space fails it.
    Restriction computes the residual of every image, so it is also the
    verifier's one invariance check of a summand or the obstruction.
    """

    __slots__ = ("semisimple", "summands", "witnesses", "obstruction")

    def __init__(self, semisimple, summands=None, witnesses=None, obstruction=None):
        self.semisimple = semisimple
        self.summands = tuple(summands) if summands is not None else None
        self.witnesses = tuple(witnesses) if witnesses is not None else None
        self.obstruction = obstruction

    def __bool__(self):
        return self.semisimple

    def verify(self, rep: Representation) -> bool:
        """Whether the certificate holds for rep, False for a rep that is
        not a Representation; never raises for a subspace that is not
        invariant."""
        if not isinstance(rep, Representation):
            return False
        field, n, gens = rep.field, rep.n, rep.generators
        if not self.semisimple:
            o = self.obstruction
            if not (_is_subspace_of(o, field, n) and 0 < o.dim < n):
                return False
            try:
                return _invariant_complement(gens, o) is None
            except InternalInvariantViolation:
                return False
        if (self.summands is None or self.witnesses is None
                or len(self.witnesses) != len(self.summands)):
            return False
        acc = EchelonBasis(field, n)
        for s, wit in zip(self.summands, self.witnesses):
            if not (_is_subspace_of(s, field, n) and s.dim > 0
                    and isinstance(wit, IrreducibleWitness)):
                return False
            try:
                # an invertible map restricted to an invariant subspace is
                # injective, so the summand's module needs no determinant
                module = Representation(restrict_to_subspace(gens, s), validate=False)
            except InternalInvariantViolation:
                return False
            if not wit.verify(module):
                return False
            for row in s.basis.entries:
                acc.add(row)
        return acc.dim == n == sum(s.dim for s in self.summands)


def _complement_rows(gens, w: Subspace, free, restrictions, quotients):
    """The vectors e_f + sum_i X[i][f] w_i, one per free column f of w,
    that span an invariant complement of the proper invariant subspace w,
    or None when there is none; restrictions and quotients are the
    generators on w and on the quotient by w.

    In the basis of the w_i followed by the e_f each generator is
    [[A, B], [0, D]] with B[i][f] = g[pivot_i][f].  Every complement is
    such a span for exactly one k x m matrix X, m = n - k, invariant
    exactly when A X - X D = -B for every generator (`solve_sylvester`).
    When every B is zero, X = 0 is the solution `solve_sylvester` would
    return, so the rows are the e_f themselves and nothing is solved.
    """
    field = w.field
    m, n = len(free), w.ambient_dim
    units = Matrix.identity(field, n).entries
    couplings = [[[g.entries[pc][f] for f in free] for pc in w.pivots] for g in gens]
    if not any(any(row) for b in couplings for row in b):
        return [units[f] for f in free]
    x, _kernel = solve_sylvester(restrictions, quotients, couplings)
    if x is None:
        return None
    return [linear_combination(field, (*x[jj::m], field.one), w.basis.entries + (units[f],), n)
            for jj, f in enumerate(free)]


def _invariant_complement(gens, w: Subspace) -> Subspace | None:
    """An invariant complement of the proper invariant subspace w, or None
    (see `_complement_rows`)."""
    quotients, free = quotient_mod_subspace(gens, w)
    rows = _complement_rows(gens, w, free, restrict_to_subspace(gens, w), quotients)
    return None if rows is None else Subspace.from_vectors(w.field, w.ambient_dim, rows)


def module_iso(a: Representation, b: Representation) -> Matrix | None:
    """An invertible g with g a_i g^-1 = b_i for aligned generators, or
    None when there is none, for an irreducible a.

    By Schur's lemma a nonzero module map out of an irreducible a is
    injective, so the first solution of g a_i = b_i g decides.  A singular
    one proves a reducible; it and a non-Representation raise InvalidInput.
    """
    require_representations(a, b)
    if a.field is not b.field:
        raise DimensionMismatch("modules over different fields")
    if len(a.generators) != len(b.generators):
        raise GeneratorCountMismatch(
            f"{len(a.generators)} generators against {len(b.generators)}")
    if a.n != b.n:
        return None
    g = solve_conjugating(a.generators, b.generators)
    if g is not None and g.det() == 0:
        raise InvalidInput("a singular module map out of the first module: it is reducible")
    return g
