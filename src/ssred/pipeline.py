"""The semisimplification pipeline.

semisimplify drives a composition series into a cocharacter lambda and
takes the limit of the generators under conjugation by lambda(a) as
a -> 0; the result generates a completely reducible group, certified by
the series itself (the limit's blocks are the composition factors), and
any two such limits are conjugate over the ground field (witnessed by an
explicit matrix).  The module also covers joint semisimplification of
a normal subgroup along the ambient group's flag, and a search for the
optimal destabilizing flag under an exact Kempf-style length measure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, lcm

from .errors import (
    FLAG_CANDIDATE_CAP,
    SPACE_VECTORS_CAP,
    WEIGHT_CLASS_CAP,
    AlgebraNotStable,
    DimensionMismatch,
    InternalInvariantViolation,
    InvalidInput,
    LimitDoesNotExist,
    NotNormal,
    PreconditionNotDestabilizable,
    SearchSpaceExceeded,
    UndecidedIrreducibility,
)
from .exact import EchelonBasis, Matrix, Subspace, projective_vectors, right_kernel, spin
from .flags import (
    Cocharacter,
    Flag,
    block_diagonal,
    c_lambda,
    canonical_weights,
    chain_flags,
    diagonal_blocks,
    flag_to_cocharacter,
    levi_part,
    splits_adapted,
)
from .oracle import subgroup_closure
from .reps import (
    Representation,
    SemisimpleCertificate,
    candidate_elements,
    composition_series,
    enveloping_basis,
    is_semisimple,
    module_iso,
    require_representations,
    restrict_to_subspace,
)

# optimal_flag reads its verdict off the line spins of F_q^n only when
# there are at most this many lines: on random irreducible GF(p) pairs
# (Python 3.11, 2-vCPU Xeon) spinning every line took 0.2-0.9x one MeatAxe
# call up to 15 lines, 2-4x at 31-40 and 64x at 1023
LINE_VERDICT_LINES = 16


def is_gcr_over_k(rep: Representation) -> SemisimpleCertificate:
    """Complete reducibility of the generated subgroup of GL_n.

    For subgroups of GL_n this is equivalent to semisimplicity of the
    natural module, so the certificate is passed through unchanged.
    """
    return is_semisimple(rep)


class SsResult:
    """A semisimplification: flag, cocharacter, and the limit generators."""

    __slots__ = ("input", "flag", "cocharacter", "ss_generators", "certificate")

    def __init__(self, input_rep, flag, cocharacter, ss_generators, certificate):
        self.input = input_rep
        self.flag = flag
        self.cocharacter = cocharacter
        self.ss_generators = tuple(ss_generators)
        self.certificate = certificate

    @property
    def l_irreducible(self) -> bool:
        """Whether every flag block of the limit is irreducible.  The blocks
        are invariant summands of the limit and the certificate splits it
        into irreducibles, so by Jordan-Hoelder this holds exactly when
        there are as many summands as blocks."""
        cert = self.certificate
        return (cert.semisimple and cert.summands is not None
                and len(cert.summands) == len(self.flag.block_sizes))

    def ss_representation(self) -> Representation:
        return Representation(self.ss_generators, name=self.input.name)

    def verify(self) -> bool:
        """Whether ss_generators are the input's limits along the flag's
        cocharacter and the certificate proves them completely reducible.
        The cocharacter's inverse basis change is checked unless it is
        central, when c_lambda does not use it; then the limits lie in the
        Levi subgroup and are invertible, so their module is built without
        a determinant per generator.  Never raises: a part of the wrong
        type, field or size, or a basis change whose columns span no flag,
        gives False."""
        lam, cert = self.cocharacter, self.certificate
        if not (isinstance(self.input, Representation) and isinstance(lam, Cocharacter)
                and isinstance(lam.basis_change_inv, Matrix)
                and isinstance(cert, SemisimpleCertificate) and cert.semisimple):
            return False
        try:
            limits = c_lambda(self.input.generators, lam)
            if not (limits == self.ss_generators and lam.flag() == self.flag):
                return False
        except (LimitDoesNotExist, DimensionMismatch, InvalidInput):
            return False
        if not (lam.is_central or lam.basis_change_inv * lam.basis_change
                == Matrix.identity(lam.field, lam.n)):
            return False
        limit_rep = Representation(self.ss_generators, name=self.input.name, validate=False)
        return cert.verify(limit_rep)

    def __repr__(self):
        return (f"SsResult(blocks={self.flag.block_sizes}, "
                f"l_irreducible={self.l_irreducible})")


def semisimplify(rep: Representation, seed: int = 0) -> SsResult:
    """The k-semisimplification of the generated subgroup.

    One `composition_series` call decides the input and builds its series.
    Semisimple input is its own semisimplification (trivial flag,
    generators unchanged) under the certificate of this seed's recursion,
    for seed 0 `is_gcr_over_k`'s.  Otherwise the series' flag determines
    the cocharacter and the generators are replaced by their limits.  The
    limit is block diagonal in the adapted basis with the composition
    factors as its blocks, so its certificate is this Levi decomposition:
    one summand per flag block, spanned by that block's adapted columns
    and witnessed by the series.  A seed that is not an int raises
    InvalidInput.
    """
    series = composition_series(rep, seed=seed)
    cert = series.certificate
    if cert.semisimple:
        flag = Flag.trivial(rep.field, rep.n)
        lam = flag_to_cocharacter(flag)
        return SsResult(rep, flag, lam, rep.generators, cert)
    lam = flag_to_cocharacter(series.flag)
    ss_gens = [c_lambda(g, lam) for g in rep.generators]
    summands = lam.block_spans()
    for span, factor in zip(summands, series.factors):
        if tuple(restrict_to_subspace(ss_gens, span)) != factor.generators:
            raise InternalInvariantViolation("a limit block differs from its composition factor")
    ss_cert = SemisimpleCertificate(True, summands=summands, witnesses=series.witnesses)
    return SsResult(rep, series.flag, lam, ss_gens, ss_cert)


class ConjugacyCertificate:
    """An explicit matrix conjugating one semisimplification to another."""

    __slots__ = ("g", "lhs", "rhs")

    def __init__(self, g: Matrix, lhs: SsResult, rhs: SsResult):
        self.g = g
        self.lhs = lhs
        self.rhs = rhs

    def verify(self) -> bool:
        """Whether g conjugates the limits of two results of one input; never
        raises.  An invertible g conjugates a to b exactly when g a = b g,
        and the identity does exactly when a = b."""
        lhs, rhs, g = self.lhs, self.rhs, self.g
        if not (all(isinstance(r, SsResult) and isinstance(r.input, Representation)
                    for r in (lhs, rhs))
                and lhs.input.generators == rhs.input.generators
                and len(lhs.ss_generators) == len(rhs.ss_generators)):
            return False
        field, n = lhs.input.field, lhs.input.n
        if not all(isinstance(m, Matrix) and m.field is field and m.nrows == m.ncols == n
                   for m in (g, *lhs.ss_generators, *rhs.ss_generators)):
            return False
        pairs = list(zip(lhs.ss_generators, rhs.ss_generators))
        if g == Matrix.identity(field, n):
            return all(a == b for a, b in pairs)
        return g.det() != 0 and all(g * a == b * g for a, b in pairs)

    def __repr__(self):
        return f"ConjugacyCertificate(g={self.g!r})"


def conjugacy_certificate(a: SsResult, b: SsResult) -> ConjugacyCertificate:
    """Conjugate two semisimplifications of the same input to each other.

    Equal limits get the identity.  Otherwise each irreducible summand of
    a's certificate is paired with the first unused summand of b's that
    carries an isomorphic module X_i, and g = Q diag(X_i) P^-1 with the
    paired summand bases as the columns of P and Q.  The limits are
    conjugate by theorem, so a summand without a partner is a bug.  An
    argument that is not an SsResult raises InvalidInput.
    """
    if not (isinstance(a, SsResult) and isinstance(b, SsResult)):
        raise InvalidInput("a conjugacy certificate relates two SsResults")
    if a.input.generators != b.input.generators:
        raise InvalidInput("the two results come from different inputs")
    if not (a.certificate.semisimple and b.certificate.semisimple):
        raise InvalidInput("a result without a semisimplicity certificate")
    field, n = a.input.field, a.input.n
    if a.ss_generators == b.ss_generators:
        return ConjugacyCertificate(Matrix.identity(field, n), a, b)
    unused = [(t, Representation(restrict_to_subspace(b.ss_generators, t)))
              for t in b.certificate.summands]
    src, dst, blocks = [], [], []
    for s in a.certificate.summands:
        s_rep = Representation(restrict_to_subspace(a.ss_generators, s))
        for i, (t, t_rep) in enumerate(unused):
            x = module_iso(s_rep, t_rep)
            if x is not None:
                break
        else:
            raise InternalInvariantViolation("a summand has no isomorphic partner")
        del unused[i]
        src += s.basis.entries
        dst += t.basis.entries
        blocks.append(x)
    p, q = (Matrix(field, cols, ncols=n, validate=False).transpose() for cols in (src, dst))
    return ConjugacyCertificate(q * block_diagonal(field, blocks) * p.inverse(), a, b)


class CliffordResult:
    """Joint semisimplification of a group and a normal subgroup along
    one flag."""

    __slots__ = ("ambient", "normal")

    def __init__(self, ambient: SsResult, normal: SsResult):
        self.ambient = ambient
        self.normal = normal

    def __repr__(self):
        return f"CliffordResult(blocks={self.ambient.flag.block_sizes})"


def clifford_joint_ss(m: Representation, h: Representation, seed: int = 0) -> CliffordResult:
    """Semisimplify m and a normal subgroup h along the same cocharacter.

    Over a finite field normality (and containment of h in m's group) is
    verified by enumeration; over the rationals the necessary condition
    that conjugation by m's generators stabilizes h's enveloping algebra
    is checked, and normality is otherwise the caller's responsibility.
    Both limits are verified semisimple, which the theory guarantees.  A
    seed that is not an int raises InvalidInput before any closure is built.
    """
    require_representations(m, h)
    if type(seed) is not int:
        raise InvalidInput(f"seed {seed!r} is not an int")
    if m.field is not h.field or m.n != h.n:
        raise DimensionMismatch("group and subgroup live in different spaces")
    if m.field.p is not None:
        m_set = subgroup_closure(m.field, m.generators)
        h_set = subgroup_closure(h.field, h.generators)
        if not all(x in m_set for x in h.generators):
            raise NotNormal("subgroup generators fall outside the ambient group")
        # g H g^-1 is generated by the conjugates of H's generators and has
        # |H| elements, so it is H exactly when they lie in H
        for g, gi in zip(m.generators, m.inverses):
            for x in h.generators:
                if g * x * gi not in h_set:
                    raise NotNormal("conjugation by an ambient generator leaves the subgroup")
    else:
        # conjugation is an algebra automorphism, so it maps the algebra
        # into itself exactly when it maps the algebra's generators into it
        algebra = enveloping_basis(h)
        for g, gi in zip(m.generators, m.inverses):
            for x in h.generators:
                if not algebra.contains(g * x * gi):
                    raise AlgebraNotStable(
                        "ambient generator does not stabilize the subgroup's algebra")
    ambient = semisimplify(m, seed=seed)
    lam = ambient.cocharacter
    try:
        h_gens = c_lambda(h.generators, lam)
    except LimitDoesNotExist:
        raise NotNormal("subgroup does not preserve the ambient composition flag") from None
    h_cert = is_semisimple(Representation(h_gens))
    if not h_cert.semisimple:
        raise InternalInvariantViolation(
            "limit of the normal subgroup along the joint flag is not semisimple")
    return CliffordResult(ambient, SsResult(h, ambient.flag, lam, h_gens, h_cert))


def _spin_seeds(rep: Representation, spins: dict):
    """Yield the spin of each lattice seed in turn, kept in spins keyed by
    the seed, so a seed already there is not spun again.  The seeds are
    the lines of F_q^n, with q^n under the cap (past it SearchSpaceExceeded
    is raised), and over the rationals the kernel vectors of the candidate
    elements."""
    field = rep.field
    n = rep.n
    if field.p is not None:
        if field.p**n > SPACE_VECTORS_CAP:
            raise SearchSpaceExceeded(
                f"{field.p}^{n} vectors exceed the invariant-lattice cap")
        seeds = projective_vectors(field, n)
    else:
        seeds = (v for _word, elt in candidate_elements(rep) if not elt.is_zero()
                 for v in right_kernel(elt))
    for v in seeds:
        if v not in spins:
            spins[v] = spin(field, n, [v], rep.generators)
        yield spins[v]


def _lines_completely_reducible(field, n: int, line_spins) -> bool:
    """Whether the module is completely reducible, read off the spins of
    the lines of F_q^n, which are drawn only until the answer is known.

    A simple submodule is the spin of each of its lines, so a spin W is
    simple exactly when all (q^d - 1)/(q - 1) lines of W, d = dim W, spin
    to W.  Such spins are thus all the simple submodules, their sum is the
    socle, and the module is completely reducible exactly when its socle
    is F_q^n: True once the simple spins seen so far span it, False when
    the lines run out first.
    """
    q = field.p
    lines = Counter()
    socle = EchelonBasis(field, n)
    for w in line_spins:
        key = w.basis.entries
        lines[key] += 1
        if lines[key] == (q**w.dim - 1) // (q - 1):
            for row in key:
                socle.add(row)
            if socle.dim == n:
                return True
    return False


def _invariant_lattice(rep: Representation, spins: dict, steps) -> list[Subspace]:
    """All generator-invariant subspaces over a small finite field, as
    sums of cyclic invariant subspaces; a discovered sublattice over the
    rationals, which also holds the given invariant steps.

    Every invariant subspace is the sum of the spins of its vectors, so
    over F_q with q^n under the cap the closure of the line spins under
    pairwise sum is the complete lattice; past the cap this raises
    SearchSpaceExceeded.  Over the rationals the closure is under sums and
    intersections.  Each unordered pair is joined once: a pair whose sum
    is the larger of the two is comparable, and then its sum and
    intersection are the pair itself.  Each seed's spin is kept in spins,
    keyed by the seed.  This builds the lattice whatever the module:
    `optimal_flag` takes its verdict before it calls this, over a small
    F_q from the same line spins (`_lines_completely_reducible`).
    """
    field = rep.field
    n = rep.n
    found = {w.basis.entries: w for w in _spin_seeds(rep, spins) if 0 < w.dim < n}
    for step in steps:
        found[step.basis.entries] = step
    members = list(found.values())
    for i, cur in enumerate(members):
        for other in members[:i]:
            joined = cur.sum(other)
            if joined.dim == max(cur.dim, other.dim):
                continue
            for combined in ((joined,) if field.p is not None
                             else (joined, cur.intersection(other))):
                if combined.dim == 0 or combined.dim == n:
                    continue
                key = combined.basis.entries
                if key not in found:
                    found[key] = combined
                    members.append(combined)
                    if len(found) > FLAG_CANDIDATE_CAP:
                        raise SearchSpaceExceeded("invariant lattice exceeded the cap")
    return sorted(found.values(), key=lambda w: (w.dim, w.basis.entries))


class FlagCandidate:
    """One (flag, weight class) candidate with its exact squared measure."""

    __slots__ = ("flag", "weights", "w_min", "measure", "limit_generators")

    def __init__(self, flag, weights, w_min, measure, limit_generators):
        self.flag = flag
        self.weights = weights
        self.w_min = w_min
        self.measure = measure
        self.limit_generators = limit_generators


class OptimalFlagReport:
    """Argmax set of the destabilization measure over flags and weights."""

    __slots__ = ("argmax", "measure", "per_flag_data", "search_bound", "findings")

    def __init__(self, argmax, measure, per_flag_data, search_bound, findings):
        self.argmax = tuple(argmax)
        self.measure = measure
        self.per_flag_data = tuple(per_flag_data)
        self.search_bound = search_bound
        self.findings = tuple(findings)

    def __repr__(self):
        return (f"OptimalFlagReport(measure={self.measure}, "
                f"argmax={len(self.argmax)}, findings={len(self.findings)})")


def optimal_flag(rep: Representation, max_weight_height: int = 4) -> OptimalFlagReport:
    """Search invariant flags and bounded weight vectors for the fastest
    destabilization of a non-completely-reducible group.

    The verdict comes first.  Over F_q with at most LINE_VERDICT_LINES
    lines it is read off the line spins the lattice is built from: a
    simple submodule is the spin of each of its lines, so the spins all of
    whose lines spin back to them are the simple submodules, their sum is
    the socle, and the input is completely reducible exactly when the
    socle is k^n (`_lines_completely_reducible`).  With more lines
    `is_semisimple` gives it, which is faster than spinning them all for
    an irreducible input; over the rationals one composition series gives
    it and adds its steps to the lattice.  A completely reducible input
    raises PreconditionNotDestabilizable, also past SPACE_VECTORS_CAP,
    where a non-completely-reducible one raises SearchSpaceExceeded.

    Flags are the chains of the invariant lattice.  A flag's weight classes
    are its strictly decreasing block levels from at most
    max_weight_height + 1 down to 1, so a flag of more steps than that has
    none and is skipped.  The classes are counted before any is built: a
    flag of s steps has at most C(max_weight_height, s - 1), and more than
    WEIGHT_CLASS_CAP over all flags raise SearchSpaceExceeded, which no
    input within FLAG_CANDIDATE_CAP flags reaches at a height up to 4.  A
    non-Representation or non-int height raises InvalidInput.

    The squared measure of a candidate cocharacter is w_min^2 / |lambda|^2
    where w_min is the least positive weight carried by a nonzero
    off-Levi entry of the enveloping algebra in the flag's adapted basis,
    computed from the canonical (centered, gcd-reduced) weights; column j
    of that algebra is the spin of the adapted basis vector b_j.  The
    Levi part of the adapted generators is the limit, and a flag whose
    limit stays conjugate to the input, as every step splits
    (`splits_adapted`), gives no candidate.  Argmax limits are expected
    to be semisimple over perfect fields; violations, decided blockwise by
    Levi descent, are reported as findings rather than errors.
    """
    require_representations(rep)
    if type(max_weight_height) is not int:
        raise InvalidInput(f"weight height bound {max_weight_height!r} is not an int")
    if max_weight_height < 1:
        raise InvalidInput("the weight height bound must be at least 1")
    field, n = rep.field, rep.n
    spins: dict = {}
    steps = []
    q = field.p
    if q is not None and q**n <= SPACE_VECTORS_CAP and (q**n - 1) // (q - 1) <= LINE_VERDICT_LINES:
        reducible = _lines_completely_reducible(field, n, _spin_seeds(rep, spins))
    else:
        # past LINE_VERDICT_LINES the MeatAxe decides faster than the lines;
        # over QQ the composition flag's proper steps join the lattice, and
        # the series' recursion gives the verdict too
        try:
            series = composition_series(rep) if field.p is None else None
        except UndecidedIrreducibility:
            series = None
        reducible = (is_semisimple(rep) if series is None else series.certificate).semisimple
        if series is not None:
            steps = series.flag.steps[:-1]
    if reducible:
        raise PreconditionNotDestabilizable("input is already completely reducible")
    # flags in the order of the candidate sort's tie-break
    flags = sorted(chain_flags(_invariant_lattice(rep, spins, steps), Subspace.full(field, n)),
                   key=lambda f: ([v.dim for v in f.steps], [v.basis.entries for v in f.steps]))
    bound = sum(comb(max_weight_height, f.length - 1) for f in flags)
    if bound > WEIGHT_CLASS_CAP:
        raise SearchSpaceExceeded(
            f"{bound} weight classes at height {max_weight_height} exceed "
            f"WEIGHT_CLASS_CAP = {WEIGHT_CLASS_CAP}")
    candidates = []
    levi_of = {}
    classes_of = {}
    for flag in flags:
        sizes = flag.block_sizes
        if sizes not in classes_of:
            # strictly decreasing block levels, the last one 1, the others
            # drawn from 2 .. max_weight_height + 1, in the sort's order
            classes_of[sizes] = sorted({
                canonical_weights([level for level, size in zip(levels + (1,), sizes)
                                   for _ in range(size)])
                for levels in itertools.combinations(range(max_weight_height + 1, 1, -1),
                                                     len(sizes) - 1)})
        classes = classes_of[sizes]
        if not classes:
            continue
        base = flag_to_cocharacter(flag)
        p, p_inv, w = base.basis_change, base.basis_change_inv, base.weights
        adapted = [p_inv * g * p for g in rep.generators]
        if splits_adapted(adapted, sizes):
            continue
        # Every weight class below orders the blocks as w does, so w_min needs
        # only the adapted algebra's support above the diagonal blocks; column
        # j of that algebra is P^-1 spin(b_j).
        support = set()
        for j, b in enumerate(p.transpose().entries):
            if b not in spins:
                spins[b] = spin(field, n, [b], rep.generators)
            for u in spins[b].basis.entries:
                support.update((i, j) for i, x in enumerate(p_inv.apply(u)) if x and w[i] > w[j])
        levi = levi_of[flag] = [levi_part(a, w) for a in adapted]
        limit = tuple(p * a * p_inv for a in levi)
        for cw in classes:
            w_min = min(cw[i] - cw[j] for i, j in support)
            measure = Fraction(w_min * w_min, sum(x * x for x in cw))
            candidates.append(FlagCandidate(flag, cw, w_min, measure, limit))
    if not candidates:
        raise InternalInvariantViolation(
            "a non-completely-reducible input admitted no destabilizing candidate")
    # measures as integers over one denominator; the sort is stable, so
    # ties keep the flag order, then the weight order
    scale = lcm(*(c.measure.denominator for c in candidates))
    candidates.sort(key=lambda c: -c.measure.numerator * (scale // c.measure.denominator))
    top = candidates[0].measure
    argmax = list(itertools.takewhile(lambda c: c.measure == top, candidates))
    findings = []
    for c in argmax:
        sizes = c.flag.block_sizes
        cut = zip(*(diagonal_blocks(a, sizes) for a in levi_of[c.flag]))
        # a block of dimension 1 is irreducible
        if not all(is_semisimple(Representation(gens)).semisimple
                   for gens, size in zip(cut, sizes) if size > 1):
            findings.append({"kind": "non_semisimple_argmax_limit",
                             "dims": [v.dim for v in c.flag.steps],
                             "weights": list(c.weights), "measure": str(c.measure)})
    return OptimalFlagReport(argmax, top, candidates, max_weight_height, findings)
