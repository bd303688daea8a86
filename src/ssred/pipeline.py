"""The semisimplification pipeline.

semisimplify drives a composition series into a cocharacter lambda and
takes the limit of the generators under conjugation by lambda(a) as
a -> 0; the result generates a completely reducible group, certified by
the series itself (the limit's blocks are the composition factors), and
any two such limits are conjugate over the ground field (witnessed by an
explicit matrix).  The module also covers Levi descent for
block-diagonal inputs, joint semisimplification of a normal subgroup
along the ambient group's flag, and a search for the optimal
destabilizing flag under an exact Kempf-style length measure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    FLAG_CANDIDATE_CAP,
    SPACE_VECTORS_CAP,
    AlgebraNotStable,
    DimensionMismatch,
    InternalInvariantViolation,
    InvalidInput,
    LimitDoesNotExist,
    NotBlockDiagonal,
    NotNormal,
    PreconditionNotDestabilizable,
    SearchSpaceExceeded,
    UndecidedIrreducibility,
)
from .exact import Matrix, Subspace, projective_vectors, right_kernel, spin
from .flags import (
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
        lam = self.cocharacter
        try:
            limits = c_lambda(self.input.generators, lam)
        except LimitDoesNotExist:
            return False
        return (limits == self.ss_generators and lam.flag() == self.flag
                and self.certificate.semisimple
                and self.certificate.verify(self.ss_representation()))

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
        """Whether g conjugates the limits of two results of one input; never raises."""
        lhs, rhs, g = self.lhs, self.rhs, self.g
        if (lhs.input.generators != rhs.input.generators
                or len(lhs.ss_generators) != len(rhs.ss_generators)):
            return False
        try:
            gi = g.inverse()
            return gi is not None and all(
                g * a * gi == b for a, b in zip(lhs.ss_generators, rhs.ss_generators))
        except DimensionMismatch:
            return False

    def __repr__(self):
        return f"ConjugacyCertificate(g={self.g!r})"


def conjugacy_certificate(a: SsResult, b: SsResult) -> ConjugacyCertificate:
    """Conjugate two semisimplifications of the same input to each other.

    Equal limits get the identity.  Otherwise each irreducible summand of
    a's certificate is paired with the first unused summand of b's that
    carries an isomorphic module X_i, and g = Q diag(X_i) P^-1 with the
    paired summand bases as the columns of P and Q.  The limits are
    conjugate by theorem, so a summand without a partner is a bug.
    """
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


class LeviDescentReport:
    """Complete reducibility of a block-diagonal group, globally and
    blockwise; the two answers agree by Levi descent/ascent."""

    __slots__ = ("full_gcr", "block_gcr", "agrees", "full_certificate",
                 "block_certificates")

    def __init__(self, full_certificate, block_certificates):
        self.full_certificate = full_certificate
        self.block_certificates = tuple(block_certificates)
        self.full_gcr = full_certificate.semisimple
        self.block_gcr = tuple(c.semisimple for c in self.block_certificates)
        self.agrees = self.full_gcr == all(self.block_gcr)

    def __repr__(self):
        return f"LeviDescentReport(full={self.full_gcr}, blocks={self.block_gcr})"


def levi_descent(rep: Representation, block_sizes) -> LeviDescentReport:
    """Compare G-complete reducibility with blockwise complete
    reducibility for generators in block-diagonal shape."""
    require_representations(rep)
    block_sizes = tuple(block_sizes)
    if any(type(b) is not int for b in block_sizes):
        raise InvalidInput(f"block sizes {block_sizes!r} are not all ints")
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != rep.n:
        raise InvalidInput("block sizes must be positive and sum to n")
    cut = []
    for i, g in enumerate(rep.generators):
        blocks = diagonal_blocks(g, block_sizes)
        if block_diagonal(rep.field, blocks) != g:
            raise NotBlockDiagonal(f"generator {i} has an entry outside the diagonal blocks")
        cut.append(blocks)
    return LeviDescentReport(is_semisimple(rep),
                             [is_semisimple(Representation(gens)) for gens in zip(*cut)])


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
    Both limits are verified semisimple, which the theory guarantees.
    """
    require_representations(m, h)
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


def _invariant_lattice(rep: Representation, spins: dict, steps) -> list[Subspace]:
    """All generator-invariant subspaces over a small finite field, as
    sums of cyclic invariant subspaces; a discovered sublattice over the
    rationals, which also holds the given invariant steps.

    Every invariant subspace is the sum of the spins of its vectors, so
    over F_q with q^n under the cap the closure of the cyclic subspaces
    under pairwise sum is the complete lattice.  Each seed's spin is
    stored in spins, keyed by the seed.
    """
    field = rep.field
    n = rep.n
    seeds = []
    if field.p is not None:
        if field.p**n > SPACE_VECTORS_CAP:
            raise SearchSpaceExceeded(
                f"{field.p}^{n} vectors exceed the invariant-lattice cap")
        seeds.extend(projective_vectors(field, n))
    else:
        for _word, elt in candidate_elements(rep):
            if not elt.is_zero():
                seeds.extend(right_kernel(elt))
    found: dict = {}
    for v in seeds:
        w = spins[v] = spin(field, n, [v], rep.generators)
        if 0 < w.dim < n:
            found[w.basis.entries] = w
    for step in steps:
        found[step.basis.entries] = step
    worklist = list(found.values())
    while worklist:
        cur = worklist.pop()
        for other in list(found.values()):
            for combined in ((cur.sum(other),) if field.p is not None
                             else (cur.sum(other), cur.intersection(other))):
                if combined.dim == 0 or combined.dim == n:
                    continue
                key = combined.basis.entries
                if key not in found:
                    found[key] = combined
                    worklist.append(combined)
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

    Flags are the chains of the invariant lattice.  A flag's weight classes
    are its strictly decreasing block levels from at most
    max_weight_height + 1 down to 1, so a flag of more steps than that has
    none and is skipped.  A non-Representation or non-int height raises
    InvalidInput.

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
    # over QQ the composition flag's proper steps join the lattice, and
    # the series' recursion gives the verdict too
    try:
        series = composition_series(rep) if field.p is None else None
    except UndecidedIrreducibility:
        series = None
    cert = is_semisimple(rep) if series is None else series.certificate
    if cert.semisimple:
        raise PreconditionNotDestabilizable("input is already completely reducible")
    steps = series.flag.steps[:-1] if series is not None else []
    spins: dict = {}
    candidates = []
    levi_of = {}
    for flag in chain_flags(_invariant_lattice(rep, spins, steps), Subspace.full(field, n)):
        sizes = flag.block_sizes
        # strictly decreasing block levels, the last one 1, the others drawn
        # from 2 .. max_weight_height + 1
        classes = {canonical_weights([level for level, size in zip(levels + (1,), sizes)
                                      for _ in range(size)])
                   for levels in itertools.combinations(range(max_weight_height + 1, 1, -1),
                                                        len(sizes) - 1)}
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
    candidates.sort(key=lambda c: (-c.measure,
                                   [v.dim for v in c.flag.steps],
                                   [v.basis.entries for v in c.flag.steps],
                                   c.weights))
    top = candidates[0].measure
    argmax = [c for c in candidates if c.measure == top]
    findings = []
    for c in argmax:
        cut = zip(*(diagonal_blocks(a, c.flag.block_sizes) for a in levi_of[c.flag]))
        if not all(is_semisimple(Representation(gens)).semisimple for gens in cut):
            findings.append({"kind": "non_semisimple_argmax_limit",
                             "dims": [v.dim for v in c.flag.steps],
                             "weights": list(c.weights), "measure": str(c.measure)})
    return OptimalFlagReport(argmax, top, candidates, max_weight_height, findings)
