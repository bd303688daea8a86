"""SemisimpleCertificate.verify is sound: every mutant it accepts is true.

Each certificate that `is_semisimple` gives for a random rep over GF(2)
or GF(3) with n <= 3, and each that `semisimplify` gives for its limit,
is mutated one leaf at a time.  A mutant may still be a true claim (a
summand basis one entry off can span another invariant irreducible
summand), so the verdict on an accepted mutant comes from the oracle,
not from a list of expected rejections: every summand spans an
invariant subspace that is irreducible by `oracle_irreducible`, and the
summands make a direct sum of dimension n; an obstruction spans a
proper invariant subspace that no invariant subspace complements
(DeMillo, Lipton and Sayward, Computer 11, 1978, turned on the checker).

The merged class joins two summands under a `cyclic` witness whose
factor is the charpoly of a word on the merged module, so only the
irreducibility test of the factor (Rabin's over GF(p)) stands between
the verifier and a false claim.
"""

import itertools
import random

from conftest import F2, F3, random_representation
from oracle_probes import oracle_irreducible

from ssred import reps
from ssred.exact import Matrix, Subspace, charpoly
from ssred.oracle import invariant_subspaces
from ssred.pipeline import semisimplify
from ssred.reps import (
    IrreducibleWitness,
    Representation,
    SemisimpleCertificate,
    evaluate_word,
    is_semisimple,
)

KINDS = ("dimension", "cyclic", "norton_pair", "norton_kernel", "all_lines")
SHAPES = [(F2, 1), (F3, 1), (F2, 2), (F3, 2), (F2, 3), (F3, 3)]


def _cases(count=720, seed=20261021):
    """(module, certificate, invariant spans) for `count` random reps and
    the limits of those that are not semisimple."""
    rng = random.Random(seed)
    for i in range(count):
        field, n = SHAPES[i % len(SHAPES)]
        r = random_representation(rng, field, n)
        cert = is_semisimple(r)
        yield r, cert, set(invariant_subspaces(r))
        if not cert.semisimple:
            result = semisimplify(r)
            limit = result.ss_representation()
            yield limit, result.certificate, set(invariant_subspaces(limit))


def _span(s, module):
    """The span of a claimed subspace's basis rows, or None when the claim
    holds no subspace of the module's space."""
    if not (isinstance(s, Subspace) and s.field is module.field
            and s.ambient_dim == module.n):
        return None
    return Subspace.from_vectors(module.field, module.n, s.basis.entries)


def _on(module, span):
    """The module's generators on an invariant span, as the top-left block
    in a basis that starts with the span's rows."""
    field, n, k = module.field, module.n, span.dim
    units = Matrix.identity(field, n).entries
    cols = list(span.basis.entries)
    for u in units:
        if len(cols) < n and Subspace.from_vectors(field, n, cols + [u]).dim > len(cols):
            cols.append(u)
    p = Matrix(field, cols).transpose()
    pi = p.inverse()
    return Representation([Matrix(field, [row[:k] for row in (pi * g * p).entries[:k]])
                           for g in module.generators])


def _true_claim(cert, module, invariant) -> bool:
    """The oracle's judgement of what the certificate claims."""
    n = module.n
    if not cert.semisimple:
        o = _span(cert.obstruction, module)
        return (o is not None and o in invariant and 0 < o.dim < n
                and not any(w.dim == n - o.dim and o.sum(w).dim == n for w in invariant))
    if cert.summands is None:
        return False
    spans = [_span(s, module) for s in cert.summands]
    if any(s is None or s.dim == 0 or s not in invariant for s in spans):
        return False
    total = Subspace.zero(module.field, n)
    for s in spans:
        total = total.sum(s)
    return (total.dim == n == sum(s.dim for s in spans)
            and all(oracle_irreducible(_on(module, s)) for s in spans))


def _bumped(s: Subspace, i: int, j: int) -> Subspace:
    """s with basis entry (i, j) raised by one, its pivots kept."""
    field, rows = s.field, [list(r) for r in s.basis.entries]
    rows[i][j] = (rows[i][j] + 1) % field.p
    return Subspace(Matrix(field, rows, ncols=s.ambient_dim, validate=False), s.pivots)


def _witness_mutants(w: IrreducibleWitness, letters: int, p: int):
    yield from (IrreducibleWitness(k, w.word, w.factor) for k in KINDS if k != w.kind)
    if w.factor is not None:
        for i, c in enumerate(w.factor):
            factor = list(w.factor)
            factor[i] = (c + 1) % p
            yield IrreducibleWitness(w.kind, w.word, factor)
    if w.word is not None:
        yield IrreducibleWitness(w.kind, None, w.factor)
        for t, (c, term) in enumerate(w.word):
            for j, letter in enumerate(term):
                moved = term[:j] + ((letter + 1) % letters,) + term[j + 1:]
                yield IrreducibleWitness(w.kind, w.word[:t] + ((c, moved),) + w.word[t + 1:],
                                         w.factor)


def _merged_cyclic(cert, module):
    """Each pair of adjacent summands merged under a `cyclic` witness for
    the charpoly of each one-letter word on the merged module."""
    summands, witnesses = list(cert.summands), list(cert.witnesses)
    for i in range(len(summands) - 1):
        merged = summands[i].sum(summands[i + 1])
        on_merged = _on(module, merged)
        for letter in range(2 * len(module.generators)):
            word = ((1, (letter,)),)
            factor = charpoly(evaluate_word(word, on_merged))
            yield SemisimpleCertificate(
                True, summands[:i] + [merged] + summands[i + 2:],
                witnesses[:i] + [IrreducibleWitness("cyclic", word, factor)] + witnesses[i + 2:])


def _mutants(cert, module):
    """(class, mutant) for every one-leaf mutant of the certificate."""
    flag = not cert.semisimple
    yield "flag", SemisimpleCertificate(flag, cert.summands, cert.witnesses, cert.obstruction)
    if not cert.semisimple:
        o = cert.obstruction
        for i, j in itertools.product(range(o.dim), range(o.ambient_dim)):
            yield "basis", SemisimpleCertificate(False, obstruction=_bumped(o, i, j))
        return
    summands, witnesses = list(cert.summands), list(cert.witnesses)

    def replaced(k, s, w):
        return SemisimpleCertificate(True, summands[:k] + [s] + summands[k + 1:],
                                     witnesses[:k] + [w] + witnesses[k + 1:])

    letters = 2 * len(module.generators)
    for k, (s, w) in enumerate(zip(summands, witnesses)):
        for i, j in itertools.product(range(s.dim), range(s.ambient_dim)):
            yield "basis", replaced(k, _bumped(s, i, j), w)
        for mutant in _witness_mutants(w, letters, module.field.p):
            yield "witness", replaced(k, s, mutant)
        yield "dropped", SemisimpleCertificate(True, summands[:k] + summands[k + 1:],
                                               witnesses[:k] + witnesses[k + 1:])
        yield "duplicated", SemisimpleCertificate(True, summands + [s], witnesses + [w])
        if k + 1 < len(summands):
            yield "merged", SemisimpleCertificate(
                True, summands[:k] + [s.sum(summands[k + 1])] + summands[k + 2:],
                witnesses[:k + 1] + witnesses[k + 2:])
    for a, b in itertools.combinations(range(len(witnesses)), 2):
        swapped = list(witnesses)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield "swapped", SemisimpleCertificate(True, summands, swapped)
    for mutant in _merged_cyclic(cert, module):
        yield "merged_cyclic", mutant


def _unsound(cases):
    """Tally accepted and rejected mutants by class, and list each accepted
    mutant the oracle refutes and each verify() that raises."""
    tally, bad = {}, []
    for module, cert, invariant in cases:
        assert cert.verify(module)
        assert _true_claim(cert, module, invariant)
        for kind, mutant in _mutants(cert, module):
            try:
                accepted = mutant.verify(module)
            except Exception as exc:  # any exception is a verifier defect
                bad.append((kind, module, f"raised {exc!r}"))
                continue
            counts = tally.setdefault(kind, [0, 0])
            counts[not accepted] += 1
            if accepted and not _true_claim(mutant, module, invariant):
                bad.append((kind, module, "accepted a false claim"))
    return tally, bad


def test_accepted_mutants_are_true_claims():
    tally, bad = _unsound(_cases())
    assert not bad, f"{len(bad)} unsound verdicts, first {bad[:5]}"
    # every class was made, and the verifier rejects at least some of each
    assert set(tally) == {"flag", "basis", "witness", "dropped", "duplicated", "merged",
                          "swapped", "merged_cyclic"}
    assert all(rejected for _accepted, rejected in tally.values())
    # a merged module is reducible, so no merged summand is ever accepted
    assert tally["merged"][0] == tally["merged_cyclic"][0] == 0
    assert sum(accepted for accepted, _rejected in tally.values()) > 0


def test_merged_cyclic_mutants_need_the_factor_irreducibility_test(monkeypatch):
    """With Rabin's test answering True, the merged `cyclic` mutants are
    accepted and the oracle refutes every one, so the class reaches the
    verifier's irreducibility test of the factor."""
    monkeypatch.setattr(reps, "is_irreducible_mod_p", lambda factor, p: True)
    cases = list(_cases(count=60))
    merged = [(mutant, module, invariant) for module, cert, invariant in cases
              for kind, mutant in _mutants(cert, module) if kind == "merged_cyclic"]
    assert merged
    for mutant, module, invariant in merged:
        assert mutant.verify(module)
        assert not _true_claim(mutant, module, invariant)
