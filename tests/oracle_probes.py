"""Ground-truth probes on top of the brute-force oracle, kept beside the tests.

Irreducibility by the subspace lattice, normalizers by exhaustion and
the check that flags see every cocharacter limit answer questions that
acceptance criteria 5, 6 and 8 and the oracle tests ask; the package
itself never asks them.  Like `ssred.oracle`, this module uses none of
the pipeline's module theory (`tests/test_oracle_independence.py`).
`encode` is the tests' reference for the orbit index's member keys,
built one entry at a time with `int.to_bytes`.
"""

import itertools

from ssred.errors import InvalidInput, LimitDoesNotExist
from ssred.flags import Cocharacter, c_lambda
from ssred.oracle import (
    generic_tuple,
    get_index,
    get_table,
    invariant_subspaces,
    limit_tuple,
    preserved_flags,
    subgroup_closure,
)
from ssred.reps import Representation


def encode(mats) -> bytes:
    """The member key of matrices over one prime field: their entries as
    unsigned big-endian words of the narrowest of 1, 2 and 4 bytes that
    holds p - 1."""
    mats = tuple(mats)
    if not mats:
        return b""
    width = next(w for w in (1, 2, 4) if mats[0].field.p <= 256**w)
    return b"".join(x.to_bytes(width, "big") for m in mats for row in m.entries for x in row)


def _require_rep(rep) -> None:
    """Refuse a rep that is not a Representation over a finite field with
    the oracle's own check, which `generic_tuple` makes."""
    generic_tuple(rep)


def oracle_irreducible(rep: Representation) -> bool:
    """Irreducibility by exhausting the subspace lattice."""
    return all(s.dim in (0, rep.n) for s in invariant_subspaces(rep))


def normalizer_elements(rep: Representation) -> list:
    """All g in GL_n(F_q) with g H g^-1 = H, by exhaustion.  A rep that is
    not a Representation raises InvalidInput."""
    _require_rep(rep)
    table = get_table(rep.field, rep.n)
    h_set = subgroup_closure(rep.field, rep.generators)
    # scalars are central, so the normalizer is a union of scalar classes:
    # decide each class on its representative, then list every c g in
    # lexicographic row order, as `GroupTable.elements` does
    normalizing = [g for g, gi in table.conjugators
                   if all(g * h * gi in h_set for h in rep.generators)]
    return sorted((g.scale(c) for g in normalizing for c in range(1, rep.field.p)),
                  key=lambda m: m.entries)


def cocharacter_limits_match_flag_limits(rep: Representation,
                                         height: int = 3) -> bool:
    """Runtime check that flags see every cocharacter limit.

    Enumerates all cocharacters with adapted basis in GL_n(F_q) and
    weights bounded by `height`, takes the limits that exist, and compares
    the resulting orbit id set with the one produced by flag degenerations
    alone.  Only sensible for very small fields and dimensions.  A rep
    that is not a Representation or a height that is not an int raises
    InvalidInput.
    """
    _require_rep(rep)
    if type(height) is not int:
        raise InvalidInput(f"height {height!r} is not an int")
    if height < 1:
        raise InvalidInput("height must be at least 1")
    index = get_index(rep.field, rep.n)
    flag_side = {index.orbit_id(limit_tuple(rep.generators, flag))
                 for flag in preserved_flags(rep.generators)}
    cochar_side = set()
    # every non-increasing weight vector with entries in [-height, height]
    for weights in itertools.combinations_with_replacement(range(height, -height - 1, -1), rep.n):
        # c g and g give the same cocharacter
        for g, gi in index.table.conjugators:
            try:
                limit = c_lambda(rep.generators, Cocharacter(g, weights, inverse=gi))
            except LimitDoesNotExist:
                continue
            cochar_side.add(index.orbit_id(limit))
    return cochar_side == flag_side
