"""Checkers for theorems the acceptance suite tests, kept beside the tests.

The package computes k-semisimplifications; Levi descent and the
Jordan–Hölder multiset of composition factors are properties of its
answers that acceptance criteria 4 and 7 check, not parts of the
construction, so no command or package function calls these checkers.
"""

from ssred.errors import InvalidInput, SsredError
from ssred.flags import block_diagonal, diagonal_blocks
from ssred.reps import (
    CompositionSeries,
    Representation,
    is_semisimple,
    module_iso,
    require_representations,
)


class NotBlockDiagonal(SsredError):
    """Generators are not block diagonal for the stated block sizes."""


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


class IsoClassMultiset:
    """Composition factors grouped by isomorphism, with multiplicities."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = tuple((rep, mult) for rep, mult in classes)

    def matches(self, other: "IsoClassMultiset") -> bool:
        """Whether the two multisets pair off isomorphically."""
        unused = list(other.classes)
        for rep, mult in self.classes:
            for i, (orep, omult) in enumerate(unused):
                if omult == mult and module_iso(rep, orep) is not None:
                    del unused[i]
                    break
            else:
                return False
        return not unused

    def __repr__(self):
        parts = ", ".join(f"dim {rep.n} x{mult}" for rep, mult in self.classes)
        return f"IsoClassMultiset({parts})"


def iso_class_multiset(series: CompositionSeries) -> IsoClassMultiset:
    """Group the series factors by module isomorphism (first occurrence
    is the class representative); anything else raises InvalidInput."""
    if not isinstance(series, CompositionSeries):
        raise InvalidInput(f"expected a CompositionSeries, got {type(series).__name__}")
    classes: list[list] = []
    for fac in series.factors:
        for entry in classes:
            if entry[0].n == fac.n and module_iso(entry[0], fac) is not None:
                entry[1] += 1
                break
        else:
            classes.append([fac, 1])
    return IsoClassMultiset([(rep, mult) for rep, mult in classes])
