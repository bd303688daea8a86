"""Exception types shared across the package, and the resource caps that
raise them.

Every enumeration in the package is bounded by one of the caps below;
README "Bounds" lists which error each cap raises where.
"""

# elements of a group table GL_n(F_q) or of a subgroup closure
GROUP_ELEMENTS_CAP = 2**21
# q^n bound for enumerating the vectors, lines or subspaces of F_q^n
SPACE_VECTORS_CAP = 2**14
# invariant subspaces in the optimal-flag search, and flags listed by
# flags.chain_flags there and in the oracle
FLAG_CANDIDATE_CAP = 2**16


class SsredError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(SsredError):
    """Malformed representation data or an unusable argument."""


class DimensionMismatch(SsredError):
    """Matrix or vector shapes (or base fields) do not line up."""


class GeneratorCountMismatch(SsredError):
    """Two representations compared generator-by-generator differ in length."""


class LimitDoesNotExist(SsredError):
    """The cocharacter limit of a matrix outside the flag stabilizer."""


class NotBlockDiagonal(SsredError):
    """Generators are not block diagonal for the stated block sizes."""


class NotNormal(SsredError):
    """The smaller group is not normal in the larger one."""


class AlgebraNotStable(SsredError):
    """Conjugation does not stabilize the enveloping algebra span."""


class InternalInvariantViolation(SsredError):
    """A property the theory guarantees failed to hold; indicates a bug."""


class UndecidedIrreducibility(SsredError):
    """Irreducibility could not be certified within the documented caps."""


class PreconditionNotDestabilizable(SsredError):
    """Optimal-flag search requires an input that is not already semisimple."""


class SearchSpaceExceeded(SsredError):
    """An exhaustive enumeration would overrun its documented bound."""


class ResourceBoundExceeded(SsredError):
    """A group table, orbit, or closure would exceed the configured budget."""
