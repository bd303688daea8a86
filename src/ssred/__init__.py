"""Exact semisimplification of matrix groups by cocharacter degeneration."""

from .errors import (
    AlgebraNotStable,
    DimensionMismatch,
    GeneratorCountMismatch,
    InternalInvariantViolation,
    InvalidInput,
    LimitDoesNotExist,
    NotNormal,
    PreconditionNotDestabilizable,
    ResourceBoundExceeded,
    SearchSpaceExceeded,
    SsredError,
    UndecidedIrreducibility,
)
from .exact import Field, Matrix, Subspace
from .flags import Cocharacter, Flag, c_lambda, flag_to_cocharacter
from .oracle import accessible_closed_orbits, generic_tuple, oracle_gcr
from .pipeline import (
    CliffordResult,
    ConjugacyCertificate,
    OptimalFlagReport,
    SsResult,
    clifford_joint_ss,
    conjugacy_certificate,
    is_gcr_over_k,
    optimal_flag,
    semisimplify,
)
from .repfile import load_rep, parse_rep, serialize_rep
from .reps import (
    CompositionSeries,
    Representation,
    SemisimpleCertificate,
    composition_series,
    is_semisimple,
    module_iso,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraNotStable",
    "CliffordResult",
    "Cocharacter",
    "CompositionSeries",
    "ConjugacyCertificate",
    "DimensionMismatch",
    "Field",
    "Flag",
    "GeneratorCountMismatch",
    "InternalInvariantViolation",
    "InvalidInput",
    "LimitDoesNotExist",
    "Matrix",
    "NotNormal",
    "OptimalFlagReport",
    "PreconditionNotDestabilizable",
    "Representation",
    "ResourceBoundExceeded",
    "SearchSpaceExceeded",
    "SemisimpleCertificate",
    "SsResult",
    "SsredError",
    "Subspace",
    "UndecidedIrreducibility",
    "accessible_closed_orbits",
    "c_lambda",
    "clifford_joint_ss",
    "composition_series",
    "conjugacy_certificate",
    "flag_to_cocharacter",
    "generic_tuple",
    "is_gcr_over_k",
    "is_semisimple",
    "load_rep",
    "module_iso",
    "optimal_flag",
    "oracle_gcr",
    "parse_rep",
    "semisimplify",
    "serialize_rep",
    "__version__",
]
