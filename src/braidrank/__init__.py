"""braidrank: exact braided-bialgebra quotient towers and combinatorial rank.

The package computes, over Q or a prime field, the tower of truncated graded
braided bialgebra quotients of the tensor algebra of a braided vector space,
the combinatorial rank visible below a degree cutoff, and the truncated
Nichols algebra, together with an independent quantum-symmetrizer oracle and
executable checks of the augmentation / idempotent laws the construction
satisfies.
"""

from .errors import (
    AmbientMismatch,
    BialgebraInvariantError,
    BraidrankError,
    ConfigMismatch,
    DegreeCap,
    DimensionCap,
    DimensionMismatch,
    EnvelopeExceeded,
    FieldMismatch,
    IndexOutOfRange,
    InvalidField,
    NotInvertible,
    YangBaxterViolation,
    ZeroParameter,
)
from .exactlin import (
    GF,
    RATIONALS,
    FieldSpec,
    Matrix,
    Subspace,
    contains,
    format_scalar,
    intersect,
    kernel_basis,
    parse_scalar,
    rref,
)
from .braiding import (
    BraidedSpace,
    braid_generator,
    braid_word,
    make_diagonal,
    make_flip,
    make_from_matrix,
)
from .shuffle import delta_component, gaussian_binomial, symmetrizer, unshuffles
from .bialgebra import (
    GradedQuotient,
    GradedSubspace,
    augmentation_split,
    free_truncated,
    hilbert_series,
    ideal_saturate,
    omega_projection,
    primitives,
)
from .tower import (
    RankReport,
    StageReport,
    em_unit_check,
    gamma_retraction_check,
    idempotent_check,
    monad_augmentation_check,
    run,
    step,
)
from .nichols_oracle import brute_force_primitives, compare, nichols_truncation

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BialgebraInvariantError",
    "BraidedSpace",
    "BraidrankError",
    "ConfigMismatch",
    "DegreeCap",
    "DimensionCap",
    "DimensionMismatch",
    "EnvelopeExceeded",
    "FieldMismatch",
    "FieldSpec",
    "GF",
    "GradedQuotient",
    "GradedSubspace",
    "IndexOutOfRange",
    "InvalidField",
    "Matrix",
    "NotInvertible",
    "RATIONALS",
    "RankReport",
    "StageReport",
    "Subspace",
    "YangBaxterViolation",
    "ZeroParameter",
    "augmentation_split",
    "braid_generator",
    "braid_word",
    "brute_force_primitives",
    "compare",
    "contains",
    "delta_component",
    "em_unit_check",
    "format_scalar",
    "free_truncated",
    "gamma_retraction_check",
    "gaussian_binomial",
    "hilbert_series",
    "ideal_saturate",
    "idempotent_check",
    "intersect",
    "kernel_basis",
    "make_diagonal",
    "make_flip",
    "make_from_matrix",
    "monad_augmentation_check",
    "nichols_truncation",
    "omega_projection",
    "parse_scalar",
    "primitives",
    "rref",
    "run",
    "step",
    "symmetrizer",
    "unshuffles",
]
