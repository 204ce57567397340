"""Common fixed points of affine semigroup actions on compact convex polytopes.

The library builds semigroups of affine self-maps of a polytope from
structure trees (abelian generator lists, layered by normal factors),
certifies them numerically, and computes a common fixed point two
independent ways: layered Cesàro averaging with a 1/n residual bound, and
the limit of those averages in closed form, the mean-ergodic projection
of the start point.  On top of that sits
an invariant norm-preserving extension of functionals for the polyhedral
norms whose dual balls are polytopes.
"""

__version__ = "0.1.0"

from .errors import (
    ConstraintSetTooLargeError,
    DegenerateBasisError,
    DimensionMismatchError,
    DisagreementError,
    EmptyConstraintSetError,
    EmptyFixedSetError,
    EnumerationCapError,
    ExtensionInvariantError,
    FixmkError,
    InvalidWeightsError,
    NonlinearOperatorError,
    NotConvergedError,
    NumericalError,
    SchemaError,
    StartOutsidePolytopeError,
    StructureValidationError,
    ZeroFunctionalError,
)
from .extension import (
    ExtensionProblem,
    ExtensionResult,
    build_constraint_set,
    dual_action,
    invariant_extension,
    lift_operators,
    normalize_problem,
    subspace_norm,
    validate_problem,
    verify_extension,
)
from .geometry import (
    AffineMap,
    NormKind,
    NormSpec,
    Polytope,
    affine_compose,
    cesaro_average,
    contains,
    convex_combination,
    diameter,
    feasible_point,
    hull_gap,
)
from .semigroup import (
    AffineSubspace,
    Failure,
    Leaf,
    Product,
    SemigroupNode,
    ValidationReport,
    check_normal_factor,
    common_fixed_subspace,
    validate_relations,
    validate_structure,
)
from .solver import (
    ConvergenceCertificate,
    CrossCheck,
    FipReport,
    FixedPointResult,
    averaging_operator,
    cross_check,
    fip_check,
    residual,
    solve_cesaro,
    solve_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
