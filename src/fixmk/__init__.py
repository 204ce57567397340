"""Common fixed points of affine semigroup actions on compact convex polytopes.

The library builds semigroups of affine self-maps of a polytope from
structure trees (abelian generator lists, layered by normal factors),
certifies them numerically, and computes a common fixed point two
independent ways: layered Cesàro averaging with a 1/n residual bound, and
an exact affine-nullspace + linear-feasibility route.  On top of that sits
an invariant norm-preserving extension of functionals for the polyhedral
norms whose dual balls are polytopes.
"""

__version__ = "0.1.0"

from .errors import (
    ConstraintSetTooLargeError,
    DegenerateBasisError,
    DimensionMismatchError,
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
    affine_power,
    cesaro_average,
    contains,
    convex_combination,
    diameter,
    feasible_point,
    hull_gap,
    map_deviation,
    polytope_image,
)
from .semigroup import (
    Failure,
    Leaf,
    Product,
    SemigroupNode,
    ValidationReport,
    check_invariance,
    check_normal_factor,
    commuting_combination,
    enumerate_elements,
    validate_relations,
    validate_structure,
)
from .solver import (
    AffineSubspace,
    ConvergenceCertificate,
    FipReport,
    FixedPointResult,
    averaging_operator,
    common_fixed_subspace,
    fip_check,
    residual,
    solve_cesaro,
    solve_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
