"""The public API of the fixmk package, pinned so that every addition or removal is deliberate."""
import fixmk

PUBLIC = [
    "AffineMap", "AffineSubspace", "ConstraintSetTooLargeError", "ConvergenceCertificate", "CrossCheck",
    "DegenerateBasisError", "DimensionMismatchError", "DisagreementError", "EmptyConstraintSetError",
    "EmptyFixedSetError", "EnumerationCapError", "ExtensionInvariantError", "ExtensionProblem",
    "ExtensionResult", "Failure", "FipReport", "FixedPointResult", "FixmkError", "InvalidWeightsError",
    "Leaf", "NonlinearOperatorError", "NormKind", "NormSpec", "NotConvergedError", "NumericalError",
    "Polytope", "Product", "SchemaError", "SemigroupNode", "StartOutsidePolytopeError",
    "StructureValidationError", "ValidationReport", "ZeroFunctionalError", "affine_compose",
    "averaging_operator", "build_constraint_set", "cesaro_average", "check_normal_factor",
    "common_fixed_subspace", "contains", "convex_combination", "cross_check", "diameter", "dual_action",
    "errors", "extension", "feasible_point", "fip_check", "geometry", "hull_gap", "invariant_extension",
    "lift_operators", "lp", "normalize_problem", "residual", "semigroup", "solve_cesaro", "solve_exact",
    "solver", "subspace_norm", "validate_problem", "validate_relations", "validate_structure",
    "verify_extension",
]


def test_public_api_is_the_pinned_list():
    assert sorted(fixmk.__all__) == PUBLIC
