"""The public API of the fixmk package, and the one wrapper of its LP core, pinned so that every
addition or removal is deliberate."""
import ast
import pathlib

import pytest

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


def _call_sites(name):
    """(module, enclosing function's qualified name) of every call of ``name``, bare or as an
    attribute, in the fixmk sources."""
    sites = []
    for path in sorted(pathlib.Path(fixmk.__file__).parent.glob("*.py")):
        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{where}.{child.name}" if where else child.name
                if isinstance(child, ast.Call):
                    func = child.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                        sites.append((path.stem, where))
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


@pytest.mark.parametrize("name", ["solve_lp", "_frame"])
def test_only_deviation_fit_frames_and_solves_an_lp(name):
    # one wrapper poses, solves, status-checks and maps back every deviation LP
    assert _call_sites(name) == [("geometry", "deviation_fit")]
