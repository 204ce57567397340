"""Exception types shared across the library."""


class FixmkError(Exception):
    """Base class for all fixmk errors."""


class DimensionMismatchError(FixmkError, ValueError):
    """Operands live in different ambient dimensions."""


class StartOutsidePolytopeError(FixmkError, ValueError):
    """An averaging start point lies outside the polytope."""


class InvalidWeightsError(FixmkError, ValueError):
    """Convex-combination weights are negative or do not sum to one."""


class DegenerateBasisError(FixmkError, ValueError):
    """A subspace basis is linearly dependent."""


class ZeroFunctionalError(FixmkError, ValueError):
    """The functional vanishes on the subspace; nothing to normalize."""


class NonlinearOperatorError(FixmkError, ValueError):
    """An operation requiring a purely linear map got a nonzero offset."""


class EnumerationCapError(FixmkError):
    """Word enumeration exceeded the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the element cap of {cap}")
        self.cap = cap


class StructureValidationError(FixmkError):
    """A pipeline step required a validated structure tree and got a bad one."""

    def __init__(self, report):
        kinds = sorted({f.kind for f in report.failures})
        super().__init__(f"structure validation failed: {', '.join(kinds)}")
        self.report = report


class NotConvergedError(FixmkError):
    """Averaging hit the depth budget before reaching the residual target."""

    def __init__(self, point, residuals, certificate):
        best = max(residuals.values()) if residuals else float("nan")
        super().__init__(
            f"best residual {best:.3e} after depth {certificate.n_final}; "
            "raise n_max or loosen tol"
        )
        self.point = point
        self.residuals = residuals
        self.certificate = certificate


class DisagreementError(FixmkError):
    """The exact and the Cesàro route reached different fixed points.

    ``check`` is the :class:`fixmk.solver.CrossCheck` whose projection gap
    exceeded the tolerance.
    """

    def __init__(self, check, tol: float):
        super().__init__(
            f"projection gap {check.projection_gap:.3e} > tol {tol:.1e}: "
            "the Cesàro point projects off the exact one"
        )
        self.check = check


class EmptyFixedSetError(FixmkError):
    """No common fixed point exists inside the polytope.

    For validated self-maps of a compact convex polytope this cannot happen;
    seeing it means the structure or invariance checks were skipped or too
    loose, or the tolerance is tighter than the arithmetic supports.
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


class EmptyConstraintSetError(FixmkError):
    """The norm-ball/affine-slice constraint set came out empty."""


class ConstraintSetTooLargeError(FixmkError):
    """The extension's constraint set needs more work than the enumeration cap.

    ``combinations`` is C(facets, need), the number of facet combinations
    the enumeration would walk, or None when the dual ball alone has more
    than ``cap`` facets.
    """

    def __init__(self, facets: int, need: int, combinations: int | None, cap: int):
        if combinations is None:
            detail = f"the dual ball has {facets:,} facets"
        else:
            detail = f"C({facets}, {need}) = {combinations:,} facet combinations"
        super().__init__(f"constraint set too large to enumerate: {detail}, more than {cap:,}")
        self.combinations = combinations
        self.cap = cap


class ExtensionInvariantError(FixmkError):
    """One or more extension-problem preconditions do not hold.

    ``violations`` is the nonempty list that ``validate_problem`` returned
    (each with ``invariant``, ``label`` and ``residual``); ``invariant``
    names the kind of the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        self.invariant = self.violations[0].invariant
        detail = "; ".join(
            f"{v.invariant} on {v.label} (residual {v.residual:.3e})" for v in self.violations
        )
        super().__init__(f"{self.invariant}: {detail}")


class SchemaError(FixmkError, ValueError):
    """A problem file does not match the documented JSON schema."""


class NumericalError(FixmkError, RuntimeError):
    """The LP core or the exact solver failed in floating point, so no answer can be trusted.

    Raised at the simplex iteration limit, on an unbounded phase 1, on LP
    data or an LP solution that is not finite, when a deviation LP,
    feasible by construction, is reported infeasible or unbounded,
    when a generator's averages have no limit the exact solver can form
    (the kernel and range of G - I are not complementary), and when
    composing, powering, averaging, mixing or layering maps overflows
    (the message names the step).
    """
