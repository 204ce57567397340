"""Invariant norm-preserving extension of functionals, in finite dimension.

Given a functional g on a subspace Y of (R^n, polyhedral norm) and a
semigroup of norm-1 operators fixing g, produce a functional G on all of
R^n that restricts to g, has the same dual norm, and is fixed by every
operator's transpose action.

The whole pipeline stays inside the polytope machinery: the candidate set
{L : ||L||_dual <= 1, L = g on Y} is a polytope in dual coordinates (the
norm menu is max-abs / sum-abs precisely so its ball and dual ball are
polytopes), the operators act on it by transposition, and the fixed-point
solver picks the invariant point.  Each question is asked once: the
preconditions by :func:`validate_problem`, the norm of g on Y by one probe
of the deviation LP of :mod:`fixmk.geometry`, and the lifted tree's
abelian and normal relations by :func:`fixmk.semigroup.validate_relations`.
The constraint set's invariance needs no check of its own, because the
preconditions imply it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    EmptyConstraintSetError,
    ExtensionInvariantError,
    NonlinearOperatorError,
    StructureValidationError,
    ZeroFunctionalError,
)
from .geometry import AffineMap, NormKind, NormSpec, Polytope, _capped_probes
from .semigroup import (
    DEFAULT_WORD_BUDGET,
    Leaf,
    Product,
    SemigroupNode,
    flatten,
    validate_relations,
)
from .solver import solve_cesaro, solve_exact

INVARIANT_TOL = 1e-9
_CROSSCHECK_N_MAX = 2**40


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """Functional values on a subspace plus the operators to stay invariant under.

    ``subspace_basis`` holds the spanning vectors of Y as rows;
    ``functional_on_subspace`` holds g evaluated on each of them.  The
    operator tree must consist of linear maps (zero offsets).
    """

    dim: int
    norm: NormSpec
    subspace_basis: np.ndarray
    functional_on_subspace: np.ndarray
    operators: SemigroupNode

    def __post_init__(self):
        basis = np.array(self.subspace_basis, dtype=float).reshape(-1, self.dim)
        values = np.array(self.functional_on_subspace, dtype=float).reshape(-1)
        if basis.shape[0] != values.shape[0]:
            raise DimensionMismatchError("one functional value per basis vector")
        if self.norm.dim != self.dim or self.operators.dim != self.dim:
            raise DimensionMismatchError("norm/operators do not match the ambient dim")
        basis.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "subspace_basis", basis)
        object.__setattr__(self, "functional_on_subspace", values)


@dataclass
class ExtensionResult:
    functional: np.ndarray
    dual_norm: float
    invariance_residuals: dict[str, float]
    restriction_residual: float


@dataclass
class Violation:
    invariant: str
    label: str
    residual: float


@dataclass
class ExtensionCheck:
    ok: bool
    restriction_residual: float
    dual_norm: float
    subspace_norm: float
    invariance_residuals: dict[str, float]
    failures: list[str] = field(default_factory=list)


def validate_problem(problem: ExtensionProblem) -> list[Violation]:
    """Check the operator preconditions; empty list means all hold.

    Per operator T: zero offset, T maps Y into Y, induced norm at most 1,
    and g(T y) = g(y) on the basis, each within ``INVARIANT_TOL``.
    """
    violations = []
    Y = problem.subspace_basis
    g = problem.functional_on_subspace
    for label, op in flatten(problem.operators):
        off = float(np.max(np.abs(op.offset)))
        if off > 1e-12:
            violations.append(Violation("nonzero-offset", label, off))
            continue
        norm_T = problem.norm.operator_norm(op.matrix)
        if norm_T > 1.0 + INVARIANT_TOL:
            violations.append(Violation("operator-norm", label, norm_T - 1.0))
        for i, y in enumerate(Y):
            image = op.matrix @ y
            coeffs, *_ = np.linalg.lstsq(Y.T, image, rcond=None)
            stray = float(np.max(np.abs(Y.T @ coeffs - image), initial=0.0))
            if stray > INVARIANT_TOL:
                violations.append(Violation("subspace-not-invariant", label, stray))
                continue
            drift = abs(float(coeffs @ g) - float(g[i]))
            if drift > INVARIANT_TOL:
                violations.append(Violation("functional-not-invariant", label, drift))
    return violations


def subspace_norm(problem: ExtensionProblem) -> float:
    """||g|| on Y: the largest g . t over coordinates t with Y^T t in the unit ball.

    One capped probe of the deviation LP with basis Y^T: the max-abs ball
    is {Y^T t within 1 of the point 0}, the sum-abs ball is
    {Y^T t within 0 of conv{+-e_i}}.
    """
    Y = problem.subspace_basis
    g = problem.functional_on_subspace
    k, n = Y.shape
    if k == 0:
        return 0.0
    if np.linalg.matrix_rank(Y) < k:
        raise DegenerateBasisError("subspace basis is linearly dependent")
    if problem.norm.kind is NormKind.MAX_ABS:
        vertices, cap = np.zeros((1, n)), 1.0
    else:
        vertices, cap = np.vstack([np.eye(n), -np.eye(n)]), 0.0
    (coords,) = _capped_probes([vertices], np.zeros(n), Y.T, cap, [-g])
    return max(float(g @ coords), 0.0)


def normalize_problem(problem: ExtensionProblem) -> tuple[ExtensionProblem, float]:
    """Rescale so the subspace norm of g equals 1; returns (problem, scale)."""
    scale = subspace_norm(problem)
    if scale <= 0.0:
        raise ZeroFunctionalError("functional vanishes on the subspace")
    scaled = ExtensionProblem(
        problem.dim,
        problem.norm,
        problem.subspace_basis,
        problem.functional_on_subspace / scale,
        problem.operators,
    )
    return scaled, scale


def build_constraint_set(problem: ExtensionProblem) -> Polytope:
    """Vertices of {L in dual ball : L(y_i) = g(y_i)} for a normalized problem.

    Brute facet-combination probing: every vertex is pinned by the equality
    slice plus enough ball facets, so solve each candidate square-ish system
    and keep solutions that satisfy all constraints.  The cost is
    C(#dual facets, n - rank) combinations: C(32, 4) = 35,960 for max-abs
    at n = 5 (about 2 s), and C(64, 5) ~ 7.6 million at n = 6.
    """
    n = problem.dim
    dual = problem.norm.dual()
    C = problem.subspace_basis
    d = problem.functional_on_subspace
    rank = np.linalg.matrix_rank(C) if C.shape[0] else 0
    # polar duality: the dual ball's facets {L : a.L <= 1} are the ball's vertices a
    facets = problem.norm.unit_ball().vertices
    need = n - rank

    candidates = []
    for combo in itertools.combinations(range(len(facets)), need):
        M = np.vstack([C, facets[list(combo)]]) if C.shape[0] else facets[list(combo)]
        rhs = np.concatenate([d, np.ones(need)])
        # lstsq's rank uses matrix_rank's cutoff, so one SVD decides both
        sol, _, rank_M, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if rank_M < n:
            continue
        if np.max(np.abs(M @ sol - rhs)) > INVARIANT_TOL:
            continue
        if dual.value(sol) > 1.0 + INVARIANT_TOL:
            continue
        candidates.append(sol)

    vertices: list[np.ndarray] = []
    for v in candidates:
        if all(np.max(np.abs(v - u)) > INVARIANT_TOL for u in vertices):
            vertices.append(v)
    if not vertices:
        raise EmptyConstraintSetError(
            "no dual vector satisfies the ball and restriction constraints; "
            "check the inputs and that the functional was normalized"
        )
    arr = np.array(vertices)
    order = np.lexsort(arr.T[::-1])
    return Polytope(arr[order])


def dual_action(T: AffineMap) -> AffineMap:
    """Action on dual coordinates: lam -> matrix^T lam; requires zero offset."""
    if float(np.max(np.abs(T.offset))) > 1e-12:
        raise NonlinearOperatorError("dual action is defined for linear maps only")
    return AffineMap.linear(T.matrix.T)


def lift_operators(node: SemigroupNode) -> SemigroupNode:
    """Transpose every generator, keeping the tree shape."""
    if isinstance(node, Leaf):
        return Leaf(tuple(dual_action(g) for g in node.generators))
    return Product(lift_operators(node.normal), lift_operators(node.quotient))


def _residual_fields(problem, functional):
    invariance = {
        label: float(np.max(np.abs(op.matrix.T @ functional - functional)))
        for label, op in flatten(problem.operators)
    }
    restriction = float(
        np.max(
            np.abs(problem.subspace_basis @ functional - problem.functional_on_subspace),
            initial=0.0,
        )
    )
    return invariance, restriction


def invariant_extension(
    problem: ExtensionProblem,
    tol: float = 1e-8,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> ExtensionResult:
    """Produce the invariant norm-preserving extension of g.

    Checks the preconditions once (raising :class:`ExtensionInvariantError`
    with every violation), normalizes g, builds the dual constraint
    polytope, lifts the operators by transposition, validates (rather than
    assumes) the lifted tree's abelian and normal relations, and hands the
    fixed-point problem to the exact solver with an averaging cross-check.
    """
    violations = validate_problem(problem)
    if violations:
        raise ExtensionInvariantError(violations)

    if problem.functional_on_subspace.size == 0 or np.max(np.abs(problem.functional_on_subspace)) == 0.0:
        zeros = np.zeros(problem.dim)
        invariance, restriction = _residual_fields(problem, zeros)
        return ExtensionResult(zeros, 0.0, invariance, restriction)

    normalized, scale = normalize_problem(problem)
    K = build_constraint_set(normalized)
    lifted = lift_operators(problem.operators)

    # The lifted tree maps K into itself once validate_problem holds, so only
    # its relations are checked: ||T|| <= 1 keeps the dual ball, because
    # ||T^T L||_dual <= ||T|| ||L||_dual, and T(Y) within Y with g(T y) = g(y)
    # keeps the slice L|Y = g, because (T^T L)(y) = L(T y) = g(T y) = g(y).
    relations = validate_relations(lifted, word_budget)
    if not relations.ok:
        raise StructureValidationError(relations)

    exact = solve_exact(lifted, K, tol)
    # independent route over the same polytope; both must certify
    solve_cesaro(lifted, K, K.centroid(), tol, _CROSSCHECK_N_MAX)

    functional = scale * exact.point
    invariance, restriction = _residual_fields(problem, functional)
    return ExtensionResult(
        functional=functional,
        dual_norm=problem.norm.dual().value(functional),
        invariance_residuals=invariance,
        restriction_residual=restriction,
    )


def verify_extension(
    result: ExtensionResult,
    problem: ExtensionProblem,
    tol: float = 1e-8,
) -> ExtensionCheck:
    """Recompute every guarantee of the result from scratch."""
    invariance, restriction = _residual_fields(problem, result.functional)
    dual_norm = problem.norm.dual().value(result.functional)
    reference = subspace_norm(problem)
    failures = []
    if restriction > tol:
        failures.append(f"restriction residual {restriction:.3e} > {tol:.1e}")
    worst_inv = max(invariance.values(), default=0.0)
    if worst_inv > tol:
        failures.append(f"invariance residual {worst_inv:.3e} > {tol:.1e}")
    if dual_norm > reference + tol:
        failures.append(
            f"dual norm {dual_norm:.12f} exceeds subspace norm {reference:.12f} + {tol:.1e}"
        )
    return ExtensionCheck(
        ok=not failures,
        restriction_residual=restriction,
        dual_norm=dual_norm,
        subspace_norm=reference,
        invariance_residuals=invariance,
        failures=failures,
    )
