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
preconditions by :func:`validate_problem`, the norm of g on Y by one capped
deviation LP of :mod:`fixmk.geometry`, and the lifted tree's
abelian and normal relations by :func:`fixmk.semigroup.validate_relations`.
The constraint set's invariance needs no check of its own, because the
preconditions imply it.  Its vertices come from facet combinations of the
dual ball.  Only combinations whose facets share a face go on, by an exact
norm test (polar duality), and one batched SVD screens those 64 at a time:
only candidate vertices and systems near rank deficiency reach a
per-combination lstsq, and the vertices are bit for bit those of solving
every combination (see :func:`build_constraint_set`).  A problem needing
more than 10^7 combinations is refused before any is built.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConstraintSetTooLargeError,
    DegenerateBasisError,
    DimensionMismatchError,
    EmptyConstraintSetError,
    ExtensionInvariantError,
    NonlinearOperatorError,
    StructureValidationError,
    ZeroFunctionalError,
)
from .geometry import AffineMap, NormKind, NormSpec, Polytope, _apply, _finite, deviation_fit
from .semigroup import Leaf, Product, SemigroupNode, flatten, validate_relations
from .solver import cross_check

logger = logging.getLogger(__name__)

INVARIANT_TOL = 1e-9
_CROSSCHECK_N_MAX = 2**40
# build_constraint_set's batched screen of facet combinations
# combinations per batch; 1,024-combination blocks ran faster but raised the
# extend-ball benchmark's peak_rss_mb by 5.4%, with a tracemalloc peak 10x higher
_CHUNK = 64
_COMBO_CAP = 10**7  # facet combinations (or dual-ball facets) above which the set is refused
_SINGULAR_MARGIN = 16.0  # rank-deficient below lstsq's cutoff / this
_REGULAR = 1e-4  # s_min / s_max above which the batched solve is trusted
_DUAL_MARGIN = 1e-6  # dual-norm excess that drops a batched solution


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
        basis = np.array(self.subspace_basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"subspace basis must be rows of length {self.dim}, got shape {basis.shape}"
            )
        values = np.array(self.functional_on_subspace, dtype=float)
        if values.ndim != 1:
            raise DimensionMismatchError(
                f"functional values must be a flat vector, got shape {values.shape}"
            )
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


@np.errstate(over="ignore", invalid="ignore")
def validate_problem(problem: ExtensionProblem) -> list[Violation]:
    """Check the operator preconditions; empty list means all hold.

    Per operator T: zero offset, T maps Y into Y, induced norm at most 1,
    and g(T y) = g(y) on the basis, each within ``INVARIANT_TOL``.  An overflow
    in T's norm, its images of the basis or g's drift raises NumericalError naming T.
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
        images = _apply(op.matrix, 0.0, Y)
        _finite(f"checking operator {label}", norm_T, images)
        if norm_T > 1.0 + INVARIANT_TOL:
            violations.append(Violation("operator-norm", label, norm_T - 1.0))
        for i, image in enumerate(images):
            coeffs, *_ = np.linalg.lstsq(Y.T, image, rcond=None)
            stray = float(np.max(np.abs(Y.T @ coeffs - image), initial=0.0))
            if stray > INVARIANT_TOL:
                violations.append(Violation("subspace-not-invariant", label, stray))
                continue
            drift = abs(float(coeffs @ g) - float(g[i]))
            _finite(f"checking operator {label}", drift)
            if drift > INVARIANT_TOL:
                violations.append(Violation("functional-not-invariant", label, drift))
    return violations


def subspace_norm(problem: ExtensionProblem) -> float:
    """||g|| on Y: the largest g . t over coordinates t with Y^T t in the unit ball.

    One call of :func:`fixmk.geometry.deviation_fit` with basis Y^T,
    capped and minimizing -g . t: the max-abs ball is {Y^T t within 1 of
    the point 0}, the sum-abs ball is {Y^T t within 0 of conv{+-e_i}}.
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
    _, coords, _ = deviation_fit([vertices], np.zeros(n), Y.T, cap, -g)
    with np.errstate(over="ignore", invalid="ignore"):
        (norm,) = _finite("the norm of g on the subspace", g @ coords)
    return max(float(norm), 0.0)


def normalize_problem(problem: ExtensionProblem) -> tuple[ExtensionProblem, float]:
    """Rescale so the subspace norm of g equals 1; returns (problem, scale)."""
    scale = subspace_norm(problem)
    if scale <= 0.0:
        raise ZeroFunctionalError("functional vanishes on the subspace")
    return replace(problem, functional_on_subspace=problem.functional_on_subspace / scale), scale


def _share_a_face(norm: NormSpec, facet_sets: np.ndarray) -> np.ndarray:
    """Whether each stack of m unit-ball vertices, as dual-ball facets, shares a face.

    The vertices a_1..a_m run along the second-to-last axis; the test is
    ||a_1 + ... + a_m|| = m (see :func:`build_constraint_set`).
    """
    return norm.values(facet_sets.sum(axis=-2)) == facet_sets.shape[-2]


def build_constraint_set(problem: ExtensionProblem) -> Polytope:
    """Vertices of {L in dual ball : L(y_i) = g(y_i)} for a normalized problem.

    Facet-combination probing: every vertex is pinned by the equality
    slice plus enough ball facets, so each combination of n - rank facets
    gives a candidate system M x = rhs.  The per-combination check solves
    it by lstsq and keeps x when M has full rank, the residual and the
    dual norm's excess over 1 are within ``INVARIANT_TOL``, and no vertex
    kept before lies within ``INVARIANT_TOL``.  There are
    C(#dual facets, n - rank) combinations: C(32, 4) = 35,960 for max-abs
    at n = 5, and C(64, 5) ~ 7.6 million at n = 6.  Above _COMBO_CAP of
    them :class:`ConstraintSetTooLargeError` is raised before anything is
    built.

    The facets of the dual ball are the ball's vertices a (polar duality;
    Ziegler, Lectures on Polytopes, 2.3), and a_1..a_m share a point of
    the dual ball iff ||a_1 + ... + a_m|| = m, as the largest
    (a_1 + ... + a_m).x over the dual ball is that norm.  The entries are
    -1, 0 or 1, so the test is exact.  When it fails, the
    norm is at most m - 2 (sign vectors sum to m's parity; an antipodal
    pair +-e_i cancels), so any x with ||x||_dual <= 1 + INVARIANT_TOL has
    sum_j a_j.x <= (m - 2)(1 + INVARIANT_TOL), and a_j.x cannot all be
    within INVARIANT_TOL of 1: the check drops every such combination.
    Only the combinations that share a face go on, in combination order.

    One batched SVD screens them _CHUNK at a time, so that few reach
    lstsq.  The screen drops only what the check would drop, so the
    vertices are bit for bit those of checking every combination:

    * a system whose smallest singular value is below lstsq's rank cutoff
      / _SINGULAR_MARGIN is rank-deficient: dropped;
    * a square system with s_min > _REGULAR * s_max is solved in the
      batch and dropped when that solution's dual norm exceeds
      1 + _DUAL_MARGIN, far more than solve and lstsq differ by; a
      survivor within INVARIANT_TOL / 2 of a kept vertex is a repeat;
    * the rest, regular survivors and systems near the cutoff, go through
      the check in combination order.

    Logs one debug record to the ``fixmk.extension`` logger.
    """
    n = problem.dim
    dual = problem.norm.dual()
    C = problem.subspace_basis
    d = problem.functional_on_subspace
    rank = np.linalg.matrix_rank(C) if C.shape[0] else 0
    need = n - rank
    n_facets = problem.norm.ball_vertex_count()
    # a ball with more facets than the cap is refused unbuilt: C(n_facets, need) is at
    # least n_facets when need > 0, and slow to form for a large max-abs dim
    combinations = math.comb(n_facets, need) if n_facets <= _COMBO_CAP else None
    if combinations is None or combinations > _COMBO_CAP:
        raise ConstraintSetTooLargeError(n_facets, need, combinations, _COMBO_CAP)
    # polar duality: the dual ball's facets {L : a.L <= 1} are the ball's vertices a
    facets = problem.norm.unit_ball().vertices
    k = C.shape[0]
    rhs = np.concatenate([d, np.ones(need)])
    # lstsq's rank cutoff (rcond=None) for a (k + need) x n system, per unit of s_max
    cutoff = np.finfo(float).eps * max(k + need, n)

    kept = np.empty((0, n))
    shared = solved = 0
    combos = itertools.combinations(range(n_facets), need)
    while chunk := list(itertools.islice(combos, _CHUNK)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), need)
        idx = idx[_share_a_face(problem.norm, facets[idx])]
        if not len(idx):
            continue
        shared += len(idx)
        M = np.empty((len(idx), k + need, n))
        M[:, :k] = C
        M[:, k:] = facets[idx]
        s = np.linalg.svd(M, compute_uv=False)
        dropped = s[:, -1] <= s[:, 0] * cutoff / _SINGULAR_MARGIN
        regular = s[:, -1] > s[:, 0] * _REGULAR if k + need == n else np.zeros_like(dropped)
        batched = np.zeros((len(idx), n))
        if regular.any():
            batched[regular] = np.linalg.solve(
                M[regular], np.broadcast_to(rhs[:, None], (int(regular.sum()), n, 1))
            )[..., 0]
            dropped[regular] = dual.values(batched[regular]) > 1.0 + _DUAL_MARGIN
        for i in np.flatnonzero(~dropped):
            if regular[i] and np.any(np.abs(kept - batched[i]).max(axis=1) <= INVARIANT_TOL / 2):
                continue
            solved += 1
            # lstsq's rank uses matrix_rank's cutoff, so one SVD decides both
            sol, _, rank_M, _ = np.linalg.lstsq(M[i], rhs, rcond=None)
            if rank_M < n or np.max(np.abs(M[i] @ sol - rhs)) > INVARIANT_TOL:
                continue
            if dual.value(sol) > 1.0 + INVARIANT_TOL:
                continue
            if np.all(np.abs(kept - sol).max(axis=1) > INVARIANT_TOL):
                kept = np.vstack([kept, sol])
    logger.debug(
        "constraint set: %d facet combinations, %d share a face, %d reach lstsq, %d vertices kept",
        combinations, shared, solved, kept.shape[0],
    )
    if not kept.shape[0]:
        raise EmptyConstraintSetError(
            "no dual vector satisfies the ball and restriction constraints; "
            "check the inputs and that the functional was normalized"
        )
    order = np.lexsort(kept.T[::-1])
    return Polytope(kept[order])


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


def invariant_extension(problem: ExtensionProblem, tol: float = 1e-8) -> ExtensionResult:
    """Produce the invariant norm-preserving extension of g.

    Checks the preconditions once (raising :class:`ExtensionInvariantError`
    with every violation), normalizes g, builds the dual constraint
    polytope, lifts the operators by transposition, validates (rather than
    assumes) the lifted tree's abelian and normal relations, and hands the
    fixed-point problem, from the centroid of the constraint polytope, to
    the exact solver with an averaging cross-check
    (:func:`fixmk.solver.cross_check`, which raises
    :class:`~fixmk.errors.DisagreementError` when the two routes disagree).
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
    relations = validate_relations(lifted)
    if not relations.ok:
        raise StructureValidationError(relations)

    # both routes over the same polytope from the same start must certify and agree
    exact = cross_check(lifted, K, K.centroid(), tol, _CROSSCHECK_N_MAX).exact

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
