"""Common fixed points of validated semigroup trees on a polytope.

Two independent routes:

* :func:`solve_cesaro` — iterate the layered averaging operator.  For a
  leaf this composes the depth-n averages (1/n)(I + g + ... + g^(n-1)) of
  its generators; for a product it composes the normal stage after the
  quotient stage.  The image of any start point has per-generator residual
  bounded by diameter(K)/n, so doubling n certifies convergence.  The
  averages are computed with a doubling recursion, which makes depth
  budgets of 2^40 routine.

* :func:`solve_exact` — intersect the affine fixed subspaces (A - I)x = -b
  of all generators and pick the canonical point of that subspace inside K
  with the deviation LP of :mod:`fixmk.geometry`.

On every validated input both routes must land on points with residual
below tolerance; when the fixed set is a single point they agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFixedSetError, NotConvergedError, StartOutsidePolytopeError
from .geometry import (
    AffineMap,
    Polytope,
    affine_compose,
    as_vector,
    canonical_fit,
    cesaro_average,
    convex_combination,
    deviation_fit,
    diameter,
    feasible_point,
    hull_gap,
    polytope_image,
)
from .semigroup import (
    DEFAULT_WORD_BUDGET,
    Leaf,
    SemigroupNode,
    enumerate_elements,
    flatten,
)

DEFAULT_TOL = 1e-8
DEFAULT_N_MAX = 2**20


@dataclass
class ConvergenceCertificate:
    """Residual decay trace of an averaging run."""

    n_final: int
    residual_history: list[tuple[int, float]]
    bound_history: list[tuple[int, float]]


@dataclass
class FixedPointResult:
    point: np.ndarray
    residuals: dict[str, float]
    method: str  # "cesaro" or "exact"
    certificate: ConvergenceCertificate | None = None

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class AffineSubspace:
    """point + span(basis columns); basis may have zero columns."""

    point: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


@dataclass
class FipReport:
    feasible: bool
    witness: np.ndarray | None
    family: str
    sample_count: int
    seed: int


def residual(point, node: SemigroupNode) -> dict[str, float]:
    """Per-generator max-abs residual |f(p) - p| at the point."""
    p = as_vector(point, node.dim)
    return {
        label: float(np.max(np.abs(g(p) - p))) for label, g in flatten(node)
    }


def averaging_operator(node: SemigroupNode, n: int) -> AffineMap:
    """Depth-n averaging stage of the tree.

    Leaf: compose the depth-n averages of its generators (the order does
    not matter, the averages commute).  Product: the normal stage composed
    after the quotient stage.
    """
    if n < 1:
        raise ValueError("averaging depth must be >= 1")
    if isinstance(node, Leaf):
        op = AffineMap.identity(node.dim)
        for g in node.generators:
            op = affine_compose(op, cesaro_average(g, n))
        return op
    return affine_compose(
        averaging_operator(node.normal, n), averaging_operator(node.quotient, n)
    )


def solve_cesaro(
    node: SemigroupNode,
    K: Polytope,
    x0,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> FixedPointResult:
    """Iterate the averaging operator over a doubling depth schedule.

    Returns the first iterate whose worst generator residual is <= tol.
    Raises :class:`StartOutsidePolytopeError` when x0 is not in K, and
    :class:`NotConvergedError` with the best iterate when n_max is
    exhausted; on a validated tree that signals a tol/n_max mismatch, not
    a missing fixed point.
    """
    start = as_vector(x0, node.dim)
    slack = max(tol, 1e-9)
    if hull_gap(K, start, slack)[0] > slack:
        raise StartOutsidePolytopeError("start point is not inside the polytope")
    diam = diameter(K)
    residual_history: list[tuple[int, float]] = []
    bound_history: list[tuple[int, float]] = []
    best_point, best_res, best_max = None, None, np.inf
    n = 1
    while n <= n_max:
        p = averaging_operator(node, n)(start)
        res = residual(p, node)
        worst = max(res.values())
        residual_history.append((n, worst))
        bound_history.append((n, diam / n))
        if worst < best_max:
            best_point, best_res, best_max = p, res, worst
        if worst <= tol:
            cert = ConvergenceCertificate(n, residual_history, bound_history)
            return FixedPointResult(p, res, "cesaro", cert)
        n *= 2
    cert = ConvergenceCertificate(residual_history[-1][0], residual_history, bound_history)
    raise NotConvergedError(best_point, best_res, cert)


def _affine_solution_set(M: np.ndarray, rhs: np.ndarray) -> AffineSubspace | None:
    """Solution set of M x = rhs as point + nullspace, or None if inconsistent."""
    U, s, Vt = np.linalg.svd(M)
    cutoff = max(M.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    coeffs = (U[:, :rank].T @ rhs) / s[:rank] if rank else np.zeros(0)
    point = Vt[:rank].T @ coeffs if rank else np.zeros(M.shape[1])
    if np.max(np.abs(M @ point - rhs), initial=0.0) > 1e-9 * (1.0 + np.abs(rhs).max(initial=0.0)):
        return None
    return AffineSubspace(point, Vt[rank:].T.copy())


def common_fixed_subspace(node: SemigroupNode) -> AffineSubspace | None:
    """Solutions of g(x) = x for every generator g via one stacked system, or None."""
    gens = [g for _, g in flatten(node)]
    d = node.dim
    M = np.vstack([g.matrix - np.eye(d) for g in gens])
    rhs = np.concatenate([-g.offset for g in gens])
    return _affine_solution_set(M, rhs)


def solve_exact(node: SemigroupNode, K: Polytope, tol: float = DEFAULT_TOL) -> FixedPointResult:
    """Fixed point via the stacked linear system plus the deviation LP.

    Raises :class:`EmptyFixedSetError` when no common fixed point exists or
    the fixed set misses K — on validated input that diagnoses a broken
    structure/invariance check or an unreachable tolerance.
    """
    sub = common_fixed_subspace(node)
    if sub is None:
        raise EmptyFixedSetError(
            "empty-fixed-subspace",
            "the stacked fixed-point equations are inconsistent",
        )
    gap, point, _ = deviation_fit([K.vertices], sub.point, sub.basis)
    if gap > tol:
        raise EmptyFixedSetError(
            "fixed-set-outside-polytope",
            "the unique fixed point lies outside the polytope"
            if sub.dimension == 0
            else "the fixed subspace does not meet the polytope",
        )
    if sub.dimension:
        point = canonical_fit([K.vertices], sub.point, sub.basis, max(2.0 * gap, 1e-12))
    res = residual(point, node)
    if max(res.values()) > tol:
        raise EmptyFixedSetError(
            "residual-above-tolerance",
            f"exact candidate has residual {max(res.values()):.3e} > tol {tol:.1e}",
        )
    return FixedPointResult(point, res, "exact")


def _sample_family(node, family, count, rng, word_budget):
    if family == "cof":
        words = enumerate_elements(node, word_budget)
        return [
            convex_combination(words, rng.dirichlet(np.ones(len(words))))
            for _ in range(count)
        ]
    if family == "coh-coq":
        if isinstance(node, Leaf):
            raise ValueError("family 'coh-coq' needs a Product node")
        hw = enumerate_elements(node.normal, word_budget)
        qw = enumerate_elements(node.quotient, word_budget)
        out = []
        for _ in range(count):
            h = convex_combination(hw, rng.dirichlet(np.ones(len(hw))))
            q = convex_combination(qw, rng.dirichlet(np.ones(len(qw))))
            out.append(affine_compose(h, q))
        return out
    raise ValueError(f"unknown family {family!r}")


def fip_check(
    node: SemigroupNode,
    K: Polytope,
    sample_count: int,
    family: str = "cof",
    seed: int = 0,
    word_budget: int = DEFAULT_WORD_BUDGET,
    tol: float = DEFAULT_TOL,
) -> FipReport:
    """Sample the convex-combination family and test image intersection.

    Draws random convex combinations of enumerated words ("cof"), or one
    combination per factor composed normal-after-quotient ("coh-coq"),
    maps K through each and asks the feasibility core for a common point.
    On validated trees every sampled family must report feasible.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    rng = np.random.default_rng(seed)
    elements = _sample_family(node, family, sample_count, rng, word_budget)
    images = [polytope_image(el, K) for el in elements]
    witness = feasible_point(images, tol)
    return FipReport(witness is not None, witness, family, sample_count, seed)
