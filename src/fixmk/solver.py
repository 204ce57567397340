"""Common fixed points of validated semigroup trees on a polytope.

Two independent routes, both from a start point x0 in K:

* :func:`solve_cesaro` — iterate the layered averaging operator.  For a
  leaf this composes the depth-n averages (1/n)(I + g + ... + g^(n-1)) of
  its generators; for a product it composes the quotient stage after the
  normal stage, the proof's order (see :func:`_layered`).  On a leaf the
  image of any start point has per-generator residual bounded by
  diameter(K)/n, so doubling n certifies convergence.  Each
  generator's power sum and power are carried from one depth to the next
  (S_2n = S_n + g^n S_n, g^2n = g^n g^n), so the whole schedule up to
  depth n costs O(log n) matrix products, and depth budgets of 2^40 are
  routine.  Stages are layered as raw (matrix, offset) pairs, not AffineMaps.

* :func:`solve_exact` — the limit of those averages in closed form.  In
  homogeneous coordinates a generator is H = [[A, b], [0, 1]], and by the
  mean ergodic theorem (von Neumann, Yosida) its averages converge to the
  projection P_g = [N 0] [N R]^-1 onto the kernel N of H - I along its
  range R, both from one SVD in a frame centred on K and scaled by its
  diameter.  P layers the P_g as the averages are layered, and the point
  is P x0: once it is fixed and lies in K it is a proof.  "Lies in K" is
  proved as the start's is, by the membership ladder of
  :func:`~fixmk.geometry.hull_gap`: a vertex within tolerance, else
  nonnegative least-squares convex weights whose residual is, else the
  hull-distance LP, which a point inside K away from round-off of its
  boundary never reaches.  Only when a check fails do the stacked
  fixed-point equations, then one deviation LP of :mod:`fixmk.geometry`,
  run, to name a fixed set that is empty or misses K.

On every validated input both routes land on the same point, with
residual below tolerance.  :func:`cross_check` runs both from one start
and compares them sharply: the Cesàro point c must satisfy P c = P x0,
whatever depth it stopped at.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisagreementError,
    EmptyFixedSetError,
    NotConvergedError,
    NumericalError,
    StartOutsidePolytopeError,
)
from .geometry import (
    AffineMap,
    Polytope,
    _apply,
    _average,
    _compose,
    _double,
    _finite,
    _mix,
    _power_sum,
    as_vector,
    deviation_fit,
    diameter,
    feasible_point,
    hull_gap,
    polytope_images,
)
from .semigroup import (
    DEFAULT_WORD_BUDGET,
    Leaf,
    SemigroupNode,
    _rank,
    _words,
    common_fixed_subspace,
    flatten,
)

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-8
DEFAULT_N_MAX = 2**20
_CONDITION_LIMIT = 1e8  # cond([N R]) above which a generator's projection is refused


@dataclass
class ConvergenceCertificate:
    """Residual decay trace of an averaging run.

    ``residual_history`` holds (n, worst generator residual) for each depth
    tried.  The bound at depth n is ``diameter`` / n, with ``diameter`` the
    max-abs diameter of K.
    """

    n_final: int
    residual_history: list[tuple[int, float]]
    diameter: float


@dataclass
class FixedPointResult:
    point: np.ndarray
    residuals: dict[str, float]
    method: str  # "cesaro" or "exact"
    certificate: ConvergenceCertificate | None = None

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


@dataclass
class CrossCheck:
    """The exact and the Cesàro result from one start, and their projection gap."""

    exact: FixedPointResult
    cesaro: FixedPointResult
    projection_gap: float

    @property
    def disagreement(self) -> float:
        """Max-abs distance between the two points."""
        return float(np.max(np.abs(self.exact.point - self.cesaro.point)))


@dataclass
class FipReport:
    feasible: bool
    witness: np.ndarray | None
    family: str
    sample_count: int
    seed: int


def _residuals(labeled, p: np.ndarray) -> dict[str, float]:
    return {label: float(np.max(np.abs(g.matrix @ p + g.offset - p))) for label, g in labeled}


def residual(point, node: SemigroupNode) -> dict[str, float]:
    """Per-generator max-abs residual |f(p) - p| at the point."""
    return _residuals(flatten(node), as_vector(point, node.dim))


def _layered(node: SemigroupNode, stage):
    """The (matrix, offset) pairs stage(g) composed: a Leaf's from the identity, a Product's
    quotient layer after its normal one, as in the proof: the normal limit lands in Fix(N),
    which every quotient generator keeps (the normal relation of :mod:`fixmk.semigroup`), so
    the quotient's limit there is fixed by both.  An overflow leaves a non-finite entry."""
    if isinstance(node, Leaf):
        m, o = np.eye(node.dim), np.zeros(node.dim)
        for g in node.generators:  # they commute, so the order does not matter
            m, o = _compose(m, o, *stage(g))
        return m, o
    return _compose(*_layered(node.quotient, stage), *_layered(node.normal, stage))


def averaging_operator(node: SemigroupNode, n: int) -> AffineMap:
    """Depth-n averaging stage of the tree: each generator's depth-n average, layered."""
    pair = _layered(node, lambda g: _average(g, n))
    return AffineMap(*_finite(f"averaging at depth {n}", *pair))


def _ergodic_projection(g: AffineMap, center: np.ndarray, scale: float):
    """The limit of g's averages in the frame y = (x - center) / scale, as a (matrix, offset) pair.

    There g is y -> A y + b, b = (g(center) - center) / scale, so a polytope
    far from the origin or from unit size does not skew the homogeneous
    coordinates.  P_g = [N 0] [N R]^-1, with N and R orthonormal bases of
    the kernel and the range of H - I, H = [[A, b], [0, 1]], from one SVD.
    The averages of H converge to P_g when they converge at all, and then
    kernel and range are complementary; a singular or ill-conditioned
    [N R] (a shear, a translation) raises :class:`NumericalError`.
    """
    d = g.dim
    M = np.zeros((d + 1, d + 1))
    M[:d, :d] = g.matrix - np.eye(d)
    M[:d, d] = (g(center) - center) / scale
    U, s, Vt = np.linalg.svd(M)
    rank = _rank(s)
    kernel = Vt[rank:].T
    NR = np.hstack([kernel, U[:, :rank]])
    sv = np.linalg.svd(NR, compute_uv=False)
    if not sv[-1] > sv[0] / _CONDITION_LIMIT:
        raise NumericalError(
            "the kernel and range of G - I are not complementary "
            f"(s_min / s_max of [N R] is {sv[-1] / sv[0]:.1e}), so the averages do not converge"
        )
    P = kernel @ np.linalg.inv(NR)[: kernel.shape[1]]
    return P[:d, :d].copy(), P[:d, d].copy()


def _start_point(node: SemigroupNode, K: Polytope, x0, tol: float) -> np.ndarray:
    start = as_vector(x0, node.dim)
    slack = max(tol, 1e-9)
    if hull_gap(K, start, slack)[0] > slack:
        raise StartOutsidePolytopeError("start point is not inside the polytope")
    return start


def _schedule(node: SemigroupNode, start: np.ndarray, n_max: int):
    """Yield (n, depth-n average of start) for n = 1, 2, 4, ... <= n_max.

    Each generator's (S_n, g^n) is carried from one depth to the next by
    one :func:`~fixmk.geometry._double` step, so depth n costs log2(n) + 1
    steps per generator in all.  The point is m @ start + o from the layered
    S_n / n, so bit for bit ``averaging_operator(node, n)(start)``.  A depth
    whose layered average or point overflows raises :class:`NumericalError`.
    """
    sums, n = {id(g): _power_sum(g.matrix, g.offset, 1) for _, g in flatten(node)}, 1
    while n <= n_max:
        if n > 1:
            sums = {key: _double(*state, n // 2) for key, state in sums.items()}
        m, o = _layered(node, lambda g: _average(g, n, sums[id(g)][0]))
        p = _apply(m, o, start)
        _finite(f"averaging at depth {n}", m, o, p)
        yield n, p
        n *= 2


def _cesaro_from(node, K, start, tol, n_max) -> FixedPointResult:
    """:func:`solve_cesaro` from a start point already checked to lie in K."""
    if n_max < 1:
        raise ValueError("averaging depth must be >= 1")
    diam, labeled = diameter(K), flatten(node)
    residual_history: list[tuple[int, float]] = []
    best_point, best_res, best_max = None, None, np.inf
    for n, p in _schedule(node, start, n_max):
        res = _residuals(labeled, p)
        worst = max(res.values())
        residual_history.append((n, worst))
        if worst < best_max:
            best_point, best_res, best_max = p, res, worst
        if worst <= tol:
            cert = ConvergenceCertificate(n, residual_history, diam)
            return FixedPointResult(p, res, "cesaro", cert)
    cert = ConvergenceCertificate(residual_history[-1][0], residual_history, diam)
    raise NotConvergedError(best_point, best_res, cert)


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
    return _cesaro_from(node, K, _start_point(node, K, x0, tol), tol, n_max)


def _diagnose(node, K, tol, failure: Exception):
    """Name why P x0 failed a check, and raise: the stacked fixed-point
    equations, then one deviation LP, give ``empty-fixed-subspace`` or
    ``fixed-set-outside-polytope``; if both pass, ``failure`` is raised."""
    logger.debug("exact point failed a check, diagnosing: %s", failure)
    sub = common_fixed_subspace(node)
    if sub is None:
        raise EmptyFixedSetError(
            "empty-fixed-subspace",
            "the stacked fixed-point equations are inconsistent",
        )
    gap, _, _ = deviation_fit([K.vertices], sub.point, sub.basis)
    if gap > tol:
        raise EmptyFixedSetError(
            "fixed-set-outside-polytope",
            "the unique fixed point lies outside the polytope"
            if sub.dimension == 0
            else "the fixed subspace does not meet the polytope",
        )
    raise failure


def _exact_from(node, K, start, tol):
    """:func:`solve_exact` from a start point already checked to lie in K.

    Returns the result and the projection x -> P x.  A P x0 that is fixed
    and lies in K proves itself, so the nullspace and the deviation LP run
    only in :func:`_diagnose`, after a check fails.
    """
    center, scale = K.centroid(), diameter(K) or 1.0
    try:
        lm, lo = _layered(node, lambda g: _ergodic_projection(g, center, scale))
        _finite("layering the exact projection", lm, lo)
    except NumericalError as exc:
        _diagnose(node, K, tol, exc)

    def project(x):
        return center + scale * _apply(lm, lo, (x - center) / scale)

    point = project(start)
    res = residual(point, node)
    if max(res.values()) > tol:
        _diagnose(node, K, tol, EmptyFixedSetError(
            "residual-above-tolerance",
            f"exact candidate has residual {max(res.values()):.3e} > tol {tol:.1e}",
        ))
    slack = max(tol, 1e-9)
    outside = hull_gap(K, point, slack)[0]
    if outside > slack:
        _diagnose(node, K, tol, EmptyFixedSetError(
            "projection-outside-polytope",
            f"the projected start point lies {outside:.3e} outside the polytope",
        ))
    return FixedPointResult(point, res, "exact"), project


def solve_exact(
    node: SemigroupNode, K: Polytope, x0, tol: float = DEFAULT_TOL
) -> FixedPointResult:
    """The fixed point P x0, with P the limit of the averaging operator.

    Raises :class:`StartOutsidePolytopeError` when x0 is not in K.  Only
    when P cannot be formed or P x0 is not fixed or not in K do the
    nullspace and then the deviation LP run, and :class:`EmptyFixedSetError`
    names the first reason that holds: ``empty-fixed-subspace``,
    ``fixed-set-outside-polytope``, then ``residual-above-tolerance`` or
    ``projection-outside-polytope`` — on validated input a broken
    structure/invariance check or an unreachable tolerance.  Otherwise a
    generator whose averages cannot converge raises :class:`NumericalError`.
    """
    return _exact_from(node, K, _start_point(node, K, x0, tol), tol)[0]


def cross_check(
    node: SemigroupNode,
    K: Polytope,
    x0,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> CrossCheck:
    """Both routes from one start: the exact point e, then the Cesàro point c.

    x0 is checked once.  The projection gap is |P c - e| (max-abs).  On a
    leaf P A_n = P at every depth n, since P_g A_n(g) = P_g and the
    generators commute, so P c = P x0 = e up to round-off wherever the
    averaging stopped; the products of the corpus keep it too (pinned in
    the tests).  A larger gap means the routes reached different fixed
    points.  Raises what :func:`solve_exact` and
    :func:`solve_cesaro` raise, and :class:`DisagreementError`, carrying
    the check, when the gap exceeds tol.
    """
    start = _start_point(node, K, x0, tol)
    exact, project = _exact_from(node, K, start, tol)
    cesaro = _cesaro_from(node, K, start, tol, n_max)
    check = CrossCheck(exact, cesaro, float(np.max(np.abs(project(cesaro.point) - exact.point))))
    if check.projection_gap > tol:
        raise DisagreementError(check, tol)
    return check


def _sample_family(node, family, count, rng, word_budget):
    """``count`` sampled maps of the family, as stacks (matrices, offsets)."""
    if family == "cof":
        words = _words(node, word_budget)
        maps = _mix(*words, np.array([rng.dirichlet(np.ones(len(words[0]))) for _ in range(count)]))
    elif family == "coh-coq":
        if isinstance(node, Leaf):
            raise ValueError("family 'coh-coq' needs a Product node")
        hw = _words(node.normal, word_budget)
        qw = _words(node.quotient, word_budget, len(flatten(node.normal)))  # labels as flatten's
        wh, wq = zip(*([rng.dirichlet(np.ones(len(w[0]))) for w in (hw, qw)] for _ in range(count)))
        maps = _compose(*_mix(*hw, np.array(wh)), *_mix(*qw, np.array(wq)))
    else:
        raise ValueError(f"unknown family {family!r}")
    return _finite(f"sampling the {family} family", *maps)


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
    images = polytope_images(*_sample_family(node, family, sample_count, rng, word_budget), K)
    witness = feasible_point(images, tol)
    return FipReport(witness is not None, witness, family, sample_count, seed)
