"""Affine maps, polytopes and polyhedral norms on R^n.

Conventions: points are 1-D float64 arrays, matrices are row-major 2-D
arrays, and a polytope is the convex hull of an explicit vertex list
(one vertex per row).  All values are frozen after construction; the
operations below are pure functions, so everything here is safe to share
between threads.

Every hull question but membership is one linear program, the deviation
LP, solved by the dense simplex core (:mod:`fixmk.lp`): given vertex sets
V_1..V_J, a point p and a basis B (d x r), find convex weights lam_j per
set and coordinates s minimizing the max-abs deviation t between each
hull point V_j^T lam_j and the shared point p + B s (in equality form by
:func:`_deviation_lp`).

:func:`deviation_fit` alone poses, solves and maps back every deviation
LP: it minimizes t, or, given a cap and a direction, direction @ s subject
to t <= cap.  Callers pass p as it is, and :func:`_frame` picks the frame:
(V_j - o) / 2^k against the origin, o in p + span(B).  Data whose reach
from p (the largest |V_j - p|) is at most 2^10 * min(1, spread), spread
being the widest set's coordinate range, keep o = p and k = 0, the program
as posed before; others take o at their centroid's least-squares fit in
p + span(B), with 2^k just above their reach from o (or 1 within
[2^-10, 2^10]).  Each column of B, and a direction, is divided by a power
of two too (1 for I, an orthonormal B and an empty B).  Powers of two
scale exactly, so the simplex's absolute tolerance keeps its meaning.

* :func:`hull_fit` is J = 1 with an empty basis: is p in the hull?
  Membership within a tolerance goes through one ladder,
  :func:`hull_gaps`, on a stack of points (:func:`hull_gap` for one
  point, the invariance pass of :mod:`fixmk.semigroup` for a generator's
  vertex images).  Its first two steps each prove a point within the
  tolerance: a vertex within it, found in bounded chunks, as images
  under permutations are; else nonnegative least-squares weights whose
  residual, round-off included, is within it.  That step's first solve
  is the minimum-norm least-squares one, which settles the centroid's
  uniform weights and a simplex's positive barycentric coordinates; where
  it goes negative, Lawson and Hanson's active-set method (a few small
  least-squares solves) settles every point inside K away from round-off
  of its boundary.  Only a point left after those gets the LP, so the
  simplex measures how far a point lies outside K.
* :func:`feasible_point` is p = 0, B = I: do the hulls intersect?  Its
  witness is the raw basic solution.
* the exact solver fits an affine fixed subspace against K, to tell
  whether the fixed set meets K.
* the extension's subspace norm is one capped deviation LP with a
  direction (:func:`fixmk.extension.subspace_norm`).

Stacked affine arithmetic is done here alone: :func:`_apply`, :func:`_compose`
and :func:`_mix` on (matrix, offset) arrays run under ``np.errstate``, and each
caller passes what it formed to :func:`_finite`, which raises NumericalError
naming the step ("averaging at depth 1024 overflows"), so no RuntimeWarning
escapes and ValueError is left for bad input to a constructor.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, InvalidWeightsError, NumericalError
from .lp import solve_lp

DEFAULT_MEMBERSHIP_TOL = 1e-9
_WEIGHT_TOL = 1e-9  # round-off allowed in convex weights: sign and sum
_IN_SCALE = 2.0**10  # deviation LP data within this (times min(1, spread)) of the point keep it
_CHUNK_BYTES = 64 * 1024  # bound on the temporaries of one chunk of the vertex match
_NNLS_SOLVES = 3  # least-squares solves per vertex before NNLS leaves a point to the LP
LADDER = ("vertex match", "weights", "LP")  # the steps of hull_gaps, in order


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite, read-only 1-D float64 array."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    v.setflags(write=False)
    return v


def as_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite, read-only square float64 matrix."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The transformation x -> matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        b = as_vector(self.offset, m.shape[0])
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def linear(cls, matrix) -> "AffineMap":
        m = as_matrix(matrix)
        return cls(m, np.zeros(m.shape[0]))

    @classmethod
    def translation(cls, offset) -> "AffineMap":
        b = as_vector(offset)
        return cls(np.eye(b.shape[0]), b)

    def __call__(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        return self.matrix @ v + self.offset

    def __repr__(self):
        return f"AffineMap(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a nonempty vertex list (V-representation)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise DimensionMismatchError(
                f"expected a nonempty (vertices x dim) array, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope has non-finite vertex coordinates")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lo = as_vector(lower)
        hi = as_vector(upper, lo.shape[0])
        return cls(np.array(list(itertools.product(*zip(lo, hi)))))

    @classmethod
    def standard_simplex(cls, dim: int) -> "Polytope":
        return cls(np.eye(dim))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={self.n_vertices})"


class NormKind(Enum):
    MAX_ABS = "max-abs"  # l-infinity
    SUM_ABS = "sum-abs"  # l-1


@dataclass(frozen=True)
class NormSpec:
    """A polyhedral norm (max-abs or sum-abs) on R^dim."""

    kind: NormKind
    dim: int

    def value(self, x) -> float:
        return float(self.values(as_vector(x, self.dim)))

    def values(self, rows) -> np.ndarray:
        """The norm of each row of ``rows`` (of a vector, a 0-d array)."""
        size = np.abs(rows)
        return size.max(axis=-1) if self.kind is NormKind.MAX_ABS else size.sum(axis=-1)

    def dual(self) -> "NormSpec":
        other = NormKind.SUM_ABS if self.kind is NormKind.MAX_ABS else NormKind.MAX_ABS
        return NormSpec(other, self.dim)

    def ball_vertex_count(self) -> int:
        """The unit ball's number of vertices, 2^dim or 2 dim, without building it."""
        return 2**self.dim if self.kind is NormKind.MAX_ABS else 2 * self.dim

    def unit_ball(self) -> Polytope:
        if self.kind is NormKind.MAX_ABS:
            return Polytope(np.array(list(itertools.product((-1.0, 1.0), repeat=self.dim))))
        eye = np.eye(self.dim)
        return Polytope(np.vstack([eye, -eye]))

    def operator_norm(self, matrix) -> float:
        """Induced operator norm: max row sum for max-abs, max column sum for sum-abs."""
        m = as_matrix(matrix, self.dim)
        axis = 1 if self.kind is NormKind.MAX_ABS else 0
        return float(np.max(np.sum(np.abs(m), axis=axis)))


# ---------------------------------------------------------------------------
# affine-map algebra


def _finite(what: str, *arrays):
    """The arrays, once every entry is finite; else :class:`NumericalError` "<what> overflows"."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} overflows")
    return arrays


@np.errstate(over="ignore", invalid="ignore")
def _apply(m, o, x):
    """m @ x + o for stacked maps and points x (..., d), bit for bit as AffineMap.__call__."""
    return (m @ x[..., None])[..., 0] + o


@np.errstate(over="ignore", invalid="ignore")
def _compose(f, fo, g, go):
    """Stacked f.g as a (matrix, offset) pair: f @ g and f @ go + fo."""
    return f @ g, _apply(f, fo, go)


@np.errstate(over="ignore", invalid="ignore")
def _mix(m, o, w):
    """Each row of the weights w (k, N) mixed over the stacked maps m (N, d, d), o (N, d)."""
    mixed_m, mixed_o = np.zeros((len(w),) + m.shape[1:]), np.zeros((len(w), o.shape[1]))
    for j in range(len(m)):
        mixed_m += w[:, j, None, None] * m[j]
        mixed_o += w[:, j, None] * o[j]
    return mixed_m, mixed_o


def affine_compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """The map x -> f(g(x))."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"compose dims {f.dim} vs {g.dim}")
    pair = _compose(f.matrix, f.offset, g.matrix, g.offset)
    return AffineMap(*_finite("composing two maps", *pair))


def convex_combination(maps, weights) -> AffineMap:
    """Entrywise weighted mixture of affine maps with convex weights."""
    maps = list(maps)
    w = np.asarray(weights, dtype=float)
    if len(maps) == 0 or w.shape != (len(maps),):
        raise InvalidWeightsError("need one weight per map, at least one map")
    if np.any(w < -_WEIGHT_TOL):
        raise InvalidWeightsError(f"negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise InvalidWeightsError(f"weights sum to {w.sum():.12f}, expected 1")
    if any(m.dim != maps[0].dim for m in maps):
        raise DimensionMismatchError("maps in combination have mixed dims")
    stack = np.array([m.matrix for m in maps]), np.array([m.offset for m in maps])
    (matrix,), (offset,) = _finite("mixing maps", *_mix(*stack, w[None]))
    return AffineMap(matrix, offset)


@np.errstate(over="ignore", invalid="ignore")
def _double(sums, power, n: int):
    """One doubling step: (S_n, g^n) to (S_2n, g^2n), each as (matrix, offset).

    S_n is the sum of the powers 0..n-1.  The block of powers n..2n-1 is
    g^n composed with the block 0..n-1, so S_2n = S_n + g^n S_n, whose
    offset is s_o + p_m s_o + n p_o, and g^2n = g^n g^n.
    """
    (s_m, s_o), (p_m, p_o) = sums, power
    return (s_m + p_m @ s_m, s_o + p_m @ s_o + n * p_o), (p_m @ p_m, p_m @ p_o + p_o)


def _power_sum(matrix: np.ndarray, offset: np.ndarray, n: int):
    """Return (S_n, g^n): the sum of powers 0..n-1 and the n-th power.

    Doubling recursion through :func:`_double`, which keeps the cost at
    O(log n) matrix products and makes depth budgets like 2^40 affordable.
    For n = 2^k it is :func:`_double` applied k times to the result for
    n = 1, the same operations as carrying the sums from one power of two
    to the next.
    """
    d = offset.shape[0]
    if n == 0:
        return (np.zeros((d, d)), np.zeros(d)), (np.eye(d), np.zeros(d))
    (s_m, s_o), (p_m, p_o) = _double(*_power_sum(matrix, offset, n // 2), n // 2)
    if n % 2:
        with np.errstate(over="ignore", invalid="ignore"):
            s_m, s_o = s_m + p_m, s_o + p_o
        p_m, p_o = _compose(p_m, p_o, matrix, offset)
    return (s_m, s_o), (p_m, p_o)


def _average(m: AffineMap, n: int, sums=None):
    """:func:`cesaro_average` as a (matrix, offset) pair: S_n / n, from m's S_n when given."""
    if n < 1:
        raise ValueError("averaging depth n must be >= 1")
    s_m, s_o = sums or _power_sum(m.matrix, m.offset, n)[0]
    return s_m / n, s_o / n


def cesaro_average(m: AffineMap, n: int) -> AffineMap:
    """(1/n) * (I + m + m^2 + ... + m^(n-1))."""
    return AffineMap(*_finite(f"averaging at depth {n}", *_average(m, n)))


# ---------------------------------------------------------------------------
# polytope operations


@np.errstate(over="ignore", invalid="ignore")
def polytope_images(matrices, offsets, K: Polytope) -> list[Polytope]:
    """The hull of the mapped vertices under each stacked map (N, d, d), (N, d).

    Each map's images are sorted lexicographically and repeats dropped, the
    rows np.unique(axis=0) gives, without its first-call import of numpy.ma
    (about 20 ms and 1.2 MB in a fresh process).
    """
    if matrices.shape[-1] != K.dim:
        raise DimensionMismatchError(f"map dim {matrices.shape[-1]} vs polytope dim {K.dim}")
    images = K.vertices @ np.swapaxes(matrices, 1, 2) + offsets[:, None]
    _finite("mapping the vertices of K", images)
    hulls = []
    for mapped in images:
        mapped = mapped[np.lexsort(mapped.T[::-1])]
        hulls.append(Polytope(mapped[np.append(True, np.any(mapped[1:] != mapped[:-1], axis=1))]))
    return hulls


def _power_of_two(size: float) -> float:
    """1 for a size of 0 or in [2^-10, 2^10]; else the power of two 2^e with size < 2^e <= 2 size."""
    if size == 0.0 or 1.0 / _IN_SCALE <= size <= _IN_SCALE:
        return 1.0
    return 2.0 ** min(np.frexp(size)[1], 1023)  # 2^1024 is out of float range


def _frame(vertex_sets, point, basis):
    """The vertex sets as (V - o) / 2^k, with o = point + basis @ shift: (sets, shift, 2^k)."""
    shifted = [V - point for V in vertex_sets] if point.any() else list(vertex_sets)
    spread = max((V.max(axis=0) - V.min(axis=0)).max() for V in vertex_sets)
    if max(np.abs(S).max() for S in shifted) <= _IN_SCALE * min(1.0, spread):
        return shifted, 0.0, 1.0
    shift = np.linalg.lstsq(basis, np.vstack(vertex_sets).mean(axis=0) - point, rcond=None)[0]
    shifted = [V - (point + basis @ shift) for V in vertex_sets]
    scale = _power_of_two(max(np.abs(S).max() for S in shifted))
    return [S / scale for S in shifted], shift, scale


def _deviation_lp(vertex_sets, basis, cap=None):
    """Equality form of the deviation LP against the origin, plus its column offsets (s+, s-, t).

    Columns: lam_1..lam_J | s+ (r) | s- (r) | t | u (J*d) | w (J*d).  Each
    set j owns 2d + 1 rows: for every coordinate i an upper row
    V_j[:, i] @ lam_j - B[i] @ s - t + u_ji = 0 and a lower row with
    + t - w_ji in place of - t + u_ji, then sum(lam_j) = 1.  A cap adds a
    last row t + slack = cap, its slack the last column.
    """
    d, r = basis.shape
    J = len(vertex_sets)
    sp = sum(V.shape[0] for V in vertex_sets)
    sn, t = sp + r, sp + 2 * r
    u0, w0 = t + 1, t + 1 + J * d
    capped = cap is not None
    A = np.zeros((J * (2 * d + 1) + capped, w0 + J * d + capped))
    b = np.zeros(A.shape[0])
    b[2 * d :: 2 * d + 1] = 1.0
    lam0 = 0
    for j, V in enumerate(vertex_sets):
        lam = slice(lam0, lam0 + V.shape[0])
        rows = A[j * (2 * d + 1) : (j + 1) * (2 * d + 1)]  # a view: writes land in A
        up, low = rows[0:-1:2], rows[1:-1:2]
        rows[:-1, lam] = np.repeat(V.T, 2, axis=0)
        rows[:-1, sp:sn] -= np.repeat(basis, 2, axis=0)
        rows[:-1, sn:t] += np.repeat(basis, 2, axis=0)
        up[:, t] = -1.0
        low[:, t] = 1.0
        up[:, u0 + j * d : u0 + (j + 1) * d] += np.eye(d)
        low[:, w0 + j * d : w0 + (j + 1) * d] -= np.eye(d)
        rows[-1, lam] = 1.0
        lam0 = lam.stop
    if capped:
        A[-1, [t, -1]] = 1.0
        b[-1] = cap
    return A, b, (sp, sn, t)


def deviation_fit(vertex_sets, point, basis, cap=None, direction=None):
    """The deviation LP between point + span(basis) and every hull: (t, s, weights).

    Without a direction it minimizes the max-abs deviation t; with one, it
    minimizes direction @ s subject to t <= cap.  s holds the coordinates of
    the shared point point + basis @ s, and weights stacks the convex
    weights of all sets in order.
    """
    sets, shift, scale = _frame(vertex_sets, point, basis)
    columns = np.array([_power_of_two(size) for size in np.abs(basis).max(axis=0)])
    A, b, (sp, sn, t) = _deviation_lp(sets, basis / columns, None if cap is None else cap / scale)
    c = np.zeros(A.shape[1])
    if direction is None:
        c[t] = 1.0
    else:
        objective = direction / _power_of_two(float(np.abs(direction).max(initial=0.0))) / columns
        c[sp:sn] = objective / _power_of_two(float(np.abs(objective).max(initial=0.0)))
        c[sn:t] = -c[sp:sn]
    res = solve_lp(c, A, b)
    s = shift + scale * (res.x[sp:sn] - res.x[sn:t]) / columns
    return scale * max(0.0, res.x[t]), s, res.x[:sp]


def hull_fit(K: Polytope, x) -> tuple[float, np.ndarray]:
    """Best max-abs deviation between x and the hull, plus achieving weights.

    The deviation LP with an empty basis: t = 0 (up to arithmetic) iff x
    is in the hull.
    """
    point = as_vector(x, K.dim)
    deviation, _, weights = deviation_fit([K.vertices], point, np.zeros((K.dim, 0)))
    return deviation, weights


def _vertex_gaps(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Max-abs distance from each point to its nearest row of V, for chunks of points whose
    difference array and numpy's operand buffers for it stay within _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (3 * V.nbytes))
    gaps = np.empty(len(points))
    for s in range(0, len(points), step):
        diff = points[s : s + step, None] - V
        gaps[s : s + step] = np.abs(diff, out=diff).max(axis=2).min(axis=1)
    return gaps


def _nnls(A: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray | None:
    """lam >= 0 minimizing |A lam - b|_2 (Lawson and Hanson, 1974, ch. 23), or None.

    The first solve is the unconstrained minimum-norm least-squares one:
    when all its entries are positive it is the answer.  Otherwise the
    active-set method runs from lam = 0: the column whose gradient entry
    w = A^T (b - A lam) is largest enters the passive set, which is solved
    by least squares; a solution with entries <= 0 is met by stepping from
    lam towards it until the first entry reaches 0 and dropping every entry
    at 0.  Stops when no entry of w exceeds its round-off, or when an
    entering entry solves to <= 0 (it entered on round-off).  None once
    ``cap`` least-squares solves past the first did not reach that: the
    caller treats the point as not settled.
    """
    lam = np.linalg.lstsq(A, b, rcond=None)[0]
    if lam.min() > 0:
        return lam
    n = A.shape[1]
    lam, passive = np.zeros(n), np.zeros(n, dtype=bool)
    floor = 10 * max(A.shape) * np.finfo(float).eps * np.abs(A).max() * np.abs(b).max()
    w, solves = A.T @ b, 0
    while not passive.all():
        free = np.flatnonzero(~passive)
        entering = free[np.argmax(w[free])]
        if w[entering] <= floor:
            break
        passive[entering] = True
        while True:
            solves += 1
            if solves > cap:
                return None
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if s[passive].min() > 0:
                break
            if entering >= 0 and s[entering] <= 0:  # it entered on round-off: lam is optimal
                return lam
            down = passive & (s <= 0)  # lam > 0 on each: the denominators are positive
            lam += (lam[down] / (lam[down] - s[down])).min() * (s - lam)
            passive &= lam > 0
            lam[~passive], entering = 0.0, -1  # only its first solve can turn the entering entry down
        lam = s
        w = A.T @ (b - A @ lam)
    return lam


@np.errstate(over="ignore", invalid="ignore")
def _weighed(K: Polytope, point: np.ndarray, tol: float) -> float | None:
    """Step 2 of the ladder for one point: the gap its convex weights prove, or None.

    Solves sum lam_i (v_i - x) = 0, sum lam_i = 1 for lam >= 0 by :func:`_nnls`,
    within ``_NNLS_SOLVES`` least-squares solves per vertex, the first d
    equations divided by the reach max|v_i - x| so that they weigh as much as
    the last.  The weights lam / sum(lam) settle x when their residual, plus
    its round-off (N + 2) eps reach, is within tol.
    """
    S = K.vertices - point if point.any() else K.vertices
    reach = float(np.abs(S).max())
    if not 0.0 < reach < np.inf:
        return None
    A, b = np.vstack([S.T / reach, np.ones(len(S))]), np.append(np.zeros(K.dim), 1.0)
    lam = _nnls(A, b, _NNLS_SOLVES * len(S))
    total = 0.0 if lam is None else lam.sum()
    if not 0.0 < total < np.inf:
        return None
    gap = float(np.abs(S.T @ (lam / total)).max())
    return gap if gap + (len(S) + 2) * np.finfo(float).eps * reach <= tol else None


def hull_gaps(K: Polytope, points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The membership ladder on a stack of points (N, d): (gaps, steps).

    steps[i] indexes LADDER, the step that settled points[i]: a vertex
    within tol (gap: the nearest vertex's distance); else convex weights
    whose residual, round-off included, is within tol (gap: that residual);
    else :func:`hull_fit` (gap: the hull distance).  Each bounds the hull
    distance from above, so gap <= tol iff the hull distance is, and a gap
    above tol is the hull distance itself.  Each point gets its weights
    sought at most once.  The LP resolves a gap only to about 1e-9 times
    the 2^k of :func:`deviation_fit`'s frame (1 for data near the point), as
    the simplex's tolerance is absolute, so a smaller tol is not honoured:
    on [-2^-10, 2^-10], a point 3.95e-11 outside reads as inside at tol
    9.8e-13.
    """
    gaps = _vertex_gaps(points, K.vertices)
    steps = np.zeros(len(points), dtype=int)
    for i in np.flatnonzero(gaps > tol):
        gap = _weighed(K, points[i], tol)
        gaps[i], steps[i] = (gap, 1) if gap is not None else (hull_fit(K, points[i])[0], 2)
    return gaps, steps


def hull_gap(K: Polytope, x, tol: float) -> tuple[float, bool]:
    """Max-abs gap from x to the hull, exact wherever it exceeds tol: :func:`hull_gaps` on x.

    Returns (gap, matched), matched True when a vertex within tol settled it.
    A tol below the LP's resolution, about 1e-9 times the 2^k of
    :func:`deviation_fit`'s frame (see :func:`hull_gaps`), is not honoured.
    """
    gaps, steps = hull_gaps(K, as_vector(x, K.dim)[None], tol)
    return float(gaps[0]), bool(steps[0] == 0)


def contains(K: Polytope, x, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff convex weights over the vertices reproduce x within tol.

    A tol below the LP's resolution, about 1e-9 times the 2^k of
    :func:`deviation_fit`'s frame (see :func:`hull_gaps`), is not honoured.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return hull_gap(K, x, tol)[0] <= tol


def diameter(K: Polytope) -> float:
    """Max-abs diameter: the widest coordinate spread, computed without a pairwise array."""
    V = K.vertices
    return float((V.max(axis=0) - V.min(axis=0)).max())


def feasible_point(constraint_sets, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """A point lying in every hull within tol, or None when there is none.

    The deviation LP with a free shared point (origin 0, basis I); the
    hulls intersect iff the optimal deviation is <= tol.  The witness is
    the raw basic solution of that one program: deterministic, but which
    point of the intersection it is depends on the simplex's pivot rules,
    so it may move when those change.
    """
    sets = list(constraint_sets)
    if not sets:
        raise ValueError("need at least one polytope")
    d = sets[0].dim
    if any(K.dim != d for K in sets):
        raise DimensionMismatchError("polytopes have mixed dims")
    origin, basis = np.zeros(d), np.eye(d)
    deviation, s, _ = deviation_fit([K.vertices for K in sets], origin, basis)
    return None if deviation > tol else origin + basis @ s
