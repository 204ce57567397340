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

Callers pass p as it is: :func:`_frame` alone picks the frame, in which
:func:`deviation_fit` and :func:`_capped_probe` solve for (V_j - o) / 2^k
against the origin, o in p + span(B), and map t, s and the weights back.
Data whose reach from p (the largest |V_j - p|) is at most
2^10 * min(1, spread), spread being the widest set's coordinate range,
keep o = p and k = 0, the program as posed before; others take o at
their centroid's least-squares fit in p + span(B), with 2^k just above
their reach from o (or 1 within [2^-10, 2^10]); the probe also divides
each column of B and its objective by a power of two.  Powers of two
scale exactly, so the simplex's absolute tolerance keeps its meaning.

* :func:`hull_fit` is J = 1 with an empty basis: is p in the hull?
  Membership within a tolerance goes through one ladder,
  :func:`hull_gaps`, on a stack of points (:func:`hull_gap` for one
  point, the invariance pass of :mod:`fixmk.semigroup` for a generator's
  vertex images).  Its first three steps each prove a point within the
  tolerance: a vertex within it, found in bounded chunks, as images
  under permutations are; else convex weights from one least-squares
  solve whose residual, round-off included, is within it, as the
  centroid's uniform weights and a simplex's barycentric coordinates
  always are; else nonnegative least-squares weights (Lawson and
  Hanson's active-set method, a few small least-squares solves) passing
  the same test, as every point inside K away from round-off of its
  boundary does.  Only a point left after those gets the LP, so the
  simplex measures how far a point lies outside K.
* :func:`feasible_point` is p = 0, B = I: do the hulls intersect?  Its
  witness is the raw basic solution.
* the exact solver fits an affine fixed subspace against K, to tell
  whether the fixed set meets K.
* the extension's subspace norm is one probe of the deviation LP capped
  at t <= cap (:func:`fixmk.extension.subspace_norm`).

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
from .lp import OPTIMAL, solve_lp

DEFAULT_MEMBERSHIP_TOL = 1e-9
_WEIGHT_TOL = 1e-9  # round-off allowed in convex weights: sign and sum
_IN_SCALE = 2.0**10  # deviation LP data within this (times min(1, spread)) of the point keep it
_CHUNK_BYTES = 64 * 1024  # bound on the temporaries of one chunk of the vertex match
_NNLS_SOLVES = 3  # least-squares solves per vertex before NNLS leaves a point to the LP
LADDER = ("vertex match", "weights", "NNLS", "LP")  # the steps of hull_gaps, in order


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


def map_deviation(f: AffineMap, g: AffineMap) -> float:
    """Max entrywise deviation between two maps (matrix and offset)."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"deviation dims {f.dim} vs {g.dim}")
    return max(
        float(np.max(np.abs(f.matrix - g.matrix))),
        float(np.max(np.abs(f.offset - g.offset))),
    )


def flatten_map(m: AffineMap) -> np.ndarray:
    """Entries of matrix and offset as one flat vector (row-major)."""
    return np.concatenate([m.matrix.ravel(), m.offset])


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


def affine_power(m: AffineMap, n: int) -> AffineMap:
    """n-fold composition of m with itself; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    return AffineMap(*_finite(f"power {n}", *_power_sum(m.matrix, m.offset, n)[1]))


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


def polytope_image(m: AffineMap, K: Polytope) -> Polytope:
    """Hull of the mapped vertices; affine maps carry hulls to hulls."""
    return polytope_images(m.matrix[None], m.offset[None], K)[0]


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


def _deviation_lp(vertex_sets, basis):
    """Equality form of the deviation LP against the origin, plus its column offsets (s+, s-, t).

    Columns: lam_1..lam_J | s+ (r) | s- (r) | t | u (J*d) | w (J*d).  Each
    set j owns 2d + 1 rows: for every coordinate i an upper row
    V_j[:, i] @ lam_j - B[i] @ s - t + u_ji = 0 and a lower row with
    + t - w_ji in place of - t + u_ji, then sum(lam_j) = 1.
    """
    d, r = basis.shape
    J = len(vertex_sets)
    sp = sum(V.shape[0] for V in vertex_sets)
    sn, t = sp + r, sp + 2 * r
    u0, w0 = t + 1, t + 1 + J * d
    A = np.zeros((J * (2 * d + 1), w0 + J * d))
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
    return A, b, (sp, sn, t)


def deviation_fit(vertex_sets, point, basis):
    """Least max-abs deviation t between point + span(basis) and every hull.

    Returns (t, point + basis @ s, weights) at the optimum, where weights
    stacks the convex weights of all sets in order.
    """
    sets, shift, scale = _frame(vertex_sets, point, basis)
    A, b, (sp, sn, t) = _deviation_lp(sets, basis)
    c = np.zeros(A.shape[1])
    c[t] = 1.0
    res = solve_lp(c, A, b)
    if res.status != OPTIMAL:  # the system is always feasible for large t
        raise NumericalError(f"deviation LP unexpectedly {res.status}")
    s = shift + scale * (res.x[sp:sn] - res.x[sn:t])
    return scale * max(res.value, 0.0), point + basis @ s, res.x[:sp]


def _capped_probe(vertex_sets, point, basis, cap, direction):
    """A minimizer s of direction @ s over the deviation LP capped at t <= cap."""
    sets, shift, scale = _frame(vertex_sets, point, basis)
    columns = np.array([_power_of_two(size) for size in np.abs(basis).max(axis=0)])
    A, b, (sp, sn, t) = _deviation_lp(sets, basis / columns)
    objective = direction / _power_of_two(float(np.abs(direction).max(initial=0.0))) / columns
    objective = objective / _power_of_two(float(np.abs(objective).max(initial=0.0)))
    n_rows, n_cols = A.shape
    A_probe = np.zeros((n_rows + 1, n_cols + 1))
    A_probe[:n_rows, :n_cols] = A
    A_probe[n_rows, [t, n_cols]] = 1.0  # t + slack = cap
    c = np.zeros(n_cols + 1)
    c[sp:sn] = objective
    c[sn:t] = -objective
    res = solve_lp(c, A_probe, np.append(b, cap / scale))
    if res.status != OPTIMAL:
        raise NumericalError(f"probe LP unexpectedly {res.status}")
    return shift + scale * (res.x[sp:sn] - res.x[sn:t]) / columns


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

    The active-set method: the column whose gradient entry w = A^T (b - A lam)
    is largest enters the passive set, which is solved by least squares; a
    solution with entries <= 0 is met by stepping from lam towards it until
    the first entry reaches 0 and dropping every entry at 0.  Stops when no
    entry of w exceeds its round-off, or when an entering entry solves to
    <= 0 (it entered on round-off).  None once ``cap`` least-squares solves
    did not reach that: the caller treats the point as not settled.
    """
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
            lam[~passive], entering = 0.0, -1  # only the first solve can turn the entering entry down
        lam = s
        w = A.T @ (b - A @ lam)
    return lam


def _weight_gap(S: np.ndarray, lam: np.ndarray, roundoff: float, tol: float) -> float | None:
    """|S^T lam|_inf for the convex weights lam / sum(lam), when it plus its round-off is within
    tol; else None, also when the sum is 0 or not finite."""
    total = lam.sum()
    if not 0.0 < total < np.inf:  # all weights clipped away, or not finite
        return None
    gap = float(np.abs(S.T @ (lam / total)).max())
    return gap if gap + roundoff <= tol else None


@np.errstate(over="ignore", invalid="ignore")
def _weighed(K: Polytope, point: np.ndarray, tol: float) -> tuple[float, int] | None:
    """Steps 2 and 3 of the ladder for one point: (gap, step), or None when neither settles it.

    Both solve sum lam_i (v_i - x) = 0, sum lam_i = 1 for the rows v_i - x
    of S, in :func:`_frame`'s coordinates, the first d equations divided by
    the reach max|S| so that they weigh as much as the last: step 2 for
    the minimum-norm lam, its negative entries clipped to 0, step 3 for
    lam >= 0 by :func:`_nnls`, within ``_NNLS_SOLVES`` least-squares
    solves per vertex.  Either settles x when the residual of its convex
    weights on S, plus its round-off (N + 2) eps reach, is within tol.
    """
    (S,), _, scale = _frame([K.vertices], point, np.zeros((K.dim, 0)))
    reach = float(np.abs(S).max())
    if not 0.0 < reach < np.inf:
        return None
    roundoff, tol = (len(S) + 2) * np.finfo(float).eps * reach, tol / scale
    A, b = np.vstack([S.T / reach, np.ones(len(S))]), np.append(np.zeros(K.dim), 1.0)
    gap = _weight_gap(S, np.maximum(np.linalg.lstsq(A, b, rcond=None)[0], 0.0), roundoff, tol)
    if gap is not None:
        return scale * gap, 1
    lam = _nnls(A, b, _NNLS_SOLVES * len(S))
    gap = None if lam is None else _weight_gap(S, lam, roundoff, tol)
    return None if gap is None else (scale * gap, 2)


def _settle(K: Polytope, point: np.ndarray, tol: float) -> tuple[float, int]:
    """Steps 2 to 4 of the ladder for one point no vertex matched: (gap, step)."""
    return _weighed(K, point, tol) or (hull_fit(K, point)[0], 3)


def hull_gaps(K: Polytope, points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The membership ladder on a stack of points (N, d): (gaps, steps).

    steps[i] indexes LADDER, the step that settled points[i]: a vertex
    within tol (gap: the nearest vertex's distance); else least-squares,
    then NNLS convex weights whose residual, round-off included, is within
    tol (gap: that residual); else :func:`hull_fit` (gap: the hull
    distance).  Each bounds the hull distance from above, so gap <= tol iff
    the hull distance is, and a gap above tol is the hull distance itself.
    Each point goes through :func:`_settle` at most once.
    """
    gaps = _vertex_gaps(points, K.vertices)
    steps = np.zeros(len(points), dtype=int)
    for i in np.flatnonzero(gaps > tol):
        gaps[i], steps[i] = _settle(K, points[i], tol)
    return gaps, steps


def hull_gap(K: Polytope, x, tol: float) -> tuple[float, bool]:
    """Max-abs gap from x to the hull, exact wherever it exceeds tol: :func:`hull_gaps` on x.

    Returns (gap, matched), matched True when a vertex within tol settled it.
    """
    gaps, steps = hull_gaps(K, as_vector(x, K.dim)[None], tol)
    return float(gaps[0]), bool(steps[0] == 0)


def contains(K: Polytope, x, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff convex weights over the vertices reproduce x within tol."""
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
    deviation, point, _ = deviation_fit([K.vertices for K in sets], np.zeros(d), np.eye(d))
    return None if deviation > tol else point
