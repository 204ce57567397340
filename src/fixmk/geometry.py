"""Affine maps, polytopes and polyhedral norms on R^n.

Conventions: points are 1-D float64 arrays, matrices are row-major 2-D
arrays, and a polytope is the convex hull of an explicit vertex list
(one vertex per row).  All values are frozen after construction; the
operations below are pure functions, so everything here is safe to share
between threads.

Every hull question is one linear program, the deviation LP, solved by
the dense simplex core (:mod:`fixmk.lp`): given vertex sets V_1..V_J, a
point p and a basis B (d x r), find convex weights lam_j per set and
coordinates s minimizing the max-abs deviation t between each hull
point V_j^T lam_j and the shared point p + B s.  Split into equalities
with s = s+ - s- and slacks u, w >= 0, the columns are
lam_1..lam_J | s+ | s- | t | u | w, and each set owns the rows
(upper, lower) per coordinate followed by its weight-sum row.

* :func:`hull_fit` is J = 1 with an empty basis: is p in the hull?
  It shifts the vertices by -p and fits them against the point 0.
  Membership within a tolerance goes through :func:`hull_gap`, which
  matches p against the vertex list first and needs no LP when a vertex
  lies within the tolerance, as images under permutations do.
* :func:`feasible_point` is p = 0, B = I: do the hulls intersect?  Its
  witness is the raw basic solution.
* the exact solver fits an affine fixed subspace against K.
* the extension's subspace norm writes the unit ball as a deviation
  bound on B s, with B the subspace basis: max-abs is within 1 of the
  point 0, sum-abs within 0 of conv{+-e_i}.

The exact solver alone uses :func:`canonical_fit`, which turns a feasible
instance into a reproducible, interior-leaning point by probing the
deviation LP's extremes; each probe is one objective over the capped
program of :func:`_capped_probes`, which runs phase 1 once for all of them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, InvalidWeightsError, NumericalError
from .lp import OPTIMAL, solve_lp, solve_lps

DEFAULT_MEMBERSHIP_TOL = 1e-9
_WEIGHT_TOL = 1e-9  # round-off allowed in convex weights: sign and sum


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
        corners = [
            [pair[i] for pair, i in zip(zip(lo, hi), choice)]
            for choice in itertools.product((0, 1), repeat=lo.shape[0])
        ]
        return cls(np.array(corners))

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
            return Polytope(
                np.array(list(itertools.product((-1.0, 1.0), repeat=self.dim)))
            )
        eye = np.eye(self.dim)
        return Polytope(np.vstack([eye, -eye]))

    def operator_norm(self, matrix) -> float:
        """Induced operator norm: max row sum for max-abs, max column sum for sum-abs."""
        m = as_matrix(matrix, self.dim)
        axis = 1 if self.kind is NormKind.MAX_ABS else 0
        return float(np.max(np.sum(np.abs(m), axis=axis)))


# ---------------------------------------------------------------------------
# affine-map algebra


def affine_compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """The map x -> f(g(x))."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"compose dims {f.dim} vs {g.dim}")
    return AffineMap(f.matrix @ g.matrix, f.matrix @ g.offset + f.offset)


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
    dim = maps[0].dim
    matrix = np.zeros((dim, dim))
    offset = np.zeros(dim)
    for wi, m in zip(w, maps):
        if m.dim != dim:
            raise DimensionMismatchError("maps in combination have mixed dims")
        matrix += wi * m.matrix
        offset += wi * m.offset
    return AffineMap(matrix, offset)


def _power_sum(matrix: np.ndarray, offset: np.ndarray, n: int):
    """Return (sum of powers 0..n-1, n-th power), each as (matrix, offset).

    Doubling recursion: the block of powers m..2m-1 equals the m-th power
    composed with the block 0..m-1, which keeps the cost at O(log n)
    matrix products and makes depth budgets like 2^40 affordable.
    """
    d = offset.shape[0]
    if n == 0:
        return (np.zeros((d, d)), np.zeros(d)), (np.eye(d), np.zeros(d))
    (s_m, s_o), (p_m, p_o) = _power_sum(matrix, offset, n // 2)
    half = n // 2
    s_m, s_o = s_m + p_m @ s_m, s_o + p_m @ s_o + half * p_o
    p_m, p_o = p_m @ p_m, p_m @ p_o + p_o
    if n % 2:
        s_m, s_o = s_m + p_m, s_o + p_o
        p_m, p_o = p_m @ matrix, p_m @ offset + p_o
    return (s_m, s_o), (p_m, p_o)


def cesaro_average(m: AffineMap, n: int) -> AffineMap:
    """(1/n) * (I + m + m^2 + ... + m^(n-1))."""
    if n < 1:
        raise ValueError("averaging depth n must be >= 1")
    (s_m, s_o), _ = _power_sum(m.matrix, m.offset, n)
    return AffineMap(s_m / n, s_o / n)


def affine_power(m: AffineMap, n: int) -> AffineMap:
    """n-fold composition of m with itself; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    _, (p_m, p_o) = _power_sum(m.matrix, m.offset, n)
    return AffineMap(p_m, p_o)


# ---------------------------------------------------------------------------
# polytope operations


def polytope_image(m: AffineMap, K: Polytope) -> Polytope:
    """Hull of the mapped vertices; affine maps carry hulls to hulls.

    The images are sorted lexicographically and repeats dropped, the rows
    np.unique(axis=0) gives, without its first-call import of numpy.ma
    (about 20 ms and 1.2 MB in a fresh process).
    """
    if m.dim != K.dim:
        raise DimensionMismatchError(f"map dim {m.dim} vs polytope dim {K.dim}")
    mapped = K.vertices @ m.matrix.T + m.offset
    mapped = mapped[np.lexsort(mapped.T[::-1])]
    distinct = np.append(True, np.any(mapped[1:] != mapped[:-1], axis=1))
    return Polytope(mapped[distinct])


def _deviation_lp(vertex_sets, point, basis):
    """Equality form of the deviation LP, plus its column offsets (s+, s-, t).

    Columns: lam_1..lam_J | s+ (r) | s- (r) | t | u (J*d) | w (J*d).  Each
    set j owns 2d + 1 rows: for every coordinate i an upper row
    V_j[:, i] @ lam_j - B[i] @ s - t + u_ji = p_i and a lower row with
    + t - w_ji in place of - t + u_ji, then sum(lam_j) = 1.
    """
    d, r = basis.shape
    J = len(vertex_sets)
    sp = sum(V.shape[0] for V in vertex_sets)
    sn, t = sp + r, sp + 2 * r
    u0, w0 = t + 1, t + 1 + J * d
    A = np.zeros((J * (2 * d + 1), w0 + J * d))
    b = np.zeros(A.shape[0])
    lam0 = 0
    for j, V in enumerate(vertex_sets):
        block = slice(j * (2 * d + 1), (j + 1) * (2 * d + 1))
        lam = slice(lam0, lam0 + V.shape[0])
        rows = A[block]  # a view: writes land in A
        up, low = rows[0:-1:2], rows[1:-1:2]
        rows[:-1, lam] = np.repeat(V.T, 2, axis=0)
        rows[:-1, sp:sn] -= np.repeat(basis, 2, axis=0)
        rows[:-1, sn:t] += np.repeat(basis, 2, axis=0)
        up[:, t] = -1.0
        low[:, t] = 1.0
        up[:, u0 + j * d : u0 + (j + 1) * d] += np.eye(d)
        low[:, w0 + j * d : w0 + (j + 1) * d] -= np.eye(d)
        rows[-1, lam] = 1.0
        b[block] = np.append(np.repeat(point, 2), 1.0)
        lam0 = lam.stop
    return A, b, (sp, sn, t)


def deviation_fit(vertex_sets, point, basis):
    """Least max-abs deviation t between point + span(basis) and every hull.

    Returns (t, point + basis @ s, weights) at the optimum, where weights
    stacks the convex weights of all sets in order.
    """
    A, b, (sp, sn, t) = _deviation_lp(vertex_sets, point, basis)
    c = np.zeros(A.shape[1])
    c[t] = 1.0
    res = solve_lp(c, A, b)
    if res.status != OPTIMAL:  # the system is always feasible for large t
        raise NumericalError(f"deviation LP unexpectedly {res.status}")
    return max(res.value, 0.0), point + basis @ (res.x[sp:sn] - res.x[sn:t]), res.x[:sp]


def _capped_probes(vertex_sets, point, basis, cap, directions):
    """Minimizers s of direction @ s over the deviation LP capped at t <= cap.

    The capped program is built once, and each direction (a vector of
    length r) only changes the objective, so all of them go to
    :func:`fixmk.lp.solve_lps` together: phase 1 runs once per program,
    and each probe's phase 2 starts from its basis, so every s is the one
    a standalone solve of that probe gives.  Returns one s per direction,
    in order.
    """
    A, b, (sp, sn, t) = _deviation_lp(vertex_sets, point, basis)
    n_rows, n_cols = A.shape
    A_probe = np.zeros((n_rows + 1, n_cols + 1))
    A_probe[:n_rows, :n_cols] = A
    A_probe[n_rows, [t, n_cols]] = 1.0  # t + slack = cap
    b_probe = np.append(b, cap)
    objectives = np.zeros((len(directions), n_cols + 1))
    for c, direction in zip(objectives, directions):
        c[sp:sn] = direction
        c[sn:t] = -direction
    solutions = []
    for res in solve_lps(objectives, A_probe, b_probe):
        if res.status != OPTIMAL:
            raise NumericalError(f"probe LP unexpectedly {res.status}")
        solutions.append(res.x[sp:sn] - res.x[sn:t])
    return solutions


def canonical_fit(vertex_sets, point, basis, cap):
    """Interior-leaning point of point + span(basis) within cap of every hull.

    With the deviation capped at cap, each ambient coordinate of
    point + basis @ s is pushed to both extremes and the 2d probe
    solutions averaged, a pick that identical inputs always reproduce.
    The 2d probes are one capped program with 2d objectives, so phase 1
    runs once, not once per probe (see :func:`_capped_probes`).
    """
    directions = [sign * row for row in basis for sign in (-1.0, 1.0)]
    solutions = _capped_probes(vertex_sets, point, basis, cap, directions)
    return np.mean([point + basis @ s for s in solutions], axis=0)


def hull_fit(K: Polytope, x) -> tuple[float, np.ndarray]:
    """Best max-abs deviation between x and the hull, plus achieving weights.

    The deviation LP with an empty basis: t = 0 (up to arithmetic) iff x
    is in the hull.  It is posed for the shifted vertices V - x against the
    point 0, the same program because the weights sum to 1.  With x on
    the right-hand side instead, the simplex reported a false unbounded
    phase 1, or a positive deviation, for some points of a hull that
    spans only 2e-8 in one coordinate (pinned in the tests).
    """
    point = as_vector(x, K.dim)
    deviation, _, weights = deviation_fit(
        [K.vertices - point], np.zeros(K.dim), np.zeros((K.dim, 0))
    )
    return deviation, weights


def hull_gap(K: Polytope, x, tol: float) -> tuple[float, bool]:
    """Max-abs gap from x to the hull, exact wherever it exceeds tol.

    First x is matched against the vertex list: when some vertex lies
    within tol of x (max-abs), that gap is returned and no LP is solved.
    It bounds the hull distance from above, so x is within tol of K.
    Otherwise the gap is the hull distance from :func:`hull_fit`.  Either
    way gap <= tol iff the hull distance is, and a gap above tol is the
    hull distance itself.
    Returns (gap, matched), matched True when the vertex match settled it.
    """
    point = as_vector(x, K.dim)
    nearest = float(np.abs(K.vertices - point).max(axis=1).min())
    if nearest <= tol:
        return nearest, True
    return hull_fit(K, point)[0], False


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
    for K in sets:
        if K.dim != d:
            raise DimensionMismatchError("polytopes have mixed dims")
    deviation, point, _ = deviation_fit([K.vertices for K in sets], np.zeros(d), np.eye(d))
    return None if deviation > tol else point
