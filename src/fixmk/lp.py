"""Dense two-phase simplex for small linear programs.

Solves  minimize c @ x  subject to  A @ x = b,  x >= 0  on dense arrays.

* Crash basis: a column that is a positive unit vector in row i (after
  scaling row i, or negating it when b_i = 0) starts basic in that row,
  so slack-like columns need no artificial variable.  Only the rows left
  without one get an artificial, and phase 1 minimizes the sum of those.
* Pricing: Dantzig's rule, the most negative reduced cost enters (lowest
  index on ties), found by one ``argmin`` over the cost row per step.
  After ``_BLAND_AFTER`` degenerate pivots in a row (step <= ``_TOL``), and
  only then, the entering rule scans for Bland's (lowest eligible index)
  until a pivot makes progress.  The objective falls at every
  nondegenerate pivot and Bland's rule cannot cycle through degenerate
  ones, so every solve terminates.  Ties in the ratio test break toward
  the lowest basis index.  Each pivot updates the tableau with one
  broadcast rank-1 subtraction.
* Artificial variables never re-enter the basis.

One absolute tolerance, ``_TOL`` = 1e-9, bounds entering costs, pivot
entries, degenerate steps and the phase-1 optimum of a feasible program.
No step draws on randomness or on the order of a hash, so every solve is
deterministic.  Intended for desk-scale problems (hundreds of columns),
where a self-contained deterministic core beats calling out to a big
solver.

Contract: :func:`solve_lp` returns an optimum or raises
:class:`fixmk.errors.NumericalError`.  That suffices because fixmk poses
only deviation LPs (:func:`fixmk.geometry._deviation_lp`): each has
b >= 0, a feasible point at any large enough t (and a cap only where it
is met), an objective bounded below, and full row rank, as its slack
columns and one weight column per set form a nonsingular square block;
on a validated tree the theorem even puts a fixed-set or FIP fit's
optimum at t = 0.  So an infeasible, unbounded or redundant verdict is
round-off and raises, as do a ray in phase 1, the iteration limit, a NaN
or infinity in c, A or b (``argmin`` would take a NaN reduced cost for
optimal), and an optimal ``x`` or value that is not finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

OPTIMAL = "optimal"  # the one status: the benchmark's tracer reads it

_MAX_ITER = 50_000
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule takes over
_TOL = 1e-9  # pivot, ratio-step and phase-1 feasibility tolerance


@dataclass
class LPResult:
    status: str
    x: np.ndarray
    value: float


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, n_enterable: int, ray: str) -> None:
    """Run simplex pivots until optimal; an unbounded ray raises NumericalError(ray)."""
    m = T.shape[0] - 1
    costs, rhs = T[m, :n_enterable], T[:m, -1]  # views: pivots update them in place
    stalled = 0  # degenerate pivots in a row
    for _ in range(_MAX_ITER):
        col = int(costs.argmin())  # Dantzig: most negative, lowest index on ties
        if not costs[col] < -_TOL:
            return
        if stalled >= _BLAND_AFTER:  # Bland: smallest eligible index enters
            col = int((costs < -_TOL).argmax())
        column = T[:m, col]
        positive = (column > _TOL).nonzero()[0]
        if positive.size == 0:
            if costs[col] < -1e3 * _TOL:
                raise NumericalError(ray)
            # cost this close to zero on a pivotless column is round-off
            # noise at the optimality boundary, not an unbounded ray
            costs[col] = 0.0
            continue
        ratios = rhs[positive] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-9 * (1.0 + abs(best))]
        # smallest basis index leaves
        row = int(ties[0]) if ties.size == 1 else int(ties[basis[ties].argmin()])
        stalled = stalled + 1 if best <= _TOL else 0
        _pivot(T, basis, row, col)
    raise NumericalError("simplex iteration limit exceeded")


def _phase1(A: np.ndarray, b: np.ndarray):
    """Crash basis, phase 1 and artificial drive-out for ``A @ x = b, x >= 0``.

    Works on A and b in place.  Returns (T, basis), T the tableau of a
    feasible basis without the artificial columns, its last row free for
    an objective; raises NumericalError on a phase-1 optimum above
    ``_TOL`` or an artificial that cannot leave its row.
    """
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # crash basis: a column whose one nonzero is positive, or lies in a row
    # with b = 0 (which may be negated), starts basic in that row once the
    # row is scaled to make it 1; the first such column per row wins
    nonzero = A != 0.0
    unit = nonzero & (nonzero.sum(axis=0) == 1) & ((A > 0.0) | (b == 0.0)[:, None])
    rows, cols = np.nonzero(unit)  # row-major: each row's first column leads
    first = np.diff(rows, prepend=-1) > 0
    rows, cols = rows[first], cols[first]
    scale = A[rows, cols]
    A[rows] /= scale[:, None]
    b[rows] /= scale
    basis = np.full(m, -1)
    basis[rows] = cols

    # phase 1: minimize the sum of one artificial variable per row left
    # without a basic column
    bare = np.flatnonzero(basis < 0)
    artificial = n + np.arange(bare.size)
    T = np.zeros((m + 1, n + bare.size + 1))
    T[:m, :n] = A
    T[bare, artificial] = 1.0
    T[:m, -1] = b
    T[m, :n] = -A[bare].sum(axis=0)
    T[m, -1] = -b[bare].sum()
    basis[bare] = artificial

    _iterate(T, basis, n, "phase-1 objective reported unbounded")  # a sum of artificials is >= 0
    if -T[m, -1] > _TOL:
        raise NumericalError(f"LP unexpectedly infeasible (phase-1 optimum {-T[m, -1]:.3e})")

    # drive remaining artificials out of the basis
    for i in np.flatnonzero(basis >= n):
        if abs(T[i, -1]) <= _TOL:
            T[i, -1] = 0.0
        candidates = np.flatnonzero(np.abs(T[i, :n]) > _TOL)
        if not candidates.size:  # the row is 0 = 0
            raise NumericalError("LP unexpectedly has a redundant row")
        _pivot(T, basis, i, int(candidates[0]))
    return np.hstack([T[:, :n], T[:, -1:]]), basis


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray) -> LPResult:
    """Minimize ``c @ x`` from the feasible basis of :func:`_phase1`, in place."""
    m, n = T.shape[0] - 1, T.shape[1] - 1
    T[m, :n] = c
    T[m, -1] = 0.0
    # basic columns are exact unit vectors, so pricing out one row leaves
    # every other basic cost as it was: read them all up front
    coeffs = c[basis]
    for i in np.flatnonzero(coeffs):
        T[m] -= coeffs[i] * T[i]

    _iterate(T, basis, n, "LP unexpectedly unbounded")
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    value = float(c @ x)
    if not (np.isfinite(x).all() and np.isfinite(value)):
        raise NumericalError("LP solution has non-finite entries")
    return LPResult(OPTIMAL, x, value)


def solve_lp(c, A, b) -> LPResult:
    """Minimize ``c @ x`` over ``A @ x = b, x >= 0``.

    Returns the optimum as ``LPResult(OPTIMAL, x, value)``, ``x`` a basic
    solution, or raises NumericalError: every program fixmk poses is
    feasible, bounded and of full row rank (see the module docstring), so
    a phase-1 optimum above ``_TOL``, an unbounded ray or a redundant row
    can only be round-off.
    """
    A = np.array(A, dtype=float, copy=True)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D array")
    b = np.array(b, dtype=float, copy=True)
    c = np.asarray(c, dtype=float)
    if b.shape != A.shape[:1] or c.shape != A.shape[1:]:
        raise ValueError("c, A, b shapes are inconsistent")
    # argmin pricing would read a NaN reduced cost as optimal
    for name, data in (("A", A), ("b", b), ("c", c)):
        if not np.isfinite(data).all():
            raise NumericalError(f"LP data {name} has non-finite entries")

    return _phase2(*_phase1(A, b), c)

