"""Dense two-phase simplex for small linear programs.

Solves  minimize c @ x  subject to  A @ x = b,  x >= 0  on dense arrays.

* Crash basis: a column that is a positive unit vector in row i (after
  scaling row i, or negating it when b_i = 0) starts basic in that row,
  so slack-like columns need no artificial variable.  Only the rows left
  without one get an artificial, and phase 1 minimizes the sum of those.
* Pricing: Dantzig's rule, the most negative reduced cost enters (lowest
  index on ties).  After ``_BLAND_AFTER`` degenerate pivots in a row
  (step <= tol) the entering rule falls back to Bland's (lowest eligible
  index) until a pivot makes progress.  The objective falls at every
  nondegenerate pivot and Bland's rule cannot cycle through degenerate
  ones, so every solve terminates.  Ties in the ratio test break toward
  the lowest basis index.
* Artificial variables never re-enter the basis.

No step draws on randomness or on the order of a hash, so every solve is
deterministic.  Intended for desk-scale problems (hundreds of columns),
where a self-contained deterministic core beats calling out to a big
solver.  Numerical trouble (the iteration limit, an unbounded phase 1)
raises :class:`fixmk.errors.NumericalError`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_ITER = 50_000
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule takes over


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, n_enterable: int, tol: float) -> str:
    """Run simplex pivots until optimal or unbounded."""
    m = T.shape[0] - 1
    stalled = 0  # degenerate pivots in a row
    for _ in range(_MAX_ITER):
        costs = T[m, :n_enterable]
        negative = np.flatnonzero(costs < -tol)
        if negative.size == 0:
            return OPTIMAL
        if stalled < _BLAND_AFTER:  # Dantzig: most negative, lowest index on ties
            col = int(negative[np.argmin(costs[negative])])
        else:  # Bland: smallest index enters
            col = int(negative[0])
        positive = np.where(T[:m, col] > tol)[0]
        if positive.size == 0:
            if T[m, col] < -1e3 * tol:
                return UNBOUNDED
            # cost this close to zero on a pivotless column is round-off
            # noise at the optimality boundary, not an unbounded ray
            T[m, col] = 0.0
            continue
        ratios = T[positive, -1] / T[positive, col]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-9 * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])  # smallest basis index leaves
        stalled = stalled + 1 if best <= tol else 0
        _pivot(T, basis, row, col)
    raise NumericalError("simplex iteration limit exceeded")


def solve_lp(c, A, b, *, tol: float = 1e-9) -> LPResult:
    """Minimize ``c @ x`` over ``A @ x = b, x >= 0``.

    Returns an :class:`LPResult`; ``x`` is a basic solution when the status
    is ``optimal``.  Infeasibility is decided by the phase-1 objective
    exceeding ``tol``.
    """
    A = np.array(A, dtype=float, copy=True)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D array")
    b = np.array(b, dtype=float, copy=True)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("c, A, b shapes are inconsistent")

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

    status = _iterate(T, basis, n, tol)
    if status == UNBOUNDED:  # sum of artificials is bounded below by 0
        raise NumericalError("phase-1 objective reported unbounded")
    if -T[m, -1] > tol:
        return LPResult(INFEASIBLE)

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        if abs(T[i, -1]) <= tol:
            T[i, -1] = 0.0
        candidates = np.where(np.abs(T[i, :n]) > tol)[0]
        if candidates.size:
            _pivot(T, basis, i, int(candidates[0]))
            keep.append(i)
        # else: the row is 0 = 0, redundant
    if len(keep) < m:
        T = np.vstack([T[keep], T[-1:]])
        basis = basis[keep]
        m = len(keep)

    # phase 2 on the original objective, artificial columns dropped
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[m, :n] = c
    T[m, -1] = 0.0
    for i in range(m):
        coeff = T[m, basis[i]]
        if coeff != 0.0:
            T[m, :] -= coeff * T[i, :]

    status = _iterate(T, basis, n, tol)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return LPResult(OPTIMAL, x, float(c @ x))
