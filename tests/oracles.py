"""Independent oracles used to cross-check the library.

These deliberately avoid the library's own LP core: scipy's interior-point
or HiGHS solver for the brute extension problems, numpy's eigensolver for
stationary distributions.  Keeping both routes alive is the point; a bug
in the in-house simplex cannot hide behind itself.  The extension's
constraint set has a plain reference too, one lstsq per facet combination,
which the library's batched screen must match bit for bit, and a HiGHS
test of whether dual-ball facets share a face, which its prune must match.
"""
import itertools

import numpy as np
from scipy.optimize import linprog

from fixmk import NormKind
from fixmk.extension import INVARIANT_TOL
from fixmk.semigroup import flatten


def stationary_distribution(P):
    """Left eigenvector of P for eigenvalue 1, normalized to a distribution."""
    w, v = np.linalg.eig(np.asarray(P, dtype=float).T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, i])
    return pi / pi.sum()


def brute_min_dual_norm(problem):
    """Directly minimize the dual norm over all invariant extensions of g.

    Linear program over the functional coefficients lam:
    minimize ||lam||_dual  s.t.  Y lam = g  and  (T^t - I) lam = 0 per operator.
    Returns (optimal norm, optimizer).
    """
    n = problem.dim
    Y = problem.subspace_basis
    g = problem.functional_on_subspace
    eqs = [Y] if Y.shape[0] else []
    rhs = [g] if Y.shape[0] else []
    for _, op in flatten(problem.operators):
        eqs.append(op.matrix.T - np.eye(n))
        rhs.append(np.zeros(n))
    A_eq = np.vstack(eqs)
    b_eq = np.concatenate(rhs)

    if problem.norm.kind is NormKind.MAX_ABS:
        # dual norm is l1: lam split against u >= |lam|
        c = np.concatenate([np.zeros(n), np.ones(n)])
        A_ub = np.block(
            [[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]]
        )
        b_ub = np.zeros(2 * n)
        A_eq_full = np.hstack([A_eq, np.zeros((A_eq.shape[0], n))])
    else:
        # dual norm is max-abs: single bound t
        c = np.concatenate([np.zeros(n), [1.0]])
        A_ub = np.block(
            [[np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))]]
        )
        b_ub = np.zeros(2 * n)
        A_eq_full = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])

    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq_full, b_eq=b_eq,
        bounds=[(None, None)] * len(c), method="highs",
    )
    if not res.success:
        raise RuntimeError(f"brute extension LP failed: {res.message}")
    return res.fun, res.x[:n]


def hull_distance(V, x):
    """Max-abs distance from x to the hull of the rows of V, by HiGHS.

    Variables (lam, t): minimize t  s.t.  -t <= V^T lam - x <= t,
    sum(lam) = 1, lam >= 0.
    """
    V = np.asarray(V, dtype=float)
    k, d = V.shape
    c = np.append(np.zeros(k), 1.0)
    ones = np.ones((d, 1))
    A_ub = np.block([[V.T, -ones], [-V.T, -ones]])
    b_ub = np.concatenate([x, -np.asarray(x, dtype=float)])
    A_eq = np.append(np.ones(k), 0.0)[None, :]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"hull distance LP failed: {res.message}")
    return res.fun


def constraint_set_vertices(problem):
    """Vertices of the extension's constraint set, one lstsq per facet combination.

    The unscreened loop: every combination of n - rank dual-ball facets
    with the equality slice is solved by least squares and kept when it
    has full rank, a residual and a dual norm within INVARIANT_TOL, and no
    kept vertex within INVARIANT_TOL.  Returns the vertices sorted
    lexicographically, as an array (0 rows when there are none).
    """
    n = problem.dim
    dual = problem.norm.dual()
    C = problem.subspace_basis
    d = problem.functional_on_subspace
    rank = np.linalg.matrix_rank(C) if C.shape[0] else 0
    facets = problem.norm.unit_ball().vertices
    need = n - rank

    candidates = []
    for combo in itertools.combinations(range(len(facets)), need):
        M = np.vstack([C, facets[list(combo)]]) if C.shape[0] else facets[list(combo)]
        rhs = np.concatenate([d, np.ones(need)])
        sol, _, rank_M, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if rank_M < n:
            continue
        if np.max(np.abs(M @ sol - rhs)) > INVARIANT_TOL:
            continue
        if dual.value(sol) > 1.0 + INVARIANT_TOL:
            continue
        candidates.append(sol)

    vertices = []
    for v in candidates:
        if all(np.max(np.abs(v - u)) > INVARIANT_TOL for u in vertices):
            vertices.append(v)
    arr = np.array(vertices).reshape(-1, n)
    return arr[np.lexsort(arr.T[::-1])]


def facets_share_face(norm, facets):
    """Whether the dual-ball facets {L : a.L <= 1}, a a row of ``facets``, meet, by HiGHS.

    Feasibility LP for x with ||x||_dual <= 1 and a.x = 1 for every row a.
    The l1 dual ball is lifted to u >= x, u >= -x, sum(u) <= 1; the max-abs
    dual ball is the bounds -1 <= x <= 1.
    """
    facets = np.asarray(facets, dtype=float)
    m, n = facets.shape
    if norm.kind is NormKind.MAX_ABS:  # dual norm l1: variables (x, u)
        eye = np.eye(n)
        A_ub = np.block([[eye, -eye], [-eye, -eye], [np.zeros((1, n)), np.ones((1, n))]])
        b_ub = np.append(np.zeros(2 * n), 1.0)
        A_eq = np.hstack([facets, np.zeros((m, n))])
        bounds = [(None, None)] * n + [(0, None)] * n
    else:  # dual norm max-abs
        A_ub, b_ub, A_eq, bounds = None, None, facets, [(-1.0, 1.0)] * n
    res = linprog(np.zeros(A_eq.shape[1]), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(m),
                  bounds=bounds, method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"face LP failed: {res.message}")
    return res.status == 0
