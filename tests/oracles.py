"""Independent oracles used to cross-check the library.

These deliberately avoid the library's own LP core: scipy's interior-point
or HiGHS solver for the brute extension problems, numpy's eigensolver for
stationary distributions.  Keeping both routes alive is the point; a bug
in the in-house simplex cannot hide behind itself.  The extension's
constraint set has a plain reference too, one lstsq per facet combination,
which the library's batched screen must match bit for bit, and a HiGHS
test of whether dual-ball facets share a face, which its prune must match.
The semigroup layer's stacked passes have their plain loops here too: the
invariance pass one vertex image at a time, the normal relation one
generator pair at a time on a fixed set from scipy's ``null_space``, and
word enumeration one candidate word at a time against every word kept so
far.
"""
import itertools

import numpy as np
from scipy.linalg import lstsq, null_space
from scipy.optimize import linprog

from fixmk import NormKind, semigroup
from fixmk.errors import EnumerationCapError
from fixmk.extension import INVARIANT_TOL
from fixmk.geometry import AffineMap, affine_compose, hull_gap
from fixmk.semigroup import Leaf, flatten


def flatten_map(m):
    """Entries of matrix and offset as one flat vector (row-major)."""
    return np.concatenate([m.matrix.ravel(), m.offset])


def map_deviation(f, g):
    """Max entrywise deviation between two maps, matrix and offset."""
    return float(np.abs(flatten_map(f) - flatten_map(g)).max())


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


def hull_distance(V, x, feasibility_tol=1e-7):
    """Max-abs distance from x to the hull of the rows of V, by HiGHS.

    Variables (lam, t): minimize t  s.t.  -t <= V^T lam - x <= t,
    sum(lam) = 1, lam >= 0.  HiGHS reads a distance below its primal and
    dual feasibility tolerance (1e-7 by default) of the data's size as 0.
    """
    V = np.asarray(V, dtype=float)
    k, d = V.shape
    c = np.append(np.zeros(k), 1.0)
    ones = np.ones((d, 1))
    A_ub = np.block([[V.T, -ones], [-V.T, -ones]])
    b_ub = np.concatenate([x, -np.asarray(x, dtype=float)])
    A_eq = np.append(np.ones(k), 0.0)[None, :]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs",
                  options={"primal_feasibility_tolerance": feasibility_tol,
                           "dual_feasibility_tolerance": feasibility_tol})
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


def invariance_loop(labeled, K, tol):
    """The invariance pass, one vertex image at a time through ``hull_gap``.

    Returns ([(kind, witness, residual)], matched): the not-invariant
    failures, each residual the worst gap of its generator, and how many
    vertex-generator pairs the vertex match settled without an LP.
    """
    failures, matched = [], 0
    for label, g in labeled:
        worst = 0.0
        for v in K.vertices:
            gap, hit = hull_gap(K, g(v), tol)
            worst = max(worst, gap)
            matched += hit
        if worst > tol:
            failures.append(("not-invariant", (label,), worst))
    return failures, matched


def fixed_set(maps):
    """Common fixed set of the maps as (p, Z), p + span(Z columns), by scipy; None when empty."""
    d = maps[0].dim
    M = np.vstack([m.matrix - np.eye(d) for m in maps])
    rhs = np.concatenate([-m.offset for m in maps])
    p = lstsq(M, rhs)[0]
    if np.abs(M @ p - rhs).max() > 1e-9 * (1.0 + np.abs(rhs).max()):
        return None
    return p, null_space(M)


def fix_residual(fixed, h, g):
    """How far h moves g(Fix): max |h(g p) - g p| and |A_h A_g Z - A_g Z|, 0 for an empty Fix."""
    if fixed is None:
        return 0.0
    p, Z = fixed
    gp, gz = g(p), g.matrix @ Z
    return max(np.abs(h(gp) - gp).max(), np.abs(h.matrix @ gz - gz).max(initial=0.0))


def word_residual(words, h, g):
    """The word search that validation used to run: min over words w of N of |h.g - g.w|."""
    target = affine_compose(h, g)
    return min(map_deviation(target, affine_compose(g, w)) for w in words)


def relation_loop(node, tol, word_budget=None):
    """validate_relations one generator pair at a time: (depth, [(kind, witness, residual)]).

    Labeled as ``flatten`` labels the tree.  The normal relation is
    :func:`fix_residual` on each pair; given a ``word_budget`` it is
    :func:`word_residual` over the words up to that length instead, the
    stronger condition the word search checked.
    """
    def relations(n, first):
        labeled = flatten(n, first)
        if isinstance(n, Leaf):
            failures = []
            for i, (la, a) in enumerate(labeled):
                for lb, b in labeled[i + 1:]:
                    dev = map_deviation(affine_compose(a, b), affine_compose(b, a))
                    if dev > semigroup.DEFAULT_ABELIAN_TOL:
                        failures.append(("non-commuting-pair", (la, lb), dev))
            return 1, failures
        left_depth, left = relations(n.normal, first)
        right_depth, right = relations(n.quotient, first + len(flatten(n.normal)))
        h_gens = [(f"normal:{l}", m) for l, m in flatten(n.normal, first)]
        g_gens = [(f"quotient:{l}", m) for l, m in labeled[len(h_gens):]]
        words = None if word_budget is None else words_loop(n.normal, word_budget)
        fixed = fixed_set([m for _, m in h_gens]) if words is None else None
        normal = []
        for hl, h in h_gens:
            for gl, g in g_gens:
                best = fix_residual(fixed, h, g) if words is None else word_residual(words, h, g)
                if best > tol:
                    normal.append(("normal-relation", (hl, gl), best))
        return 1 + max(left_depth, right_depth), left + right + normal

    return relations(node, 0)


def validation_loop(node, K, tol, word_budget=None):
    """validate_structure one generator pair and vertex at a time.

    Returns (depth, [(kind, witness, residual)], matched): the failures of
    :func:`relation_loop`, then of :func:`invariance_loop`, and its matched.
    """
    depth, failures = relation_loop(node, tol, word_budget)
    invariance, matched = invariance_loop(flatten(node), K, tol)
    return depth, failures + invariance, matched


def words_loop(node, max_word_length):
    """Distinct words up to the length, each candidate against every kept word.

    Breadth first, candidates in order (frontier word, then generator),
    dropped when some kept word is within ``semigroup._DEDUP_TOL``
    entrywise; ``EnumerationCapError`` past ``semigroup.DEFAULT_ELEMENT_CAP``.
    """
    gens = [m for _, m in flatten(node)]
    identity = AffineMap.identity(node.dim)
    elements, flat, frontier = [identity], [flatten_map(identity)], [identity]
    for _ in range(max_word_length):
        fresh = []
        for w in frontier:
            for g in gens:
                cand = affine_compose(w, g)
                fc = flatten_map(cand)
                if np.abs(np.asarray(flat) - fc).max(axis=1).min() <= semigroup._DEDUP_TOL:
                    continue
                if len(elements) >= semigroup.DEFAULT_ELEMENT_CAP:
                    raise EnumerationCapError(semigroup.DEFAULT_ELEMENT_CAP)
                elements.append(cand)
                flat.append(fc)
                fresh.append(cand)
        if not fresh:
            break
        frontier = fresh
    return elements
