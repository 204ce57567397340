import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import FIXTURES, fixture_paths
from fixmk import AffineMap, Leaf, NormKind, NormSpec, NumericalError, Polytope, geometry, lp
from fixmk.extension import ExtensionProblem, subspace_norm
from fixmk.geometry import _deviation_lp, polytope_images
from fixmk.lp import OPTIMAL, solve_lp
from fixmk.schema import load_problem
from fixmk.semigroup import flatten, validate_structure
from fixmk.solver import _sample_family, common_fixed_subspace, fip_check
from helpers import count_calls


def test_simple_optimum():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + s2 = 6
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = solve_lp(c, A, b)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-5.0)  # optimum at x = (3, 1)
    np.testing.assert_allclose(res.x[:2], [3.0, 1.0], atol=1e-9)


def test_infeasible():
    # x1 = 1 and x1 = 2 cannot both hold
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(NumericalError, match=r"LP unexpectedly infeasible \(phase-1 optimum 1\.000e\+00\)"):
        solve_lp(np.zeros(1), A, b)


def test_unbounded():
    # min -x1 with only x1 - x2 = 0: x1 can grow forever
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(NumericalError, match="LP unexpectedly unbounded"):
        solve_lp(np.array([-1.0, 0.0]), A, b)


def test_negative_rhs_handled():
    # -x1 = -3 flips to x1 = 3
    A = np.array([[-1.0]])
    b = np.array([-3.0])
    res = solve_lp(np.array([1.0]), A, b)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(3.0)


def test_redundant_row_raises():
    # the second row is twice the first: its artificial cannot leave the basis
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(NumericalError, match="LP unexpectedly has a redundant row"):
        solve_lp(np.array([1.0, 0.0]), A, b)


BEALE = (
    np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]),
    np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    ),
    np.array([0.0, 0.0, 1.0]),
)


def test_degenerate_does_not_cycle():
    res = solve_lp(*BEALE)  # Beale's cycling example; the Bland fallback terminates
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.05)


def test_non_finite_lp_data_raises_numerical_error():
    c, A, b = BEALE
    for name in ("c", "A", "b"):
        data = {"c": c.copy(), "A": A.copy(), "b": b.copy()}
        data[name].flat[1] = np.nan
        with pytest.raises(NumericalError, match=f"LP data {name} has non-finite entries"):
            solve_lp(data["c"], data["A"], data["b"])


def test_non_finite_solution_raises_numerical_error():
    # x = (1e308, 1e308) is finite, but its value c @ x overflows
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="LP solution has non-finite"):
        solve_lp(np.ones(2), np.eye(2), np.full(2, 1e308))


def _expected_pivot(T, basis, state):
    """The (row, col) the pricing rules pick on T, recomputed one entry at a time."""
    m, tol = T.shape[0] - 1, state["tol"]
    eligible = [j for j in range(state["n"]) if T[m, j] < -tol]
    if state["stalled"] < lp._BLAND_AFTER:  # Dantzig: most negative, lowest index on ties
        col = min(eligible, key=lambda j: (T[m, j], j))
    else:  # Bland: first eligible
        col = eligible[0]
        state["bland"] += 1
    ratios = {i: T[i, -1] / T[i, col] for i in range(m) if T[i, col] > tol}
    best = min(ratios.values())
    ties = [i for i, r in ratios.items() if r <= best + 1e-9 * (1.0 + abs(best))]
    state["stalled"] = state["stalled"] + 1 if best <= tol else 0
    return min(ties, key=lambda i: basis[i]), col


def check_pivot_rules(monkeypatch):
    """Assert, before each pricing pivot, that lp chose the pivot the rules give."""
    state = {"n": None, "tol": None, "stalled": 0, "checked": 0, "bland": 0}
    iterate, pivot = lp._iterate, lp._pivot

    def checked_iterate(T, basis, n_enterable, ray):
        state.update(n=n_enterable, tol=lp._TOL, stalled=0)
        try:
            return iterate(T, basis, n_enterable, ray)
        finally:
            state["n"] = None

    def checked_pivot(T, basis, row, col):
        if state["n"] is not None:  # the artificial drive-out follows no pricing rule
            assert (row, col) == _expected_pivot(T, basis, state)
            state["checked"] += 1
        pivot(T, basis, row, col)

    monkeypatch.setattr(lp, "_iterate", checked_iterate)
    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    return state


@pytest.mark.parametrize("case", ["beale", "hull-fit", "cyclic-fip"])
def test_pivots_follow_the_pricing_rules(case, monkeypatch):
    state = check_pivot_rules(monkeypatch)
    if case == "beale":
        assert solve_lp(*BEALE).status == OPTIMAL
        assert state["bland"] > 0
    else:
        programs = _hull_fit_programs() if case == "hull-fit" else _cyclic_fip_programs(dims=(6, 8))
        for c, A, b in _min_t(programs):
            assert solve_lp(c, A, b).status == OPTIMAL
    assert state["checked"] > 0


def test_iteration_limit_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    with pytest.raises(NumericalError, match="iteration limit") as info:
        solve_lp(c, A, np.array([4.0, 6.0]))
    assert isinstance(info.value, RuntimeError)


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_programs(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 5), rng.integers(4, 9)
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b = A @ x_feas  # guarantees feasibility
    c = rng.normal(size=n)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
    verdict = {2: "infeasible", 3: "unbounded"}.get(ref.status)  # scipy's codes
    if verdict is not None:
        with pytest.raises(NumericalError, match=f"LP unexpectedly {verdict}"):
            solve_lp(c, A, b)
    else:
        assert ref.success
        ours = solve_lp(c, A, b)
        assert ours.value == pytest.approx(ref.fun, abs=1e-8)
        np.testing.assert_allclose(A @ ours.x, b, atol=1e-9)
        assert np.all(ours.x >= -1e-12)


def _solve_fixtures():
    return [load_problem(p) for p in fixture_paths("solve")]


def _with_point(program, point):
    """A deviation LP with the point on the right-hand side: b holds (p_i, p_i) per coordinate."""
    A, b, columns = program
    blocks = A.shape[0] // (2 * point.shape[0] + 1)
    return A, np.tile(np.append(np.repeat(point, 2), 1.0), blocks), columns


def _min_t(programs):
    """(c, A, b) per deviation LP, with c minimizing t, as deviation_fit solves it."""
    for A, b, (_, _, t) in programs:
        c = np.zeros(A.shape[1])
        c[t] = 1.0
        yield c, A, b


def _hull_fit_programs():
    """hull fit of every generator's image of every vertex, per solve fixture.

    Each image comes as the program hull_fit solves (vertices shifted by
    the image, against the origin) and with the image on the right-hand side.
    """
    for pf in _solve_fixtures():
        K = pf.payload.polytope
        for _, g in flatten(pf.payload.node):
            for v in K.vertices:
                empty = np.zeros((K.dim, 0))
                yield _deviation_lp([K.vertices - g(v)], empty)
                yield _with_point(_deviation_lp([K.vertices], empty), g(v))


def _subspace_fit_programs():
    """each solve fixture's common fixed subspace against its polytope.

    Each comes as the program solve_exact solves (vertices shifted by the
    subspace's point, against the origin) and with the point on the
    right-hand side.
    """
    for pf in _solve_fixtures():
        sub = common_fixed_subspace(pf.payload.node)
        if sub is not None:
            V = pf.payload.polytope.vertices
            yield _deviation_lp([V - sub.point], sub.basis)
            yield _with_point(_deviation_lp([V], sub.basis), sub.point)


def _fip_programs():
    """the sampled cof images of each fip fixture, seeds 0-19, as one J-set LP."""
    for path in fixture_paths("fip"):
        pf = load_problem(path)
        p = pf.payload
        for seed in range(20):
            rng = np.random.default_rng(seed)
            maps = _sample_family(p.node, p.family, p.sample_count, rng, pf.options.word_budget)
            images = [image.vertices for image in polytope_images(*maps, p.polytope)]
            yield _deviation_lp(images, np.eye(p.polytope.dim))


def _cyclic_fip_programs(dims=range(4, 13), seeds=range(10)):
    """fip_check's LP for the cyclic shift C_d on the standard simplex.

    Five sampled cof images, word budget 2, as one J-set LP; at d >= 6
    Bland's rule from an all-artificial basis pivoted thousands of times
    here and ended on wrong answers.
    """
    for d in dims:
        node = Leaf((AffineMap.linear(np.roll(np.eye(d), 1, axis=0)),))
        K = Polytope.standard_simplex(d)
        for seed in seeds:
            maps = _sample_family(node, "cof", 5, np.random.default_rng(seed), 2)
            images = [image.vertices for image in polytope_images(*maps, K)]
            yield _deviation_lp(images, np.eye(d))


def _framed_programs():
    """(c, A, b) of every LP the library solves on far or small data, framed as it poses them.

    The hull fits of [-1,1]^2 translated by 1e9, 1e12 and 1e300; fip_check of
    C_3 on the standard simplex translated by (1e6, 1e6, 1e6); the capped
    deviation LP of subspace_norm for g in {1e-9, 1e-12, 1e-200} on
    span(1, 1) and for the basis (1e-9, 1e-9), in both norms; and the
    invariance hull fits of centered_box_contraction with its coordinates
    scaled by 1e6.
    """
    programs = []
    solve = geometry.solve_lp
    square = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    c3 = Leaf((AffineMap.linear(np.roll(np.eye(3), 1, axis=0)),))
    box = load_problem(FIXTURES / "solve" / "centered_box_contraction.json").payload
    box_maps = [AffineMap(g.matrix, 1e6 * g.offset) for _, g in flatten(box.node)]
    extensions = [([[1.0, 1.0]], [g]) for g in (1e-9, 1e-12, 1e-200)] + [([[1e-9, 1e-9]], [1e-9])]
    swap = Leaf((AffineMap.linear([[0.0, 1.0], [1.0, 0.0]]),))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "solve_lp", lambda c, A, b: programs.append((c, A, b)) or solve(c, A, b))
        for shift in (1e9, 1e12, 1e300):
            for v in square.vertices:
                geometry.hull_fit(square, v + [shift, 0.0])
        assert fip_check(c3, Polytope(np.eye(3) + 1e6), 5).feasible
        for kind, (basis, g) in itertools.product(NormKind, extensions):
            assert subspace_norm(ExtensionProblem(2, NormSpec(kind, 2), basis, g, swap)) > 0.0
        validate_structure(Leaf(tuple(box_maps)), Polytope(1e6 * box.polytope.vertices))
    return programs


def _vertex_set(rng, kind, d):
    """A random, repeated (one vertex several times among others) or flat (one coordinate fixed) set."""
    V = rng.normal(size=(int(rng.integers(1, d + 3)), d))
    if kind == "repeated":
        V = np.vstack([V, np.repeat(V[:1], 3, axis=0)])
    elif kind == "flat":
        V[:, rng.integers(d)] = rng.normal()
    return V


@pytest.mark.parametrize("J", range(1, 7))
def test_every_deviation_lp_has_full_row_rank_and_nonnegative_b(J):
    # what lets solve_lp raise on an infeasible, unbounded or redundant verdict: the u and w
    # slacks and one weight column per set (and the cap's slack) form a nonsingular square block
    rng = np.random.default_rng(J)
    for d, kind, capped in itertools.product(range(1, 9), ("random", "repeated", "flat"), (False, True)):
        for r in range(d + 1):
            sets = [_vertex_set(rng, kind, d) for _ in range(J)]
            A, b, _ = _deviation_lp(sets, rng.normal(size=(d, r)), rng.uniform(0.0, 2.0) if capped else None)
            assert np.linalg.matrix_rank(A) == A.shape[0], (d, r, kind, capped)
            assert b.min() >= 0.0


@pytest.mark.parametrize(
    "programs",
    [lambda: _min_t(_hull_fit_programs()), lambda: _min_t(_subspace_fit_programs()),
     lambda: _min_t(_fip_programs()), lambda: _min_t(_cyclic_fip_programs()), _framed_programs],
    ids=["hull-fit", "subspace-fit", "fip-images", "cyclic-fip", "framed"],
)
def test_deviation_lp_matches_highs_on_corpus_shapes(programs):
    count = 0
    for c, A, b in programs():
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1], method="highs")
        assert ref.success and ours.status == OPTIMAL
        assert ours.value == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(A @ ours.x, b, atol=1e-9)
        count += 1
    assert count > 0


@pytest.mark.xfail(raises=NumericalError, strict=True,
                   reason="phase 1 pivots on an entry of 7.2e-9 and its basis turns singular")
def test_early_blands_rule_solves_the_cyclic_fip_program(monkeypatch):
    # C_8 on the simplex, seed 0 (85 x 137): with Bland's rule after 5 degenerate pivots, phase 1
    # reads a ray in its cost row; re-pricing that row from the artificial rows clears the ray
    # but ends on a wrong optimum (1.19e-5 for HiGHS's 0, |Ax - b| 4.7e-5), as the tableau drifted too
    monkeypatch.setattr(lp, "_BLAND_AFTER", 5)
    ((c, A, b),) = _min_t(_cyclic_fip_programs(dims=(8,), seeds=(0,)))
    ours = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1], method="highs")
    assert ours.status == OPTIMAL and ours.value == pytest.approx(ref.fun, abs=1e-9)


def test_cyclic_fip_programs_stay_within_pivot_budget(monkeypatch):
    pivots = count_calls(monkeypatch, lp, "_pivot")
    programs = list(_min_t(_cyclic_fip_programs(dims=(8,))))
    for c, A, b in programs:
        assert solve_lp(c, A, b).status == OPTIMAL
    assert len(pivots) / len(programs) <= 300

