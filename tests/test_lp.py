import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import fixture_paths
from fixmk.geometry import _deviation_lp, polytope_image
from fixmk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from fixmk.schema import load_problem
from fixmk.semigroup import flatten
from fixmk.solver import _sample_family, common_fixed_subspace


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
    res = solve_lp(np.zeros(1), A, b)
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x1 with only x1 - x2 = 0: x1 can grow forever
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_lp(np.array([-1.0, 0.0]), A, b)
    assert res.status == UNBOUNDED


def test_negative_rhs_handled():
    # -x1 = -3 flips to x1 = 3
    A = np.array([[-1.0]])
    b = np.array([-3.0])
    res = solve_lp(np.array([1.0]), A, b)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(3.0)


def test_redundant_rows_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(np.array([1.0, 0.0]), A, b)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0)


def test_degenerate_does_not_cycle():
    # classic degeneracy: duplicate constraints meeting at a vertex
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b)  # Beale's cycling example; Bland terminates
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.05)


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_programs(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 5), rng.integers(4, 9)
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b = A @ x_feas  # guarantees feasibility
    c = rng.normal(size=n)
    ours = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
    if ours.status == OPTIMAL:
        assert ref.success
        assert ours.value == pytest.approx(ref.fun, abs=1e-8)
        np.testing.assert_allclose(A @ ours.x, b, atol=1e-9)
        assert np.all(ours.x >= -1e-12)
    else:
        assert ours.status == UNBOUNDED
        assert ref.status == 3  # scipy's unbounded code


def _solve_fixtures():
    return [load_problem(p) for p in fixture_paths("solve")]


def _hull_fit_programs():
    """hull fit of every generator's image of every vertex, per solve fixture."""
    for pf in _solve_fixtures():
        K = pf.payload.polytope
        for _, g in flatten(pf.payload.node):
            for v in K.vertices:
                yield _deviation_lp([K.vertices], g(v), np.zeros((K.dim, 0)))


def _subspace_fit_programs():
    """each solve fixture's common fixed subspace against its polytope."""
    for pf in _solve_fixtures():
        sub = common_fixed_subspace(pf.payload.node)
        if sub is not None:
            yield _deviation_lp([pf.payload.polytope.vertices], sub.point, sub.basis)


def _fip_programs():
    """the sampled cof images of each fip fixture, seeds 0-19, as one J-set LP."""
    for path in fixture_paths("fip"):
        pf = load_problem(path)
        p = pf.payload
        for seed in range(20):
            rng = np.random.default_rng(seed)
            maps = _sample_family(p.node, p.family, p.sample_count, rng, pf.options.word_budget)
            images = [polytope_image(m, p.polytope).vertices for m in maps]
            yield _deviation_lp(images, np.zeros(p.polytope.dim), np.eye(p.polytope.dim))


@pytest.mark.parametrize(
    "programs", [_hull_fit_programs, _subspace_fit_programs, _fip_programs],
    ids=["hull-fit", "subspace-fit", "fip-images"],
)
def test_deviation_lp_matches_highs_on_corpus_shapes(programs):
    count = 0
    for A, b, (_, _, t) in programs():
        c = np.zeros(A.shape[1])
        c[t] = 1.0
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1], method="highs")
        assert ref.success and ours.status == OPTIMAL
        assert ours.value == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(A @ ours.x, b, atol=1e-9)
        count += 1
    assert count > 0
