import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixmk import cli, geometry, solver
from fixmk import (
    AffineMap,
    EmptyFixedSetError,
    Leaf,
    NotConvergedError,
    NumericalError,
    Polytope,
    Product,
    StartOutsidePolytopeError,
    averaging_operator,
    affine_compose,
    common_fixed_subspace,
    contains,
    convex_combination,
    cross_check,
    diameter,
    feasible_point,
    fip_check,
    residual,
    solve_cesaro,
    solve_exact,
    validate_structure,
)
from fixmk.geometry import polytope_images
from fixmk.schema import load_problem
from fixmk.schema import Options, ProblemFile, SolvePayload
from fixmk.semigroup import flatten
from fixmk.solver import DEFAULT_TOL, _sample_family
from conftest import FIXTURES, fixture_paths
from helpers import (
    commuting_contractions, count_calls, cube, dihedral_node, enumerate_elements, ladder_entries, markov_node,
    polygon_dihedral, polytope_image, reflect_x, rot90, signed_permutations, square, unit_square,
)
from oracles import hull_distance, map_deviation
from oracles import stationary_distribution


# --- averaging_operator ----------------------------------------------------

def test_averaging_identity_leaf():
    node = Leaf((AffineMap.identity(2),))
    for n in (1, 4, 1024):
        assert map_deviation(averaging_operator(node, n), AffineMap.identity(2)) == 0.0


def test_averaging_rotation_collapses_at_four():
    op = averaging_operator(Leaf((rot90(),)), 4)
    assert np.abs(op.matrix).max() <= 1e-15 and np.abs(op.offset).max() <= 1e-15


def test_averaging_product_matches_hand_expansion():
    # the quotient's average after the normal one, the layered proof's order
    op = averaging_operator(dihedral_node(), 2)
    R, S, I = rot90().matrix, reflect_x().matrix, np.eye(2)
    expected = ((I + S) / 2) @ ((I + R) / 2)
    np.testing.assert_allclose(op.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(op.offset, np.zeros(2), atol=1e-15)


# --- solve_cesaro ----------------------------------------------------------

def test_cesaro_identity_returns_start():
    node = Leaf((AffineMap.identity(2),))
    result = solve_cesaro(node, square(), [0.25, -0.5])
    np.testing.assert_allclose(result.point, [0.25, -0.5])
    assert result.max_residual == 0.0
    assert result.certificate.n_final == 1


def test_cesaro_rotation_to_origin():
    result = solve_cesaro(Leaf((rot90(),)), square(), [1.0, 1.0])
    np.testing.assert_allclose(result.point, [0.0, 0.0], atol=1e-12)
    assert result.method == "cesaro"


def test_cesaro_requires_start_inside():
    with pytest.raises(ValueError):
        solve_cesaro(Leaf((rot90(),)), square(), [3.0, 0.0])


def test_cesaro_start_check_at_vertex_and_just_outside(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    result = solve_cesaro(Leaf((rot90(),)), square(), [1.0, -1.0])
    np.testing.assert_allclose(result.point, [0.0, 0.0], atol=1e-12)
    assert calls == []  # the vertex match settles the start point
    with pytest.raises(ValueError):
        solve_cesaro(Leaf((rot90(),)), square(), [1.0 + 1e-6, 1.0])
    assert len(calls) == 1


def test_cesaro_residual_within_diameter_bound():
    node = markov_node()
    K = Polytope(np.eye(2))
    result = solve_cesaro(node, K, [1.0, 0.0], 1e-8, 2**40)
    assert result.certificate.diameter == diameter(K)
    for n, res in result.certificate.residual_history:
        # single-map stage obeys the 1/n law
        assert res <= result.certificate.diameter / n + 1e-9


def test_cesaro_rejects_depth_budget_below_one():
    with pytest.raises(ValueError, match="averaging depth must be >= 1"):
        solve_cesaro(Leaf((rot90(),)), square(), [0.0, 0.0], n_max=0)


def test_cesaro_not_converged_carries_best():
    with pytest.raises(NotConvergedError) as err:
        solve_cesaro(markov_node(), Polytope(np.eye(2)), [1.0, 0.0], 1e-10, 16)
    assert err.value.certificate.n_final == 16
    assert max(err.value.residuals.values()) < 0.1


def _about(matrix, center):
    """The linear map ``matrix`` moved to act about ``center``: x -> M (x - c) + c."""
    M, c = np.array(matrix), np.array(center)
    return AffineMap(M, c - M @ c)


@pytest.mark.parametrize("node, start", [
    (Leaf((AffineMap([[0.3, 0.2], [0.1, 0.6]], [0.1, -0.07]),)), [1.0, -1.0]),
    (markov_node(), [1.0, 0.0]),
    (Product(Leaf((_about(rot90().matrix, [0.3, 0.7]),)),
             Leaf((_about(reflect_x().matrix, [0.3, 0.7]),))), [0.9, 0.1]),
    (signed_permutations([2, 0, 5, 1, 3, 4]), [0.9, -0.4, 0.3, -0.8, 0.5, 0.1]),
], ids=["affine-leaf", "stochastic", "product", "signed-permutation-product-6"])
def test_schedule_points_are_the_averaging_operator_points_bit_for_bit(node, start):
    points = list(solver._schedule(node, np.array(start), 2**30))
    assert [n for n, _ in points] == [2**k for k in range(31)]
    for n, p in points:
        assert p.tobytes() == averaging_operator(node, n)(start).tobytes(), n


@pytest.mark.parametrize("node, depth", [
    (Leaf((AffineMap.linear(2 * np.eye(2)),)), 1024),
    (Leaf((AffineMap(2 * np.eye(2), [1e300, 0.0]),)), 32),
    # the quotient's matrix times the normal offset overflows at depth 256; each
    # factor's average alone overflows only at 512
    (Product(Leaf((AffineMap(2 * np.eye(2), [1e160, 0.0]),)), Leaf((AffineMap.linear(4 * np.eye(2)),))),
     256),
], ids=["matrix", "offset", "offset-before-matrix"])
def test_an_overflowing_depth_fails_as_its_averaging_operator_does(node, depth):
    # pytest makes any RuntimeWarning an error, so none may escape
    message = f"^averaging at depth {depth} overflows$"
    with pytest.raises(NumericalError, match=message):
        solve_cesaro(node, unit_square(), [0.5, 0.5], 1e-8, 2**40)
    points = solver._schedule(node, np.array([0.5, 0.5]), 2**40)
    assert [n for n, _ in itertools.islice(points, int(np.log2(depth)))][-1] == depth // 2
    with pytest.raises(NumericalError, match=message):
        next(points)
    with pytest.raises(NumericalError, match=message):
        averaging_operator(node, depth)


def _commuting_stochastic_pair():
    P = markov_node().generators[0].matrix
    return Leaf((AffineMap.linear(P), AffineMap.linear((np.eye(2) + P) / 2)))


@pytest.mark.parametrize("node, n_max", [
    (markov_node(), 2**40),
    (_commuting_stochastic_pair(), 2**40),
    (_commuting_stochastic_pair(), 16),  # not converged: no step past n_max
], ids=["one-generator", "two-generators", "not-converged"])
def test_cesaro_takes_log_n_doubling_steps_per_generator(node, n_max, monkeypatch):
    # a return to rebuilding every depth from n = 1 costs O(log^2 n) steps
    calls = count_calls(monkeypatch, geometry, "_double")
    monkeypatch.setattr(solver, "_double", geometry._double)  # the same spy
    try:
        result = solve_cesaro(node, Polytope(np.eye(2)), [1.0, 0.0], 1e-10, n_max)
        n_final = result.certificate.n_final
    except NotConvergedError as exc:
        n_final = exc.certificate.n_final
    assert n_final >= 16
    assert len(calls) == len(flatten(node)) * (int(np.log2(n_final)) + 1)


# --- common_fixed_subspace / solve_exact -----------------------------------

def test_fixed_subspace_identity_is_everything():
    sub = common_fixed_subspace(Leaf((AffineMap.identity(2),)))
    assert sub.dimension == 2
    np.testing.assert_allclose(sub.point, [0.0, 0.0], atol=1e-12)


def test_fixed_subspace_contraction_is_origin():
    sub = common_fixed_subspace(Leaf((AffineMap.linear(0.5 * np.eye(2)),)))
    assert sub.dimension == 0
    np.testing.assert_allclose(sub.point, [0.0, 0.0], atol=1e-12)


def test_fixed_subspace_translation_is_empty():
    assert common_fixed_subspace(Leaf((AffineMap.translation([1.0, 0.0]),))) is None


def test_exact_identity_leaf_gives_centroid():
    result = solve_exact(Leaf((AffineMap.identity(2),)), square(), square().centroid())
    np.testing.assert_allclose(result.point, [0.0, 0.0], atol=1e-9)
    assert result.max_residual == 0.0
    assert result.certificate is None


def test_exact_markov_matches_eigen_oracle():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    result = solve_exact(markov_node(), Polytope(np.eye(2)), [1.0, 0.0])
    np.testing.assert_allclose(result.point, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)
    np.testing.assert_allclose(result.point, stationary_distribution(P), atol=1e-9)


def test_exact_dihedral_origin():
    result = solve_exact(dihedral_node(), square(), [1.0, 1.0])
    np.testing.assert_allclose(result.point, [0.0, 0.0], atol=1e-12)


def test_exact_translation_raises_empty():
    node = Leaf((AffineMap.translation([2.0, 0.0]),))
    with pytest.raises(EmptyFixedSetError) as err:
        solve_exact(node, Polytope.box([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5])
    assert err.value.reason == "empty-fixed-subspace"


def test_exact_fixed_point_outside_polytope():
    # contraction toward (5, 5): unique fixed point far from the square
    node = Leaf((AffineMap(0.5 * np.eye(2), np.array([2.5, 2.5])),))
    with pytest.raises(EmptyFixedSetError) as err:
        solve_exact(node, square(), [0.0, 0.0])
    assert err.value.reason == "fixed-set-outside-polytope"


def test_exact_shear_raises_numerical_error():
    # a Jordan block at eigenvalue 1: the fixed line meets the square, but
    # ker(G - I) contains range(G - I), so the averages have no limit
    node = Leaf((AffineMap.linear([[1.0, 1.0], [0.0, 1.0]]),))
    with pytest.raises(NumericalError, match="not complementary"):
        solve_exact(node, square(), [0.5, 0.5])


def test_exact_overflowing_projection_raises_numerical_error(monkeypatch):
    # no real projection is this large; the fixed point 0 lies in the square, so the diagnosis re-raises
    huge = (np.full((2, 2), 1e200), np.zeros(2))
    monkeypatch.setattr(solver, "_ergodic_projection", lambda g, center, scale: huge)
    with pytest.raises(NumericalError, match="^layering the exact projection overflows$"):
        solve_exact(Leaf((rot90(), rot90())), square(), [0.5, 0.5])


def test_exact_requires_start_inside():
    with pytest.raises(StartOutsidePolytopeError):
        solve_exact(Leaf((rot90(),)), square(), [1.0 + 1e-6, 0.0])


def test_exact_and_cesaro_agree():
    for node, K, x0 in [
        (dihedral_node(), square(), [1.0, 1.0]),
        (markov_node(), Polytope(np.eye(2)), [1.0, 0.0]),
    ]:
        exact = solve_exact(node, K, x0, 1e-8)
        cesaro = solve_cesaro(node, K, x0, 1e-8, 2**40)
        assert exact.max_residual <= 1e-8
        assert cesaro.max_residual <= 1e-8
        np.testing.assert_allclose(exact.point, cesaro.point, atol=1e-6)


@pytest.mark.parametrize(
    "center, size", [(1e6, 1.0), (1e8, 1.0), (0.0, 1e6)], ids=["far", "farther", "large"]
)
def test_exact_rotation_about_the_center_of_a_far_or_large_box(center, size):
    c = np.full(2, center)
    R = rot90().matrix
    K = Polytope.box(c - size, c + size)
    result = solve_exact(Leaf((AffineMap(R, c - R @ c),)), K, c + [0.5 * size, 0.25 * size])
    np.testing.assert_allclose(result.point, c, rtol=0.0, atol=1e-9)


def _diag(*entries):
    return AffineMap.linear(np.diag(entries))


@pytest.mark.parametrize("node, K, x0, expected", [
    # the reflection fixes the line x = 0, and averaging moves only x
    (Leaf((_diag(-1.0, 1.0),)), square(), [0.5, 0.5], [0.0, 0.5]),
    # the dihedral group of the first two coordinates fixes the z axis
    (Product(Leaf((AffineMap.linear([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),)),
             Leaf((_diag(1.0, -1.0, 1.0),))),
     Polytope.box([-1.0] * 3, [1.0] * 3), [0.5, 0.25, 0.5], [0.0, 0.0, 0.5]),
], ids=["reflection", "product"])
def test_exact_and_cesaro_agree_off_a_single_point(node, K, x0, expected):
    exact = solve_exact(node, K, x0)
    cesaro = solve_cesaro(node, K, x0)
    np.testing.assert_allclose(exact.point, expected, atol=1e-12)
    np.testing.assert_allclose(cesaro.point, expected, atol=1e-12)


# --- cross_check -------------------------------------------------------------

@pytest.mark.parametrize("name", ["dihedral_square", "layered_square", "symmetric_triangle"])
def test_cross_check_gap_is_round_off_on_products(name):
    pf = load_problem(FIXTURES / "solve" / f"{name}.json")
    payload, opts = pf.payload, pf.options
    start = payload.start if payload.start is not None else payload.polytope.centroid()
    check = cross_check(payload.node, payload.polytope, start, opts.tol, opts.n_max)
    assert check.projection_gap <= 1e-12
    assert check.exact.method == "exact" and check.cesaro.method == "cesaro"


def test_cross_check_checks_the_start_once(monkeypatch):
    calls = count_calls(monkeypatch, solver, "_start_point")
    check = cross_check(Leaf((_diag(-1.0, 1.0),)), square(), [0.5, 0.5])
    assert len(calls) == 1
    np.testing.assert_allclose(check.exact.point, [0.0, 0.5], atol=1e-12)
    assert check.disagreement <= 1e-8 and check.projection_gap == 0.0


# --- the exact route: P x0's checks prove it, the diagnosis names a failure ---

@pytest.mark.parametrize("mode", ["exact", "cross-check"])
def test_a_passing_exact_point_runs_no_nullspace_or_deviation_lp(solve_fixtures, mode, monkeypatch):
    nullspace = count_calls(monkeypatch, solver, "common_fixed_subspace")
    deviation = count_calls(monkeypatch, solver, "deviation_fit")
    for name, pf in solve_fixtures:
        payload, opts = pf.payload, pf.options
        start = payload.start if payload.start is not None else payload.polytope.centroid()
        if mode == "exact":
            solve_exact(payload.node, payload.polytope, start, opts.tol)
        else:
            cross_check(payload.node, payload.polytope, start, opts.tol, opts.n_max)
        assert (len(nullspace), len(deviation)) == (0, 0), name


def _fake_projection(monkeypatch, limit):
    """Make every generator's ergodic projection the frame map ``limit(center, scale)``."""
    def projection(g, c, s):
        m = limit(c, s)
        return m.matrix, m.offset

    monkeypatch.setattr(solver, "_ergodic_projection", projection)


def test_translation_names_an_empty_fixed_subspace_through_the_numerical_error(monkeypatch):
    nullspace = count_calls(monkeypatch, solver, "common_fixed_subspace")
    with pytest.raises(EmptyFixedSetError) as err:
        solve_exact(Leaf((AffineMap.translation([2.0, 0.0]),)), Polytope.box([0.0, 0.0], [1.0, 1.0]),
                    [0.5, 0.5])
    assert err.value.reason == "empty-fixed-subspace"
    assert isinstance(err.value.__context__, NumericalError)
    assert len(nullspace) == 1


def test_a_point_that_is_not_fixed_names_the_residual(monkeypatch):
    # the swap fixes (1/2, 1/2) in the simplex, but a P of the identity keeps (1, 0)
    _fake_projection(monkeypatch, lambda c, s: AffineMap.identity(2))
    deviation = count_calls(monkeypatch, solver, "deviation_fit")
    with pytest.raises(EmptyFixedSetError, match=r"residual 1\.000e\+00 >") as err:
        solve_exact(Leaf((AffineMap.linear([[0.0, 1.0], [1.0, 0.0]]),)), Polytope(np.eye(2)),
                    [1.0, 0.0])
    assert err.value.reason == "residual-above-tolerance"
    assert len(deviation) == 1


def test_a_fixed_point_outside_the_polytope_names_the_projection(monkeypatch):
    # the identity fixes all of [0,1]^2, but this P sends everything to (5, 5)
    _fake_projection(monkeypatch, lambda c, s: AffineMap(np.zeros((2, 2)), (5.0 - c) / s))
    with pytest.raises(EmptyFixedSetError, match=r"lies 4\.000e\+00 outside") as err:
        solve_exact(Leaf((AffineMap.identity(2),)), unit_square(), [0.5, 0.5])
    assert err.value.reason == "projection-outside-polytope"


def test_a_failed_exact_check_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="fixmk"):
        solve_exact(dihedral_node(), square(), [1.0, 1.0])
        assert not caplog.records
        with pytest.raises(EmptyFixedSetError):
            solve_exact(Leaf((AffineMap(0.5 * np.eye(2), np.array([2.5, 2.5])),)), square(),
                        [0.0, 0.0])
    (record,) = caplog.records
    assert record.name == "fixmk.solver" and record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "exact point failed a check, diagnosing: projection-outside-polytope: "
        "the projected start point lies 4.000e+00 outside the polytope"
    )


@pytest.mark.parametrize("d", range(3, 9))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dihedral_coordinate_group_lands_on_the_orbit_average(d, seed):
    # shift and reversal generate the dihedral group of the coordinates, whose
    # only fixed points in [-1,1]^d are the constant vectors: P x0 = mean(x0) 1
    shift = AffineMap.linear(np.roll(np.eye(d), 1, axis=0))
    node = Product(Leaf((shift,)), Leaf((AffineMap.linear(np.eye(d)[::-1]),)))
    K = Polytope.box([-1.0] * d, [1.0] * d)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    assert validate_structure(node, K, d).ok  # S^-1 = S^(d-1) needs d - 1 letters
    check = cross_check(node, K, x0, DEFAULT_TOL, 2**40)
    assert check.projection_gap <= 1e-12
    np.testing.assert_allclose(check.exact.point, np.full(d, x0.mean()), rtol=0.0, atol=1e-12)


@st.composite
def stochastic_polynomials(draw):
    """A random positive stochastic P and 1-3 convex polynomials q(P), each with a P term."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.uniform(0.05, 1.0, size=(d, d))
    P /= P.sum(axis=1, keepdims=True)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        weights = rng.dirichlet(np.ones(draw(st.integers(2, 4))))
        powers = [np.linalg.matrix_power(P, k) for k in range(len(weights))]
        polys.append(sum(w * Pk for w, Pk in zip(weights, powers)))
    return P, polys, rng.dirichlet(np.ones(d))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stochastic_polynomials())
def test_markov_kakutani_on_the_simplex_matches_the_stationary_distribution(case):
    # x -> q(P)^T x are commuting affine self-maps of the simplex, and every
    # q(P) with a P term has the stationary distribution of P as its only fixed point
    P, polys, x0 = case
    node = Leaf(tuple(AffineMap.linear(Q.T) for Q in polys))
    K = Polytope.standard_simplex(P.shape[0])
    pi = stationary_distribution(P)
    np.testing.assert_allclose(solve_exact(node, K, x0).point, pi, atol=1e-9)
    np.testing.assert_allclose(solve_cesaro(node, K, x0, 1e-10, 2**40).point, pi, atol=1e-6)


# --- signed permutations and box contractions solve in every mode ------------

def _solved(node, K, start, mode):
    """``solve``'s status and report fields in one mode, at the depth budget 2^40."""
    options = Options(mode=mode, n_max=2**40)
    return cli.run_solve(ProblemFile("fixed-point", SolvePayload(node, K, np.array(start)), options), options)


def _assert_solved_in_every_mode(node, K, start):
    for mode in ("exact", "cesaro", "cross-check"):
        status, result = _solved(node, K, start, mode)
        assert status == "ok", (mode, result)
        assert max(result["residuals"].values()) <= DEFAULT_TOL, mode
    assert result["projection_gap"] <= 1e-12


def _cyclic_shift(d):
    return Leaf((AffineMap.linear(np.roll(np.eye(d), 1, axis=0)),))


def test_solving_the_cyclic_shift_from_a_simplex_vertex_runs_no_lp(monkeypatch):
    # vertices map to vertices, the start is a vertex, and the centroid P x0 is
    # settled by its uniform convex weights
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    K = Polytope.standard_simplex(40)
    status, result = _solved(_cyclic_shift(40), K, K.vertices[0], "cross-check")
    assert status == "ok"
    np.testing.assert_allclose(result["point"], K.centroid(), atol=1e-12)
    assert calls == []


@pytest.mark.parametrize("node, K", [(signed_permutations([1, 2, 0]), cube(3)),
                                     (_cyclic_shift(5), Polytope.standard_simplex(5))],
                         ids=["cube", "simplex"])
def test_solving_without_a_start_settles_the_centroid_without_lp(node, K, monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    status, _ = cli.run_solve(ProblemFile("fixed-point", SolvePayload(node, K), Options()), Options())
    assert status == "ok" and calls == []


def test_the_invariance_pass_still_fits_every_unmatched_image(monkeypatch):
    # x -> x/2 + 1/4 maps no vertex of [0,1]^6 to a vertex: each of the 64
    # images enters the ladder past the vertex match once, and weights, whose
    # minimum-norm solve goes negative, settle it with no LP
    pf = load_problem(FIXTURES / "solve" / "centered_box_contraction.json")
    K, ((_, g),) = pf.payload.polytope, flatten(pf.payload.node)
    images = sorted(tuple(g(v).tolist()) for v in K.vertices)
    entries = ladder_entries(monkeypatch)
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    assert validate_structure(pf.payload.node, K).ok
    assert sorted(point for point, _ in entries) == images
    assert {step for _, step in entries} == {"weights"}
    entries.clear()
    assert cli.run_solve(pf, pf.options)[0] == "ok"
    assert sorted(point for point, _ in entries[:64]) == images
    assert [step for _, step in entries[64:]] == ["weights"]  # the exact point; the vertex start is matched
    assert calls == []


def _solve_problems():
    """Every solve fixture and the cyclic shift C_d on the simplex from a seeded vertex, d = 8..40,
    as (name, problem file)."""
    for path in fixture_paths("solve"):
        yield path.stem, load_problem(path)
    rng = np.random.default_rng(0)
    for d in range(8, 41):
        K = Polytope.standard_simplex(d)
        options = Options(mode="cross-check", n_max=2**40)
        payload = SolvePayload(_cyclic_shift(d), K, K.vertices[rng.integers(d)])
        yield f"simplex-d{d}", ProblemFile("fixed-point", payload, options)


def test_validating_and_solving_the_solve_problems_runs_no_lp(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    for name, pf in _solve_problems():
        assert validate_structure(pf.payload.node, pf.payload.polytope, pf.options.tol).ok, name
        assert cli.run_solve(pf, pf.options)[0] == "ok", name
        assert calls == [], name


def test_solving_from_an_off_centre_start_on_a_cube_runs_no_lp(monkeypatch):
    # the start's minimum-norm weights go negative, and NNLS weights settle it
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    start = [0.9, 0.9, -0.8]
    gaps, steps = geometry.hull_gaps(cube(3), np.array([start]), 1e-9)
    assert geometry.LADDER[steps[0]] == "weights"
    status, result = _solved(signed_permutations([1, 2, 0]), cube(3), start, "cross-check")
    assert status == "ok" and calls == []
    np.testing.assert_allclose(result["point"], np.zeros(3), atol=1e-12)


def _invariance_cases(rng):
    """Box contractions (some stretched out of the box) and signed permutations (some scaled out
    of the cube), each as (node, K)."""
    for d in range(1, 5):
        for stretched in (None, 0):
            scales = rng.uniform(-0.9, 0.9, (int(rng.integers(1, 4)), d))
            yield commuting_contractions(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0), scales, stretched)
    for d in range(2, 6):
        for scaled in (None, d):
            yield signed_permutations(rng.permutation(d), scaled), cube(d)


def test_invariance_pass_gaps_are_sound_against_highs(monkeypatch):
    # every image the ladder settles without an LP has a HiGHS hull distance
    # within its gap, round-off included
    seen, original = [], geometry.hull_gaps

    def spy(K, points, tol):
        gaps, steps = original(K, points, tol)
        seen.append((K, points, gaps, steps))
        return gaps, steps

    monkeypatch.setattr(geometry, "hull_gaps", spy)
    counts = [0] * len(geometry.LADDER)
    for node, K in _invariance_cases(np.random.default_rng(3)):
        validate_structure(node, K)
    for K, points, gaps, steps in seen:
        for x, gap, step in zip(points, gaps, steps):
            counts[step] += 1
            if geometry.LADDER[step] != "LP":
                roundoff = K.n_vertices * np.finfo(float).eps * np.abs(K.vertices - x).max() + 1e-10
                assert hull_distance(K.vertices, x, 1e-10) <= gap + roundoff, (K.vertices, x)
    assert all(counts), counts  # every step ran


@pytest.mark.parametrize("d", range(3, 9))
def test_signed_permutation_products_solve_in_every_mode(d):
    # the flips are normal under a seeded permutation; 0 is the one fixed point
    rng = np.random.default_rng(d)
    _assert_solved_in_every_mode(signed_permutations(rng.permutation(d)), cube(d), rng.choice([-1.0, 1.0], d))


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_box_contractions_solve_in_every_mode(seed):
    # commuting scalings about the centre of the box, started from a vertex
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    scales = rng.uniform(-0.9, 0.9, (int(rng.integers(1, 4)), d))
    node, K = commuting_contractions(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0), scales)
    _assert_solved_in_every_mode(node, K, K.vertices[rng.integers(K.n_vertices)])


# --- residual ---------------------------------------------------------------

def test_residual_values():
    node = Leaf((AffineMap.translation([1.0, 0.0]),))
    assert residual([0.0, 0.0], node) == {"g0": 1.0}
    exact = solve_exact(dihedral_node(), square(), [1.0, 1.0])
    assert all(v == 0.0 for v in exact.residuals.values())


def test_fixed_point_is_fixed_by_all_words():
    for node, K in [(dihedral_node(), square()), (markov_node(), Polytope(np.eye(2)))]:
        p = solve_exact(node, K, K.centroid()).point
        assert max(residual(p, node).values()) <= 1e-10
        for w in enumerate_elements(node, 6):
            assert np.max(np.abs(w(p) - p)) <= 1e-8


# --- trees that only the exact normal relation accepts ------------------------

@pytest.mark.parametrize("m", range(3, 17))
def test_dihedral_groups_of_the_polygon_solve_in_every_mode(m):
    # rejected for m >= 8 while the relation was a search of words up to length 6;
    # n_max 2^40 as in the corpus: at 2^20 averaging stops at residual ~1e-6 (diam / n)
    node, K = polygon_dihedral(m)
    assert validate_structure(node, K).ok
    start = K.vertices[1]
    exact, check = solve_exact(node, K, start), cross_check(node, K, start, n_max=2**40)
    np.testing.assert_allclose([exact.point, check.exact.point], np.zeros((2, 2)), atol=1e-15)
    cesaro = solve_cesaro(node, K, start, n_max=2**40)
    assert cesaro.max_residual <= DEFAULT_TOL
    np.testing.assert_allclose(cesaro.point, [0.0, 0.0], atol=1e-7)  # |r p - p| = 2 sin(pi / m) |p|
    for family in ("cof", "coh-coq"):
        assert fip_check(node, K, 3, family, seed=m).feasible


def test_the_quotient_is_layered_after_the_normal_factor():
    # h = diag(1, 1/2) fixes the x1-axis and g(x) = (x2, x2) maps it to 0, the one
    # common fixed point.  Layered normal-after-quotient, P_N P_Q (0.5, 0.5) = (0.5, 0)
    # is not fixed by g; the proof's order P_Q P_N lands on 0.
    node = Product(Leaf((AffineMap.linear([[1.0, 0.0], [0.0, 0.5]]),)),
                   Leaf((AffineMap.linear([[0.0, 1.0], [0.0, 1.0]]),)))
    start = [0.5, 0.5]
    assert validate_structure(node, square()).ok
    assert solve_exact(node, square(), start).point.tolist() == [0.0, 0.0]
    check = cross_check(node, square(), start, n_max=2**40)
    assert check.exact.point.tolist() == [0.0, 0.0] and check.projection_gap <= DEFAULT_TOL
    cesaro = solve_cesaro(node, square(), start, n_max=2**40)
    assert cesaro.max_residual <= DEFAULT_TOL
    np.testing.assert_allclose(cesaro.point, [0.0, 0.0], atol=1e-7)


# --- fip_check ---------------------------------------------------------------

def test_fip_identity_leaf():
    report = fip_check(Leaf((AffineMap.identity(2),)), square(), 2, "cof", seed=0)
    assert report.feasible
    assert contains(square(), report.witness, 1e-7)


def test_fip_rotation_cof():
    report = fip_check(Leaf((rot90(),)), square(), 3, "cof", seed=1)
    assert report.feasible
    # every sampled image contains the rotation-invariant origin
    assert contains(square(), report.witness, 1e-7)


def test_fip_product_families():
    node = dihedral_node()
    assert fip_check(node, square(), 5, "cof", seed=2).feasible
    assert fip_check(node, square(), 5, "coh-coq", seed=2).feasible


def test_fip_coh_coq_needs_product():
    with pytest.raises(ValueError):
        fip_check(Leaf((rot90(),)), square(), 3, "coh-coq", seed=0)


def test_fip_sampling_overflow_names_the_family():
    # h.q of two mixtures passes float range; validation, which refuses this tree, is bypassed
    huge = Leaf((AffineMap.linear([[1e160]]),))
    with pytest.raises(NumericalError, match="^sampling the coh-coq family overflows$"):
        fip_check(Product(huge, huge), Polytope(np.array([[0.0], [1.0]])), 3, "coh-coq", word_budget=1)


def test_fip_coh_coq_word_overflow_names_the_quotient_generator_as_flatten_labels_it():
    # flatten labels the normal factor's -1 g0 and the quotient's 1e200 g1, whose square overflows
    node = Product(Leaf((AffineMap.linear([[-1.0]]),)), Leaf((AffineMap.linear([[1e200]]),)))
    assert [label for label, _ in flatten(node)] == ["g0", "g1"]
    with pytest.raises(NumericalError, match="^word enumeration: composing a word with g1 overflows$"):
        fip_check(node, Polytope(np.array([[-1.0], [1.0]])), 3, "coh-coq", word_budget=2)


def test_fip_image_overflow_is_a_numerical_error():
    # a tree never validated: its image of K was a raw ValueError from Polytope, after a warning
    huge, K = Leaf((AffineMap.linear([[1e200]]),)), Polytope(np.array([[1e200], [-1e200]]))
    with pytest.raises(NumericalError, match="^mapping the vertices of K overflows$"):
        fip_check(huge, K, 3, "cof", word_budget=1)


def test_fip_rejects_tiny_sample():
    with pytest.raises(ValueError):
        fip_check(Leaf((rot90(),)), square(), 1, "cof", seed=0)


def test_fip_adversarial_non_semigroup_is_infeasible():
    # two constant maps into far-apart points; invariance deliberately bypassed
    pull_a = AffineMap(np.zeros((2, 2)), np.array([-10.0, -10.0]))
    pull_b = AffineMap(np.zeros((2, 2)), np.array([10.0, 10.0]))
    report = fip_check(Leaf((pull_a, pull_b)), square(), 4, "cof", seed=0, word_budget=2)
    assert not report.feasible and report.witness is None


@pytest.mark.parametrize("seed", [0, 9, 25])
def test_fip_cyclic_shift_d6_has_a_witness_in_every_image(seed):
    # the theorem promises a common point; with Bland's rule from an
    # all-artificial basis these seeds came back infeasible (0, 9) or hit
    # the iteration limit (25)
    d = 6
    node = Leaf((AffineMap.linear(np.roll(np.eye(d), 1, axis=0)),))
    K = Polytope.standard_simplex(d)
    report = fip_check(node, K, 5, "cof", seed=seed, word_budget=2)
    assert report.feasible
    for image in polytope_images(*_sample_family(node, "cof", 5, np.random.default_rng(seed), 2), K):
        assert hull_distance(image.vertices, report.witness) <= DEFAULT_TOL


@pytest.mark.parametrize("family", ["cof", "coh-coq"])
def test_stacked_samples_equal_the_per_sample_mixtures(family):
    # one convex_combination per sample (and factor), drawn in the same order
    node, rng = dihedral_node(), np.random.default_rng(5)
    matrices, offsets = _sample_family(node, family, 4, np.random.default_rng(5), 6)
    if family == "cof":
        words = enumerate_elements(node, 6)
        maps = [convex_combination(words, rng.dirichlet(np.ones(len(words)))) for _ in range(4)]
    else:
        hw, qw = enumerate_elements(node.normal, 6), enumerate_elements(node.quotient, 6)
        maps = []
        for _ in range(4):
            h = convex_combination(hw, rng.dirichlet(np.ones(len(hw))))
            maps.append(affine_compose(h, convex_combination(qw, rng.dirichlet(np.ones(len(qw))))))
    assert matrices.tobytes() == np.array([m.matrix for m in maps]).tobytes()
    assert offsets.tobytes() == np.array([m.offset for m in maps]).tobytes()
    images = polytope_images(matrices, offsets, square())
    for image, m in zip(images, maps):
        assert image.vertices.tobytes() == polytope_image(m, square()).vertices.tobytes()


def test_fip_deterministic_per_seed():
    a = fip_check(dihedral_node(), square(), 5, "cof", seed=7)
    b = fip_check(dihedral_node(), square(), 5, "cof", seed=7)
    np.testing.assert_array_equal(a.witness, b.witness)


# --- image-intersection witnesses (abelian hulls) ---------------------------

@pytest.mark.parametrize("seed", range(20))
def test_feasible_witness_lies_in_composed_image(seed):
    # commuting f and g give (f.g)(K) ⊆ f(K) ∩ g(K), so the three images
    # share a point, and the witness lies in all three
    cases = [
        (Leaf((AffineMap(np.array([[0.5]]), np.array([0.25])),)),
         Polytope(np.array([[0.0], [1.0]]))),
        (Leaf((rot90(),)), square()),
    ]
    for node, K in cases:
        words = enumerate_elements(node, 6)
        rng = np.random.default_rng(seed)
        f = convex_combination(words, rng.dirichlet(np.ones(len(words))))
        g = convex_combination(words, rng.dirichlet(np.ones(len(words))))
        images = [polytope_image(m, K) for m in (f, g, affine_compose(f, g))]
        w = feasible_point(images, 1e-9)
        assert w is not None
        assert all(contains(image, w, 1e-6) for image in images)


# --- validation is honored ----------------------------------------------------

def test_validated_structures_have_fixed_points(solve_fixtures):
    for name, pf in solve_fixtures:
        payload = pf.payload
        report = validate_structure(payload.node, payload.polytope, pf.options.tol)
        assert report.ok, f"{name} failed validation: {report.failures}"
        assert 1 <= report.depth <= 3
