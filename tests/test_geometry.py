import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

from fixmk import geometry
from fixmk import (
    AffineMap,
    DimensionMismatchError,
    InvalidWeightsError,
    NormKind,
    NormSpec,
    NumericalError,
    Polytope,
    affine_compose,
    cesaro_average,
    contains,
    convex_combination,
    diameter,
    feasible_point,
    hull_gap,
)
from helpers import count_calls, cube, polytope_image, rot90, rot180, square, unit_square
from oracles import hull_distance, map_deviation

entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def random_map(draw, dim):
    return AffineMap(draw(arrays(np.float64, (dim, dim), elements=entries)),
                     draw(arrays(np.float64, (dim,), elements=entries)))


map_dims = st.integers(min_value=1, max_value=4)


@st.composite
def maps(draw, count=1):
    dim = draw(map_dims)
    return [random_map(draw, dim) for _ in range(count)]


# --- AffineMap.__call__ ---------------------------------------------------

def test_apply_identity():
    x = np.array([3.0, -1.0])
    np.testing.assert_array_equal(AffineMap.identity(2)(x), x)


def test_apply_rotation():
    np.testing.assert_allclose(rot90()([1.0, 0.0]), [0.0, 1.0], atol=0)


def test_apply_constant_map():
    const = AffineMap(np.zeros((2, 2)), np.array([2.0, 2.0]))
    np.testing.assert_array_equal(const([17.0, -4.0]), [2.0, 2.0])


def test_apply_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        AffineMap.identity(2)([1.0, 2.0, 3.0])


# --- affine_compose -------------------------------------------------------

def test_compose_identity_left():
    g = AffineMap(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))
    assert map_deviation(affine_compose(AffineMap.identity(2), g), g) == 0.0


def test_compose_scaling_then_shift():
    f = AffineMap(2.0 * np.eye(2), np.array([1.0, 0.0]))
    g = AffineMap(np.eye(2), np.array([0.0, 1.0]))
    h = affine_compose(f, g)
    np.testing.assert_allclose(h.matrix, 2.0 * np.eye(2))
    np.testing.assert_allclose(h.offset, [1.0, 2.0])


def test_compose_rotations():
    assert map_deviation(affine_compose(rot90(), rot90()), rot180()) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(maps(count=3))
def test_compose_associative(triple):
    f, g, h = triple
    left = affine_compose(f, affine_compose(g, h))
    right = affine_compose(affine_compose(f, g), h)
    assert map_deviation(left, right) <= 1e-12


# --- convex_combination ---------------------------------------------------

def test_combination_single():
    m = AffineMap(np.array([[2.0]]), np.array([3.0]))
    assert map_deviation(convex_combination([m], [1.0]), m) == 0.0


def test_combination_rotations_cancel():
    quarter = [AffineMap.identity(2), rot90(),
               affine_compose(rot90(), rot90()),
               affine_compose(rot90(), affine_compose(rot90(), rot90()))]
    mixed = convex_combination(quarter, [0.25] * 4)
    assert np.abs(mixed.matrix).max() <= 1e-15
    assert np.abs(mixed.offset).max() <= 1e-15


def test_combination_halfway_contraction():
    c = np.array([1.0, 2.0])
    toward = AffineMap(0.5 * np.eye(2), 0.5 * c)
    mixed = convex_combination([AffineMap.identity(2), toward], [0.5, 0.5])
    np.testing.assert_allclose(mixed.matrix, 0.75 * np.eye(2))
    np.testing.assert_allclose(mixed.offset, 0.25 * c)


def test_combination_rejects_bad_weights():
    m = AffineMap.identity(1)
    with pytest.raises(InvalidWeightsError):
        convex_combination([m, m], [0.8, 0.1])
    with pytest.raises(InvalidWeightsError):
        convex_combination([m, m], [1.5, -0.5])


HUGE = AffineMap.linear(1e200 * np.eye(2))


@pytest.mark.parametrize("call, message", [
    (lambda: affine_compose(HUGE, HUGE), "composing two maps"),
    # weights may sum to 1 + 8e-10, within the round-off allowed, which takes max_float past it
    (lambda: convex_combination([AffineMap.linear(np.full((2, 2), np.finfo(float).max))] * 2,
                                [0.5 + 4e-10] * 2), "mixing maps"),
    (lambda: cesaro_average(AffineMap.linear(2 * np.eye(2)), 1024), "averaging at depth 1024"),
    (lambda: cesaro_average(HUGE, 3), "averaging at depth 3"),  # through the odd step of the power sum
], ids=["compose", "mix", "average", "odd-average"])
def test_overflow_raises_a_numerical_error_naming_the_step(call, message):
    # pytest makes any RuntimeWarning an error, so none may escape
    with pytest.raises(NumericalError, match=f"^{message} overflows$"):
        call()


# --- cesaro_average -------------------------------------------------------

def test_cesaro_identity():
    for n in (1, 2, 7, 1024):
        assert map_deviation(cesaro_average(AffineMap.identity(3), n),
                             AffineMap.identity(3)) == 0.0


def test_cesaro_rotation_period_four():
    avg = cesaro_average(rot90(), 4)
    assert np.abs(avg.matrix).max() <= 1e-15
    assert np.abs(avg.offset).max() <= 1e-15


def test_cesaro_contraction_two_terms():
    m = AffineMap(np.array([[0.5]]), np.array([0.5]))
    avg = cesaro_average(m, 2)
    np.testing.assert_allclose(avg.matrix, [[0.75]])
    np.testing.assert_allclose(avg.offset, [0.25])


def test_cesaro_rejects_zero_depth():
    with pytest.raises(ValueError):
        cesaro_average(AffineMap.identity(1), 0)


def test_cesaro_matches_naive_sum():
    m = AffineMap(np.array([[0.3, 0.1], [-0.2, 0.8]]), np.array([0.1, -0.4]))
    for n in (1, 2, 3, 5, 8, 13):
        acc, power = AffineMap.identity(2), AffineMap.identity(2)
        mats, offs = np.zeros((2, 2)), np.zeros(2)
        for _ in range(n):
            mats += power.matrix
            offs += power.offset
            power = affine_compose(power, m)
        naive = AffineMap(mats / n, offs / n)
        assert map_deviation(cesaro_average(m, n), naive) <= 1e-14


small_entries = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@st.composite
def bounded_maps(draw):
    dim = draw(map_dims)
    return AffineMap(
        draw(arrays(np.float64, (dim, dim), elements=small_entries)),
        draw(arrays(np.float64, (dim,), elements=small_entries)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bounded_maps(), st.sampled_from([1, 2, 4, 16, 128, 1024]))
def test_cesaro_telescoping(h, n):
    # p = avg(x)  =>  p - h(p) = (x - h^n(x)) / n
    x = np.linspace(-1.0, 1.0, h.dim)
    p = cesaro_average(h, n)(x)
    lhs = p - h(p)
    # h^n from the homogeneous (d+1)x(d+1) matrix, apart from the power sum cesaro_average uses
    homogeneous = np.eye(h.dim + 1)
    homogeneous[:-1, :-1], homogeneous[:-1, -1] = h.matrix, h.offset
    hn = (np.linalg.matrix_power(homogeneous, n) @ np.append(x, 1.0))[:-1]
    assert np.isfinite(hn).all()
    np.testing.assert_allclose(lhs, (x - hn) / n, atol=1e-10)


# --- polytope images ------------------------------------------------------

def test_image_identity_keeps_vertices():
    K = square()
    img = polytope_image(AffineMap.identity(2), K)
    assert sorted(map(tuple, img.vertices)) == sorted(map(tuple, K.vertices))


def test_image_constant_map_collapses():
    const = AffineMap(np.zeros((2, 2)), np.array([2.0, 3.0]))
    img = polytope_image(const, square())
    assert img.vertices.shape == (1, 2)
    np.testing.assert_array_equal(img.vertices[0], [2.0, 3.0])


def test_image_rotation_of_square_is_square():
    img = polytope_image(rot90(), square())
    assert sorted(map(tuple, np.round(img.vertices, 12))) == sorted(
        map(tuple, square().vertices)
    )


@pytest.mark.parametrize("seed", range(20))
def test_image_rows_match_numpy_unique(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    V = rng.integers(-2, 3, size=(int(rng.integers(1, 10)), d)) * 0.5
    m = AffineMap(rng.integers(-1, 2, size=(d, d)) * 1.0, rng.integers(-1, 2, size=d) * 0.25)
    expected = np.unique(V @ m.matrix.T + m.offset, axis=0)  # maps may repeat images
    np.testing.assert_array_equal(polytope_image(m, Polytope(V)).vertices, expected)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(maps(count=1), st.integers(min_value=0, max_value=10**6))
def test_image_contains_mapped_points(single, wseed):
    (m,) = single
    K = Polytope.box(-np.ones(m.dim), np.ones(m.dim))
    rng = np.random.default_rng(wseed)
    lam = rng.dirichlet(np.ones(K.n_vertices))
    x = lam @ K.vertices
    assert contains(polytope_image(m, K), m(x), 1e-9)


# Two maps the test above has drawn.  Their images span 2e-8 in the last
# coordinate; with the point on the right-hand side of the hull-fit LP,
# the first raised "phase-1 objective reported unbounded" and the second
# returned False, while HiGHS puts the point in the hull.
NEARLY_FLAT_MAPS = {
    "false-unbounded": [[1.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -0.8125], [0, 0, 0, 1e-8]],
    "false-outside": [[2, 0.8125, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1e-8]],
}


@pytest.mark.parametrize("matrix", NEARLY_FLAT_MAPS.values(), ids=NEARLY_FLAT_MAPS)
def test_nearly_flat_image_contains_mapped_point(matrix):
    m = AffineMap(matrix, np.full(4, 1e-8))
    K = Polytope.box(-np.ones(4), np.ones(4))
    x = np.random.default_rng(0).dirichlet(np.ones(K.n_vertices)) @ K.vertices
    image = polytope_image(m, K)
    assert hull_distance(image.vertices, m(x)) <= 1e-12
    assert geometry.hull_fit(image, m(x))[0] <= 1e-9
    assert contains(image, m(x), 1e-9)


# --- contains / feasible_point -------------------------------------------

def test_contains_vertices_and_centroid():
    K = square()
    for v in K.vertices:
        assert contains(K, v, 1e-9)
    assert contains(K, K.centroid(), 1e-9)


def test_contains_rejects_outside_point():
    assert not contains(unit_square(), [2.0, 0.0], 1e-9)


def test_hull_distance_outside():
    assert geometry.hull_fit(unit_square(), [2.0, 0.0])[0] == pytest.approx(1.0, abs=1e-9)


def test_hull_gap_matches_vertices_without_lp(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    assert hull_gap(square(), [1.0, -1.0], 1e-9) == (0.0, True)
    assert hull_gap(square(), [1.0 + 1e-10, -1.0], 1e-9) == (pytest.approx(1e-10), True)
    assert contains(square(), [-1.0, 1.0], 1e-9)
    assert calls == []


def test_hull_gap_settles_interior_points_by_weights_without_lp(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    K = Polytope.standard_simplex(6)
    barycentric = np.random.default_rng(0).dirichlet(np.ones(6))
    for P, x in ((square(), [0.0, 0.0]), (square(), [0.3, -0.2]), (K, K.centroid()),
                 (K, barycentric)):
        gap, matched = hull_gap(P, x, 1e-9)
        assert gap <= 1e-15 and not matched
    assert calls == []


def test_hull_gap_falls_back_to_hull_distance(monkeypatch):
    K = square()
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    for x in ([1.0 + 1e-6, 1.0], [2.0, 0.5]):
        expected = geometry.hull_fit(K, x)[0]
        calls.clear()
        assert hull_gap(K, x, 1e-9) == (expected, False)
        assert len(calls) == 1


def test_hull_gap_settles_negative_minimum_norm_weights_by_nnls(monkeypatch):
    # [0.9, 0.9] lies in the square, but its minimum-norm weights go negative
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    gaps, steps = geometry.hull_gaps(square(), np.array([[0.9, 0.9], [0.3, 0.95]]), 1e-9)
    assert [geometry.LADDER[step] for step in steps] == ["weights", "weights"] and gaps.max() <= 1e-15
    assert hull_gap(square(), [0.9, 0.9], 1e-9) == (gaps[0], False)
    assert calls == []


def test_nnls_past_its_cap_leaves_the_point_to_the_lp(monkeypatch):
    S = square().vertices - [0.9, 0.9]
    A, b = np.vstack([S.T, np.ones(4)]), np.array([0.0, 0.0, 1.0])
    assert geometry._nnls(A, b, 1) is None
    assert geometry._nnls(A, b, 12).min() >= 0.0
    monkeypatch.setattr(geometry, "_NNLS_SOLVES", 0)
    fits = count_calls(monkeypatch, geometry, "hull_fit")
    gap, matched = hull_gap(square(), [0.9, 0.9], 1e-9)
    assert gap <= 1e-9 and not matched and len(fits) == 1


def _nnls_systems(rng):
    """(A, b) up to d = 12: random, rank-deficient, and the weight systems of point clouds,
    clouds with repeated vertices and the standard simplex (flat in R^d), at points in and
    outside their hulls."""
    for d in range(1, 13):
        n = int(rng.integers(1, 3 * d + 4))
        yield rng.normal(size=(d, n)), rng.normal(size=d)
        yield rng.normal(size=(d, 2)) @ rng.normal(size=(2, n)), rng.normal(size=d)
        cloud = rng.normal(size=(d + 2, d))
        repeated = cloud[rng.integers(len(cloud), size=2 * len(cloud))]
        for V in (cloud, repeated, np.eye(d)):
            for x in (rng.dirichlet(np.ones(len(V))) @ V, V.mean(axis=0) + rng.normal(size=d)):
                yield np.vstack([(V - x).T, np.ones(len(V))]), np.append(np.zeros(d), 1.0)


def test_nnls_matches_scipy():
    for A, b in _nnls_systems(np.random.default_rng(7)):
        lam = geometry._nnls(A, b, 3 * A.shape[1])
        _, rnorm = nnls(A, b)
        assert lam is not None and lam.min() >= 0.0
        scale = np.abs(A).max() * np.abs(b).max()
        assert abs(np.linalg.norm(A @ lam - b) - rnorm) <= 1e-12 * scale, (A, b)


def test_contains_just_outside_runs_the_lp(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    assert not contains(square(), [1.0 + 1e-6, 1.0], 1e-9)
    assert len(calls) == 1


def _unit_shapes(rng):
    """Vertex sets of unit size: simplices, cubes, clouds, a flat set and a set with repeats."""
    for d in range(1, 5):
        yield np.vstack([np.zeros(d), np.eye(d)])
        yield np.eye(d)  # the standard simplex, flat in R^d
        yield cube(d).vertices
        yield rng.normal(size=(d + int(rng.integers(1, 6)), d))
        yield rng.normal(size=(d + 3, 2)) @ rng.normal(size=(2, d)) + rng.normal(size=d)
        cloud = rng.normal(size=(d + 2, d))
        yield cloud[rng.integers(len(cloud), size=2 * len(cloud))]


def _points(rng, V, tol):
    """Points in the hull of V (deep, and on faces) and outside it by 10 tol to 1."""
    n = len(V)
    yield rng.dirichlet(np.ones(n)) @ V
    face = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
    yield face @ V / face.sum() if face.any() else V[0]
    i, center = rng.integers(n), V.mean(axis=0)
    away = V[i] - center if np.abs(V[i] - center).max() > 0 else rng.normal(size=V.shape[1])
    yield V[i] + 10.0 ** rng.uniform(np.log10(10 * tol), 0.0) * away / np.abs(away).max()
    yield center + 10.0 ** rng.uniform(np.log10(10 * tol), 0.0) * rng.normal(size=V.shape[1])


def test_hull_gap_weights_are_sound_against_highs(monkeypatch):
    # a gap settled by weights bounds HiGHS's hull distance from above, and
    # away from tol the verdicts agree; HiGHS sees V - x exactly, divided by
    # a power of two (the translate by 1e9 subtracts exactly: Sterbenz), and
    # resolves 1e-10 of the scale; tol is 1e-8 of the scale, but at least the
    # simplex's absolute 1e-8
    fits = count_calls(monkeypatch, geometry, "hull_fit")
    rng = np.random.default_rng(20)
    weighed = 0
    for unit in _unit_shapes(rng):
        for scale, shift in [(2.0**k, 0.0) for k in (-20, -10, 0, 10, 20)] + [(1.0, 1e9)]:
            V, tol = scale * unit + shift, 1e-8 * max(1.0, scale)
            for x in _points(rng, V, tol):
                fits.clear()
                (gap,), (step,) = geometry.hull_gaps(Polytope(V), x[None], tol)
                assert (geometry.LADDER[step] == "LP") == bool(fits)
                distance = scale * hull_distance((V - x) / scale, np.zeros(V.shape[1]), 1e-10)
                roundoff = len(V) * np.finfo(float).eps * np.abs(V - x).max() + 1e-10 * scale
                if geometry.LADDER[step] == "weights":
                    weighed += 1
                    assert distance <= gap + roundoff, (unit, scale, shift, x)
                if not tol / 2 <= distance <= 2 * tol:
                    assert (gap <= tol) == (distance <= tol), (unit, scale, shift, x, gap, distance)
    assert weighed >= 146, weighed  # 322 at the first run


def test_feasible_point_single_polytope():
    K = square()
    w = feasible_point([K], 1e-9)
    assert contains(K, w, 1e-7)


def test_feasible_point_overlapping_squares():
    a, b = unit_square(), Polytope.box([0.5, 0.0], [1.5, 1.0])
    w = feasible_point([a, b], 1e-9)
    assert contains(a, w, 1e-7) and contains(b, w, 1e-7)


def test_feasible_point_disjoint_segments():
    a = Polytope(np.array([[0.0], [1.0]]))
    b = Polytope(np.array([[2.0], [3.0]]))
    assert feasible_point([a, b], 1e-9) is None


def test_feasible_point_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        feasible_point([square(), Polytope(np.array([[0.0]]))], 1e-9)


def test_impossible_lp_status_is_a_numerical_error(monkeypatch):
    # the deviation LP is feasible for a large enough t, and a capped one runs
    # only at a cap that is met, so lp's verdict is its own error, passed on unchanged
    error = NumericalError("LP unexpectedly infeasible (phase-1 optimum 1.000e+00)")

    def verdict(c, A, b):
        raise error

    monkeypatch.setattr(geometry, "solve_lp", verdict)
    vertex_sets, origin, basis = [square().vertices], np.zeros(2), np.eye(2)
    with pytest.raises(NumericalError) as info:
        geometry.deviation_fit(vertex_sets, origin, basis)
    assert info.value is error
    with pytest.raises(NumericalError) as info:
        geometry.deviation_fit(vertex_sets, origin, basis, cap=1.0, direction=np.ones(2))
    assert info.value is error


# --- diameter / norms -----------------------------------------------------

def test_diameter_point_square_segment():
    point = Polytope(np.array([[1.0, 1.0]]))
    assert diameter(point) == 0.0
    assert diameter(square()) == 2.0
    seg = Polytope(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert diameter(seg) == 4.0


def test_diameter_equals_the_pairwise_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_v, dim = rng.integers(1, 40), rng.integers(1, 9)
        K = Polytope(rng.normal(scale=rng.uniform(0.1, 10.0), size=(n_v, dim)))
        pairwise = np.abs(K.vertices[:, None, :] - K.vertices[None, :, :]).max()
        assert diameter(K) == float(pairwise)


def test_diameter_builds_no_pairwise_array():
    # the pairwise |V_a - V_b| array of [-1,1]^8 alone is 256 * 256 * 8 * 8 B = 4 MiB
    K = Polytope.box(-np.ones(8), np.ones(8))
    tracemalloc.start()
    try:
        assert diameter(K) == 2.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_norm_duality_and_unit_balls():
    for dim in (1, 2, 3):
        linf = NormSpec(NormKind.MAX_ABS, dim)
        l1 = NormSpec(NormKind.SUM_ABS, dim)
        assert linf.dual() == l1 and l1.dual() == linf
        cube, cross = linf.unit_ball(), l1.unit_ball()
        assert cube.n_vertices == 2**dim == linf.ball_vertex_count()
        assert cross.n_vertices == 2 * dim == l1.ball_vertex_count()
        for ball in (cube, cross):  # central symmetry
            vs = sorted(map(tuple, ball.vertices))
            assert vs == sorted(map(tuple, -ball.vertices))


def test_operator_norms():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert NormSpec(NormKind.MAX_ABS, 2).operator_norm(m) == 3.0  # max row sum
    assert NormSpec(NormKind.SUM_ABS, 2).operator_norm(m) == 2.25  # max col sum
