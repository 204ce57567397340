import itertools
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixmk import geometry
from fixmk import (
    AffineMap,
    ConstraintSetTooLargeError,
    DegenerateBasisError,
    DimensionMismatchError,
    ExtensionInvariantError,
    ExtensionProblem,
    Leaf,
    NonlinearOperatorError,
    NormKind,
    NormSpec,
    Product,
    ZeroFunctionalError,
    build_constraint_set,
    dual_action,
    invariant_extension,
    lift_operators,
    normalize_problem,
    subspace_norm,
    validate_problem,
    verify_extension,
)
from fixmk.extension import ExtensionResult, _share_a_face
from fixmk.schema import load_problem
from conftest import fixture_paths
from helpers import cycle3, swap12_3d
from oracles import brute_min_dual_norm, constraint_set_vertices, facets_share_face

LINF2 = NormSpec(NormKind.MAX_ABS, 2)
LINF3 = NormSpec(NormKind.MAX_ABS, 3)
L1_2 = NormSpec(NormKind.SUM_ABS, 2)


def swap_problem(value=1.0):
    swap = AffineMap.linear([[0.0, 1.0], [1.0, 0.0]])
    return ExtensionProblem(2, LINF2, [[1.0, 1.0]], [value], Leaf((swap,)))


def s3_problem():
    return ExtensionProblem(
        3, LINF3, [[1.0, 1.0, 1.0]], [1.0], Product(Leaf((cycle3(),)), Leaf((swap12_3d(),)))
    )


def l1_problem():
    scale_op = AffineMap.linear([[1.0, 0.0], [0.0, 0.5]])
    return ExtensionProblem(2, L1_2, [[1.0, 0.0]], [3.0], Leaf((scale_op,)))


# --- ExtensionProblem -----------------------------------------------------------

@pytest.mark.parametrize("basis, values", [
    ([[1.0, 0.0, 0.0, 1.0]], [1.0, 1.0]),  # one row of 4, not two rows of 2
    ([[1.0, 2.0, 3.0]], [1.0]),
    ([1.0, 1.0], [1.0]),  # a vector, not a list of rows
], ids=["flattened-identity", "row-of-3", "one-dimensional"])
def test_problem_rejects_basis_rows_of_the_wrong_length(basis, values):
    with pytest.raises(DimensionMismatchError, match="rows of length 2"):
        ExtensionProblem(2, LINF2, basis, values, Leaf((AffineMap.identity(2),)))


def test_problem_rejects_nested_functional_values():
    with pytest.raises(DimensionMismatchError, match="flat vector"):
        ExtensionProblem(
            2, LINF2, [[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.25]], Leaf((AffineMap.identity(2),))
        )


def test_problem_accepts_a_basis_without_rows():
    prob = ExtensionProblem(2, LINF2, np.zeros((0, 2)), [], Leaf((AffineMap.identity(2),)))
    assert prob.subspace_basis.shape == (0, 2)


# --- subspace_norm / normalize_problem --------------------------------------

def test_subspace_norm_diagonal_linf():
    assert subspace_norm(swap_problem()) == pytest.approx(1.0, abs=1e-9)


def test_subspace_norm_axis_l1():
    assert subspace_norm(l1_problem()) == pytest.approx(3.0, abs=1e-9)


def test_subspace_norm_zero_functional():
    prob = swap_problem(0.0)
    assert subspace_norm(prob) == pytest.approx(0.0, abs=1e-12)


def test_subspace_norm_degenerate_basis():
    prob = ExtensionProblem(
        2, LINF2, [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], Leaf((AffineMap.identity(2),))
    )
    with pytest.raises(DegenerateBasisError):
        subspace_norm(prob)


@pytest.mark.parametrize("kind", list(NormKind))
def test_subspace_norm_is_min_extension_norm(kind):
    # Hahn-Banach: with no operator constraint, the least dual norm of an
    # extension of g (HiGHS) equals the norm of g on Y
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        if seed % 2:  # small integers: ties and degenerate vertices
            Y = rng.integers(-2, 3, size=(k, n)).astype(float)
            g = rng.integers(-3, 4, size=k).astype(float)
        else:
            Y = rng.standard_normal((k, n))
            g = rng.standard_normal(k)
        if np.linalg.matrix_rank(Y) < k:
            continue
        prob = ExtensionProblem(n, NormSpec(kind, n), Y, g, Leaf((AffineMap.identity(n),)))
        best_norm, _ = brute_min_dual_norm(prob)
        assert subspace_norm(prob) == pytest.approx(best_norm, rel=1e-9, abs=1e-12), seed
        checked += 1
    assert checked >= 50


def test_normalize_unit_norm_unchanged():
    scaled, scale = normalize_problem(swap_problem())
    assert scale == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(scaled.functional_on_subspace, [1.0], atol=1e-9)


def test_normalize_divides_by_scale():
    scaled, scale = normalize_problem(swap_problem(5.0))
    assert scale == pytest.approx(5.0, abs=1e-9)
    np.testing.assert_allclose(scaled.functional_on_subspace, [1.0], atol=1e-9)


def test_normalize_diagonal_value_two():
    # ||(t, t)||_inf = |t|, so g((1,1)) = 2 has norm 2
    scaled, scale = normalize_problem(swap_problem(2.0))
    assert scale == pytest.approx(2.0, abs=1e-9)


def test_normalize_zero_functional_raises():
    with pytest.raises(ZeroFunctionalError):
        normalize_problem(swap_problem(0.0))


# --- build_constraint_set -----------------------------------------------------

def test_constraint_set_swap_segment():
    K = build_constraint_set(swap_problem())
    np.testing.assert_allclose(
        sorted(map(tuple, np.round(K.vertices, 12))), [(0.0, 1.0), (1.0, 0.0)], atol=1e-9
    )


def test_constraint_set_full_subspace_pins_point():
    prob = ExtensionProblem(
        2, LINF2, [[1.0, 0.0], [0.0, 1.0]], [0.25, -0.5], Leaf((AffineMap.identity(2),))
    )
    K = build_constraint_set(prob)
    assert K.n_vertices == 1
    np.testing.assert_allclose(K.vertices[0], [0.25, -0.5], atol=1e-9)


def test_constraint_set_no_constraints_is_whole_ball():
    prob = ExtensionProblem(
        1, NormSpec(NormKind.SUM_ABS, 1), np.zeros((0, 1)), np.zeros(0),
        Leaf((AffineMap.identity(1),)),
    )
    K = build_constraint_set(prob)
    np.testing.assert_allclose(sorted(map(tuple, K.vertices)), [(-1.0,), (1.0,)], atol=1e-9)


def test_constraint_set_empty_raises():
    from fixmk import EmptyConstraintSetError

    # skipping normalization: no functional of dual norm <= 1 hits g = 3
    with pytest.raises(EmptyConstraintSetError):
        build_constraint_set(swap_problem(3.0))


# The batched screen must give the vertices of the unscreened loop, bit for bit.

def assert_reference_vertices(problem):
    ours = build_constraint_set(problem).vertices
    reference = constraint_set_vertices(problem)
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


def ball_problem(kind, n, value=1.3):
    """g on span(1) under the cyclic shift, normalized (the extend-ball shape)."""
    shift = AffineMap.linear(np.roll(np.eye(n), 1, axis=0))
    problem = ExtensionProblem(n, NormSpec(kind, n), [[1.0] * n], [value], Leaf((shift,)))
    return normalize_problem(problem)[0]


# the largest sizes, where the face prune skips the most, take about 1.7 s each
BALLS = (
    [(NormKind.MAX_ABS, n, (1.3, -0.7)) for n in range(2, 5)]
    + [(NormKind.SUM_ABS, n, (1.3, -0.7)) for n in range(2, 9)]
    + [(NormKind.MAX_ABS, 5, (1.3,)), (NormKind.SUM_ABS, 9, (1.3,))]
)


@pytest.mark.parametrize("kind, n, values", BALLS, ids=[f"{k.value}-{n}" for k, n, _ in BALLS])
def test_constraint_set_matches_reference_on_balls(kind, n, values):
    for value in values:
        assert_reference_vertices(ball_problem(kind, n, value))


@pytest.mark.parametrize("path", fixture_paths("extension"), ids=lambda p: p.stem)
def test_constraint_set_matches_reference_on_fixtures(path):
    assert_reference_vertices(normalize_problem(load_problem(path).payload.problem)[0])


RANDOM_SUBSPACES = list(itertools.product(NormKind, [1, 2], [2, 3, 4, 5], ["normal", "integer"]))


@pytest.mark.parametrize(
    "seed, kind, k, n, entries",
    [(seed, *case) for seed, case in enumerate(RANDOM_SUBSPACES)],
    ids=[f"{kind.value}-k{k}-n{n}-{entries}" for kind, k, n, entries in RANDOM_SUBSPACES],
)
def test_constraint_set_matches_reference_on_random_subspaces(seed, kind, k, n, entries):
    rng = np.random.default_rng(seed)
    while True:  # integer rows can be dependent, which normalize_problem rejects
        basis = rng.normal(size=(k, n)) if entries == "normal" else rng.integers(-2, 3, (k, n))
        if np.linalg.matrix_rank(basis) == k:
            break
    values = rng.uniform(-2.0, 2.0, size=k)
    problem = ExtensionProblem(n, NormSpec(kind, n), basis, values, Leaf((AffineMap.identity(n),)))
    assert_reference_vertices(normalize_problem(problem)[0])


def test_constraint_set_matches_reference_on_dependent_basis():
    # rank 1 from two rows: the systems are 4 x 3, so none is solved in the batch
    prob = ExtensionProblem(
        3, LINF3, [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [0.5, 1.0], Leaf((AffineMap.identity(3),))
    )
    assert_reference_vertices(prob)


def test_constraint_set_screen_leaves_few_combinations_to_lstsq(monkeypatch):
    problem = ball_problem(NormKind.SUM_ABS, 8)  # C(16, 7) = 11,440 combinations
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
    build_constraint_set(problem)
    assert 0 < len(calls) < 20


@pytest.mark.parametrize(
    "kind, n, matrices", [(NormKind.MAX_ABS, 5, 15_480), (NormKind.SUM_ABS, 9, 2_304)]
)
def test_constraint_set_screens_only_facets_sharing_a_face(kind, n, matrices, monkeypatch):
    # of C(32, 4) = 35,960 and C(18, 8) = 43,758 combinations
    screened = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda M, **kw: screened.append(len(M)) or svd(M, **kw)
    )
    build_constraint_set(ball_problem(kind, n))
    assert sum(screened) == matrices


FACE_BALLS = [(NormKind.MAX_ABS, n) for n in range(2, 5)] + [(NormKind.SUM_ABS, n) for n in range(2, 6)]


@pytest.mark.parametrize("kind, n", FACE_BALLS, ids=[f"{k.value}-{n}" for k, n in FACE_BALLS])
def test_face_criterion_matches_highs(kind, n):
    norm = NormSpec(kind, n)
    facets = norm.unit_ball().vertices
    for m in range(1, n + 1):
        combos = np.array(list(itertools.combinations(range(len(facets)), m)))
        ours = _share_a_face(norm, facets[combos])
        assert ours.tolist() == [facets_share_face(norm, facets[c]) for c in combos]


def test_constraint_set_logs_one_record(caplog):
    problem = ball_problem(NormKind.SUM_ABS, 9)  # normalizing logs an LP record
    with caplog.at_level(logging.DEBUG, logger="fixmk"):
        build_constraint_set(problem)
    (record,) = caplog.records
    assert record.name == "fixmk.extension"
    assert record.getMessage() == (
        "constraint set: 43758 facet combinations, 2304 share a face, 1 reach lstsq, "
        "1 vertices kept"
    )


def test_constraint_set_memory_stays_flat():
    # 64-combination batches peak at 54-81 KB here, 1,024-combination ones at 0.69-1.1 MB
    for kind, n in [(NormKind.SUM_ABS, 8), (NormKind.SUM_ABS, 9), (NormKind.MAX_ABS, 5)]:
        problem = ball_problem(kind, n)
        tracemalloc.start()
        try:
            build_constraint_set(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10, (kind, n, peak)


class BallBuilt(Exception):
    pass


CAP_CASES = [
    (NormKind.MAX_ABS, 6, None),  # C(64, 5) = 7,624,512
    (NormKind.SUM_ABS, 13, None),  # C(26, 12) = 9,657,700
    (NormKind.MAX_ABS, 7, "C(128, 6) = 5,423,611,200 facet combinations"),
    (NormKind.SUM_ABS, 14, "C(28, 13) = 37,442,160 facet combinations"),
    (NormKind.MAX_ABS, 40, "the dual ball has 1,099,511,627,776 facets"),
]


@pytest.mark.parametrize(
    "kind, n, refused", CAP_CASES, ids=[f"{k.value}-{n}" for k, n, _ in CAP_CASES]
)
def test_combination_cap_refuses_before_the_ball_is_built(kind, n, refused, monkeypatch):
    def build(self):
        raise BallBuilt

    monkeypatch.setattr(NormSpec, "unit_ball", build)
    problem = ball_problem(kind, n)
    if refused is None:
        with pytest.raises(BallBuilt):
            build_constraint_set(problem)
    else:
        with pytest.raises(ConstraintSetTooLargeError, match=re.escape(refused)):
            build_constraint_set(problem)


# --- dual_action ---------------------------------------------------------------

def test_dual_action_identity_and_swap():
    ident = AffineMap.identity(2)
    assert np.array_equal(dual_action(ident).matrix, np.eye(2))
    swap = AffineMap.linear([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(dual_action(swap).matrix, swap.matrix)


def test_dual_action_transposes():
    m = AffineMap.linear([[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(dual_action(m).matrix, m.matrix.T)


def test_dual_action_rejects_offset():
    with pytest.raises(NonlinearOperatorError):
        dual_action(AffineMap.translation([1.0, 0.0]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
    arrays(np.float64, (3,), elements=st.floats(-2, 2)),
    arrays(np.float64, (3,), elements=st.floats(-2, 2)),
)
def test_dual_action_pairing_identity(matrix, lam, x):
    T = AffineMap.linear(matrix)
    lhs = float(dual_action(T)(lam) @ x)
    rhs = float(lam @ T(x))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_lift_keeps_tree_shape():
    lifted = lift_operators(s3_problem().operators)
    assert isinstance(lifted, Product)
    np.testing.assert_array_equal(lifted.normal.generators[0].matrix, cycle3().matrix.T)


# --- problem validation ---------------------------------------------------------

def test_validate_problem_all_good():
    assert validate_problem(swap_problem()) == []


def test_validate_problem_operator_norm():
    prob = ExtensionProblem(
        2, LINF2, [[1.0, 0.0]], [1.0], Leaf((AffineMap.linear([[1.0, 0.0], [0.0, 1.5]]),))
    )
    violations = validate_problem(prob)
    assert [v.invariant for v in violations] == ["operator-norm"]
    assert violations[0].residual == pytest.approx(0.5)


def test_validate_problem_subspace_escape():
    rot = AffineMap.linear([[0.0, -1.0], [1.0, 0.0]])
    prob = ExtensionProblem(2, LINF2, [[1.0, 0.0]], [1.0], Leaf((rot,)))
    assert any(v.invariant == "subspace-not-invariant" for v in validate_problem(prob))


def test_validate_problem_functional_drift():
    # -I keeps Y = span{(1,0)} and has norm 1, but flips g
    neg = AffineMap.linear([[-1.0, 0.0], [0.0, -1.0]])
    prob = ExtensionProblem(2, LINF2, [[1.0, 0.0]], [1.0], Leaf((neg,)))
    assert any(v.invariant == "functional-not-invariant" for v in validate_problem(prob))


def test_validate_problem_offset():
    prob = ExtensionProblem(
        2, LINF2, [[1.0, 0.0]], [1.0], Leaf((AffineMap.translation([0.5, 0.0]),))
    )
    assert [v.invariant for v in validate_problem(prob)] == ["nonzero-offset"]


# --- invariant_extension ----------------------------------------------------------

def test_extension_swap_fixture():
    result = invariant_extension(swap_problem())
    np.testing.assert_allclose(result.functional, [0.5, 0.5], atol=1e-8)
    assert result.dual_norm == pytest.approx(1.0, abs=1e-8)
    assert result.restriction_residual <= 1e-8
    assert max(result.invariance_residuals.values()) <= 1e-8


def test_extension_s3_fixture():
    result = invariant_extension(s3_problem())
    np.testing.assert_allclose(result.functional, np.full(3, 1.0 / 3.0), atol=1e-8)
    assert result.dual_norm == pytest.approx(1.0, abs=1e-8)


def test_extension_identity_gives_constraint_centroid():
    prob = ExtensionProblem(2, LINF2, [[1.0, 1.0]], [1.0], Leaf((AffineMap.identity(2),)))
    result = invariant_extension(prob)
    np.testing.assert_allclose(result.functional, [0.5, 0.5], atol=1e-8)
    assert result.dual_norm == pytest.approx(1.0, abs=1e-8)


def test_extension_l1_fixture():
    result = invariant_extension(l1_problem())
    np.testing.assert_allclose(result.functional, [3.0, 0.0], atol=1e-8)
    assert result.dual_norm == pytest.approx(3.0, abs=1e-8)


def test_extension_zero_functional_shortcut():
    result = invariant_extension(swap_problem(0.0))
    np.testing.assert_array_equal(result.functional, [0.0, 0.0])
    assert result.dual_norm == 0.0


def test_extension_rescales_back():
    result = invariant_extension(swap_problem(5.0))
    np.testing.assert_allclose(result.functional, [2.5, 2.5], atol=1e-7)
    assert result.dual_norm == pytest.approx(5.0, abs=1e-7)


def test_extension_fits_no_constraint_set_vertex(monkeypatch):
    # validate_problem implies the lifted tree keeps K, so the only membership
    # checks left are the cross-check's of its start point and the exact
    # route's of its result, and convex weights settle both without a fit
    calls = []
    original = geometry.hull_fit
    monkeypatch.setattr(geometry, "hull_fit", lambda K, x: calls.append(1) or original(K, x))
    invariant_extension(s3_problem())
    assert len(calls) == 0


def test_extension_raises_every_violation():
    scale_up = AffineMap.linear([[2.0, 0.0], [0.0, 2.0]])
    prob = ExtensionProblem(2, LINF2, [[1.0, 0.0]], [1.0], Leaf((scale_up,)))
    with pytest.raises(ExtensionInvariantError) as info:
        invariant_extension(prob)
    expected = validate_problem(prob)
    assert [(v.invariant, v.label) for v in info.value.violations] == [
        (v.invariant, v.label) for v in expected
    ]
    assert info.value.invariant == "operator-norm"


# --- verify_extension ----------------------------------------------------------------

def test_verify_roundtrip():
    prob = s3_problem()
    check = verify_extension(invariant_extension(prob), prob, 1e-8)
    assert check.ok and check.failures == []
    assert check.dual_norm <= check.subspace_norm + 1e-8
    assert check.dual_norm >= check.subspace_norm - 1e-8  # restriction forces >=


def test_verify_flags_perturbation():
    prob = swap_problem()
    result = invariant_extension(prob)
    bumped = ExtensionResult(
        result.functional + np.array([0.1, 0.0]),
        result.dual_norm,
        result.invariance_residuals,
        result.restriction_residual,
    )
    check = verify_extension(bumped, prob, 1e-8)
    assert not check.ok
    assert any("restriction" in f or "dual norm" in f for f in check.failures)


def test_verify_flags_broken_invariance():
    # (1, 0) restricts to g and has dual norm 1, but is not swap-invariant
    prob = swap_problem()
    skew = ExtensionResult(np.array([1.0, 0.0]), 1.0, {}, 0.0)
    check = verify_extension(skew, prob, 1e-8)
    assert not check.ok
    assert check.restriction_residual <= 1e-12
    assert check.dual_norm == pytest.approx(1.0, abs=1e-12)
    assert all("invariance" in f for f in check.failures)


# --- brute-force LP oracle ------------------------------------------------------------

@pytest.mark.parametrize(
    "factory,unique",
    [(swap_problem, True), (s3_problem, True), (l1_problem, True)],
)
def test_brute_oracle_agreement(factory, unique):
    prob = factory()
    result = invariant_extension(prob)
    best_norm, best_lam = brute_min_dual_norm(prob)
    assert result.dual_norm == pytest.approx(best_norm, abs=1e-8)
    if unique:
        np.testing.assert_allclose(result.functional, best_lam, atol=1e-6)


def test_brute_oracle_agreement_identity_fixture():
    # the optimum is a whole segment; only the norm is comparable
    prob = ExtensionProblem(2, LINF2, [[1.0, 1.0]], [1.0], Leaf((AffineMap.identity(2),)))
    result = invariant_extension(prob)
    best_norm, _ = brute_min_dual_norm(prob)
    assert result.dual_norm == pytest.approx(best_norm, abs=1e-8)
