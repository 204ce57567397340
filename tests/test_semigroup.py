import hashlib
import logging
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import fixture_paths
from fixmk import geometry, semigroup
from fixmk import (
    AffineMap,
    EnumerationCapError,
    Leaf,
    NumericalError,
    Polytope,
    Product,
    affine_compose,
    check_normal_factor,
    convex_combination,
    lift_operators,
    validate_relations,
    validate_structure,
)
from fixmk.errors import SchemaError
from fixmk.schema import ExtensionPayload, load_problem
from fixmk.semigroup import flatten
from helpers import (
    commuting_combination, commuting_contractions, count_calls, cube, dihedral_node, enumerate_elements,
    ladder_entries, polygon_dihedral, reflect_x, rot90, rot180, signed_permutations, square, unit_square,
)
from oracles import map_deviation


# --- abelian leaves --------------------------------------------------------

def test_abelian_identity():
    assert validate_relations(Leaf((AffineMap.identity(2),))).ok


def test_abelian_rotations_commute():
    report = validate_relations(Leaf((rot90(), rot180())))
    assert report.ok and report.failures == []


def test_abelian_rotation_vs_reflection_fails():
    report = validate_relations(Leaf((rot90(), reflect_x())))
    assert not report.ok
    assert report.failures[0].kind == "non-commuting-pair"
    assert report.failures[0].witness == ("g0", "g1")
    assert report.failures[0].residual == pytest.approx(2.0)


# --- invariance ------------------------------------------------------------

def test_invariance_identity_and_rotation():
    assert validate_structure(Leaf((AffineMap.identity(2),)), square(), 1e-9).ok
    assert validate_structure(Leaf((rot90(),)), square(), 1e-9).ok


def test_invariance_translation_fails():
    report = validate_structure(Leaf((AffineMap.translation([2.0, 0.0]),)), unit_square(), 1e-9)
    assert not report.ok
    assert report.failures[0].kind == "not-invariant"
    assert report.failures[0].residual == pytest.approx(2.0, abs=1e-7)


# --- check_normal_factor ---------------------------------------------------

def test_normal_identity_always_ok():
    report = check_normal_factor(Leaf((AffineMap.identity(2),)), Leaf((rot90(),)))
    assert report.ok


def test_normal_rotation_under_reflection():
    # reflect . rot90 = rot270 . reflect: the reflection keeps Fix(rot90) = {0},
    # whatever the length of the word rot270 = rot90^3
    assert check_normal_factor(Leaf((rot90(),)), Leaf((reflect_x(),))).ok


def test_normal_shear_vs_rotation_fails():
    # rot90 turns Fix(shear) = span(e1) into span(e2), which the shear moves by 1
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    report = check_normal_factor(Leaf((shear,)), Leaf((rot90(),)))
    assert [(f.kind, f.witness) for f in report.failures] == [("normal-relation", ("normal:g0", "quotient:g1"))]
    assert report.failures[0].residual == pytest.approx(1.0)


def test_a_translation_normal_factor_fails_invariance_only():
    # Fix of a translation is empty, so any quotient keeps it; the translation leaves K
    node = Product(Leaf((AffineMap.translation([0.5, 0.0]),)), Leaf((rot90(),)))
    assert check_normal_factor(node.normal, node.quotient).ok
    report = validate_structure(node, square())
    assert [(f.kind, f.witness) for f in report.failures] == [("not-invariant", ("g0",))]


# --- the exact normal relation against scipy and against the word search ----

def _about(matrix, centre):
    M, c = np.array(matrix, dtype=float), np.array(centre, dtype=float)
    return AffineMap(M, c - M @ c)


diagonal_products = st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.sampled_from([1.0, 0.5, -1.0]), min_size=d, max_size=d), min_size=1, max_size=2),
    st.permutations(range(d)),
    *[st.lists(st.sampled_from(values), min_size=d, max_size=d)
      for values in ([1.0, -1.0, 0.5, 0.0], [0.0, 0.5, -1.0], [0.0, 0.5, -1.0])],
))


def diagonal_product(diagonals, perm, scales, centre, quotient_centre):
    """Commuting diagonal scalings about one centre, normal under a scaled permutation about another."""
    normal = Leaf(tuple(_about(np.diag(a), centre) for a in diagonals))
    return Product(normal, Leaf((_about(np.eye(len(perm))[list(perm)] * scales, quotient_centre),)))


def named_products():
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    half = AffineMap.linear(0.5 * np.eye(2))
    yield from (polygon_dihedral(m)[0] for m in range(3, 17))
    yield from (dihedral_node(), Product(Leaf((shear,)), Leaf((rot90(),))),
                Product(Leaf((AffineMap.translation([0.5, 0.0]),)), Leaf((rot90(),))),
                Product(Leaf((half,)), Product(Leaf((shear,)), Leaf((rot90(),)))),
                Product(Leaf((AffineMap.linear([[1.0, 0.0], [0.0, 0.5]]),)),
                        Leaf((AffineMap.linear([[0.0, 1.0], [0.0, 1.0]]),))))
    yield from (signed_permutations(perm, scaled) for perm in ([1, 0, 2], [2, 3, 0, 1], [4, 0, 3, 1, 2])
                for scaled in (None, 0, len(perm)))


def assert_exact_relation_as_the_references_see_it(node):
    """validate_relations names the pairs the null_space loop names, and only pairs the word search names."""
    named = [(f.kind, f.witness) for f in validate_relations(node).failures]
    assert named == [(kind, w) for kind, w, _ in oracles.relation_loop(node, semigroup.DEFAULT_RELATION_TOL)[1]]
    words = oracles.relation_loop(node, semigroup.DEFAULT_RELATION_TOL, word_budget=6)[1]
    assert set(named) <= {(kind, w) for kind, w, _ in words}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_products)
def test_diagonal_products_relate_as_the_references_see_them(case):
    assert_exact_relation_as_the_references_see_it(diagonal_product(*case))


def test_named_products_relate_as_the_references_see_them():
    for node in named_products():
        assert_exact_relation_as_the_references_see_it(node)


def corpus_trees():
    """(name, tree, polytope or None, word budget) of every parsable fixture; extensions lifted."""
    for path in fixture_paths("solve") + fixture_paths("fip") + fixture_paths("negative"):
        try:
            pf = load_problem(path)
        except SchemaError:
            continue
        if isinstance(pf.payload, ExtensionPayload):
            yield path.stem, lift_operators(pf.payload.problem.operators), None, pf.options.word_budget
        else:
            yield path.stem, pf.payload.node, pf.payload.polytope, pf.options.word_budget
    for path in fixture_paths("extension"):
        pf = load_problem(path)
        yield path.stem, lift_operators(pf.payload.problem.operators), None, pf.options.word_budget


def test_whatever_the_word_search_accepted_still_validates():
    seen = 0
    for name, node, K, budget in corpus_trees():
        assert_exact_relation_as_the_references_see_it(node)
        if K is None:
            accepted = oracles.relation_loop(node, 1e-9, budget)[1] == []
            assert validate_relations(node).ok or not accepted, name
        else:
            accepted = oracles.validation_loop(node, K, 1e-9, budget)[1] == []
            assert validate_structure(node, K).ok or not accepted, name
        seen += accepted
    assert seen >= 19  # all but the two negative fixtures that fail validation


# --- validate_structure ----------------------------------------------------

def test_validate_identity_leaf():
    report = validate_structure(Leaf((AffineMap.identity(2),)), square())
    assert report.ok and report.depth == 1


def test_validate_dihedral_depth_two():
    report = validate_structure(dihedral_node(), square())
    assert report.ok and report.depth == 2


def test_validate_layered_depth_three():
    node = Product(Product(Leaf((rot180(),)), Leaf((rot90(),))), Leaf((reflect_x(),)))
    report = validate_structure(node, square())
    assert report.ok and report.depth == 3


def test_validate_non_commuting_leaf_fails():
    report = validate_structure(Leaf((rot90(), reflect_x())), square())
    assert not report.ok
    assert any(f.kind == "non-commuting-pair" for f in report.failures)


def test_validate_reports_invariance_once_with_tree_labels():
    # -I keeps the square; the shift (tree label g1) does not
    node = Product(Leaf((rot180(),)), Leaf((AffineMap.translation([0.5, 0.0]),)))
    report = validate_structure(node, square())
    moved = [f for f in report.failures if f.kind == "not-invariant"]
    assert [f.witness for f in moved] == [("g1",)]
    assert moved[0].residual == pytest.approx(0.5)


def test_validate_labels_abelian_witnesses_tree_wide():
    # tree-wide, -I is g0 and the non-commuting pair in the quotient is (g1, g2)
    node = Product(Leaf((rot180(),)), Leaf((rot90(), reflect_x())))
    report = validate_structure(node, square())
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("non-commuting-pair", ("g1", "g2"))
    ]


def test_validate_labels_normal_relation_witnesses_tree_wide():
    # tree-wide, the shear is g1 and rot90, which turns Fix(shear) out of itself, is g2
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    half = AffineMap.linear(0.5 * np.eye(2))
    node = Product(Leaf((half,)), Product(Leaf((shear,)), Leaf((rot90(),))))
    report = validate_relations(node)
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("normal-relation", ("normal:g1", "quotient:g2"))
    ]


def test_normal_factor_labels_follow_the_product():
    # on its own, check_normal_factor labels Product(normal, quotient) as flatten does;
    # rot90 turns Fix = span(e1) into span(e2), which only the reflection (g1) moves
    report = check_normal_factor(Leaf((AffineMap.identity(2), reflect_x())), Leaf((rot90(),)))
    assert [f.witness for f in report.failures] == [("normal:g1", "quotient:g2")]


def test_validate_fits_each_vertex_generator_pair_once(monkeypatch):
    # commuting contractions: no image of a vertex is a vertex, so every
    # pair enters the ladder past the vertex match, and none enters twice;
    # the images are interior, and weights settle them all
    entries = ladder_entries(monkeypatch)
    fits = count_calls(monkeypatch, geometry, "hull_fit")
    node = Product(
        Product(
            Leaf((AffineMap.linear(0.5 * np.eye(2)),)),
            Leaf((AffineMap.linear(-0.5 * np.eye(2)),)),
        ),
        Leaf((AffineMap.linear(0.5 * rot90().matrix),)),
    )
    K = square()
    assert validate_structure(node, K).ok
    images = [tuple(g(v).tolist()) for _, g in flatten(node) for v in K.vertices]
    assert sorted(point for point, _ in entries) == sorted(images)
    assert len(entries) == K.n_vertices * 3 and fits == []
    assert {step for _, step in entries} == {"weights"}


def test_validate_vertex_permuting_tree_solves_no_lp(monkeypatch):
    # coordinate reversal on [-1,1]^8 permutes the 256 vertices
    calls = count_calls(monkeypatch, geometry, "solve_lp")
    K = Polytope.box(-np.ones(8), np.ones(8))
    reversal = AffineMap.linear(np.eye(8)[::-1])
    assert validate_structure(Leaf((reversal,)), K).ok
    assert calls == []


def test_invariance_matches_rounded_rotation_without_fit(monkeypatch):
    # cos/sin rot90 lands about 1e-16 off the vertices
    calls = count_calls(monkeypatch, geometry, "hull_fit")
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    rotation = AffineMap.linear([[c, -s], [s, c]])
    assert np.abs(rotation.matrix - rot90().matrix).max() > 0
    assert validate_structure(Leaf((rotation,)), square(), 1e-9).ok
    assert calls == []


def test_invariance_near_miss_still_fits_and_reports_hull_distance(monkeypatch):
    # scaling by 1 + 1e-7 leaves every image 1e-7 from its vertex, over tol
    g = AffineMap.linear((1.0 + 1e-7) * np.eye(2))
    K = square()
    expected = max(geometry.hull_fit(K, g(v))[0] for v in K.vertices)
    calls = count_calls(monkeypatch, geometry, "hull_fit")
    report = validate_structure(Leaf((g,)), K, 1e-9)
    assert len(calls) == K.n_vertices
    assert [(f.kind, f.residual) for f in report.failures] == [("not-invariant", expected)]
    assert expected == pytest.approx(1e-7, rel=1e-6)


def test_invariance_pass_logs_match_and_lp_counts(caplog):
    node = Leaf((rot90(), AffineMap.linear(0.5 * np.eye(2))))
    with caplog.at_level(logging.DEBUG, logger="fixmk"):
        assert validate_structure(node, square()).ok
    records = [r for r in caplog.records if r.name.startswith("fixmk")]
    assert [r.getMessage() for r in records] == [
        "invariance pass: 8 vertex-generator pairs: 4 by vertex match, 4 by weights, 0 by LP"
    ]
    # images near the corner (0.9, 0.9) have negative minimum-norm weights; 1.5 I leaves K
    caplog.clear()
    near_corner = AffineMap(0.05 * np.eye(2), [0.85, 0.85])
    with caplog.at_level(logging.DEBUG, logger="fixmk"):
        report = validate_structure(Leaf((near_corner, AffineMap.linear(1.5 * np.eye(2)))), square(), 1e-9)
    assert [r.getMessage() for r in caplog.records if r.name.startswith("fixmk")] == [
        "invariance pass: 8 vertex-generator pairs: 0 by vertex match, 4 by weights, 4 by LP"
    ]
    # the two maps do not commute; the invariance pass reports only 1.5 I, by its LP gap
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("non-commuting-pair", ("g0", "g1")), ("not-invariant", ("g1",))
    ]
    assert report.failures[1].residual == pytest.approx(0.5, abs=1e-7)


def test_validate_is_deterministic():
    node = dihedral_node()
    a = validate_structure(node, square())
    b = validate_structure(node, square())
    assert (a.ok, a.depth) == (b.ok, b.depth)
    assert [(f.kind, f.witness, f.residual) for f in a.failures] == [
        (f.kind, f.witness, f.residual) for f in b.failures
    ]


# --- word enumeration ------------------------------------------------------

def test_enumerate_identity_leaf():
    els = enumerate_elements(Leaf((AffineMap.identity(3),)), 5)
    assert len(els) == 1


def test_enumerate_rotation_cycles():
    els = enumerate_elements(Leaf((rot90(),)), 4)
    assert len(els) == 4  # I, R, R^2, R^3; R^4 dedups to I


def test_enumerate_dihedral_counts():
    # words over {R90, S}: 6 distinct maps up to length 2 (out of at most
    # 1+2+4 strings), the full 8-element dihedral set from length 3 on
    assert len(enumerate_elements(dihedral_node(), 2)) == 6
    assert len(enumerate_elements(dihedral_node(), 3)) == 8
    assert len(enumerate_elements(dihedral_node(), 6)) == 8


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 4)
    halving = AffineMap(np.array([[0.5]]), np.zeros(1))
    with pytest.raises(EnumerationCapError) as err:
        enumerate_elements(Leaf((halving,)), 10)
    assert err.value.cap == 4


# --- convex-hull closure (abelian leaves) ----------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_closure_of_convex_combinations(seed):
    node = Leaf((rot90(),))
    words = enumerate_elements(node, 3)
    long_words = enumerate_elements(node, 6)
    rng = np.random.default_rng(seed)
    c1 = convex_combination(words, rng.dirichlet(np.ones(len(words))))
    c2 = convex_combination(words, rng.dirichlet(np.ones(len(words))))
    composed = affine_compose(c1, c2)
    # commutativity of the hull semigroup
    assert map_deviation(composed, affine_compose(c2, c1)) <= 1e-10
    # pairwise product expansion stays inside the enumerated set
    for a in words:
        for b in words:
            prod = affine_compose(a, b)
            assert min(map_deviation(prod, w) for w in long_words) <= 1e-10


# --- normal commutation at the hull level ----------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_commuting_combination_for_dihedral(seed):
    node = dihedral_node()
    words = enumerate_elements(node.normal, 6)
    rng = np.random.default_rng(seed)
    h = convex_combination(words, rng.dirichlet(np.ones(len(words))))
    g = reflect_x()
    h2 = commuting_combination(h, g, words, tol=1e-8)
    assert h2 is not None
    assert map_deviation(affine_compose(h, g), affine_compose(g, h2)) <= 1e-8


def test_commuting_combination_detects_failure():
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    words = enumerate_elements(Leaf((shear,)), 4)
    assert commuting_combination(shear, rot90(), words, tol=1e-8) is None


# --- the stacked passes against the plain loops -----------------------------

def _bits(depth, failures, matched):
    return depth, [(kind, tuple(witness), float(r).hex()) for kind, witness, r in failures], matched


def validated(node, K):
    """validate_structure's (depth, failures with residual bits, pairs settled by vertex match)."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    log = logging.getLogger("fixmk.semigroup")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        report = validate_structure(node, K, 1e-9)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    (record,) = records
    return _bits(report.depth, [(f.kind, f.witness, f.residual) for f in report.failures], record.args[1])


def assert_words_match_the_loop(node, budget):
    matrices, offsets = semigroup._words(node, budget)
    words = oracles.words_loop(node, budget)
    assert matrices.tobytes() == np.array([w.matrix for w in words]).tobytes()
    assert offsets.tobytes() == np.array([w.offset for w in words]).tobytes()


@pytest.mark.parametrize("d", range(3, 9))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_signed_permutations_validate_with_no_lp_as_the_loops_do(d, data):
    perm = data.draw(st.permutations(range(d)))
    node, K = signed_permutations(perm), cube(d)
    got = validated(node, K)
    assert got == _bits(*oracles.validation_loop(node, K, 1e-9))
    assert got[1] == [] and got[2] == (len(perm) + 1) * K.n_vertices  # every pair matched: no LP
    assert_words_match_the_loop(node.normal, 6)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.integers(3, 6).flatmap(lambda d: st.tuples(st.permutations(range(d)), st.integers(0, d))),
)
def test_a_scaled_signed_permutation_is_named_as_the_loops_name_it(case):
    perm, scaled = case
    node, K = signed_permutations(perm, scaled), cube(len(perm))
    got = validated(node, K)
    assert got == _bits(*oracles.validation_loop(node, K, 1e-9))
    assert [w for kind, w, _ in got[1] if kind == "not-invariant"] == [(f"g{scaled}",)]
    assert_words_match_the_loop(node.normal, 4)


contraction_cases = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.floats(-2.0, 2.0),
        st.floats(0.5, 3.0),
        st.lists(st.lists(st.floats(-0.9, 0.9), min_size=d, max_size=d), min_size=1, max_size=3),
    )
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(contraction_cases)
def test_commuting_contractions_validate_as_the_loops_do(case):
    node, K = commuting_contractions(*case)
    got = validated(node, K)
    assert got == _bits(*oracles.validation_loop(node, K, 1e-9))
    assert got[1] == []
    assert_words_match_the_loop(node, 6)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(contraction_cases.flatmap(lambda c: st.tuples(st.just(c), st.integers(0, len(c[2]) - 1))))
def test_a_stretched_contraction_is_named_as_the_loops_name_it(case):
    (lo, width, scales), stretched = case
    node, K = commuting_contractions(lo, width, scales, stretched)
    got = validated(node, K)
    assert got == _bits(*oracles.validation_loop(node, K, 1e-9))
    assert [w for _, w, _ in got[1]] == [(f"g{stretched}",)]
    assert got[2] == 0  # no image is a vertex: every pair takes its LP
    assert_words_match_the_loop(node, 6)


def test_validation_memory_stays_within_half_a_mebibyte():
    # the d=8 hyperoctahedral product: 2 x 256 images matched in 64 KiB chunks;
    # one broadcast of all 256 images against the 256 vertices is 4 MiB
    node = Product(Leaf((AffineMap.linear(-np.eye(8)),)), Leaf((AffineMap.linear(np.roll(np.eye(8), 1, 0)),)))
    K = cube(8)
    tracemalloc.start()
    try:
        assert validate_structure(node, K).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_enumeration_keeps_a_word_close_only_to_a_dropped_one():
    # g1 is within 1e-10 of g0 and dropped; g2 is within 1e-10 of g1 only, so it stays
    gens = tuple(AffineMap([[0.5]], [0.3 + k * 0.8e-10]) for k in range(3))
    words = enumerate_elements(Leaf(gens), 1)
    assert [w.offset[0] for w in words] == [0.0, gens[0].offset[0], gens[2].offset[0]]
    assert_words_match_the_loop(Leaf(gens), 3)


def two_contractions():
    a = AffineMap(np.array([[0.5, 0.2], [0.1, 0.6]]), np.array([0.1, -0.3]))
    b = AffineMap(np.array([[0.4, -0.3], [0.25, 0.5]]), np.array([-0.2, 0.05]))
    return Leaf((a, b))


def test_enumeration_reaches_the_real_cap_within_a_second():
    assert_words_match_the_loop(two_contractions(), 8)  # 511 words, none equal
    started = time.perf_counter()
    with pytest.raises(EnumerationCapError) as err:
        enumerate_elements(two_contractions(), 20)
    assert time.perf_counter() - started < 1.0
    assert err.value.cap == semigroup.DEFAULT_ELEMENT_CAP == 10_000


def test_signed_permutation_words_of_d8_within_a_second():
    # four seeded signed permutations of R^8, budget 6; the per-word loop
    # took about 19 s to list the same 5,411 words (digest of its stacks)
    rng = np.random.default_rng(0)
    gens = [AffineMap.linear(np.eye(8)[rng.permutation(8)] * rng.choice([-1.0, 1.0], 8)) for _ in range(4)]
    started = time.perf_counter()
    words = enumerate_elements(Leaf(tuple(gens)), 6)
    assert time.perf_counter() - started < 1.0
    stacked = np.array([w.matrix for w in words]).tobytes() + np.array([w.offset for w in words]).tobytes()
    assert len(words) == 5411
    assert hashlib.sha256(stacked).hexdigest() == (
        "abd3d2f2780447fa55b2e229fc453e361c1993c6589ca53932ad66a4c7cdccb1"
    )


def test_overflow_names_the_step_and_the_generator():
    huge = AffineMap.linear([[1e200]])
    interval = Polytope(np.array([[1.0], [-1.0]]))
    with pytest.raises(NumericalError, match="invariance check: g0 maps a vertex"):
        validate_structure(Leaf((huge,)), Polytope(np.array([[1e200], [-1e200]])), 1e-9)
    with pytest.raises(NumericalError, match="abelian check: composing g1 and g2 overflows"):
        validate_structure(Leaf((AffineMap.identity(1), huge, huge)), interval)
    with pytest.raises(NumericalError, match="word enumeration: composing a word with g1 overflows"):
        enumerate_elements(Leaf((AffineMap.linear([[-1.0]]), huge)), 3)
    # the words are finite, their dedup keys are not
    with pytest.raises(NumericalError, match="^word enumeration: keying the words of length 1 overflows$"):
        enumerate_elements(Leaf((AffineMap.translation([1.5e308, 0.0]),)), 1)
    far = Leaf((AffineMap([[0.0]], [1e300]),))  # Fix = {1e300}, which g maps to 1e310
    with pytest.raises(NumericalError, match="^normal relation: normal:g0 after quotient:g1 on Fix"):
        check_normal_factor(far, Leaf((AffineMap.linear([[1e10]]),)))
    tall = Leaf((AffineMap.linear([[1.7e308, 0.0], [1.7e308, 0.0]]),))  # s_max of A - I is inf
    with pytest.raises(NumericalError, match="^solving the stacked fixed-point equations overflows$"):
        check_normal_factor(tall, Leaf((AffineMap.identity(2),)))
    h = AffineMap.linear([[1e200, 0.0], [0.0, 1.0]])
    g = AffineMap.linear([[0.0, 1e200], [1.0, 0.0]])  # g maps Fix(h) = span(e2) to 1e200 e1
    with pytest.raises(NumericalError, match="^normal relation: normal:g0 after quotient:g1 on Fix"):
        check_normal_factor(Leaf((h,)), Leaf((g,)))
