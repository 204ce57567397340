import logging

import numpy as np
import pytest

from fixmk import geometry, semigroup
from fixmk import (
    AffineMap,
    EnumerationCapError,
    Leaf,
    Polytope,
    Product,
    affine_compose,
    check_invariance,
    check_normal_factor,
    commuting_combination,
    convex_combination,
    enumerate_elements,
    map_deviation,
    validate_relations,
    validate_structure,
)
from helpers import count_calls, dihedral_node, reflect_x, rot90, rot180, square, unit_square


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


# --- check_invariance ------------------------------------------------------

def test_invariance_identity_and_rotation():
    assert check_invariance([AffineMap.identity(2)], square(), 1e-9).ok
    assert check_invariance([rot90()], square(), 1e-9).ok


def test_invariance_translation_fails():
    report = check_invariance([AffineMap.translation([2.0, 0.0])], unit_square(), 1e-9)
    assert not report.ok
    assert report.failures[0].kind == "not-invariant"
    assert report.failures[0].residual == pytest.approx(2.0, abs=1e-7)


# --- check_normal_factor ---------------------------------------------------

def test_normal_identity_always_ok():
    report = check_normal_factor(Leaf((AffineMap.identity(2),)), Leaf((rot90(),)))
    assert report.ok


def test_normal_rotation_under_reflection():
    # reflect . rot90 = rot270 . reflect, and rot270 = rot90^3
    assert check_normal_factor(Leaf((rot90(),)), Leaf((reflect_x(),)), word_budget=3).ok
    assert not check_normal_factor(Leaf((rot90(),)), Leaf((reflect_x(),)), word_budget=2).ok


def test_normal_shear_vs_rotation_fails():
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    report = check_normal_factor(Leaf((shear,)), Leaf((rot90(),)), word_budget=5)
    assert not report.ok
    assert report.failures[0].kind == "normal-relation"


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
    # tree-wide, 0.5*I is g1 and the shear, which rot90 fails to normalize, is g2
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    half = AffineMap.linear(0.5 * np.eye(2))
    node = Product(Leaf((rot90(),)), Product(Leaf((half,)), Leaf((shear,))))
    report = validate_relations(node)
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("normal-relation", ("normal:g0", "quotient:g2"))
    ]


def test_normal_factor_labels_follow_the_product():
    # on its own, check_normal_factor labels Product(normal, quotient) as flatten does
    shear = AffineMap.linear([[1.0, 1.0], [0.0, 1.0]])
    report = check_normal_factor(Leaf((rot180(), rot90())), Leaf((shear,)), word_budget=3)
    assert [f.witness for f in report.failures] == [("normal:g1", "quotient:g2")]


def test_validate_fits_each_vertex_generator_pair_once(monkeypatch):
    # commuting contractions: no image of a vertex is a vertex, so every
    # pair needs its hull fit, and none needs two
    calls = count_calls(monkeypatch, geometry, "hull_fit")
    node = Product(
        Product(
            Leaf((AffineMap.linear(0.5 * np.eye(2)),)),
            Leaf((AffineMap.linear(-0.5 * np.eye(2)),)),
        ),
        Leaf((AffineMap.linear(0.5 * rot90().matrix),)),
    )
    K = square()
    assert validate_structure(node, K).ok
    assert len(calls) == K.n_vertices * 3


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
    assert check_invariance([rotation], square(), 1e-9).ok
    assert calls == []


def test_invariance_near_miss_still_fits_and_reports_hull_distance(monkeypatch):
    # scaling by 1 + 1e-7 leaves every image 1e-7 from its vertex, over tol
    g = AffineMap.linear((1.0 + 1e-7) * np.eye(2))
    K = square()
    expected = max(geometry.hull_fit(K, g(v))[0] for v in K.vertices)
    calls = count_calls(monkeypatch, geometry, "hull_fit")
    report = check_invariance([g], K, 1e-9)
    assert len(calls) == K.n_vertices
    assert [(f.kind, f.residual) for f in report.failures] == [("not-invariant", expected)]
    assert expected == pytest.approx(1e-7, rel=1e-6)


def test_invariance_pass_logs_match_and_lp_counts(caplog):
    node = Leaf((rot90(), AffineMap.linear(0.5 * np.eye(2))))
    with caplog.at_level(logging.DEBUG, logger="fixmk"):
        assert validate_structure(node, square()).ok
    records = [r for r in caplog.records if r.name.startswith("fixmk")]
    assert [r.getMessage() for r in records] == [
        "invariance pass: 8 vertex-generator pairs, 4 settled by vertex match, 4 by LP"
    ]


def test_validate_is_deterministic():
    node = dihedral_node()
    a = validate_structure(node, square())
    b = validate_structure(node, square())
    assert (a.ok, a.depth) == (b.ok, b.depth)
    assert [(f.kind, f.witness, f.residual) for f in a.failures] == [
        (f.kind, f.witness, f.residual) for f in b.failures
    ]


# --- enumerate_elements ----------------------------------------------------

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
