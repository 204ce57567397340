"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria cover the fixture corpus under fixtures/: every
structure solves by both routes, the averaging residual obeys its 1/n
bound, the sampled convex-hull families always intersect, the anchor
values match independent oracles, and the negative controls fail at the
intended check with the documented exit codes.
"""
import json
import time

import numpy as np
import pytest

from conftest import FIXTURES
from fixmk import (
    AffineMap,
    EmptyFixedSetError,
    Leaf,
    Polytope,
    Product,
    affine_compose,
    averaging_operator,
    common_fixed_subspace,
    contains,
    convex_combination,
    diameter,
    feasible_point,
    fip_check,
    residual,
    solve_cesaro,
    solve_exact,
    validate_structure,
    validate_problem,
    invariant_extension,
    verify_extension,
)
from fixmk.semigroup import flatten
from fixmk.schema import load_problem
from helpers import commuting_combination, enumerate_elements, polytope_image, run_cli
from oracles import brute_min_dual_norm, map_deviation, stationary_distribution

TOL = 1e-8


def _start(payload):
    return payload.start if payload.start is not None else payload.polytope.centroid()


def test_criterion_1_both_solvers_on_every_fixture(solve_fixtures):
    assert len(solve_fixtures) >= 8
    dims, depths = set(), set()
    for name, pf in solve_fixtures:
        payload, opts = pf.payload, pf.options
        report = validate_structure(payload.node, payload.polytope, opts.tol)
        assert report.ok, f"{name}: validation failed"
        dims.add(payload.node.dim)
        depths.add(report.depth)
        began = time.perf_counter()
        exact = solve_exact(payload.node, payload.polytope, _start(payload), opts.tol)
        cesaro = solve_cesaro(payload.node, payload.polytope, _start(payload), opts.tol, opts.n_max)
        elapsed = time.perf_counter() - began
        assert exact.max_residual <= TOL, f"{name}: exact residual {exact.max_residual}"
        assert cesaro.max_residual <= TOL, f"{name}: cesaro residual {cesaro.max_residual}"
        assert elapsed < 1.0, f"{name}: solve took {elapsed:.2f}s"
        from fixmk import contains

        assert contains(payload.polytope, exact.point, opts.tol)
        assert contains(payload.polytope, cesaro.point, opts.tol)
    assert dims >= {1, 2, 3, 4, 5, 6}
    assert depths == {1, 2, 3}
    print(f"\nACCEPTANCE 1 (both solvers, {len(solve_fixtures)} fixtures, <1s each): PASS")


def test_criterion_2_oracle_equivalence(solve_fixtures):
    # both routes approach P x0 from the file's start
    for name, pf in solve_fixtures:
        payload, opts = pf.payload, pf.options
        exact = solve_exact(payload.node, payload.polytope, _start(payload), opts.tol)
        cesaro = solve_cesaro(payload.node, payload.polytope, _start(payload), opts.tol, 2**40)
        gap = float(np.max(np.abs(exact.point - cesaro.point)))
        assert gap <= 1e-7, f"{name}: solver disagreement {gap:.2e}"
    print("\nACCEPTANCE 2 (exact/averaging agreement <= 1e-7): PASS")


def test_criterion_3_one_over_n_residual_law(solve_fixtures):
    checked = 0
    for name, pf in solve_fixtures:
        payload = pf.payload
        node = payload.node
        if not (isinstance(node, Leaf) and len(node.generators) == 1):
            continue
        checked += 1
        x0 = _start(payload)
        diam = diameter(payload.polytope)
        n = 1
        while n <= 1024:
            p = averaging_operator(node, n)(x0)
            worst = max(residual(p, node).values())
            assert worst <= diam / n + 1e-9, f"{name}: residual {worst:.2e} at n={n}"
            n *= 2
    assert checked >= 4
    print(f"\nACCEPTANCE 3 (1/n residual law on {checked} single-map fixtures): PASS")


def test_criterion_4_abelian_hull_pairs(solve_fixtures):
    failures = 0
    for name, pf in solve_fixtures:
        node, K = pf.payload.node, pf.payload.polytope
        if not isinstance(node, Leaf):
            continue
        words = enumerate_elements(node, pf.options.word_budget)
        rng = np.random.default_rng(1234)
        for _ in range(200):
            f = convex_combination(words, rng.dirichlet(np.ones(len(words))))
            g = convex_combination(words, rng.dirichlet(np.ones(len(words))))
            if map_deviation(affine_compose(f, g), affine_compose(g, f)) > 1e-10:
                failures += 1
            witness = feasible_point([polytope_image(f, K), polytope_image(g, K)], 1e-9)
            if witness is None:
                failures += 1
    assert failures == 0
    print("\nACCEPTANCE 4 (200 seeded hull pairs per abelian fixture, 0 failures): PASS")


def test_criterion_5_normal_commutation_at_hull_level(solve_fixtures):
    failures = 0
    products = 0
    for name, pf in solve_fixtures:
        node = pf.payload.node
        if not isinstance(node, Product):
            continue
        products += 1
        words = enumerate_elements(node.normal, pf.options.word_budget)
        quotient_gens = [g for _, g in flatten(node.quotient)]
        rng = np.random.default_rng(4321)
        for _ in range(100):
            h = convex_combination(words, rng.dirichlet(np.ones(len(words))))
            for g in quotient_gens:
                h2 = commuting_combination(h, g, words, tol=TOL)
                if h2 is None or map_deviation(
                    affine_compose(h, g), affine_compose(g, h2)
                ) > TOL:
                    failures += 1
    assert products >= 2 and failures == 0
    print(f"\nACCEPTANCE 5 (100 seeded co(H) draws x {products} products, 0 failures): PASS")


def test_criterion_6_fip_sampling(solve_fixtures):
    failures = 0
    for name, pf in solve_fixtures:
        node, K = pf.payload.node, pf.payload.polytope
        for seed in range(100):
            if not fip_check(node, K, 5, "cof", seed=seed,
                             word_budget=pf.options.word_budget, tol=pf.options.tol).feasible:
                failures += 1
        if isinstance(node, Product):
            for seed in range(100):
                if not fip_check(node, K, 5, "coh-coq", seed=seed,
                                 word_budget=pf.options.word_budget, tol=pf.options.tol).feasible:
                    failures += 1
    assert failures == 0
    print("\nACCEPTANCE 6 (5-element FIP samples, 100 seeds per fixture, 0 failures): PASS")


def test_criterion_7_stationary_distribution_anchor():
    pf = load_problem(FIXTURES / "solve" / "markov_two_state.json")
    payload, opts = pf.payload, pf.options
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    exact = solve_exact(payload.node, payload.polytope, _start(payload), opts.tol)
    cesaro = solve_cesaro(payload.node, payload.polytope, _start(payload), opts.tol, opts.n_max)
    np.testing.assert_allclose(exact.point, pi, atol=1e-9)
    np.testing.assert_allclose(cesaro.point, pi, atol=1e-9)
    print("\nACCEPTANCE 7 (stationary anchor (2/3, 1/3) within 1e-9): PASS")


def test_criterion_8_invariant_extensions():
    expected = {
        "swap_extension": np.array([0.5, 0.5]),
        "s3_extension": np.full(3, 1.0 / 3.0),
    }
    for stem, target in expected.items():
        pf = load_problem(FIXTURES / "extension" / f"{stem}.json")
        problem = pf.payload.problem
        result = invariant_extension(problem, pf.options.tol)
        np.testing.assert_allclose(result.functional, target, atol=TOL)
        check = verify_extension(result, problem, TOL)
        assert check.ok
        assert check.dual_norm - check.subspace_norm <= TOL
        assert max(result.invariance_residuals.values()) <= TOL
        brute_norm, _ = brute_min_dual_norm(problem)
        assert abs(result.dual_norm - brute_norm) <= TOL
    print("\nACCEPTANCE 8 (swap and S3 extensions, brute LP agreement): PASS")


def test_criterion_9_negative_controls():
    # non-commuting leaf fails validation
    pf = load_problem(FIXTURES / "negative" / "non_commuting_leaf.json")
    report = validate_structure(pf.payload.node, pf.payload.polytope)
    assert not report.ok
    assert any(f.kind == "non-commuting-pair" for f in report.failures)
    code, _, _ = run_cli("check", str(FIXTURES / "negative" / "non_commuting_leaf.json"))
    assert code == 1

    # norm-violating operator fails the extension precondition
    pf = load_problem(FIXTURES / "negative" / "norm_violating_operator.json")
    violations = validate_problem(pf.payload.problem)
    assert any(v.invariant == "operator-norm" for v in violations)
    code, out, _ = run_cli("extend", str(FIXTURES / "negative" / "norm_violating_operator.json"))
    assert code == 1
    assert json.loads(out)["result"]["violations"][0]["invariant"] == "operator-norm"

    # a pure translation has an empty fixed set
    translation = AffineMap.translation([2.0, 0.0])
    assert common_fixed_subspace(Leaf((translation,))) is None
    with pytest.raises(EmptyFixedSetError) as err:
        solve_exact(Leaf((translation,)), Polytope.box([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5])
    assert err.value.reason == "empty-fixed-subspace"
    code, out, _ = run_cli("solve", str(FIXTURES / "negative" / "drifting_translation.json"))
    assert code == 1
    assert json.loads(out)["result"]["error"]["kind"] == "empty-fixed-subspace"

    # malformed input exits with the parse code
    code, _, _ = run_cli("solve", str(FIXTURES / "negative" / "malformed.json"))
    assert code == 2
    print("\nACCEPTANCE 9 (negative controls fail at the intended checks): PASS")
