"""The CLI contract on generated problem files, far and small data included.

Every run exits 0, 1 or 2, writes no traceback and raises no warning;
its stdout is empty or strict JSON, and no error line says that a
deviation LP, capped or not, feasible and bounded by construction, was not.
"""
import ast
import contextlib
import inspect
import io
import itertools
import json
import warnings

import numpy as np
import pytest

from conftest import FIXTURES
from fixmk import NumericalError, cli, lp

MAGNITUDES = [10.0**k for k in (-12, -3, 0, 3, 12, 150, 300)]
OPTIONS = {"mode": "cross-check", "n_max": 2**20, "seed": 0, "tol": 1e-8, "word_budget": 3}
# every message lp raises for an LP verdict names one of these (checked below)
OUR_BUGS = ("unexpectedly", "phase-1 objective reported unbounded")


def _strict(constant):
    raise ValueError(f"report holds {constant}")


def run_main(tmp_path, command, problem, *flags):
    """cli.main on problem written to a file: (exit code, stdout, stderr), contract checked."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, str(path), *flags])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (problem, stderr)
    assert "Traceback" not in stderr
    assert not caught, [str(w.message) for w in caught]
    if stdout:
        json.loads(stdout, parse_constant=_strict)
    assert not any(bug in stderr for bug in OUR_BUGS), (problem, stderr)
    return code, stdout, stderr


def _map(matrix, offset) -> dict:
    return {"matrix": np.asarray(matrix, dtype=float).tolist(), "offset": np.asarray(offset, dtype=float).tolist()}


def _problem(kind: str, **payload) -> dict:
    return {"kind": kind, "options": OPTIONS, "payload": payload}


def _generator(rng, d: int, size: float, center: np.ndarray) -> dict:
    """A signed permutation or a scaling about the center, or a translation by 0 or farther."""
    choice = rng.integers(3)
    if choice == 0:
        matrix = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)
    elif choice == 1:
        matrix = np.eye(d) * rng.choice([0.0, 0.5, 1.0, 2.0])
    else:
        return _map(np.eye(d), rng.choice([0.0, size, 1e3 * size, 1e9], size=d) * rng.choice([-1.0, 1.0]))
    return _map(matrix, center - matrix @ center)


def _tree(rng, d, size, center) -> dict:
    def leaf():
        return {"leaf": [_generator(rng, d, size, center) for _ in range(rng.integers(1, 3))]}

    return leaf() if rng.integers(2) else {"product": {"normal": leaf(), "quotient": leaf()}}


def _polytope(rng, d: int, size: float):
    """[-1,1]^d, or the standard simplex with a repeated vertex, scaled by size about the
    origin or a far center; and the center."""
    center = size * rng.choice([0.0, 1.0, 1e6], size=d)
    if rng.integers(2):
        return (center + size * np.array(list(itertools.product((-1.0, 1.0), repeat=d)))).tolist(), center
    return (center + size * np.vstack([np.eye(d), np.eye(d)[:1]])).tolist(), center


@pytest.mark.parametrize("seed", range(5))
def test_generated_check_and_fip_files_keep_the_contract(seed, tmp_path):
    rng = np.random.default_rng(seed)
    for size in MAGNITUDES:
        for _ in range(3):
            d = int(rng.integers(1, 4))
            vertices, center = _polytope(rng, d, size)
            tree = _tree(rng, d, size, center)
            polytope = {"vertices": vertices}
            run_main(tmp_path, "check", _problem("structure-check", polytope=polytope, semigroup=tree))
            fip = _problem("fip-check", polytope=polytope, semigroup=tree, family="cof", sample_count=3)
            run_main(tmp_path, "fip", fip)


@pytest.mark.parametrize("seed", range(5))
def test_generated_solve_files_keep_the_contract(seed, tmp_path):
    # the start and the exact point are checked to lie in K: vertex match, weights, then LP
    rng = np.random.default_rng(seed)
    for size in MAGNITUDES:
        for _ in range(3):
            d = int(rng.integers(1, 4))
            vertices, center = _polytope(rng, d, size)
            payload = {"polytope": {"vertices": vertices}, "semigroup": _tree(rng, d, size, center)}
            run_main(tmp_path, "solve", _problem("fixed-point", **payload))
            start = rng.dirichlet(np.ones(len(vertices))) @ np.array(vertices)
            run_main(tmp_path, "solve", _problem("fixed-point", **payload, start=start.tolist()))


@pytest.mark.parametrize("seed", range(3))
def test_generated_extend_files_keep_the_contract(seed, tmp_path):
    rng = np.random.default_rng(seed)
    for basis_size, value_size in itertools.product(MAGNITUDES, repeat=2):
        d = int(rng.integers(2, 4))
        if rng.integers(2):  # the diagonal, kept by every coordinate permutation
            basis, ops = [[basis_size] * d], [_map(np.eye(d)[rng.permutation(d)], np.zeros(d))]
        else:  # a coordinate axis, kept by sign flips of the others
            basis, ops = [[basis_size] + [0.0] * (d - 1)], [_map(np.diag([1.0] + [-1.0] * (d - 1)), np.zeros(d))]
        problem = _problem(
            "extension", dim=d, norm=str(rng.choice(["max-abs", "sum-abs"])), subspace_basis=basis,
            functional_on_subspace=[value_size * rng.choice([-1.0, 1.0])], operators={"leaf": ops},
        )
        run_main(tmp_path, "extend", problem)


# --- named repros: far or small data that broke the deviation LP ------------------

SQUARE = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
SWAP = _map([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])


@pytest.mark.parametrize("shift", [1e9, 1e12, 1e300])
def test_a_far_translation_is_not_invariant_by_its_hull_distance(shift, tmp_path):
    # was "error: deviation LP unexpectedly infeasible"
    tree = {"leaf": [_map(np.eye(2), [shift, 0.0])]}
    code, out, _ = run_main(tmp_path, "check", _problem("structure-check", polytope={"vertices": SQUARE},
                                                        semigroup=tree))
    ((failure,),) = [json.loads(out)["result"]["validation"]["failures"]]
    assert (code, failure["kind"]) == (1, "not-invariant")
    assert failure["residual"] == pytest.approx(shift, rel=2e-9)  # 1e-9 of the frame's 2^k <= 2 shift


def test_fip_of_the_cyclic_shift_on_a_far_simplex_is_feasible(tmp_path):
    # was "error: phase-1 objective reported unbounded"
    problem = _problem("fip-check", polytope={"vertices": (np.eye(3) + 1e6).tolist()},
                       semigroup={"leaf": [_map(np.roll(np.eye(3), 1, axis=0), np.zeros(3))]},
                       family="cof", sample_count=5)
    code, out, _ = run_main(tmp_path, "fip", problem)
    assert (code, json.loads(out)["status"]) == (0, "ok")


@pytest.mark.parametrize("norm", ["max-abs", "sum-abs"])
@pytest.mark.parametrize("value", [1e-9, 1e-12, 1e-200])
def test_a_small_functional_is_extended(norm, value, tmp_path):
    # was "error: functional vanishes on the subspace"
    problem = _problem("extension", dim=2, norm=norm, subspace_basis=[[1.0, 1.0]],
                       functional_on_subspace=[value], operators={"leaf": [SWAP]})
    code, out, _ = run_main(tmp_path, "extend", problem)
    report = json.loads(out)
    assert (code, report["status"]) == (0, "ok")
    np.testing.assert_allclose(report["result"]["functional"], [value / 2] * 2, rtol=1e-12)


def test_a_small_basis_is_extended(tmp_path):
    # a probe that framed only its objective reported "probe LP unexpectedly unbounded"
    problem = _problem("extension", dim=2, norm="max-abs", subspace_basis=[[1e-9, 1e-9]],
                       functional_on_subspace=[1e-9], operators={"leaf": [SWAP]})
    code, out, _ = run_main(tmp_path, "extend", problem)
    assert (code, json.loads(out)["status"]) == (0, "ok")


def test_the_centred_box_contraction_in_micro_units_ends_in_a_report(tmp_path):
    # was "error: phase-1 objective reported unbounded"
    problem = json.loads((FIXTURES / "solve" / "centered_box_contraction.json").read_text(encoding="utf-8"))
    payload = problem["payload"]
    payload["polytope"]["vertices"] = (1e6 * np.array(payload["polytope"]["vertices"])).tolist()
    payload["start"] = [1e6 * x for x in payload["start"]]
    for g in payload["semigroup"]["leaf"]:
        g["offset"] = [1e6 * x for x in g["offset"]]
    code, out, err = run_main(tmp_path, "solve", problem)
    assert code in (0, 1) and err == ""
    assert json.loads(out)["status"] in ("ok", "not-converged")


def test_fip_of_a_small_cube_near_one_thousand_is_feasible(tmp_path):
    # within 2^10 of the origin, but 5e5 times its spread: was "error: deviation LP unexpectedly infeasible"
    center = np.array([1000.0, 0.001, 1000.0])
    turn = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # a quarter turn about the center
    cube = center + 0.001 * np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    problem = _problem("fip-check", polytope={"vertices": cube.tolist()},
                       semigroup={"leaf": [_map(turn, center - turn @ center)]}, family="cof", sample_count=3)
    code, out, _ = run_main(tmp_path, "fip", problem)
    assert (code, json.loads(out)["status"]) == (0, "ok")


def test_an_overflowing_subspace_norm_exits_one_with_an_error_line(tmp_path):
    # ||g|| on Y is 1e300 / 1e-12: was "error: probe LP unexpectedly unbounded"
    problem = _problem("extension", dim=2, norm="max-abs", subspace_basis=[[1e-12, 0.0]],
                       functional_on_subspace=[1e300], operators={"leaf": [_map(np.diag([1.0, -1.0]), [0.0, 0.0])]})
    assert run_main(tmp_path, "extend", problem) == (1, "", "error: the norm of g on the subspace overflows\n")


VERDICTS = {  # (c, A, b) of a smallest program per verdict
    "infeasible": ([0.0], [[1.0], [1.0]], [1.0, 2.0]),
    "unbounded": ([-1.0, 0.0], [[1.0, -1.0]], [0.0]),
    "redundant row": ([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),
}


def test_our_bugs_flags_every_lp_verdict():
    # a ray's message is handed to _iterate; no program reaches phase 1's, its objective being >= 0
    messages = [node.args[-1].value for node in ast.walk(ast.parse(inspect.getsource(lp)))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_iterate"]
    for verdict, program in VERDICTS.items():
        with pytest.raises(NumericalError, match=verdict) as info:
            lp.solve_lp(*program)
        messages.append(str(info.value))
    assert len(messages) == 5
    assert all(any(bug in message for bug in OUR_BUGS) for message in messages), messages
