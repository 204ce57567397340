#!/usr/bin/env python3
"""Snapshot every CLI report on the fixture corpus, for byte-level comparison.

Calls ``fixmk.cli.main`` in this process for each subcommand variant on
each fixture file, then on a generated family of the cyclic shift on the
standard simplex: ``solve`` (default mode and ``--mode exact``) at d = 8,
16 and 24, and ``fip`` on five sampled cof images (word budget 2) at d = 6
and 8, seeds 0 and 1.  A fip witness is a raw basic solution of one
stacked LP, so a change in any pivot shows.  A generated ``check`` family
follows: the hyperoctahedral leaf (a coordinate shift and -I) and product
(-I normal under the shift) on [-1,1]^d at d = 3 and 6, plain and with
``--fip 3``; a contraction of a box that leaves it, whose images match
no vertex, so its residual comes from the hull LP; and a cyclic shift
perturbed by 1e-3, which pins a ``not-invariant`` residual.  The
hyperoctahedral product is then solved (default mode and ``--mode
cesaro``) at d = 3 and 6 from the cube vertex (1, -1, ..., -1), so the
layering of a Product is pinned.  The dihedral group D_m on the regular
m-gon (the rotation by 2 pi / m normal under a reflection) follows at m = 8
and 16, checked and solved in the default mode from the vertex at angle
2 pi / m; its relation r.s = s.r^(m-1) needs a word longer than the
default word budget, so it pins the exact normal relation.  Then come eight malformed
variants of two fixtures, whose fields disagree in shape, so the exit
codes and error lines of malformed input are pinned too.  Last come far
and small data, which the deviation LP solves in a power-of-two frame:
``check`` of [-1,1]^2 translated by (1e9, 0), ``fip`` of the cyclic
shift C_3 on the standard simplex translated by (1e6, 1e6, 1e6),
``extend`` of g = 1e-9 on span(1, 1) under the swap in both norms, and
``solve`` of centered_box_contraction with its coordinates scaled by
1e6.  It writes one canonical JSON
list of {args, exit, stdout, stderr}.  The generated problem files go to
a temporary directory, so the fixture corpus stays as committed.  The
report's ``timing_ms`` is masked (in JSON and in the text format's status
line) and the fixture and family directories in stderr are replaced by
``<fixtures>`` and ``<generated>``, so two checkouts give equal snapshots
exactly when their reports agree:

    python tools/report_snapshot.py --out before.json --src ../old/src
    python tools/report_snapshot.py --out after.json
    cmp before.json after.json

Run from the repository root; ``--src`` picks the fixmk source tree to run
(default: this checkout's src/).  Each run's standard output and error are
captured, and its exit code is ``main``'s return value or that of the
``SystemExit`` it raised (argparse's usage errors).  ``FIXMK_LOG`` is
unset for the runs, so no log record lands in a captured stderr.
tests/golden/report_snapshot.json is this snapshot of the committed code.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

VARIANTS = (
    ("solve",),
    ("solve", "--mode", "exact"),
    ("solve", "--mode", "cesaro"),
    ("solve", "--mode", "cesaro", "--n-max", "4"),  # not-converged on slow fixtures
    ("solve", "--format", "text"),
    ("check",),
    ("check", "--fip", "3"),
    ("fip",),
    ("extend",),
)

GENERATED_DIMS = (8, 16, 24)
GENERATED_VARIANTS = (("solve",), ("solve", "--mode", "exact"))
FIP_DIMS = (6, 8)
FIP_SEEDS = (0, 1)
CHECK_DIMS = (3, 6)
CHECK_VARIANTS = (("check",), ("check", "--fip", "3"))
PRODUCT_SOLVE_VARIANTS = (("solve",), ("solve", "--mode", "cesaro"))
DIHEDRAL_ORDERS = (8, 16)
DIHEDRAL_VARIANTS = (("check",), ("solve",))

_JSON_TIMING = re.compile(r'("timing_ms": )[-0-9.eE+]+')
_TEXT_TIMING = re.compile(r"^(status: \S+  \()[-0-9.eE+]+( ms)", re.MULTILINE)


def mask(stdout: str, stderr: str, generated: pathlib.Path | None = None) -> tuple[str, str]:
    stdout = _TEXT_TIMING.sub(r"\1<masked>\2", _JSON_TIMING.sub(r"\1<masked>", stdout))
    stderr = stderr.replace(str(FIXTURES), "<fixtures>")
    if generated is not None:
        stderr = stderr.replace(str(generated), "<generated>")
    return stdout, stderr


def _cyclic_shift(d: int) -> dict:
    """Payload fields of the cyclic shift C_d on the standard simplex."""
    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    shift = [eye[i - 1] for i in range(d)]  # e_j -> e_(j+1 mod d)
    return {
        "polytope": {"vertices": eye},
        "semigroup": {"leaf": [{"matrix": shift, "offset": [0.0] * d}]},
    }


def cyclic_shift_problem(d: int) -> dict:
    """Solve problem: the cyclic shift C_d on the standard simplex, from e_1."""
    payload = _cyclic_shift(d)
    return {
        "kind": "fixed-point",
        "options": {"mode": "cross-check", "n_max": 2**40, "seed": 0, "tol": 1e-8, "word_budget": 6},
        "payload": {**payload, "start": payload["polytope"]["vertices"][0]},
    }


def cyclic_shift_fip_problem(d: int, seed: int) -> dict:
    """Fip problem: five sampled cof images of C_d on the standard simplex."""
    return {
        "kind": "fip-check",
        "options": {"mode": "cross-check", "n_max": 2**40, "seed": seed, "tol": 1e-8, "word_budget": 2},
        "payload": {**_cyclic_shift(d), "family": "cof", "sample_count": 5},
    }


def generated_family():
    """(file name, problem, variants) of each generated problem, in snapshot order."""
    for d in GENERATED_DIMS:
        yield f"cyclic_shift_simplex_{d}.json", cyclic_shift_problem(d), GENERATED_VARIANTS
    for d in FIP_DIMS:
        for seed in FIP_SEEDS:
            yield f"cyclic_shift_fip_{d}_seed{seed}.json", cyclic_shift_fip_problem(d, seed), (("fip",),)


def _map(matrix, offset=None) -> dict:
    return {"matrix": [list(map(float, row)) for row in matrix],
            "offset": [0.0] * len(matrix) if offset is None else list(map(float, offset))}


OPTIONS = {"mode": "cross-check", "n_max": 2**40, "seed": 0, "tol": 1e-8, "word_budget": 6}


def _problem(semigroup: dict, vertices, kind: str = "structure-check", **payload) -> dict:
    return {
        "kind": kind,
        "options": OPTIONS,
        "payload": {"semigroup": semigroup, "polytope": {"vertices": [list(map(float, v)) for v in vertices]},
                    **payload},
    }


def _hyperoctahedral(d: int):
    """The coordinate shift and -I on R^d, and the vertices of [-1,1]^d."""
    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    shift = _map([eye[i - 1] for i in range(d)])
    negate = _map([[-x for x in row] for row in eye])
    return shift, negate, list(itertools.product((-1.0, 1.0), repeat=d))


def _hyperoctahedral_product(negate: dict, shift: dict) -> dict:
    return {"product": {"normal": {"leaf": [negate]}, "quotient": {"leaf": [shift]}}}


def check_family():
    """(file name, problem, variants) of each generated ``check`` problem, in snapshot order."""
    for d in CHECK_DIMS:
        shift, negate, cube = _hyperoctahedral(d)
        yield f"hyperoctahedral_leaf_{d}.json", _problem({"leaf": [shift, negate]}, cube), CHECK_VARIANTS
        product = _hyperoctahedral_product(negate, shift)
        yield f"hyperoctahedral_product_{d}.json", _problem(product, cube), CHECK_VARIANTS
    contraction = _map([[0.3, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.3]], [0.8, 0.1, 0.45])
    box = list(itertools.product((0.0, 1.0), repeat=3))
    yield "leaving_contraction_box.json", _problem({"leaf": [contraction]}, box), (("check",),)
    perturbed = [[float(i == (j + 1) % 4) + 1e-3 * (i == 0) for j in range(4)] for i in range(4)]
    cube = list(itertools.product((-1.0, 1.0), repeat=4))
    yield "perturbed_shift_cube.json", _problem({"leaf": [_map(perturbed)]}, cube), (("check",),)


def product_solve_family():
    """(file name, problem, variants) of each generated Product ``solve`` problem, in snapshot order.

    The hyperoctahedral product of :func:`check_family` (-I normal under the
    coordinate shift) from the cube vertex (1, -1, ..., -1), not from the
    fixed point 0, so the layered averages move it.
    """
    for d in CHECK_DIMS:
        shift, negate, cube = _hyperoctahedral(d)
        start = [1.0] + [-1.0] * (d - 1)
        problem = _problem(_hyperoctahedral_product(negate, shift), cube, "fixed-point", start=start)
        yield f"hyperoctahedral_product_solve_{d}.json", problem, PRODUCT_SOLVE_VARIANTS


def dihedral_family():
    """(file name, problem, variants) of D_m on the regular m-gon, in snapshot order."""
    for m in DIHEDRAL_ORDERS:
        t = 2 * math.pi / m
        rotation = _map([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        reflection = _map([[1.0, 0.0], [0.0, -1.0]])
        polygon = [(math.cos(t * k), math.sin(t * k)) for k in range(m)]
        tree = {"product": {"normal": {"leaf": [rotation]}, "quotient": {"leaf": [reflection]}}}
        problem = _problem(tree, polygon, "fixed-point", start=list(polygon[1]))
        yield f"dihedral_polygon_{m}.json", problem, DIHEDRAL_VARIANTS


def malformed_family():
    """(file name, problem, variants) of each shape-malformed problem, in snapshot order.

    rotation_square (for ``solve``) with a 3-D polytope, a start of length
    3, a generator offset of length 3, a 2x3 matrix, a 3x3 generator added
    to the leaf and a product with a 1-D quotient; swap_extension (for
    ``extend``) with two functional values for one basis row and a 3x3
    operator.
    """
    solve = json.loads((FIXTURES / "solve" / "rotation_square.json").read_text(encoding="utf-8"))
    extend = json.loads((FIXTURES / "extension" / "swap_extension.json").read_text(encoding="utf-8"))
    eye3 = {"matrix": [[float(i == j) for j in range(3)] for i in range(3)], "offset": [0.0] * 3}
    rot = solve["payload"]["semigroup"]["leaf"][0]
    vertices = solve["payload"]["polytope"]["vertices"]
    edits = (
        (solve, "solve", "polytope_3d", "polytope", {"vertices": [v + [0.0] for v in vertices]}),
        (solve, "solve", "start_3", "start", [1.0, 1.0, 0.0]),
        (solve, "solve", "offset_3", "semigroup", {"leaf": [{**rot, "offset": [0.0] * 3}]}),
        (solve, "solve", "matrix_2x3", "semigroup",
         {"leaf": [{**rot, "matrix": [row + [0.0] for row in rot["matrix"]]}]}),
        (solve, "solve", "leaf_mixed_dims", "semigroup", {"leaf": [rot, eye3]}),
        (solve, "solve", "product_quotient_1d", "semigroup", {"product": {
            "normal": {"leaf": [rot]}, "quotient": {"leaf": [{"matrix": [[1.0]], "offset": [0.0]}]}}}),
        (extend, "extend", "functional_two_values", "functional_on_subspace", [1.0, 1.0]),
        (extend, "extend", "operator_3x3", "operators", {"leaf": [eye3]}),
    )
    for base, command, name, key, value in edits:
        problem = {**base, "payload": {**base["payload"], key: value}}
        yield f"malformed_{name}.json", problem, ((command,),)


def _eye(d: int) -> list[list[float]]:
    return [[float(i == j) for j in range(d)] for i in range(d)]


def frame_family():
    """(file name, problem, variants) of far or small data, in snapshot order."""
    square = list(itertools.product((-1.0, 1.0), repeat=2))
    yield "far_translation_square.json", _problem({"leaf": [_map(_eye(2), [1e9, 0.0])]}, square), (("check",),)
    c3 = {"leaf": [_map([_eye(3)[i - 1] for i in range(3)])]}
    far_simplex = [[x + 1e6 for x in row] for row in _eye(3)]
    problem = _problem(c3, far_simplex, "fip-check", family="cof", sample_count=5)
    yield "cyclic_shift_far_simplex.json", problem, (("fip",),)
    swap = _map([[0.0, 1.0], [1.0, 0.0]])
    for norm in ("max-abs", "sum-abs"):
        problem = {"kind": "extension", "options": OPTIONS, "payload": {
            "dim": 2, "functional_on_subspace": [1e-9], "norm": norm, "operators": {"leaf": [swap]},
            "subspace_basis": [[1.0, 1.0]]}}
        yield f"small_functional_{norm}.json", problem, (("extend",),)
    box = json.loads((FIXTURES / "solve" / "centered_box_contraction.json").read_text(encoding="utf-8"))
    payload = box["payload"]
    payload["polytope"]["vertices"] = [[1e6 * x for x in v] for v in payload["polytope"]["vertices"]]
    payload["start"] = [1e6 * x for x in payload["start"]]
    payload["semigroup"]["leaf"] = [{**g, "offset": [1e6 * x for x in g["offset"]]}
                                    for g in payload["semigroup"]["leaf"]]
    yield "centered_box_contraction_micro.json", box, (("solve",),)


def load_cli(src: pathlib.Path):
    """Import fixmk.cli from the source tree src, refusing any other copy."""
    sys.path.insert(0, str(src))
    import fixmk.cli

    if pathlib.Path(fixmk.cli.__file__).resolve().parent != (src / "fixmk").resolve():
        raise SystemExit(f"error: imported fixmk from {fixmk.cli.__file__}, not from {src}")
    return fixmk.cli


def run(cli, argv) -> tuple[int, str, str]:
    """cli.main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --version
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def _run(cli, argv, shown, generated=None) -> dict:
    code, stdout, stderr = run(cli, argv)
    stdout, stderr = mask(stdout, stderr, generated)
    return {"args": shown, "exit": code, "stdout": stdout, "stderr": stderr}


def snapshot(cli) -> list[dict]:
    runs = []
    for path in sorted(FIXTURES.rglob("*.json")):
        for variant in VARIANTS:
            argv = [variant[0], str(path), *variant[1:]]
            shown = [variant[0], str(path.relative_to(FIXTURES)), *variant[1:]]
            runs.append(_run(cli, argv, shown))
    with tempfile.TemporaryDirectory() as tmp:
        generated = pathlib.Path(tmp)
        families = itertools.chain(
            generated_family(), check_family(), product_solve_family(), dihedral_family(),
            malformed_family(), frame_family(),
        )
        for name, problem, variants in families:
            path = generated / name
            path.write_text(json.dumps(problem, indent=2), encoding="utf-8")
            for variant in variants:
                argv = [variant[0], str(path), *variant[1:]]
                shown = [variant[0], f"<generated>/{path.name}", *variant[1:]]
                runs.append(_run(cli, argv, shown, generated))
    return runs


def dumps(runs: list[dict]) -> str:
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    parser.add_argument("--src", default=str(REPO / "src"), help="fixmk source tree to run")
    args = parser.parse_args(argv)
    os.environ.pop("FIXMK_LOG", None)
    runs = snapshot(load_cli(pathlib.Path(args.src).resolve()))
    pathlib.Path(args.out).write_text(dumps(runs), encoding="utf-8")
    print(f"wrote {len(runs)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
