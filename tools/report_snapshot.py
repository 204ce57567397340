#!/usr/bin/env python3
"""Snapshot every CLI report on the fixture corpus, for byte-level comparison.

Runs ``python -m fixmk`` for each subcommand variant on each fixture file,
then on a generated family of the cyclic shift on the standard simplex:
``solve`` (default mode and ``--mode exact``) at d = 8, 16 and 24, and
``fip`` on five sampled cof images (word budget 2) at d = 6 and 8, seeds
0 and 1.  A fip witness is a raw basic solution of one stacked LP, so a
change in any pivot shows.  Last come eight malformed variants of two
fixtures, whose fields disagree in shape, so the exit codes and error
lines of malformed input are pinned too.  It writes one canonical JSON
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
(default: this checkout's src/).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import re
import subprocess
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


def _run(env, argv, shown, generated=None) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "fixmk", *argv],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    stdout, stderr = mask(proc.stdout, proc.stderr, generated)
    return {"args": shown, "exit": proc.returncode, "stdout": stdout, "stderr": stderr}


def snapshot(src: pathlib.Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = []
    for path in sorted(FIXTURES.rglob("*.json")):
        for variant in VARIANTS:
            argv = [variant[0], str(path), *variant[1:]]
            shown = [variant[0], str(path.relative_to(FIXTURES)), *variant[1:]]
            runs.append(_run(env, argv, shown))
    with tempfile.TemporaryDirectory() as tmp:
        generated = pathlib.Path(tmp)
        for name, problem, variants in itertools.chain(generated_family(), malformed_family()):
            path = generated / name
            path.write_text(json.dumps(problem, indent=2), encoding="utf-8")
            for variant in variants:
                argv = [variant[0], str(path), *variant[1:]]
                shown = [variant[0], f"<generated>/{path.name}", *variant[1:]]
                runs.append(_run(env, argv, shown, generated))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    parser.add_argument("--src", default=str(REPO / "src"), help="fixmk source tree to run")
    args = parser.parse_args(argv)
    runs = snapshot(pathlib.Path(args.src).resolve())
    text = json.dumps(runs, indent=2, sort_keys=True) + "\n"
    pathlib.Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {len(runs)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
