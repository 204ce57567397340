#!/usr/bin/env python3
"""Snapshot every CLI report on the fixture corpus, for byte-level comparison.

Runs ``python -m fixmk`` for each subcommand variant on each fixture file,
then on a generated family of the cyclic shift on the standard simplex:
``solve`` (default mode and ``--mode exact``) at d = 8, 16 and 24, and
``fip`` on five sampled cof images (word budget 2) at d = 6 and 8, seeds
0 and 1.  A fip witness is a raw basic solution of one stacked LP, so a
change in any pivot shows.  It writes one canonical JSON list of {args,
exit, stdout, stderr}.  The family's problem files go to a temporary
directory, so the fixture corpus stays as committed.  The report's
``timing_ms`` is masked (in JSON and in the text format's status line)
and the fixture and family directories in stderr are replaced by
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
        for name, problem, variants in generated_family():
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
