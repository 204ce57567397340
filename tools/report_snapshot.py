#!/usr/bin/env python3
"""Snapshot every CLI report on the fixture corpus, for byte-level comparison.

Runs ``python -m fixmk`` for each subcommand variant on each fixture file
and writes one canonical JSON list of {args, exit, stdout, stderr}.  The
report's ``timing_ms`` is masked (in JSON and in the text format's status
line) and the fixture directory in stderr is replaced by ``<fixtures>``, so
two checkouts give equal snapshots exactly when their reports agree:

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

_JSON_TIMING = re.compile(r'("timing_ms": )[-0-9.eE+]+')
_TEXT_TIMING = re.compile(r"^(status: \S+  \()[-0-9.eE+]+( ms)", re.MULTILINE)


def mask(stdout: str, stderr: str) -> tuple[str, str]:
    stdout = _TEXT_TIMING.sub(r"\1<masked>\2", _JSON_TIMING.sub(r"\1<masked>", stdout))
    return stdout, stderr.replace(str(FIXTURES), "<fixtures>")


def snapshot(src: pathlib.Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = []
    for path in sorted(FIXTURES.rglob("*.json")):
        for variant in VARIANTS:
            argv = [variant[0], str(path), *variant[1:]]
            proc = subprocess.run(
                [sys.executable, "-m", "fixmk", *argv],
                capture_output=True, text=True, env=env, cwd=REPO,
            )
            stdout, stderr = mask(proc.stdout, proc.stderr)
            runs.append({
                "args": [variant[0], str(path.relative_to(FIXTURES)), *variant[1:]],
                "exit": proc.returncode,
                "stdout": stdout,
                "stderr": stderr,
            })
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
