#!/usr/bin/env python3
"""Self-test of the outside-in tracer in perfbench/tracer.py.

Run from the repository root:  python3 perfbench/selftest.py

Runs check-cube and extend-ball (seed 0) once untraced and once traced
and checks that:

* the ``from .x import f`` copies in other modules are wrapped too;
* lp.calls > 0 on check-cube;
* extension.combos matches the closed form C(#dual facets, n - rank) for
  every extend problem, including C(32, 4) = 35960 for max-abs at n=5;
* each problem has one top-level span, its cli.main call, every span lies
  within its parent, and the top-level spans cover the timed region;
* tracing changes no report, and no wrapper is left once it is removed.

The expectations on lp.calls and combos describe the program as the
benchmark was written against; a change that removes that work updates
them here.
"""
from __future__ import annotations

import math
import shutil
import sys

import numpy as np

import run
import tracer as tr
import workloads

COPIES = ("geometry.solve_lp", "solver.solve_lp", "extension.solve_lp",
          "semigroup.hull_fit", "cli.validate_structure", "cli.dumps_canonical")


def traced_pass(cli, problems, failures):
    """One untraced and one traced pass; returns the traced metrics and spans."""
    everything = range(len(problems))
    plain = run.run_pass(cli, problems, everything)
    if tr.installed_wrappers():
        failures.append("wrappers installed during the untraced pass")
    tracer = tr.Tracer()
    tracer.install()
    try:
        wrapped = set(tr.installed_wrappers())
        unwrapped = [name for name in COPIES if f"fixmk.{name}" not in wrapped]
        if unwrapped:
            failures.append(f"copies left unwrapped: {unwrapped}")
        traced = run.run_pass(cli, problems, everything, tracer)
    finally:
        tracer.remove()
    spans = tracer.take()
    m = tr.layer_metrics(spans, run.pass_time(traced))
    failures += run.trace_self_check(tr, problems, [spans], [m])
    for i in everything:
        if run.fingerprint(plain[i]) != run.fingerprint(traced[i]):
            failures.append(f"{problems[i].id}: tracing changed the report")
    return m, spans


def expected_combos(data: dict) -> int:
    payload = data["payload"]
    n = payload["dim"]
    rank = int(np.linalg.matrix_rank(np.array(payload["subspace_basis"])))
    facets = 2**n if payload["norm"] == "max-abs" else 2 * n
    return math.comb(facets, n - rank)


def main() -> int:
    cli = run.import_program()
    failures: list[str] = []
    workdir = run.WORK / "selftest"

    try:
        cube = workloads.generate("check-cube", 0, run.ROOT, workdir)
        m, _ = traced_pass(cli, cube, failures)
        ball = workloads.generate("extend-ball", 0, run.ROOT, workdir)
        m_ball, spans = traced_pass(cli, ball, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not m["lp.calls"] > 0:
        failures.append("lp.calls is 0 on check-cube")
    seen = {s[4]: s[5][0] for s in spans if s[0] == "extension.build_constraint_set"}
    for p in ball:
        if seen.get(p.id) != expected_combos(p.data):
            failures.append(f"{p.id}: combos {seen.get(p.id)} != {expected_combos(p.data)}")
    if seen.get("max-abs-n5") != 35960:
        failures.append(f"max-abs n=5 combos {seen.get('max-abs-n5')} != C(32, 4)")
    if m_ball["extension.combos"] != sum(seen.values()):
        failures.append("extension.combos is not the sum over build_constraint_set calls")

    for f in failures:
        print(f"FAIL {f}")
    print("tracer self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
