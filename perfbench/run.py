#!/usr/bin/env python3
"""Benchmark of the fixmk command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload check-cube --seed 1 --seconds 25 --trace 0

Workloads: check-cube, solve-simplex, extend-ball, fip-simplex (see
perfbench/workloads.py for what each one stresses and why).  The benchmark
writes the workload's seeded problem files under .perfbench/, then runs
each through ``fixmk.cli.main(argv)`` in this process, so parsing, solving
and the canonical JSON report all count.  After one untimed warm-up
problem, timed passes run every problem, failing ones included, until
``--seconds`` is used up.  The first pass's outputs are checked afterwards
by the numpy/HiGHS oracles in perfbench/oracles.py.

The process pins itself to one core, because the cores of a shared VM run
at different speeds, and all times are given at a reference machine speed
measured by the probe in perfbench/speed.py.

``--trace 0`` reports the end-to-end metrics:

* setup_s -- median time for a fresh interpreter to ``import fixmk.cli``;
* wall_s -- time to run every problem once: the sum of each problem's
  median over the timed passes, failing problems at their own time;
* largest_s -- the part of wall_s spent on the workload's largest size;
* peak_rss_mb -- peak resident memory of this process, taken before the
  oracles import scipy.

setup_s, wall_s and largest_s are also printed in plain seconds, not
rescaled, for comparison.

``attempted`` counts problems and ``failed`` those with a wrong outcome: a
non-ok status, a raised exception or an output the oracle rejects; the
reasons are printed, with the fail rate.  ``correct`` is false when any
problem fails, with one exception: the sampled fip-simplex problems meet
a known simplex defect that gives wrong answers, some of them claimed ok,
at the parent commit (about a fifth of them).  Their failures are counted
in ``failed`` and make ``correct`` false only beyond KNOWN_DEFECT_CEILING
of them.  ``correct`` is also false when a report changed between passes
(tracing included), that is when what was timed is not what was checked.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of perfbench/tracer.py plus trace.overhead_s (traced
minus untraced time of a pass).  The spans are written to .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_REPEATS = 11
KNOWN_DEFECT_CEILING = 0.5  # share of the known-defect problems allowed to fail
MAX_REMAINDER = 0.01  # share of a traced pass that may lie outside the top-level spans

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "largest_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import fixmk from this checkout's src/, refusing any other copy."""
    if not (SRC / "fixmk" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'fixmk'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fixmk.cli

    if pathlib.Path(fixmk.__file__).resolve().parent != (SRC / "fixmk").resolve():
        raise SystemExit(f"error: imported fixmk from {fixmk.__file__}, not from {SRC}")
    return fixmk.cli


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing fixmk.cli: (reference, plain) seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import fixmk.cli"]
    subprocess.run(cmd, env=env, check=True)  # fills the bytecode cache
    times = [speed.reference_wall(lambda: subprocess.run(cmd, env=env, check=True))
             for _ in range(SETUP_REPEATS)]
    return statistics.median(t for t, _ in times), statistics.median(t for _, t in times)


def run_pass(cli, problems, indices, tracer=None) -> dict[int, tuple]:
    """Run the chosen problems once through cli.main: index -> (start, end, stdout, error)."""
    gc.collect()
    results = {}
    for i in indices:
        if tracer is not None:
            tracer.problem = problems[i].id
        out = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            cli.main(problems[i].argv)
            end = time.perf_counter()
        except (Exception, SystemExit) as exc:  # a crash is a wrong outcome; keep going
            end = time.perf_counter()
            error = f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdout, sys.stderr = saved
        results[i] = (start, end, out.getvalue(), error)
    return results


def fingerprint(result):
    """A report minus its timing field, for comparing runs of one problem."""
    _, _, text, error = result
    if error is not None:
        return error
    try:
        report = json.loads(text)
    except ValueError:
        return text
    report.pop("timing_ms", None)
    return json.dumps(report, sort_keys=True)


def judge(problems, passes) -> tuple[int, bool, list[str]]:
    """Oracle-check the first pass, compare every later run to it.

    Returns (failed, correct, notes); see the module docstring.
    """
    import oracles  # scipy loads here, after peak memory was read

    correct, failed, known, notes = True, 0, [], []
    first = passes[0]
    for i, p in enumerate(problems):
        expected = fingerprint(first[i])
        if any(fingerprint(run[i]) != expected for run in passes[1:]):
            correct = False
            notes.append(f"{p.id}: report changed between passes")
        reason = first[i][3]
        if reason is None:
            try:
                reason = oracles.check(p.command, p.data, json.loads(first[i][2]))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {type(exc).__name__}: {exc}"
        if p.known_defect:
            known.append(reason is not None)
        if reason is not None:
            failed += 1
            correct = correct and p.known_defect
            notes.append(f"{p.id}: {reason}" + (" (known defect)" if p.known_defect else ""))
    if known and known.count(True) > KNOWN_DEFECT_CEILING * len(known):
        correct = False
        notes.append(f"{known.count(True)} of {len(known)} known-defect problems failed, "
                     f"more than {KNOWN_DEFECT_CEILING:.0%}")
    return failed, correct, notes


def pass_time(run, indices=None) -> float:
    return sum(end - start for i, (start, end, *_) in run.items() if indices is None or i in indices)


def fits(started: float, durations: list[float], seconds: float) -> bool:
    """Whether one more pass of typical duration ends within the run's seconds."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def untraced(cli, problems, seconds):
    """A warm-up problem, then timed passes until the seconds are used up."""
    everything = range(len(problems))
    started = time.perf_counter()
    run_pass(cli, problems, [0])
    passes = []
    with speed.SpeedProbe() as probe:
        while len(passes) < MIN_PASSES or fits(started, [pass_time(r) for r in passes], seconds):
            passes.append(run_pass(cli, problems, everything))
    return passes, probe


def end_to_end(problems, passes, probe, setup, peak_rss_mb):
    """The metrics at the reference speed, and wall_s and largest_s in plain seconds.

    Each problem is timed by its median over the timed passes, and wall_s
    and largest_s sum those times; ``setup`` is (reference, plain) seconds.
    """
    ref, plain = [], []
    for i in range(len(problems)):
        ref.append(statistics.median(probe.reference_seconds(*run[i][:2]) for run in passes))
        plain.append(statistics.median(probe.busy_seconds(*run[i][:2]) for run in passes))
    largest = [i for i, p in enumerate(problems) if p.largest]
    metrics = {
        "setup_s": setup[0],
        "wall_s": sum(ref),
        "largest_s": sum(ref[i] for i in largest),
        "peak_rss_mb": peak_rss_mb,
    }
    seconds = {"setup_s": setup[1], "wall_s": sum(plain), "largest_s": sum(plain[i] for i in largest)}
    return metrics, seconds


def traced(cli, problems, seconds, tracer_mod):
    """A warm-up problem, then untraced and traced passes in turn."""
    tracer = tracer_mod.Tracer()
    everything = range(len(problems))
    started = time.perf_counter()
    run_pass(cli, problems, [0])
    passes = []
    spans, per_pass, plain_s, traced_s, durations = [], [], [], [], []
    while not per_pass or fits(started, durations, seconds):
        plain = run_pass(cli, problems, everything)
        if tracer_mod.installed_wrappers():
            raise SystemExit("error: tracer wrappers present during an untraced pass")
        tracer.install()
        try:
            with_spans = run_pass(cli, problems, everything, tracer)
        finally:
            tracer.remove()
        spans.append(tracer.take())
        per_pass.append(tracer_mod.layer_metrics(spans[-1], pass_time(with_spans)))
        plain_s.append(pass_time(plain))
        traced_s.append(pass_time(with_spans))
        durations.append(plain_s[-1] + traced_s[-1])
        passes += [plain, with_spans]
    metrics = tracer_mod.median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return passes, metrics, spans, per_pass


def trace_self_check(tracer_mod, problems, spans_per_pass, per_pass) -> list[str]:
    """Invariants every traced run must meet, whatever the program does.

    No wrapper is left installed; in every traced pass each problem has
    exactly one top-level span, its cli.main call, and each span lies
    within its parent; and the top-level spans cover all but
    MAX_REMAINDER of the timed region.
    """
    broken = []
    left = tracer_mod.installed_wrappers()
    if left:
        broken.append(f"wrappers left installed: {left[:3]}")
    ids = sorted(p.id for p in problems)
    for i, (spans, m) in enumerate(zip(spans_per_pass, per_pass)):
        roots = [s for s in spans if s[3] < 0]
        if sorted(s[4] for s in roots) != ids or any(s[0] != "cli.main" for s in roots):
            broken.append(f"pass {i}: top-level spans are not one cli.main per problem")
        if any(s[3] >= 0 and not spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2] for s in spans):
            broken.append(f"pass {i}: a span lies outside its parent")
        if not 0.0 <= m["trace.remainder_s"] <= MAX_REMAINDER * m["trace.wall_s"]:
            broken.append(f"pass {i}: top-level spans cover {m['trace.remainder_s']:.6f} s "
                          f"less than the timed region of {m['trace.wall_s']:.6f} s")
    return broken


def write_spans(name: str, seed: int, spans) -> pathlib.Path:
    path = WORK / f"spans-{name}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "problem", "extra", "raised"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, "passes": spans}, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    # The cores of a shared VM run at different speeds; keep the workload,
    # the speed probe and the import children on one of them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = None if args.trace else measure_setup()
    workdir = WORK / f"work-{os.getpid()}"
    try:
        problems = workloads.generate(args.workload, args.seed, ROOT, workdir)
        if args.trace:
            import tracer as tracer_mod

            passes, metrics, spans, per_pass = traced(cli, problems, args.seconds, tracer_mod)
        else:
            passes, probe = untraced(cli, problems, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, correct, notes = judge(problems, passes)
    if args.trace:
        broken = trace_self_check(tracer_mod, problems, spans, per_pass)
        if broken:
            sys.stderr.write("tracer self-check failed:\n  " + "\n  ".join(broken) + "\n")
            return 3
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        units["semigroup.lps_per_vertex_gen"] = "ratio"
        where = write_spans(args.workload, args.seed, spans)
    else:
        metrics, seconds = end_to_end(problems, passes, probe, setup, peak_rss_mb)
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  problems {len(problems)}  "
          f"passes {len(passes)}")
    for note in notes:
        print(f"  wrong: {note}")
    for k, v in metrics.items():
        print(f"  {k:34s} {v:14.6f} {units[k]}")
    if not args.trace:
        for k, v in seconds.items():
            print(f"  {k + ' unscaled':34s} {v:14.6f} s")
    print(f"  {'fail_rate':34s} {failed / len(problems):14.6f} ratio ({failed}/{len(problems)})")
    if args.trace:
        print(f"  spans written to {where.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
