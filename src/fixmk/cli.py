"""Command-line entry point.

Subcommands: ``solve`` (common fixed point), ``check`` (structure
validation), ``fip`` (sampled image-intersection check), ``extend``
(invariant functional extension).  Problem files are JSON per
:mod:`fixmk.schema`; a report is the result dataclasses as canonical JSON.
``--word-budget`` bounds the words that fip sampling (``fip``, ``check
--fip``) mixes; validation enumerates no words.

Exit codes: 0 when the report's status is ``ok``.  1 when a solver or
check fails: in the report's status (``disagreement`` included, when the
two routes of a cross-check ``solve`` reach different fixed points, and an
``extend`` that fails for that reason), or with an ``error:`` line and no
report when a library error stops the run, such as a numerical failure of
the LP core, an overflow (averaging at some depth, composing maps, an
``extend`` operator, a report value JSON cannot hold), a ``start`` point
outside the polytope, or an ``extend`` problem whose constraint set needs
more than 10^7 facet combinations (from dim 7 for max-abs and dim 14 for
sum-abs, with a one-dimensional subspace), refused before any is built.
2, with an ``error:`` line, on an unreadable or malformed problem file, a
schema error (fields whose shapes disagree included), an out-of-range
option (file or flag), an ``--output`` path that cannot be written, or a
bad ``FIXMK_LOG``.  Set ``FIXMK_LOG=debug`` (or any logging level name)
for verbose logging on stderr.  A ``tol`` below about 1e-9 * max(1, the
extent of the data) is not honoured: the LP core's tolerance is absolute
(see :func:`fixmk.geometry.hull_gaps`).

The argument parser is built once per process, on the first call of
:func:`main`, and parses nothing but ``argv``, so ``main`` may be called
many times in one process (the benchmark and the report snapshot do) and
each call reads only its own arguments and ``FIXMK_LOG``: the ``fixmk``
logger gets that call's level, and its one handler writes each record to
``sys.stderr`` as it is when the record is made.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .errors import (
    DisagreementError,
    EmptyConstraintSetError,
    EmptyFixedSetError,
    ExtensionInvariantError,
    FixmkError,
    NotConvergedError,
    SchemaError,
    StructureValidationError,
)
from .extension import invariant_extension, verify_extension
from .schema import (
    KIND_EXTENSION,
    KIND_FIP_CHECK,
    KIND_FIXED_POINT,
    KIND_STRUCTURE_CHECK,
    MODES,
    OPTION_NAMES,
    dumps_canonical,
    load_problem,
    option_value,
)
from .semigroup import validate_structure
from .solver import cross_check, fip_check, solve_cesaro, solve_exact

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2


class _CurrentStderr(logging.StreamHandler):
    """A stream handler whose stream is always the current ``sys.stderr``."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):  # StreamHandler.__init__ assigns one
        pass


_LOG_HANDLER = _CurrentStderr()
_LOG_HANDLER.setFormatter(logging.Formatter(logging.BASIC_FORMAT))


def _configure_logging(name: str | None) -> None:
    """Log the ``fixmk`` records at level ``name`` to stderr, or none when it is unset."""
    logger = logging.getLogger("fixmk")
    if not name:
        if _LOG_HANDLER in logger.handlers:
            logger.removeHandler(_LOG_HANDLER)
            logger.setLevel(logging.NOTSET)
        return
    level = logging.getLevelName(name.upper())  # an int only for a level name
    if not isinstance(level, int):
        raise SchemaError(f"FIXMK_LOG: expected a logging level name, got {name!r}")
    logger.setLevel(level)
    logger.addHandler(_LOG_HANDLER)  # a no-op when it is there already


def _merge_options(options, args):
    """Apply the flags over the file's options, range-checked like the file."""
    for name in OPTION_NAMES:
        value = getattr(args, name, None)
        if value is not None:
            flag = "--" + name.replace("_", "-")
            setattr(options, name, option_value(name, value, flag))
    if getattr(args, "fip", None) is not None and args.fip < 2:
        raise SchemaError("--fip: expected an integer >= 2")
    return options


def _expect_kind(pf, allowed, command):
    if pf.kind not in allowed:
        raise SchemaError(
            f"'{command}' needs a file of kind {' or '.join(allowed)}, got {pf.kind!r}"
        )


def run_solve(pf, options) -> tuple[str, dict]:
    payload = pf.payload
    report = validate_structure(payload.node, payload.polytope, options.tol)
    if not report.ok:
        return "failed", {"validation": asdict(report)}
    start = payload.start if payload.start is not None else payload.polytope.centroid()
    result: dict = {"validation": {"ok": True, "depth": report.depth}}
    try:
        if options.mode == "exact":
            solved = solve_exact(payload.node, payload.polytope, start, options.tol)
        elif options.mode == "cesaro":
            solved = solve_cesaro(
                payload.node, payload.polytope, start, options.tol, options.n_max
            )
        else:
            status = "ok"
            try:
                check = cross_check(
                    payload.node, payload.polytope, start, options.tol, options.n_max
                )
            except DisagreementError as exc:
                check, status = exc.check, "disagreement"
                result["error"] = {"kind": "disagreement", "detail": str(exc)}
            result.update(asdict(check.exact))
            result["method"] = "cross-check"
            result["certificate"] = asdict(check.cesaro.certificate)
            result["disagreement"] = check.disagreement
            result["projection_gap"] = check.projection_gap
            return status, result
    except EmptyFixedSetError as exc:
        result["error"] = {"kind": exc.reason, "detail": str(exc)}
        return "infeasible", result
    except NotConvergedError as exc:
        result["error"] = {"kind": "not-converged", "detail": str(exc)}
        result["best_point"] = exc.point
        result["best_residuals"] = exc.residuals
        result["certificate"] = asdict(exc.certificate)
        return "not-converged", result
    result.update(asdict(solved))
    return "ok", result


def run_check(pf, options, fip_samples, family) -> tuple[str, dict]:
    """Validate the tree, then sample ``fip_samples`` elements of ``family`` (if any)."""
    payload = pf.payload
    report = validate_structure(payload.node, payload.polytope, options.tol)
    result = {"validation": asdict(report)}
    if not report.ok:
        return "failed", result
    if fip_samples:
        fip = fip_check(
            payload.node, payload.polytope, fip_samples,
            family=family, seed=options.seed,
            word_budget=options.word_budget, tol=options.tol,
        )
        result["fip"] = asdict(fip)
        if not fip.feasible:
            return "infeasible", result
    return "ok", result


def run_extend(pf, options) -> tuple[str, dict]:
    problem = pf.payload.problem
    try:
        result = invariant_extension(problem, options.tol)
    except ExtensionInvariantError as exc:
        return "failed", {
            "violations": [
                {"invariant": v.invariant, "operator": v.label, "residual": v.residual}
                for v in exc.violations
            ]
        }
    except StructureValidationError as exc:
        return "failed", {"error": {"kind": "extension-precondition", "detail": str(exc)}}
    except (EmptyConstraintSetError, EmptyFixedSetError) as exc:
        return "infeasible", {"error": {"kind": "infeasible", "detail": str(exc)}}
    except DisagreementError as exc:
        return "failed", {"error": {"kind": "disagreement", "detail": str(exc)}}
    except NotConvergedError as exc:
        return "not-converged", {"error": {"kind": "not-converged", "detail": str(exc)}}
    check = verify_extension(result, problem, options.tol)
    payload = asdict(result)
    payload["verification"] = asdict(check)
    payload["subspace_norm"] = check.subspace_norm
    return ("ok" if check.ok else "failed"), payload


def _render_text(report: dict) -> str:
    lines = [f"status: {report['status']}  ({report['timing_ms']:.1f} ms, v{report['tool_version']})"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and len(value) > 6:
            lines.append(f"  {prefix[:-1]}: [{len(value)} entries]")
        else:
            lines.append(f"  {prefix[:-1]}: {value}")

    walk("", report["result"])
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    text = dumps_canonical(report)
    if args.format == "text":
        # rendered from the JSON form, so arrays and tuples print as lists
        text = _render_text(json.loads(text))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser, with_mode=False):
    parser.add_argument("path", help="problem file (JSON)")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--n-max", type=int, default=None, dest="n_max")
    parser.add_argument("--word-budget", type=int, default=None, dest="word_budget")
    parser.add_argument("--seed", type=int, default=None)
    if with_mode:
        parser.add_argument("--mode", choices=MODES, default=None)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="fixmk",
        description="Common fixed points of affine semigroups on polytopes, "
        "and invariant norm-preserving functional extensions.",
    )
    parser.add_argument("--version", action="version", version=f"fixmk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("solve", help="compute a common fixed point"), with_mode=True)
    check = sub.add_parser("check", help="validate a structure tree")
    _add_common(check)
    check.add_argument(
        "--fip", type=int, default=None, metavar="N",
        help="additionally sample N elements and check image intersection",
    )
    _add_common(sub.add_parser("fip", help="sampled image-intersection check"))
    _add_common(sub.add_parser("extend", help="invariant functional extension"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    started = time.perf_counter()
    try:
        _configure_logging(os.environ.get("FIXMK_LOG"))
        pf = load_problem(args.path)
        options = _merge_options(pf.options, args)
        if args.command == "solve":
            _expect_kind(pf, (KIND_FIXED_POINT,), "solve")
            status, result = run_solve(pf, options)
        elif args.command == "check":
            _expect_kind(pf, (KIND_STRUCTURE_CHECK, KIND_FIXED_POINT), "check")
            status, result = run_check(pf, options, args.fip, "cof")
        elif args.command == "fip":
            _expect_kind(pf, (KIND_FIP_CHECK,), "fip")
            status, result = run_check(pf, options, pf.payload.sample_count, pf.payload.family)
        else:
            _expect_kind(pf, (KIND_EXTENSION,), "extend")
            status, result = run_extend(pf, options)
        report = {
            "status": status,
            "result": result,
            "timing_ms": (time.perf_counter() - started) * 1000.0,
            "tool_version": __version__,
        }
        _emit(report, args)
    except (SchemaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except FixmkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED
    return EXIT_OK if status == "ok" else EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
