"""Command-line entry point.

Subcommands: ``solve`` (common fixed point), ``check`` (structure
validation), ``fip`` (sampled image-intersection check), ``extend``
(invariant functional extension).  Problem files are JSON per
:mod:`fixmk.schema`; reports are JSON with stable key order.

Exit codes: 0 on success, 1 when a solver or check fails, 2 on parse or
schema errors.  Set ``FIXMK_LOG=debug`` (or any logging level name) for
verbose logging on stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
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
    certificate_dict,
    dumps_canonical,
    extension_check_dict,
    extension_result_dict,
    fip_dict,
    fixed_point_dict,
    load_problem,
    validation_report_dict,
)
from .semigroup import validate_structure
from .solver import fip_check, solve_cesaro, solve_exact

logger = logging.getLogger("fixmk")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2


def _merge_options(options, args):
    if args.tol is not None:
        options.tol = args.tol
    if args.n_max is not None:
        options.n_max = args.n_max
    if args.word_budget is not None:
        options.word_budget = args.word_budget
    if args.seed is not None:
        options.seed = args.seed
    if getattr(args, "mode", None) is not None:
        options.mode = args.mode
    return options


def _expect_kind(pf, allowed, command):
    if pf.kind not in allowed:
        raise SchemaError(
            f"'{command}' needs a file of kind {' or '.join(allowed)}, got {pf.kind!r}"
        )


def run_solve(pf, options) -> tuple[str, dict]:
    payload = pf.payload
    report = validate_structure(payload.node, payload.polytope, options.word_budget, options.tol)
    if not report.ok:
        return "failed", {"validation": validation_report_dict(report)}
    start = payload.start if payload.start is not None else payload.polytope.centroid()
    result: dict = {"validation": {"ok": True, "depth": report.depth}}
    try:
        if options.mode == "exact":
            solved = solve_exact(payload.node, payload.polytope, options.tol)
        elif options.mode == "cesaro":
            solved = solve_cesaro(
                payload.node, payload.polytope, start, options.tol, options.n_max
            )
        else:
            exact = solve_exact(payload.node, payload.polytope, options.tol)
            cesaro = solve_cesaro(
                payload.node, payload.polytope, start, options.tol, options.n_max
            )
            result.update(fixed_point_dict(exact))
            result["method"] = "cross-check"
            result["certificate"] = certificate_dict(cesaro.certificate)
            result["disagreement"] = float(np.max(np.abs(exact.point - cesaro.point)))
            return "ok", result
    except EmptyFixedSetError as exc:
        result["error"] = {"kind": exc.reason, "detail": str(exc)}
        return "infeasible", result
    except NotConvergedError as exc:
        result["error"] = {"kind": "not-converged", "detail": str(exc)}
        result["best_point"] = [float(x) for x in exc.point]
        result["best_residuals"] = {k: float(v) for k, v in exc.residuals.items()}
        result["certificate"] = certificate_dict(exc.certificate)
        return "not-converged", result
    result.update(fixed_point_dict(solved))
    return "ok", result


def run_check(pf, options, fip_samples=None) -> tuple[str, dict]:
    payload = pf.payload
    report = validate_structure(payload.node, payload.polytope, options.word_budget, options.tol)
    result = {"validation": validation_report_dict(report)}
    if not report.ok:
        return "failed", result
    if fip_samples:
        fip = fip_check(
            payload.node, payload.polytope, fip_samples,
            family="cof", seed=options.seed,
            word_budget=options.word_budget, tol=options.tol,
        )
        result["fip"] = fip_dict(fip)
        if not fip.feasible:
            return "infeasible", result
    return "ok", result


def run_fip(pf, options) -> tuple[str, dict]:
    payload = pf.payload
    report = validate_structure(payload.node, payload.polytope, options.word_budget, options.tol)
    result = {"validation": validation_report_dict(report)}
    if not report.ok:
        return "failed", result
    fip = fip_check(
        payload.node, payload.polytope, payload.sample_count,
        family=payload.family, seed=options.seed,
        word_budget=options.word_budget, tol=options.tol,
    )
    result["fip"] = fip_dict(fip)
    return ("ok", result) if fip.feasible else ("infeasible", result)


def run_extend(pf, options) -> tuple[str, dict]:
    problem = pf.payload.problem
    try:
        result = invariant_extension(problem, options.tol, options.word_budget)
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
    except NotConvergedError as exc:
        return "not-converged", {"error": {"kind": "not-converged", "detail": str(exc)}}
    check = verify_extension(result, problem, options.tol)
    payload = extension_result_dict(result)
    payload["verification"] = extension_check_dict(check)
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
    text = dumps_canonical(report) if args.format == "json" else _render_text(report)
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


def build_parser() -> argparse.ArgumentParser:
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
    level = os.environ.get("FIXMK_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    args = build_parser().parse_args(argv)

    started = time.perf_counter()
    try:
        pf = load_problem(args.path)
        options = _merge_options(pf.options, args)
        if args.command == "solve":
            _expect_kind(pf, (KIND_FIXED_POINT,), "solve")
            status, result = run_solve(pf, options)
        elif args.command == "check":
            _expect_kind(pf, (KIND_STRUCTURE_CHECK, KIND_FIXED_POINT), "check")
            status, result = run_check(pf, options, fip_samples=args.fip)
        elif args.command == "fip":
            _expect_kind(pf, (KIND_FIP_CHECK,), "fip")
            status, result = run_fip(pf, options)
        else:
            _expect_kind(pf, (KIND_EXTENSION,), "extend")
            status, result = run_extend(pf, options)
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except FixmkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED

    report = {
        "status": status,
        "result": result,
        "timing_ms": (time.perf_counter() - started) * 1000.0,
        "tool_version": __version__,
    }
    _emit(report, args)
    return EXIT_OK if status == "ok" else EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
