"""The exact key set of every report kind on the corpus.

Report keys are the field names of the result dataclasses, so renaming a
field changes the report format; these cases make that show.
"""
import json

import pytest

from conftest import FIXTURES
from fixmk import cli

VALIDATION_OK = {"ok": None, "depth": None}  # solve keeps only these two
VALIDATION = {"ok": None, "depth": None, "failures": None}
FAILURE = {"kind": None, "witness": None, "residual": None}
CERTIFICATE = {"n_final": None, "residual_history": None, "diameter": None}
FIP = {"feasible": None, "witness": None, "family": None, "sample_count": None, "seed": None}
ERROR = {"kind": None, "detail": None}
S3_RESIDUALS = {"g0": None, "g1": None}

CASES = [
    ("solve-cross-check", ["solve", "solve/rotation_square.json"], "ok", {
        "validation": VALIDATION_OK, "point": None, "residuals": {"g0": None},
        "method": None, "certificate": CERTIFICATE, "disagreement": None,
        "projection_gap": None,
    }),
    ("solve-exact", ["solve", "solve/rotation_square.json", "--mode", "exact"], "ok", {
        "validation": VALIDATION_OK, "point": None, "residuals": {"g0": None},
        "method": None, "certificate": None,
    }),
    ("solve-cesaro", ["solve", "solve/rotation_square.json", "--mode", "cesaro"], "ok", {
        "validation": VALIDATION_OK, "point": None, "residuals": {"g0": None},
        "method": None, "certificate": CERTIFICATE,
    }),
    ("solve-not-converged",
     ["solve", "solve/contraction_interval.json", "--mode", "cesaro", "--n-max", "4"],
     "not-converged", {
         "validation": VALIDATION_OK, "error": ERROR, "best_point": None,
         "best_residuals": {"g0": None}, "certificate": CERTIFICATE,
     }),
    ("solve-infeasible", ["solve", "negative/drifting_translation.json"], "infeasible", {
        "validation": VALIDATION_OK, "error": ERROR,
    }),
    ("check", ["check", "solve/dihedral_square.json"], "ok", {"validation": VALIDATION}),
    ("check-failed", ["check", "negative/non_commuting_leaf.json"], "failed", {
        "validation": {**VALIDATION, "failures": [FAILURE]},
    }),
    ("check-fip", ["check", "solve/dihedral_square.json", "--fip", "3"], "ok", {
        "validation": VALIDATION, "fip": FIP,
    }),
    ("fip", ["fip", "fip/dihedral_square_fip.json"], "ok", {
        "validation": VALIDATION, "fip": FIP,
    }),
    ("extend", ["extend", "extension/s3_extension.json"], "ok", {
        "functional": None, "dual_norm": None, "invariance_residuals": S3_RESIDUALS,
        "restriction_residual": None, "subspace_norm": None,
        "verification": {
            "ok": None, "restriction_residual": None, "dual_norm": None,
            "subspace_norm": None, "invariance_residuals": S3_RESIDUALS, "failures": None,
        },
    }),
    ("extend-failed", ["extend", "negative/norm_violating_operator.json"], "failed", {
        "violations": [{"invariant": None, "operator": None, "residual": None}],
    }),
]


def key_tree(value):
    """The nested keys of a report: dicts recurse, a list of objects by its first."""
    if isinstance(value, dict):
        return {k: key_tree(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [key_tree(value[0])]
    return None


@pytest.mark.parametrize("argv, status, keys", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_key_set(argv, status, keys, tmp_path):
    out = tmp_path / "report.json"
    command, fixture, *flags = argv
    cli.main([command, str(FIXTURES / fixture), *flags, "--output", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report) == ["result", "status", "timing_ms", "tool_version"]
    assert report["status"] == status
    assert key_tree(report["result"]) == keys
