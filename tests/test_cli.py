import json

import numpy as np
import pytest

from conftest import FIXTURES, fixture_paths
from fixmk import cli, extension
from fixmk.schema import load_problem, serialize_problem
from helpers import run_cli


def canonical_fixture_paths():
    skip = {"malformed.json", "unknown_field.json"}
    return [
        p
        for group in ("solve", "extension", "fip", "negative")
        for p in fixture_paths(group)
        if p.name not in skip
    ]


# --- schema round-trip -------------------------------------------------------

@pytest.mark.parametrize("path", canonical_fixture_paths(), ids=lambda p: p.stem)
def test_roundtrip_is_byte_identical(path):
    assert serialize_problem(load_problem(path)) == path.read_text(encoding="utf-8")


def test_unknown_field_rejected():
    from fixmk import SchemaError

    with pytest.raises(SchemaError):
        load_problem(FIXTURES / "negative" / "unknown_field.json")


# --- exit codes -----------------------------------------------------------------

def test_solve_ok_exit_zero():
    code, out, _ = run_cli("solve", str(FIXTURES / "solve" / "rotation_square.json"))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    np.testing.assert_allclose(report["result"]["point"], [0.0, 0.0], atol=1e-9)
    assert report["result"]["disagreement"] <= 1e-6
    assert report["tool_version"] == "0.1.0"


def test_check_failure_exit_one():
    code, out, _ = run_cli("check", str(FIXTURES / "negative" / "non_commuting_leaf.json"))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "failed"
    kinds = [f["kind"] for f in report["result"]["validation"]["failures"]]
    assert "non-commuting-pair" in kinds


def test_translation_hits_empty_fixed_set():
    code, out, _ = run_cli("solve", str(FIXTURES / "negative" / "drifting_translation.json"))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "infeasible"
    assert report["result"]["error"]["kind"] == "empty-fixed-subspace"


def test_extend_norm_violation_exit_one():
    code, out, _ = run_cli("extend", str(FIXTURES / "negative" / "norm_violating_operator.json"))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "failed"
    assert report["result"]["violations"][0]["invariant"] == "operator-norm"


def test_malformed_json_exit_two():
    code, out, err = run_cli("solve", str(FIXTURES / "negative" / "malformed.json"))
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_field_exit_two():
    code, _, err = run_cli("solve", str(FIXTURES / "negative" / "unknown_field.json"))
    assert code == 2
    assert "surprise" in err


def test_missing_file_exit_two():
    code, _, _ = run_cli("solve", str(FIXTURES / "does_not_exist.json"))
    assert code == 2


def test_kind_mismatch_exit_two():
    code, _, err = run_cli("solve", str(FIXTURES / "extension" / "swap_extension.json"))
    assert code == 2
    assert "kind" in err


# --- subcommands ------------------------------------------------------------------

def test_check_reports_depth():
    code, out, _ = run_cli("check", str(FIXTURES / "solve" / "dihedral_square.json"))
    assert code == 0
    assert json.loads(out)["result"]["validation"]["depth"] == 2


def test_check_with_fip_sampling():
    code, out, _ = run_cli(
        "check", str(FIXTURES / "solve" / "rotation_square.json"), "--fip", "4"
    )
    assert code == 0
    assert json.loads(out)["result"]["fip"]["feasible"] is True


def test_fip_subcommand():
    for name in ("rotation_square_fip.json", "dihedral_square_fip.json"):
        code, out, _ = run_cli("fip", str(FIXTURES / "fip" / name))
        assert code == 0
        assert json.loads(out)["result"]["fip"]["feasible"] is True


def test_extend_s3():
    code, out, _ = run_cli("extend", str(FIXTURES / "extension" / "s3_extension.json"))
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["result"]["functional"], np.full(3, 1 / 3), atol=1e-8)
    assert report["result"]["verification"]["ok"] is True


def test_extend_swap():
    code, out, _ = run_cli("extend", str(FIXTURES / "extension" / "swap_extension.json"))
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["result"]["functional"], [0.5, 0.5], atol=1e-8)
    assert report["result"]["dual_norm"] == pytest.approx(1.0, abs=1e-8)


def test_extend_validates_problem_once(monkeypatch, tmp_path):
    calls = []
    original = extension.validate_problem

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "validate_problem", counted, raising=False)
    monkeypatch.setattr(extension, "validate_problem", counted)
    path = FIXTURES / "extension" / "swap_extension.json"
    assert cli.main(["extend", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_solve_markov_anchor():
    code, out, _ = run_cli("solve", str(FIXTURES / "solve" / "markov_two_state.json"))
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["result"]["point"], [2 / 3, 1 / 3], atol=1e-8)


# --- flags ---------------------------------------------------------------------------

def test_mode_flag_overrides_file():
    code, out, _ = run_cli(
        "solve", str(FIXTURES / "solve" / "rotation_square.json"), "--mode", "exact"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "exact"
    assert report["result"]["certificate"] is None


def test_output_flag(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "solve", str(FIXTURES / "solve" / "rotation_square.json"), "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "ok"


def test_text_format_is_human_readable():
    code, out, _ = run_cli(
        "solve", str(FIXTURES / "solve" / "rotation_square.json"), "--format", "text"
    )
    assert code == 0
    assert out.startswith("status: ok")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_reports_are_deterministic_minus_timing():
    path = str(FIXTURES / "solve" / "markov_two_state.json")
    _, out1, _ = run_cli("solve", path, "--seed", "5")
    _, out2, _ = run_cli("solve", path, "--seed", "5")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    # stable key order straight off the wire
    assert out1.index('"result"') < out1.index('"status"') < out1.index('"timing_ms"')
