import json
import logging
import time

import numpy as np
import pytest

from conftest import FIXTURES, fixture_paths
from fixmk import SchemaError, cli, extension, lp, schema
from fixmk.schema import load_problem, parse_problem, serialize_problem
from helpers import load_tool, run_cli


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


# --- option ranges --------------------------------------------------------------

BAD_FLAGS = [
    ("check", "rotation_square", ["--fip", "1"], "--fip"),
    ("check", "rotation_square", ["--fip", "0"], "--fip"),
    ("solve", "dihedral_square", ["--word-budget", "0"], "--word-budget"),
    ("solve", "rotation_square", ["--n-max", "0"], "--n-max"),
    ("check", "rotation_square", ["--tol", "-1"], "--tol"),
    ("check", "rotation_square", ["--tol", "0"], "--tol"),
    ("solve", "rotation_square", ["--tol", "nan"], "--tol"),
    ("solve", "rotation_square", ["--tol", "inf"], "--tol"),
    ("check", "rotation_square", ["--fip", "3", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize(
    "command, fixture, flags, named", BAD_FLAGS, ids=[" ".join(case[2]) for case in BAD_FLAGS]
)
def test_out_of_range_flag_exits_two(command, fixture, flags, named, capsys):
    path = FIXTURES / "solve" / f"{fixture}.json"
    assert cli.main([command, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}: expected")


BAD_OPTIONS = [
    ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")), ("tol", float("inf")),
    ("n_max", 0), ("word_budget", 0), ("seed", -1),
]


@pytest.mark.parametrize("name, value", BAD_OPTIONS)
def test_out_of_range_file_option_exits_two(name, value, tmp_path, capsys):
    data = json.loads((FIXTURES / "solve" / "dihedral_square.json").read_text())
    data["options"][name] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", str(path)]) == 2
    assert f"$.options.{name}: expected" in capsys.readouterr().err


def test_fip_sample_count_below_two_exits_two(tmp_path, capsys):
    data = json.loads((FIXTURES / "fip" / "rotation_square_fip.json").read_text())
    data["payload"]["sample_count"] = 1
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    assert cli.main(["fip", str(path)]) == 2
    assert "$.payload.sample_count: expected an integer >= 2" in capsys.readouterr().err


NON_FINITE_FIELDS = [
    ("solve", "solve/contraction_interval.json",
     ("semigroup", "leaf", 0, "matrix", 0, 0), float("nan")),
    ("solve", "solve/contraction_interval.json",
     ("semigroup", "leaf", 0, "offset", 0), float("inf")),
    ("solve", "solve/contraction_interval.json", ("polytope", "vertices", 1, 0), float("-inf")),
    ("solve", "solve/contraction_interval.json", ("start", 0), 10**400),  # beyond float range
    ("extend", "extension/swap_extension.json", ("subspace_basis", 0, 1), float("nan")),
    ("extend", "extension/swap_extension.json", ("functional_on_subspace", 0), float("inf")),
]


@pytest.mark.parametrize(
    "command, fixture, field, value", NON_FINITE_FIELDS,
    ids=[[key for key in case[2] if isinstance(key, str)][-1] for case in NON_FINITE_FIELDS],
)
def test_non_finite_payload_number_exits_two(command, fixture, field, value, tmp_path, capsys):
    data = json.loads((FIXTURES / fixture).read_text())
    *parents, last = field
    target = data["payload"]
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))  # writes NaN, Infinity and -Infinity as JSON allows
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    named = "$.payload." + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in field)[1:]
    assert captured.err == f"error: {path}: {named}: expected a finite number\n"
    assert captured.out == ""


# JSON numbers at the edges of the float range: each must parse to float(x)
EDGE_NUMBERS = [2**53 + 1, 2**63, 10**20, -0.0, 5e-324, 1.7976931348623157e308]


def test_payload_numbers_parse_like_float():
    row = json.loads(json.dumps(EDGE_NUMBERS))  # the big integers stay ints, as in a file
    expected = np.array([float(x) for x in EDGE_NUMBERS])
    assert schema._vector(row, "$.v").tobytes() == expected.tobytes()
    matrix = schema._matrix([row, row[::-1]], "$.m")
    assert matrix.tobytes() == np.array([expected, expected[::-1]]).tobytes()


BAD_ENTRIES = {
    "true": (True, "expected a number"),
    "string": ("1", "expected a number"),
    "null": (None, "expected a number"),
    "nested": ([1.0], "expected a number"),
    "nan": (float("nan"), "expected a finite number"),
    "int_beyond_float": (10**400, "expected a finite number"),
}


@pytest.mark.parametrize("value, message", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_bad_payload_number_is_named(value, message):
    rows = {"$.payload.start[1]": ("start",),
            "$.payload.semigroup.leaf[0].matrix[1][1]": ("semigroup", "leaf", 0, "matrix", 1)}
    for named, keys in rows.items():
        data = json.loads((FIXTURES / "solve" / "rotation_square.json").read_text())
        row = data["payload"]
        for key in keys:
            row = row[key]
        row[1] = value
        with pytest.raises(SchemaError) as exc:
            parse_problem(data)
        assert str(exc.value) == f"{named}: {message}"


def test_smallest_in_range_flags_run(tmp_path):
    path = FIXTURES / "solve" / "dihedral_square.json"
    out = tmp_path / "out.json"
    flags = ["--fip", "2", "--word-budget", "3", "--n-max", "1", "--seed", "0", "--tol", "1e-8"]
    assert cli.main(["check", str(path), *flags, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["fip"]["sample_count"] == 2


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


ROTATION = str(FIXTURES / "solve" / "rotation_square.json")
OUTPUT = "<output>"  # stands for a file path of the run's own

# (argv, exit code) lists run in a row through one process's main; no flag
# may outlive its call
MAIN_SEQUENCES = {
    "fip_then_check": [(["check", ROTATION, "--fip", "3"], 0), (["check", ROTATION], 0)],
    "mode_then_file_mode": [(["solve", ROTATION, "--mode", "exact"], 0), (["solve", ROTATION], 0)],
    "rejected_then_valid": [(["check", ROTATION, "--tol", "0"], 2),
                            (["solve", ROTATION, "--mode", "bogus"], 2), (["check", ROTATION], 0)],
    "text_output_then_json": [(["solve", ROTATION, "--format", "text"], 0),
                              (["solve", ROTATION, "--output", OUTPUT], 0),
                              (["solve", ROTATION], 0)],
}


@pytest.mark.parametrize("calls", MAIN_SEQUENCES.values(), ids=MAIN_SEQUENCES)
def test_repeated_main_calls_match_fresh_processes(calls, tmp_path, monkeypatch):
    monkeypatch.delenv("FIXMK_LOG", raising=False)
    snap = load_tool("report_snapshot")

    def outcome(runner, argv, target):
        code, out, err = runner([str(target) if a == OUTPUT else a for a in argv])
        written = target.read_text() if target.exists() else ""
        target.unlink(missing_ok=True)
        return code, *snap.mask(out, err), snap.mask(written, "")[0]

    for argv, code in calls:
        in_process = outcome(lambda a: snap.run(cli, a), argv, tmp_path / "in_process.json")
        assert in_process[0] == code, argv
        assert in_process == outcome(lambda a: run_cli(*a), argv, tmp_path / "fresh.json"), argv
    assert cli.build_parser.cache_info().misses == 1


def test_numerical_failure_exits_one_with_error_line(monkeypatch, capsys):
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    path = FIXTURES / "fip" / "dihedral_square_fip.json"
    assert cli.main(["fip", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: simplex iteration limit exceeded")
    assert "Traceback" not in captured.err and captured.out == ""


def test_fip_run_imports_no_masked_arrays(monkeypatch):
    # np.unique(axis=0) imported numpy.ma on its first call: ~20 ms and 1.2 MB a run
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    code, _, err = run_cli("fip", str(FIXTURES / "fip" / "dihedral_square_fip.json"))
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    assert code == 0 and "numpy" in imported
    assert "numpy.ma" not in imported


# --- malformed inputs end in an error line, never a traceback ---------------------

ROT90 = {"matrix": [[0.0, -1.0], [1.0, 0.0]], "offset": [0.0, 0.0]}
EYE3 = {"matrix": np.eye(3).tolist(), "offset": [0.0] * 3}

# fixture, payload field, value: each once escaped main as a raw traceback,
# or, from polytope_3d on, exited 1 as if a solver had failed
MALFORMED = {
    "coh_coq_leaf": ("fip/rotation_square_fip.json", ("family",), "coh-coq"),
    "extension_dim_zero": ("extension/swap_extension.json", ("dim",), 0),
    "extension_short_row": ("extension/swap_extension.json", ("subspace_basis", 0), [1.0]),
    "extension_long_row": ("extension/swap_extension.json", ("subspace_basis", 0), [1.0] * 3),
    "start_outside": ("solve/rotation_square.json", ("start",), [5.0, 5.0]),
    "polytope_3d": ("solve/rotation_square.json", ("polytope", "vertices"),
                    [[x, y, 0.0] for x in (-1.0, 1.0) for y in (-1.0, 1.0)]),
    "start_length_3": ("solve/rotation_square.json", ("start",), [1.0, 1.0, 0.0]),
    "offset_length_3": ("solve/rotation_square.json", ("semigroup", "leaf", 0, "offset"), [0.0] * 3),
    "matrix_2x3": ("solve/rotation_square.json", ("semigroup", "leaf", 0, "matrix"),
                   [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]),
    "leaf_mixed_dims": ("solve/rotation_square.json", ("semigroup", "leaf"), [ROT90, EYE3]),
    "product_quotient_1d": ("solve/rotation_square.json", ("semigroup",), {"product": {
        "normal": {"leaf": [ROT90]}, "quotient": {"leaf": [{"matrix": [[1.0]], "offset": [0.0]}]}}}),
    "functional_two_values": ("extension/swap_extension.json", ("functional_on_subspace",), [1.0, 1.0]),
    "operator_3x3": ("extension/swap_extension.json", ("operators",), {"leaf": [EYE3]}),
}


def write_malformed(tmp_path, name):
    """Write the MALFORMED variant ``name`` of its fixture to tmp_path."""
    fixture, (*parents, last), value = MALFORMED[name]
    data = json.loads((FIXTURES / fixture).read_text())
    target = data["payload"]
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def test_unwritable_output_exits_two(tmp_path, capsys):
    path = FIXTURES / "solve" / "rotation_square.json"
    target = tmp_path / "missing" / "out.json"
    assert cli.main(["check", str(path), "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.out == ""


SCHEMA_CASES = [
    ("fip", "coh_coq_leaf", "$.payload.family: 'coh-coq' needs a product semigroup"),
    ("extend", "extension_dim_zero", "$.payload.dim: expected an integer >= 1"),
    ("extend", "extension_short_row", "$.payload.subspace_basis: expected rows of length 2"),
    ("extend", "extension_long_row", "$.payload.subspace_basis: expected rows of length 2"),
    ("solve", "polytope_3d", "$.payload.polytope.vertices: expected rows of length 2"),
    ("solve", "start_length_3", "$.payload.start: expected dimension 2, got 3"),
    ("solve", "offset_length_3", "$.payload.semigroup.leaf[0].offset: expected dimension 2, got 3"),
    ("solve", "matrix_2x3",
     "$.payload.semigroup.leaf[0].matrix: expected a square matrix, got shape (2, 3)"),
    ("solve", "leaf_mixed_dims", "$.payload.semigroup.leaf: leaf generators have mixed dims"),
    ("solve", "product_quotient_1d",
     "$.payload.semigroup.product: product children have mixed dims"),
    ("extend", "functional_two_values", "$.payload: one functional value per basis vector"),
    ("extend", "operator_3x3", "$.payload: norm/operators do not match the ambient dim"),
]


@pytest.mark.parametrize("command, name, message", SCHEMA_CASES, ids=[c[1] for c in SCHEMA_CASES])
def test_payload_constraint_exits_two(command, name, message, tmp_path, capsys):
    path = write_malformed(tmp_path, name)
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


def test_fixmk_log_takes_level_names_only(monkeypatch, capsys):
    path = FIXTURES / "solve" / "rotation_square.json"
    for value in ("basic_format", "bogus"):  # a logging constant that is no level, and a typo
        monkeypatch.setenv("FIXMK_LOG", value)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: FIXMK_LOG: expected a logging level name, got {value!r}\n"
        assert captured.out == ""
    monkeypatch.setenv("FIXMK_LOG", "debug")
    code, _, err = run_cli("check", str(path))
    assert code == 0 and "DEBUG:fixmk.semigroup:invariance pass" in err


def test_fixmk_log_writes_to_each_in_process_call_stderr(monkeypatch):
    snap = load_tool("report_snapshot")
    argv = ["check", str(FIXTURES / "solve" / "rotation_square.json")]
    monkeypatch.setenv("FIXMK_LOG", "debug")
    fresh = snap.mask(*run_cli(*argv)[1:])
    assert "DEBUG:fixmk.semigroup:invariance pass" in fresh[1]
    for _ in range(2):
        code, out, err = snap.run(cli, argv)
        assert code == 0 and snap.mask(out, err) == fresh
    monkeypatch.setenv("FIXMK_LOG", "info")  # each call takes its own level
    assert snap.run(cli, argv)[2] == ""
    monkeypatch.delenv("FIXMK_LOG")  # and an unset one removes the handler
    assert snap.run(cli, argv)[2] == ""
    assert not logging.getLogger("fixmk").handlers


@pytest.mark.parametrize(
    "n, named", [(7, "C(128, 6) = 5,423,611,200"), (40, "1,099,511,627,776 facets")]
)
def test_oversized_extension_exits_one_at_once(n, named, tmp_path, capsys):
    # l-inf: C(2^n, n - 1) facet combinations, hours at n = 7; 2^40 ball vertices at n = 40
    data = json.loads((FIXTURES / "extension" / "swap_extension.json").read_text())
    shift = {"matrix": np.roll(np.eye(n), 1, axis=0).tolist(), "offset": [0.0] * n}
    data["payload"].update(
        dim=n, subspace_basis=[[1.0] * n], operators={"leaf": [shift]}
    )
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    assert cli.main(["extend", str(path)]) == 1
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: constraint set too large to enumerate: ")
    assert named in captured.err and captured.out == ""


@pytest.mark.parametrize("mode", ["cross-check", "cesaro"])
def test_start_outside_polytope_exits_one(mode, tmp_path, capsys):
    path = write_malformed(tmp_path, "start_outside")
    assert cli.main(["solve", str(path), "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: start point is not inside the polytope\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "check", "fip", "extend"])
def test_no_input_escapes_main(command, tmp_path, capsys):
    paths = fixture_paths("negative") + [write_malformed(tmp_path, name) for name in MALFORMED]
    unwritable = str(tmp_path / "missing" / "out.json")
    for path in paths:
        for output in ([], ["--output", unwritable]):
            assert cli.main([command, str(path), *output]) in (0, 1, 2), path.name
            assert "Traceback" not in capsys.readouterr().err
