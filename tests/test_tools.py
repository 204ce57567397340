import json
import pathlib

import numpy as np
import pytest

from conftest import FIXTURES
from fixmk import Product, SchemaError, cli
from fixmk.schema import load_problem
from fixmk.semigroup import flatten
from helpers import load_tool

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "report_snapshot.json"


def test_gen_fixtures_reproduces_the_committed_corpus(tmp_path, monkeypatch):
    # the corpus is a benchmark input: any drift from its generator must show
    gen = load_tool("gen_fixtures")
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    written, committed = files(tmp_path), files(FIXTURES)
    assert sorted(written) == sorted(committed)
    for rel, data in committed.items():
        assert written[rel] == data, f"{rel} differs from its generator's output"


def test_report_snapshot_masks_timing_and_fixture_root():
    snap = load_tool("report_snapshot")
    stdout = '{\n  "status": "ok",\n  "timing_ms": 12.5e-1,\n}\nstatus: ok  (3.25 ms, v0.1.0)\n'
    stderr = f"error: {FIXTURES / 'negative' / 'malformed.json'}: invalid JSON\n"
    assert snap.mask(stdout, stderr) == (
        '{\n  "status": "ok",\n  "timing_ms": <masked>,\n}\nstatus: ok  (<masked> ms, v0.1.0)\n',
        "error: <fixtures>/negative/malformed.json: invalid JSON\n",
    )


def test_report_snapshot_generates_the_cyclic_shift_family(tmp_path):
    snap = load_tool("report_snapshot")
    runs = {"fixed-point": [], "fip-check": []}
    for name, problem, _ in snap.generated_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        pf = load_problem(path)
        p = pf.payload
        ((_, shift),) = flatten(p.node)
        d = p.polytope.dim
        np.testing.assert_array_equal(shift.matrix, np.roll(np.eye(d), 1, axis=0))
        np.testing.assert_array_equal(p.polytope.vertices, np.eye(d))
        if pf.kind == "fip-check":
            assert (p.family, p.sample_count, pf.options.word_budget) == ("cof", 5, 2)
            runs[pf.kind].append((d, pf.options.seed))
        else:
            np.testing.assert_array_equal(p.start, np.eye(d)[0])
            runs[pf.kind].append(d)
    assert runs["fixed-point"] == [8, 16, 24]
    assert runs["fip-check"] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    assert snap.mask("", f"error: {tmp_path / 'x.json'}\n", tmp_path) == ("", "error: <generated>/x.json\n")


def test_report_snapshot_generates_the_check_family(tmp_path):
    snap = load_tool("report_snapshot")
    seen = []
    for name, problem, variants in snap.check_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        pf = load_problem(path)
        assert pf.kind == "structure-check"
        seen.append((name, pf.payload.polytope.n_vertices, len(flatten(pf.payload.node)), len(variants)))
    assert seen == [
        ("hyperoctahedral_leaf_3.json", 8, 2, 2),
        ("hyperoctahedral_product_3.json", 8, 2, 2),
        ("hyperoctahedral_leaf_6.json", 64, 2, 2),
        ("hyperoctahedral_product_6.json", 64, 2, 2),
        ("leaving_contraction_box.json", 8, 1, 1),
        ("perturbed_shift_cube.json", 16, 1, 1),
    ]


def test_report_snapshot_generates_the_product_solve_family(tmp_path):
    snap = load_tool("report_snapshot")
    seen = []
    for name, problem, variants in snap.product_solve_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        pf = load_problem(path)
        p, d = pf.payload, pf.payload.polytope.dim
        assert pf.kind == "fixed-point" and pf.options.mode == "cross-check"
        assert isinstance(p.node, Product)
        ((_, negate),), ((_, shift),) = flatten(p.node.normal), flatten(p.node.quotient)
        np.testing.assert_array_equal(negate.matrix, -np.eye(d))
        np.testing.assert_array_equal(shift.matrix, np.roll(np.eye(d), 1, axis=0))
        assert p.polytope.n_vertices == 2**d and np.all(np.abs(p.polytope.vertices) == 1.0)
        np.testing.assert_array_equal(p.start, np.append(1.0, -np.ones(d - 1)))  # a vertex, not 0
        seen.append((name, variants))
    assert seen == [
        (f"hyperoctahedral_product_solve_{d}.json", (("solve",), ("solve", "--mode", "cesaro")))
        for d in (3, 6)
    ]


def test_report_snapshot_generates_the_dihedral_polygon_family(tmp_path):
    snap = load_tool("report_snapshot")
    seen = []
    for name, problem, variants in snap.dihedral_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        pf = load_problem(path)
        p, m = pf.payload, pf.payload.polytope.n_vertices
        assert pf.kind == "fixed-point" and pf.options.word_budget == 6 < m - 1
        ((_, rotation),), ((_, reflection),) = flatten(p.node.normal), flatten(p.node.quotient)
        np.testing.assert_allclose(np.linalg.matrix_power(rotation.matrix, m), np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(reflection.matrix, np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(p.start, p.polytope.vertices[1])
        seen.append((name, variants))
    assert seen == [(f"dihedral_polygon_{m}.json", (("check",), ("solve",))) for m in (8, 16)]


def test_report_snapshot_writes_shape_malformed_problems(tmp_path):
    snap = load_tool("report_snapshot")
    seen = []
    for name, problem, variants in snap.malformed_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"\$\.payload"):
            load_problem(path)
        seen.append((name, variants))
    assert len(seen) == 8 and len({name for name, _ in seen}) == 8
    assert [v for _, v in seen] == [(("solve",),)] * 6 + [(("extend",),)] * 2


def test_report_snapshot_generates_the_frame_family(tmp_path):
    snap = load_tool("report_snapshot")
    seen = []
    for name, problem, variants in snap.frame_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        pf = load_problem(path)
        seen.append((name, pf.kind, variants))
        if name == "centered_box_contraction_micro.json":
            unscaled = load_problem(FIXTURES / "solve" / "centered_box_contraction.json").payload
            np.testing.assert_array_equal(pf.payload.polytope.vertices, 1e6 * unscaled.polytope.vertices)
            np.testing.assert_array_equal(pf.payload.start, 1e6 * unscaled.start)
            for (_, g), (_, h) in zip(flatten(pf.payload.node), flatten(unscaled.node), strict=True):
                np.testing.assert_array_equal(g.matrix, h.matrix)
                np.testing.assert_array_equal(g.offset, 1e6 * h.offset)
    assert seen == [
        ("far_translation_square.json", "structure-check", (("check",),)),
        ("cyclic_shift_far_simplex.json", "fip-check", (("fip",),)),
        ("small_functional_max-abs.json", "extension", (("extend",),)),
        ("small_functional_sum-abs.json", "extension", (("extend",),)),
        ("centered_box_contraction_micro.json", "fixed-point", (("solve",),)),
    ]


def test_golden_reports_are_strict_json():
    # json.loads reads NaN and Infinity, which strict JSON parsers refuse
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    reports = [run["stdout"] for run in json.loads(GOLDEN.read_text(encoding="utf-8"))
               if run["stdout"].startswith("{")]
    assert reports
    for stdout in reports:
        json.loads(stdout.replace("<masked>", "0"), parse_constant=refuse)


def test_report_snapshot_matches_the_golden_copy(monkeypatch):
    """Every report, exit code and error line of the snapshot is as committed.

    The snapshot of this checkout, made in this process, must equal
    tests/golden/report_snapshot.json byte for byte.  A change that alters
    reports regenerates the file with

        python tools/report_snapshot.py --out tests/golden/report_snapshot.json

    and lists the changed entries (their ``args``) in CHANGES.md.
    """
    monkeypatch.delenv("FIXMK_LOG", raising=False)
    snap = load_tool("report_snapshot")
    runs = snap.snapshot(cli)
    golden = GOLDEN.read_text(encoding="utf-8")
    if snap.dumps(runs) != golden:
        old = {json.dumps(run["args"]): run for run in json.loads(golden)}
        changed = [run["args"] for run in runs if old.pop(json.dumps(run["args"]), None) != run]
        pytest.fail(f"{len(changed)} runs changed or added, {len(old)} gone: {changed[:10]}")
