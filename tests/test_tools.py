import json
import pathlib

import numpy as np
import pytest

from conftest import FIXTURES
from fixmk import SchemaError, cli
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
