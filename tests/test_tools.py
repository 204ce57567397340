import importlib.util
import json

import numpy as np
import pytest

from conftest import FIXTURES
from fixmk import SchemaError
from fixmk.schema import load_problem
from fixmk.semigroup import flatten


def test_gen_fixtures_reproduces_the_committed_corpus(tmp_path, monkeypatch):
    # the corpus is a benchmark input: any drift from its generator must show
    script = FIXTURES.parent / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    written, committed = files(tmp_path), files(FIXTURES)
    assert sorted(written) == sorted(committed)
    for rel, data in committed.items():
        assert written[rel] == data, f"{rel} differs from its generator's output"


def test_report_snapshot_masks_timing_and_fixture_root():
    script = FIXTURES.parent / "tools" / "report_snapshot.py"
    spec = importlib.util.spec_from_file_location("report_snapshot", script)
    snap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snap)
    stdout = '{\n  "status": "ok",\n  "timing_ms": 12.5e-1,\n}\nstatus: ok  (3.25 ms, v0.1.0)\n'
    stderr = f"error: {FIXTURES / 'negative' / 'malformed.json'}: invalid JSON\n"
    assert snap.mask(stdout, stderr) == (
        '{\n  "status": "ok",\n  "timing_ms": <masked>,\n}\nstatus: ok  (<masked> ms, v0.1.0)\n',
        "error: <fixtures>/negative/malformed.json: invalid JSON\n",
    )


def test_report_snapshot_generates_the_cyclic_shift_family(tmp_path):
    script = FIXTURES.parent / "tools" / "report_snapshot.py"
    spec = importlib.util.spec_from_file_location("report_snapshot", script)
    snap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snap)
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
    script = FIXTURES.parent / "tools" / "report_snapshot.py"
    spec = importlib.util.spec_from_file_location("report_snapshot", script)
    snap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snap)
    seen = []
    for name, problem, variants in snap.malformed_family():
        path = tmp_path / name
        path.write_text(json.dumps(problem), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"\$\.payload"):
            load_problem(path)
        seen.append((name, variants))
    assert len(seen) == 8 and len({name for name, _ in seen}) == 8
    assert [v for _, v in seen] == [(("solve",),)] * 6 + [(("extend",),)] * 2
