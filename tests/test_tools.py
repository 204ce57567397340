import importlib.util

from conftest import FIXTURES


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
