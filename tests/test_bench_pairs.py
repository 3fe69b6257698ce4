import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seeds", ["1", "4-4"])
def test_single_seed_is_rejected_before_any_run(tmp_path, monkeypatch, seeds):
    # one pair has no quartiles, so no run may be made for it
    bench_pairs, runs = _load(), []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: runs.append(args))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--out", str(out), "--workloads", "cube_constants",
                          "--seeds", seeds])
    assert exit_info.value.code == 2
    assert runs == [] and not out.exists()


def test_record_counts_source_lines(tmp_path, monkeypatch):
    # newlines of src/hardy_cesaro/*.py, as wc -l counts them, per checkout
    bench_pairs = _load()
    for side, texts in (("parent", ["a\nb\n", "c\n"]), ("change", ["a\n", "no newline"])):
        package = tmp_path / side / "src" / "hardy_cesaro"
        package.mkdir(parents=True)
        for i, text in enumerate(texts):
            (package / f"m{i}.py").write_text(text)
        (package / "notes.txt").write_text("not counted\n")
    metric = {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))

    def run(checkout, workload, seed, seconds, trace):
        return {"metrics": {"cases_per_s": {"value": float(seed)}},
                "failed": 0, "attempted": 1, "correct": True}

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workloads", "cube_constants", "--seeds", "1-2"]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}
