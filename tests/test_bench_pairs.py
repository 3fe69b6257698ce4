import importlib.util
import json
import math
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


def test_max_relative_change_matches_numbers_in_order():
    bench_pairs = _load()
    parent = [("a", "(1.0, 2.0)"), ("b", "[4.0, 'x', 8.0]")]
    change = [("a", "(1.0, 2.0)"), ("b", "[4.0, 'x', 8.5]")]
    assert bench_pairs._max_relative_change(parent, change) == (0.0625, {"case": "b", "number": 1})
    # the first of two equal moves, and nothing where nothing moved
    assert bench_pairs._max_relative_change(
        [("a", "2.0 4.0")], [("a", "3.0 6.0")]) == (0.5, {"case": "a", "number": 0})
    assert bench_pairs._max_relative_change(parent, parent) == (0.0, None)


@pytest.mark.parametrize("p, c, want", [
    ("(0.0, 1.0)", "(1e-300, 1.0)", (math.inf, {"case": "a", "number": 0})),   # a moved zero
    ("nan 1.0", "1.0 1.0", (math.inf, {"case": "a", "number": 0})),
    ("(1.0, 2.0)", "(1.0, 2.0, 3.0)", (None, None)),                          # counts differ
    ("[nan, inf, -inf]", "[nan, inf, -inf]", (0.0, None)),
    ("-0.0", "0.0", (0.0, None))])
def test_max_relative_change_edge_cases(p, c, want):
    assert _load()._max_relative_change([("a", p)], [("a", c)]) == want


def test_compare_records_digests_and_the_largest_change():
    bench_pairs = _load()
    parent = [("a", "1.0"), ("b", "2.0")]
    entry = bench_pairs._compare({"parent": parent, "change": [("a", "1.0"), ("b", "2.5")]})
    assert entry["parent"]["cases"] == entry["change"]["cases"] == 2
    assert entry["parent"]["sha256"] != entry["change"]["sha256"]
    assert not entry["identical"]
    assert entry["max_relative_change"] == 0.25
    assert entry["max_relative_change_at"] == {"case": "b", "number": 0}
    same = bench_pairs._compare({"parent": parent, "change": list(parent)})
    assert same["identical"] and same["parent"] == same["change"]
    assert (same["max_relative_change"], same["max_relative_change_at"]) == (0.0, None)
    differ = bench_pairs._compare({"parent": parent, "change": [("a", "1.0"), ("b", "2.0 3.0")]})
    assert differ["max_relative_change"] is None and differ["max_relative_change_at"] is None


def test_checksum_seeds_run_without_timed_pairs(tmp_path, monkeypatch):
    # --seeds '' runs no timed pair; the outputs are still compared per seed
    bench_pairs, runs, outputs = _load(), [], []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: runs.append(args))

    def fake_outputs(checkout, workload, seed):
        outputs.append((checkout.name, workload, seed))
        value = "2.5" if checkout.name == "change" and seed == 2 else "2.0"
        return [["case", value, "[]"]]

    monkeypatch.setattr(bench_pairs, "_outputs", fake_outputs)
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "hardy_cesaro").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workloads", "t31_sampled,cube_constants", "--seeds", "",
                             "--checksum-seeds", "1-2"]) == 0
    assert runs == [] and len(outputs) == 8
    record = json.loads(out.read_text())
    assert record["workloads"] == {}
    checks = record["output_checksums"]
    assert sorted(checks) == ["cube_constants", "t31_sampled"]
    assert [checks["t31_sampled"][s]["identical"] for s in ("1", "2")] == [True, False]
    assert checks["t31_sampled"]["2"]["max_relative_change"] == 0.25
    assert checks["t31_sampled"]["1"]["operator_outputs"]["identical"]


def test_no_pairs_and_no_checksums_is_rejected(tmp_path, monkeypatch):
    bench_pairs = _load()
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: pytest.fail("no run expected"))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--out", str(out), "--workloads", "cube_constants", "--seeds", ""])
    assert exit_info.value.code == 2 and not out.exists()
