import importlib.util
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
