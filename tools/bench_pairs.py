"""Paired hcbench runs of two checkouts, written as a BENCH_*.json record.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_5.json \
        --workloads t31_sampled,t41_commutator,cube_constants --seeds 1-10 \
        --seconds 20 [--checksum-seeds 1-3] [--trace-seed 1] [--what TEXT]

For every workload and seed it runs ``hcbench/run.py`` once in each
checkout, one run at a time, the parent first on odd pair numbers and the
change first on even ones, and records every end-to-end metric: the runs,
their quartiles and median, how many pairs the change won, and the ratio
of the medians.  ``--checksum-seeds`` runs every case of each workload once
per seed in both checkouts and records, for the case outputs and for the
operator outputs the verifiers compute (captured as hcbench's checks
capture them), a sha256 of their repr and the largest relative change of
any number in them (the numbers of each case's repr, matched in order), so
a move at rounding level shows as a figure; ``--trace-seed`` adds the
per-layer metrics of one traced round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

# Runs every case of one workload once and prints its outputs as JSON;
# executed by the interpreter in a checkout, with that checkout's hcbench.
_OUTPUTS = r"""
import json, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "hcbench")]
import run
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[2]]
hc = run.fresh_import()
capture = run.Capture(hc.verification)
out = []
with tempfile.TemporaryDirectory() as workdir:
    for case in sorted(workload.build(hc, int(sys.argv[3]), Path(workdir)), key=lambda c: c.name):
        try:
            value = case.run()
        except Exception as exc:
            value = f"{type(exc).__name__}: {exc}"
        operators = [run._profile_key(p) for p in capture.take()]
        out.append([case.name, repr(value), repr(operators)])
print(json.dumps(out))
"""


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "hcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def _quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def _pairs(args, workload: str, seeds: list, declared: dict) -> dict:
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(getattr(args, side), workload, seed, args.seconds, 0))
            print(f"bench_pairs: {workload} seed {seed} {side}: "
                  f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr, flush=True)
    metrics = {}
    for name, spec in declared.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": _quartiles(parent), "change": _quartiles(change),
            "change_wins": f"{wins}/{len(seeds)}",
            "median_ratio_change_over_parent":
                statistics.median(change) / statistics.median(parent),
        }
    out = {"pairs": len(seeds), "seeds": seeds, "metrics": metrics}
    for side in ("parent", "change"):
        out[f"{side}_failed"] = [f"{r['failed']}/{r['attempted']}" for r in runs[side]]
        out[f"{side}_correct"] = all(r["correct"] for r in runs[side])
    return out


def _outputs(checkout: Path, workload: str, seed: int) -> list:
    done = subprocess.run([sys.executable, "-c", _OUTPUTS, str(checkout), workload, str(seed)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


def _max_relative_change(parent: list, change: list):
    """Largest |c / p - 1| over the numbers of each case's output repr,
    matched in order (inf where a zero moved); None where two outputs do
    not hold the same count of numbers."""
    worst = 0.0
    for (_, p), (_, c) in zip(parent, change):
        ps, cs = _NUMBER.findall(p), _NUMBER.findall(c)
        if len(ps) != len(cs):
            return None
        for x, y in zip(map(float, ps), map(float, cs)):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                worst = max(worst, abs(y / x - 1.0) if x != 0.0 else math.inf)
    return worst


def _compare(sides: dict) -> dict:
    entry = {side: {"sha256": _digest(f"{n} {v}" for n, v in rows), "cases": len(rows)}
             for side, rows in sides.items()}
    entry["identical"] = sides["parent"] == sides["change"]
    entry["max_relative_change"] = _max_relative_change(sides["parent"], sides["change"])
    return entry


def _checksums(args, workload: str, seeds: list) -> dict:
    out = {}
    for seed in seeds:
        rows = {side: _outputs(getattr(args, side), workload, seed)
                for side in ("parent", "change")}
        entry = _compare({side: [(name, value) for name, value, _ in r]
                          for side, r in rows.items()})
        entry["operator_outputs"] = _compare({side: [(name, ops) for name, _, ops in r]
                                              for side, r in rows.items()})
        out[str(seed)] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--checksum-seeds", default="")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()

    declared = {m["name"]: m for m in
                json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds = _seeds(args.seeds)
    record = {
        "what": args.what,
        "command": f"python3 hcbench/run.py --workload W --seed N --seconds {args.seconds:g} "
                   "--trace 0",
        "protocol": "pairs of runs on the same seed, parent and change alternating which "
                    "runs first; quartiles over the pairs' runs",
        "cores": os.cpu_count(),
        "workloads": {},
    }
    workloads = args.workloads.split(",")
    for workload in workloads:
        record["workloads"][workload] = _pairs(args, workload, seeds, declared)
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if args.checksum_seeds:
        record["output_checksums"] = {w: _checksums(args, w, _seeds(args.checksum_seeds))
                                      for w in workloads}
    if args.trace_seed is not None:
        record["traces"] = {
            w: {"command": f"python3 hcbench/run.py --workload {w} --seed {args.trace_seed} "
                           "--seconds 1 --trace 1",
                **{side: {k: m["value"] for k, m in
                          _run(getattr(args, side), w, args.trace_seed, 1, 1)["metrics"].items()}
                   for side in ("parent", "change")}}
            for w in workloads}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
