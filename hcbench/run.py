"""Benchmark for the hardy_cesaro toolkit.

Usage, from the root of a checkout:

    python3 hcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: t41_commutator, t31_sampled, cube_constants (see README.md).
The run times whole rounds of the workload's case list until ``--seconds``
of timed work have passed, checks the outputs, and prints one JSON object
as the last line of standard output: the end-to-end metrics with
``--trace 0`` (times scaled to a reference host speed, see ``calibration``),
the per-layer metrics of the traced rounds (per round) with ``--trace 1``.
The benchmark runs in this one process and starts no threads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("parameters", "weights", "profiles", "quadrature", "norms", "operators",
           "constants", "verification", "cli")
SETUP_REPEATS = 5


@dataclass
class Outcome:
    value: object
    captured: list
    error: str | None
    seconds: float
    speed: float     # calibration time around the case

    def key(self):
        """Exact form of every output, for bit-for-bit comparison."""
        return repr((self.value, [_profile_key(p) for p in self.captured], self.error))


def _profile_key(profile):
    fields = getattr(profile, "__dataclass_fields__", {})
    return (type(profile).__name__,) + tuple(repr(getattr(profile, f)) for f in fields)


_GX, _GW = np.polynomial.legendre.leggauss(12)
REFERENCE_SPEED_S = 0.002   # calibration time that defines the reported time scale


def calibration():
    """Fixed work of the program's kind, timed: graded composite
    Gauss-Legendre sums on small numpy arrays driven from Python.  The
    fastest of three calls is the host's current speed sample."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for depth in range(4, 40):
            edges = np.unique(np.concatenate(
                [[0.0], 0.25 ** np.arange(depth, 0, -1), np.linspace(0.25, 1.0, 8)]))
            half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
            x = (mid[:, None] + half[:, None] * _GX).ravel()
            float(np.dot((half[:, None] * _GW).ravel(), x ** -0.5))
        best = min(best, time.perf_counter() - start)
    return best


def fresh_import():
    """Import the program anew (its own modules only) and return them."""
    for name in [n for n in sys.modules if n == "hardy_cesaro" or n.startswith("hardy_cesaro.")]:
        del sys.modules[name]
    package = importlib.import_module("hardy_cesaro")
    return SimpleNamespace(package=package,
                           **{m: importlib.import_module(f"hardy_cesaro.{m}") for m in MODULES})


class Capture:
    """Keeps the operator outputs that the verifiers compute, for the checks.

    Only the bindings inside ``verification`` are wrapped: one extra call
    per verifier call, so untraced timings are not disturbed.
    """

    NAMES = ("apply_to_profile", "commutator_to_profile")

    def __init__(self, verification):
        self.taken = []
        for name in self.NAMES:
            setattr(verification, name, self._wrap(getattr(verification, name)))

    def _wrap(self, fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.taken.append(out)
            return out
        captured.__wrapped__ = fn
        return captured

    def take(self):
        out, self.taken = self.taken, []
        return out


def run_round(cases, capture, tracer=None):
    outcomes = []
    before = calibration()
    for case in cases:
        if tracer is not None:
            tracer.case = case.name
        start = time.perf_counter()
        try:
            value, error = case.run(), None
        except Exception as exc:   # a failed operation is data: counted and checked
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = calibration()
        outcomes.append(Outcome(value, capture.take(), error, seconds, 0.5 * (before + after)))
        before = after
    return outcomes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardy_cesaro" / "__init__.py").is_file():
        print(f"hcbench: no program sources at {SRC / 'hardy_cesaro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the program's third-party dependency: its import is the environment's
    # cost, not the program's set-up
    import scipy.special  # noqa: F401

    if args.workload not in WORKLOADS:
        print(f"hcbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # a directory of this process's own, so runs side by side cannot read
    # each other's configs; removed at the end
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir)


def _run(args, workload, workdir):
    def set_up():
        gc.collect()   # an earlier repetition's garbage is not this one's cost
        before = calibration()
        start = time.perf_counter()
        hc = fresh_import()
        cases = workload.build(hc, args.seed, workdir)
        seconds = time.perf_counter() - start
        setup.append((seconds, 0.5 * (before + calibration())))
        return hc, cases

    # Set-up is timed SETUP_REPEATS times before the first round and once
    # more after every round (the modules and cases those later repetitions
    # make are dropped), so its median spans the whole run.
    setup = []
    for _ in range(SETUP_REPEATS):
        hc, cases = set_up()
    capture = Capture(hc.verification)

    # Round 0 is the reference for every later round's outputs, which are
    # compared as they come and then dropped (only times and failures are
    # kept), so memory does not grow with the number of rounds.  Without
    # tracing round 0 is timed like the rest; with --trace 1 it runs
    # untraced and untimed, and the rounds after it are traced.
    tracer = None
    reference = None
    rounds = []     # per round: [(seconds, failed with an exception)] per case
    errors = []
    elapsed = 0.0
    while elapsed < args.seconds or len(rounds) < 1 + args.trace:
        if args.trace and len(rounds) == 1:
            tracer = Tracer()
            tracer.install(hc)
        start = time.perf_counter()
        outcomes = run_round(cases, capture, tracer)
        if tracer is not None or not args.trace:
            elapsed += time.perf_counter() - start
        if reference is None:
            reference, keys = outcomes, [o.key() for o in outcomes]
        else:
            errors += [f"{case.name}: round {len(rounds)} output differs from round 0"
                       for case, key, o in zip(cases, keys, outcomes) if o.key() != key]
        rounds.append([(o.seconds, o.speed, o.error is not None) for o in outcomes])
        del outcomes
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    faulted = set()
    checks_start = time.perf_counter()
    try:
        found, faulted = workload.check(hc, cases, reference)
        errors += found
    except Exception:
        errors.append("reference check raised:\n" + traceback.format_exc())
    checks_s = time.perf_counter() - checks_start

    # every round repeats round 0 (checked above), so a case that failed
    # through a named fault in round 0 failed in every round
    attempted = sum(len(r) for r in rounds)
    failed = sum(raised or case.name in faulted
                 for r in rounds for case, (_, _, raised) in zip(cases, r))
    timed = rounds[args.trace:]
    if args.trace:
        metrics = per_layer_metrics(tracer.spans, len(timed))
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        # The host changes speed by up to 1.8x for tens of seconds at a time.
        # Case times of workloads whose work the calibration tracks, and all
        # set-up times, are scaled to the speed at which the calibration
        # takes REFERENCE_SPEED_S, using the calibration timed around them
        # (README: "Steadiness").
        def scale(k):
            return REFERENCE_SPEED_S / k if workload.scaled else 1.0

        # A case's time is the median of its times over the rounds, so one
        # disturbed round does not move it.
        times = [statistics.median(r[i][0] * scale(r[i][1]) for r in timed)
                 for i in range(len(cases))]
        setup_s = [t * REFERENCE_SPEED_S / k for t, k in setup]
        metrics = {
            "cases_per_s": {"value": len(times) / math.fsum(times), "unit": "1/s"},
            "case_s.p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for e in errors:
        print(f"hcbench: CHECK FAILED: {e}", file=sys.stderr)
    walls = " ".join(f"{math.fsum(t for t, _, _ in r):.2f}" for r in rounds)
    speeds = " ".join(f"{1000 * statistics.median(k for _, k, _ in r):.2f}" for r in rounds)
    print("hcbench: set-up " + " ".join(f"{t:.4f}" for t, _ in setup) + " s (unscaled)",
          file=sys.stderr)
    print(f"hcbench: {workload.name} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(cases)} cases ({walls} s unscaled; calibration {speeds} ms), "
          f"{failed}/{attempted} failed, checks {checks_s:.1f} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"hcbench:   {name:50s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
