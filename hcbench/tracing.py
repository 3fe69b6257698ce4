"""Span tracing around the calls into each hardy_cesaro layer.

The tracer replaces a layer's public function at every binding its
callers look up (the defining module, every module that imported it by
name, and the package namespace), so calls made inside the program are
seen as well as the benchmark's own.  Each call records one span
(name, start, end, parent span, case id, count, flag); spans stay in
memory and are written out once the run ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

_NO_RESULT = object()


def _evaluations(args, kwargs, result):
    return result.evaluations


def _converged(args, kwargs, result):
    return result.status.value == "converged"


def _numeric_tail(args, kwargs, result):
    return result.evaluations > 0


def _sampled_argument(types):
    def flag(args, kwargs, result):
        profile = args[0] if args else kwargs.get("profile")
        return isinstance(profile, types)
    return flag


def _point_count(args, kwargs, result):
    # SampledProfile.evaluate(self, r)
    r = args[1] if len(args) > 1 else kwargs["r"]
    return int(getattr(r, "size", 1))


def targets(hc):
    """(span name, owner, attribute, count, flag) for every traced call.

    ``owner`` is the module (or class) that defines the function; every
    other binding of the same function object is found at install time.
    """
    sampled = (hc.profiles.SampledProfile, hc.profiles.SumProfile)
    return [
        ("quadrature.integrate_unit_cube", hc.quadrature, "integrate_unit_cube",
         _evaluations, _converged),
        ("operators.tail_power_beta", hc.operators, "tail_power_beta",
         _evaluations, _numeric_tail),
        ("operators.apply_hardy_cesaro", hc.operators, "apply_hardy_cesaro", None, None),
        ("operators.apply_to_profile", hc.operators, "apply_to_profile", None, None),
        ("operators.apply_commutator", hc.operators, "apply_commutator", None, None),
        ("operators.commutator_to_profile", hc.operators, "commutator_to_profile",
         None, None),
        ("norms.morrey_herz_norm", hc.norms, "morrey_herz_norm", None, None),
        ("norms.shell_norm", hc.norms, "shell_norm", None, _sampled_argument(sampled)),
        ("profiles.SampledProfile.evaluate", hc.profiles.SampledProfile, "evaluate",
         _point_count, None),
        ("constants.kernel_constant", hc.constants, "kernel_constant", None, None),
        ("verification.verify_commutator", hc.verification, "verify_commutator",
         None, None),
        ("verification.verify_mh_upper", hc.verification, "verify_mh_upper", None, None),
        ("cli.config_io", hc.cli, "_build_exponents", None, None),
        ("cli.config_io", hc.cli, "_build_kernel", None, None),
        ("cli.config_io", hc.cli, "_write_csv", None, None),
    ]


class Tracer:
    """In-memory span recorder; ``case`` tags the spans of the running case."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []

    def wrap(self, name, fn, count=None, flag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = _NO_RESULT
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                done = result is not _NO_RESULT
                n = count(args, kwargs, result) if done and count else 0
                f = bool(flag(args, kwargs, result)) if done and flag else False
                spans[index] = (name, start, end, parent, self.case, n, f)

        return traced

    def install(self, hc):
        """Wrap every traced function at each binding that refers to it.

        ``hc`` holds the package and its modules, as imported for the cases.
        """
        modules = list(vars(hc).values())
        for name, owner, attr, count, flag in targets(hc):
            if inspect.isclass(owner):
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], count, flag))
                continue
            original = getattr(owner, attr)
            wrapped = {}
            for module in modules:
                for key, value in list(vars(module).items()):
                    if callable(value) and inspect.unwrap(value) is original:
                        if id(value) not in wrapped:
                            wrapped[id(value)] = self.wrap(name, value, count, flag)
                        setattr(module, key, wrapped[id(value)])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, n, f in self.spans:
                fh.write(json.dumps([name, start, end, parent, case, n, f]))
                fh.write("\n")


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds, count sum, flag sum."""
    child = defaultdict(float)
    for name, start, end, parent, case, n, f in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "count": 0, "flags": 0})
    for index, (name, start, end, parent, case, n, f) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[index]
        row["count"] += n
        row["flags"] += int(f)
    return out


# per-layer metric name -> (span name, field, unit)
PER_LAYER = {
    "quadrature.integrate_unit_cube.calls": ("quadrature.integrate_unit_cube", "calls", "count"),
    "quadrature.integrate_unit_cube.self_s": ("quadrature.integrate_unit_cube", "self_s", "s"),
    "quadrature.integrate_unit_cube.evaluations": ("quadrature.integrate_unit_cube", "count", "count"),
    "quadrature.integrate_unit_cube.evals_per_s": ("quadrature.integrate_unit_cube", "rate", "1/s"),
    "quadrature.integrate_unit_cube.converged_ratio": ("quadrature.integrate_unit_cube", "flag_ratio", "ratio"),
    "operators.tail_power_beta.calls": ("operators.tail_power_beta", "calls", "count"),
    "operators.tail_power_beta.numeric_calls": ("operators.tail_power_beta", "flags", "count"),
    "operators.tail_power_beta.self_s": ("operators.tail_power_beta", "self_s", "s"),
    "operators.apply_hardy_cesaro.calls": ("operators.apply_hardy_cesaro", "calls", "count"),
    "operators.apply_hardy_cesaro.self_s": ("operators.apply_hardy_cesaro", "self_s", "s"),
    "operators.apply_to_profile.total_s": ("operators.apply_to_profile", "total_s", "s"),
    "operators.apply_commutator.calls": ("operators.apply_commutator", "calls", "count"),
    "operators.apply_commutator.self_s": ("operators.apply_commutator", "self_s", "s"),
    "operators.commutator_to_profile.total_s": ("operators.commutator_to_profile", "total_s", "s"),
    "norms.morrey_herz_norm.calls": ("norms.morrey_herz_norm", "calls", "count"),
    "norms.morrey_herz_norm.self_s": ("norms.morrey_herz_norm", "self_s", "s"),
    "norms.shell_norm.calls": ("norms.shell_norm", "calls", "count"),
    "norms.shell_norm.numeric_calls": ("norms.shell_norm", "flags", "count"),
    "norms.shell_norm.self_s": ("norms.shell_norm", "self_s", "s"),
    "profiles.SampledProfile.evaluate.calls": ("profiles.SampledProfile.evaluate", "calls", "count"),
    "profiles.SampledProfile.evaluate.points": ("profiles.SampledProfile.evaluate", "count", "count"),
    "profiles.SampledProfile.evaluate.self_s": ("profiles.SampledProfile.evaluate", "self_s", "s"),
    "constants.kernel_constant.calls": ("constants.kernel_constant", "calls", "count"),
    "constants.kernel_constant.self_s": ("constants.kernel_constant", "self_s", "s"),
    "verification.verify_commutator.self_s": ("verification.verify_commutator", "self_s", "s"),
    "verification.verify_mh_upper.self_s": ("verification.verify_mh_upper", "self_s", "s"),
    "cli.config_io.calls": ("cli.config_io", "calls", "count"),
    "cli.config_io.self_s": ("cli.config_io", "self_s", "s"),
}


def per_layer_metrics(spans, rounds):
    """Per-layer metrics for one round (totals divided by ``rounds``)."""
    totals = layer_totals(spans)
    metrics = {}
    for metric, (span, field, unit) in PER_LAYER.items():
        row = totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "count": 0, "flags": 0})
        if field == "rate":
            value = row["count"] / row["total_s"] if row["total_s"] > 0 else 0.0
        elif field == "flag_ratio":
            value = row["flags"] / row["calls"] if row["calls"] else 0.0
        else:
            value = row[field] / rounds
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
