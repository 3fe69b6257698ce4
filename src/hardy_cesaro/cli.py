"""Config-driven batch front-end.

Reads a JSON config describing one job (constant | norm | operator-eval |
verify | sweep), runs it, and writes a CSV report.  Exit status: 0 when
every verification row passes (diagnostic statuses are data, not
failures), 1 when some verification row fails, 2 on config errors.

CSV output is byte-reproducible: fixed summation orders upstream, shortest
round-trip decimal formatting here.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .constants import ConstantKind, StructuralKind, kernel_constant, structural_constant
from .norms import morrey_herz_norm
from .operators import OperatorSpec, PowerSymbol, log2_grid
from .parameters import ExponentSet
from .profiles import (PowerLaw, SampledProfile, ScaledProfile, SumProfile,
                       TruncatedPowerLaw)
from .quadrature import KernelSpec, MinPower, PowerBeta, PowerCurve, ProductPowerBeta
from .verification import (sample_commutator_case, sample_upper_case,
                           verify_commutator, verify_herz, verify_herz_upper,
                           verify_mh_sharpness, verify_mh_upper)
from .weights import HomogeneousWeight

import numpy as np


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error at '{field}': {message}")
        self.field = field


def _get(block: dict, field: str, path: str, required: bool = True, default=None):
    if field not in block:
        if required:
            raise ConfigError(f"{path}.{field}", "missing required field")
        return default
    return block[field]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _params_hash(block) -> str:
    canon = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------------
# block builders


def _build_exponents(block, path: str) -> ExponentSet:
    if not isinstance(block, dict):
        raise ConfigError(path, "exponents block must be an object")
    try:
        return ExponentSet.from_dict(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _build_kernel(block, path: str) -> KernelSpec:
    if not isinstance(block, dict):
        raise ConfigError(path, "kernel block must be an object")
    n = int(_get(block, "n", path, required=False, default=1))
    psi_block = _get(block, "psi", path)
    kind = _get(psi_block, "kind", f"{path}.psi")
    if kind == "power_beta":
        psi = PowerBeta(float(_get(psi_block, "c", f"{path}.psi")),
                        float(_get(psi_block, "e", f"{path}.psi")),
                        float(psi_block.get("scale", 1.0)))
    elif kind == "product_power_beta":
        factors = _get(psi_block, "factors", f"{path}.psi")
        psi = ProductPowerBeta(tuple((float(c), float(e)) for c, e in factors),
                               float(psi_block.get("scale", 1.0)))
    else:
        raise ConfigError(f"{path}.psi.kind", f"unknown psi kind {kind!r}")
    curves = []
    for i, cb in enumerate(_get(block, "curves", path)):
        ckind = _get(cb, "kind", f"{path}.curves[{i}]")
        if ckind == "power":
            curves.append(PowerCurve(float(_get(cb, "b", f"{path}.curves[{i}]"))))
        elif ckind == "min_power":
            curves.append(MinPower(float(_get(cb, "beta", f"{path}.curves[{i}]"))))
        else:
            raise ConfigError(f"{path}.curves[{i}].kind", f"unknown curve kind {ckind!r}")
    try:
        return KernelSpec(n, psi, tuple(curves))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _build_profile(block, path: str):
    kind = _get(block, "kind", path)
    try:
        if kind == "power":
            return PowerLaw(float(_get(block, "a", path)), float(block.get("c", 1.0)))
        if kind == "truncated":
            return TruncatedPowerLaw(float(_get(block, "a", path)),
                                     float(block.get("c", 1.0)),
                                     float(block.get("R", 1.0)))
        if kind == "sampled":
            return SampledProfile(tuple(_get(block, "grid", path)),
                                  tuple(_get(block, "values", path)))
        if kind == "sum":
            terms = [_build_profile(t, f"{path}.terms[{i}]")
                     for i, t in enumerate(_get(block, "terms", path))]
            return SumProfile(tuple(terms))
        if kind == "scale":
            return ScaledProfile(_build_profile(_get(block, "base", path), f"{path}.base"),
                                 float(_get(block, "factor", path)))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.kind", f"unknown profile kind {kind!r}")


def _build_weights(blocks, d: int, path: str):
    out = []
    for i, wb in enumerate(blocks):
        try:
            if "sphere_mass" in wb:
                out.append(HomogeneousWeight(float(_get(wb, "degree", f"{path}[{i}]")),
                                             float(wb["sphere_mass"]),
                                             float(wb.get("coefficient", 1.0))))
            else:
                out.append(HomogeneousWeight.power(float(_get(wb, "degree", f"{path}[{i}]")),
                                                   float(wb.get("coefficient", 1.0)), d))
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc)) from None
    return out


def _controls(cfg: dict, overrides: dict):
    ctl = dict(cfg.get("controls", {}))
    for key in ("tol", "window", "seed", "jobs"):
        if overrides.get(key) is not None:
            ctl[key] = overrides[key]
    tol = float(ctl.get("tol", 1e-6))
    window = ctl.get("window", (-48, 48))
    if isinstance(window, (int, float)):
        window = (-int(window), int(window))
    else:
        window = (int(window[0]), int(window[1]))
    if window[1] < window[0]:
        raise ConfigError("controls.window", "window must be nonempty")
    grid = ctl.get("grid", {})
    seed = int(ctl.get("seed", 0))
    jobs = max(1, int(ctl.get("jobs", 1)))
    return {"tol": tol, "window": window, "grid": grid, "seed": seed, "jobs": jobs}


def _integrator_tol(ctl: dict) -> float:
    """controls.tol for jobs that hand it to the numeric integrator."""
    tol = ctl["tol"]
    if not 1e-14 <= tol <= 1e-2:
        raise ConfigError("controls.tol", f"tolerance must lie in [1e-14, 1e-2], got {tol}")
    return tol


# --------------------------------------------------------------------------
# job runners: each returns (header, rows, exit_code)

_STRUCTURAL = {k.value: k for k in StructuralKind}
_KERNEL_KINDS = {k.value: k for k in ConstantKind}


def _run_constant(cfg: dict, ctl: dict):
    kind_name = _get(cfg, "kind", "config")
    exponents = _build_exponents(_get(cfg, "exponents", "config"), "config.exponents")
    phash = _params_hash({"kind": kind_name, "exponents": exponents.to_dict()})
    header = ["kind", "params_hash", "value", "status", "abs_error"]
    if kind_name in _STRUCTURAL:
        weights = None
        if "weights" in cfg:
            weights = _build_weights(cfg["weights"], exponents.d, "config.weights")
        try:
            value = structural_constant(_STRUCTURAL[kind_name], exponents, weights)
        except ValueError as exc:
            raise ConfigError("config.kind", str(exc)) from None
        return header, [[kind_name, phash, value, "converged", 0.0]], 0
    if kind_name not in _KERNEL_KINDS:
        raise ConfigError("config.kind", f"unknown constant kind {kind_name!r}")
    kernel = _build_kernel(_get(cfg, "kernel", "config"), "config.kernel")
    tol = _integrator_tol(ctl)
    try:
        res = kernel_constant(_KERNEL_KINDS[kind_name], exponents, kernel, tol=tol)
    except ValueError as exc:
        # the kind does not fit this kernel or exponent set
        raise ConfigError("config.kind", str(exc)) from None
    return header, [[kind_name, phash, res.value, res.status.value, res.abs_error]], 0


def _run_norm(cfg: dict, ctl: dict):
    d = int(cfg.get("d", 1))
    space = _get(cfg, "space", "config")
    alpha = float(_get(space, "alpha", "config.space"))
    lam = float(space.get("lambda", 0.0))
    p = float(_get(space, "p", "config.space"))
    q = float(_get(space, "q", "config.space"))
    weight = _build_weights([_get(cfg, "weight", "config")], d, "config.weight")[0]
    header = ["function_id", "alpha", "lambda", "p", "q", "gamma", "value",
              "status", "k_min", "k_max", "sup_index", "tail_bound"]
    rows = []
    for i, pb in enumerate(_get(cfg, "profiles", "config")):
        profile = _build_profile(pb, f"config.profiles[{i}]")
        fid = pb.get("id", f"f{i}")
        res = morrey_herz_norm(profile, weight, alpha, lam, p, q,
                               ctl["window"], ctl["tol"], d)
        rows.append([fid, alpha, lam, p, q, weight.degree, res.value,
                     res.status.value, res.window[0], res.window[1],
                     res.sup_index, res.tail_bound])
    return header, rows, 0


def _run_operator_eval(cfg: dict, ctl: dict):
    kernel = _build_kernel(_get(cfg, "kernel", "config"), "config.kernel")
    profiles = [_build_profile(pb, f"config.profiles[{i}]")
                for i, pb in enumerate(_get(cfg, "profiles", "config"))]
    spec = OperatorSpec(kernel.m, kernel.n, kernel)
    gcfg = ctl["grid"] or {"start": -8, "stop": 8, "per_octave": 4}
    grid = log2_grid(float(gcfg.get("start", -8)), float(gcfg.get("stop", 8)),
                     int(gcfg.get("per_octave", 4)))
    from .operators import apply_hardy_cesaro
    tol = _integrator_tol(ctl)
    header = ["log2_r", "r", "value", "abs_error", "status"]
    rows = []
    for u in grid:
        res = apply_hardy_cesaro(spec, profiles, float(2.0 ** u), tol)
        rows.append([float(u), float(2.0 ** u), res.value, res.abs_error,
                     res.status.value])
    return header, rows, 0


def _verify_report_row(report, phash):
    return [report.theorem_id.value, phash, report.lhs, report.rhs,
            report.ratio, report.passed, report.tolerance]


def _run_verify(cfg: dict, ctl: dict):
    theorem = _get(cfg, "theorem", "config")
    header = ["theorem_id", "params_hash", "lhs", "rhs", "ratio", "pass", "tol"]
    phash = _params_hash({k: v for k, v in cfg.items() if k != "output"})
    exponents = _build_exponents(_get(cfg, "exponents", "config"), "config.exponents")
    from .operators import OperatorDivergenceError
    from .verification import HypothesisError, NormStatusError

    def build_common():
        kernel = _build_kernel(_get(cfg, "kernel", "config"), "config.kernel")
        weights = _build_weights(_get(cfg, "weights", "config"), exponents.d,
                                 "config.weights")
        return kernel, weights

    try:
        rows = []
        if theorem == "T31_sharp":
            kernel, weights = build_common()
            report = verify_mh_sharpness(exponents, kernel, weights,
                                         tol=cfg.get("tolerance", 1e-4),
                                         window=ctl["window"])
            rows.append(_verify_report_row(report, phash))
        elif theorem in ("T31_upper", "T32_upper"):
            kernel, weights = build_common()
            cases = int(cfg.get("cases", 0))
            fn = verify_mh_upper if theorem == "T31_upper" else verify_herz_upper
            if cases > 0 and theorem == "T31_upper":
                rng = np.random.default_rng(ctl["seed"])
                for _ in range(cases):
                    ex, kn, profs, ws = sample_upper_case(rng, exponents.m)
                    report = fn(ex, kn, profs, ws, tol=cfg.get("tolerance", 1e-6),
                                window=ctl["window"])
                    rows.append(_verify_report_row(report, phash))
            else:
                profiles = [_build_profile(pb, f"config.profiles[{i}]")
                            for i, pb in enumerate(_get(cfg, "profiles", "config"))]
                report = fn(exponents, kernel, profiles, weights,
                            tol=cfg.get("tolerance", 1e-6), window=ctl["window"])
                rows.append(_verify_report_row(report, phash))
        elif theorem == "T32_lower":
            kernel, weights = build_common()
            eps = cfg.get("eps_sequence")
            if eps is None:
                eps = [cfg["epsilon"]] if "epsilon" in cfg else [0.2, 0.1, 0.05, 0.02, 0.01]
            window = ctl["window"]
            if "window" not in cfg.get("controls", {}):
                window = (-16, 256)
            report = verify_herz(exponents, kernel, weights, eps,
                                 tol=cfg.get("tolerance", 0.05), window=window)
            if len(eps) == 1:
                # single-epsilon sweep point: judged on the upper bound only
                row = report.details[0]
                passed = row["upper_ratio"] <= 1.0 + report.tolerance
                rows.append([report.theorem_id.value, phash, report.lhs,
                             report.rhs, report.ratio, passed, report.tolerance])
            else:
                rows.append(_verify_report_row(report, phash))
        elif theorem == "T41_bound":
            kernel, weights = build_common()
            cases = int(cfg.get("cases", 0))
            if cases > 0:
                rng = np.random.default_rng(ctl["seed"])
                for _ in range(cases):
                    ex, kn, syms, profs, ws = sample_commutator_case(rng, exponents.m)
                    report = verify_commutator(ex, kn, syms, profs, ws,
                                               tol=cfg.get("tolerance", 0.05),
                                               window=ctl["window"])
                    rows.append(_verify_report_row(report, phash))
            else:
                symbols = [PowerSymbol(float(_get(sb, "beta", f"config.symbols[{i}]")),
                                       float(sb.get("coefficient", 1.0)))
                           for i, sb in enumerate(_get(cfg, "symbols", "config"))]
                profiles = [_build_profile(pb, f"config.profiles[{i}]")
                            for i, pb in enumerate(_get(cfg, "profiles", "config"))]
                report = verify_commutator(exponents, kernel, symbols, profiles,
                                           weights, tol=cfg.get("tolerance", 0.05),
                                           window=ctl["window"])
                rows.append(_verify_report_row(report, phash))
        else:
            raise ConfigError("config.theorem", f"unknown theorem {theorem!r}")
    except (NormStatusError, OperatorDivergenceError):
        # a norm or operator value the check needs could not be certified:
        # report the failed check rather than a config error
        rows = [[theorem, phash, float("nan"), float("nan"), float("nan"),
                 False, cfg.get("tolerance", 1e-6)]]
    except (HypothesisError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("config", str(exc)) from None

    code = 0 if all(r[5] for r in rows) else 1
    return header, rows, code


def _set_path(cfg: dict, dotted: str, value):
    tokens = dotted.split(".")
    node = cfg
    for tok in tokens[:-1]:
        if isinstance(node, list):
            node = node[int(tok)]
        elif tok in node:
            node = node[tok]
        else:
            raise ConfigError(f"sweep.parameter", f"path component {tok!r} not found")
    last = tokens[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _run_sweep(cfg: dict, ctl: dict):
    sweep = _get(cfg, "sweep", "config")
    parameter = _get(sweep, "parameter", "config.sweep")
    values = _get(sweep, "values", "config.sweep")
    if not isinstance(values, list) or len(values) == 0:
        raise ConfigError("config.sweep.values", "sweep range must be nonempty")
    if len(values) > 10_000:
        raise ConfigError("config.sweep.values", "sweep range exceeds 10^4 points")
    base = _get(cfg, "run", "config")

    def one(value):
        sub = copy.deepcopy(base)
        _set_path(sub, parameter, value)
        return _dispatch(sub, ctl)

    if ctl["jobs"] > 1:
        with ThreadPoolExecutor(max_workers=ctl["jobs"]) as pool:
            results = list(pool.map(one, values))
    else:
        results = [one(v) for v in values]

    header = ["swept_parameter", "swept_value"] + results[0][0]
    rows = []
    code = 0
    for value, (_, sub_rows, sub_code) in zip(values, results):
        code = max(code, sub_code)
        for r in sub_rows:
            rows.append([parameter, value] + r)
    return header, rows, code


_JOBS = {
    "constant": _run_constant,
    "norm": _run_norm,
    "operator-eval": _run_operator_eval,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


def _dispatch(cfg: dict, ctl: dict):
    job = _get(cfg, "job", "config")
    if job not in _JOBS:
        raise ConfigError("config.job", f"unknown job {job!r}")
    return _JOBS[job](cfg, ctl)


def run_config(cfg: dict, overrides=None):
    """Run one config; returns (exit_code, header, rows)."""
    ctl = _controls(cfg, overrides or {})
    header, rows, code = _dispatch(cfg, ctl)
    return code, header, rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardy-cesaro",
        description="Batch runner: constants, norms, operator evaluation, and "
                    "theorem verification with CSV reports.")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="CSV output path (overrides config 'output')")
    parser.add_argument("--tol", type=float, help="numeric tolerance override")
    parser.add_argument("--window", type=int, help="symmetric shell window half-width")
    parser.add_argument("--seed", type=int, help="seed for randomized verify families")
    parser.add_argument("--jobs", type=int, help="parallel jobs within a sweep")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2

    overrides = {"tol": args.tol, "window": args.window, "seed": args.seed,
                 "jobs": args.jobs}
    try:
        code, header, rows = run_config(cfg, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    out = args.out or cfg.get("output")
    if not out:
        print("config error at 'output': no output path given", file=sys.stderr)
        return 2
    _write_csv(out, header, rows)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
