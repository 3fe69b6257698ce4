"""Empirical checks of the boundedness inequalities and sharpness equalities.

Each verifier computes both sides of one statement on concrete function
families and reports lhs, rhs, and their ratio.  The right-hand sides are
assembled exclusively from the constants and norms modules (structural
factors, kernel constants, closed-form or measured input norms); the
left-hand sides exclusively from the operators and norms modules, so the
two routes share no intermediate values.

Pass rules: upper bounds pass when ratio <= 1 + tol, sharpness equalities
when |ratio - 1| <= tol, lower bounds when ratio >= 1 - tol, and the
commutator bound (whose constant the theory leaves implicit) when the
ratio is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .constants import ConstantKind, StructuralKind, kernel_constant, structural_constant
from .norms import NormResult, NormStatus, herz_norm, morrey_herz_norm, power_norm_closed
from .operators import (OperatorSpec, PowerSymbol, apply_to_profile,
                        commutator_to_profile, log2_grid)
from .parameters import ExponentSet, TheoremMode, derive_aggregates, validate
from .profiles import (RadialProfile, TruncatedPowerLaw, extremal_herz,
                       extremal_morrey_herz)
from .quadrature import (CurveCallback, IntegralStatus, KernelSpec, MinPower,
                         PowerBeta, PowerCurve)
from .weights import HomogeneousWeight, product_weight


class TheoremId(Enum):
    T31_UPPER = "T31_upper"
    T31_SHARP = "T31_sharp"
    T32_UPPER = "T32_upper"
    T32_LOWER = "T32_lower"
    T41_BOUND = "T41_bound"


class HypothesisError(ValueError):
    """The exponent set violates the statement's hypothesis."""


class NormStatusError(RuntimeError):
    """A required norm was Infinite or Inconclusive."""


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: TheoremId
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    tolerance: float
    details: Tuple[dict, ...] = ()


def _require_valid(exponents: ExponentSet, mode: TheoremMode):
    violations = validate(exponents, mode)
    if violations:
        raise HypothesisError("; ".join(violations))


def _finite(res: NormResult, what: str) -> float:
    if res.status is not NormStatus.FINITE:
        raise NormStatusError(f"{what} norm is {res.status.value}")
    return res.value


def _converged(res, what: str) -> float:
    if res.status is not IntegralStatus.CONVERGED:
        raise HypothesisError(f"{what} is {res.status.value}")
    return res.value


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def _grid(window, per_octave: int = 8) -> np.ndarray:
    return log2_grid(window[0] - 1.0, window[1] + 1.0, per_octave)


def verify_mh_upper(exponents: ExponentSet, kernel: KernelSpec,
                    profiles: Sequence[RadialProfile],
                    weights: Sequence[HomogeneousWeight],
                    tol: float = 1e-6, window=(-48, 48),
                    norm_tol: float = 1e-6) -> VerificationReport:
    """Morrey-Herz upper bound: ||U f|| <= C * A1 * prod ||f_i||."""
    _require_valid(exponents, TheoremMode.MORREY_HERZ_UPPER)
    e = exponents
    agg = derive_aggregates(e)
    spec = OperatorSpec(e.m, e.n, kernel)

    details = []
    prod_norm = 1.0
    for i, (f, w) in enumerate(zip(profiles, weights)):
        res = morrey_herz_norm(f, w, e.alpha_i[i], e.lambda_i[i], e.p_i[i],
                               e.q_i[i], window, norm_tol, e.d)
        prod_norm *= _finite(res, f"factor {i}")
        details.append({"factor": i, "norm": res.value, "tail_bound": res.tail_bound})

    a1 = _converged(kernel_constant(ConstantKind.A1, e, kernel), "A1 constant")
    c_up = structural_constant(StructuralKind.C_UPPER, e)
    rhs = c_up * a1 * prod_norm

    out_weight = product_weight(weights, e.q_i, agg.q, d=e.d)
    u_profile = apply_to_profile(spec, profiles, _grid(window))
    lhs_res = morrey_herz_norm(u_profile, out_weight, agg.alpha, agg.lam,
                               agg.p, agg.q, window, norm_tol, e.d)
    lhs = _finite(lhs_res, "operator output")
    details.append({"output_norm": lhs, "A1": a1, "C_upper": c_up,
                    "sup_index": lhs_res.sup_index})

    ratio = _ratio(lhs, rhs)
    return VerificationReport(TheoremId.T31_UPPER, lhs, rhs, ratio,
                              ratio <= 1.0 + tol, tol, tuple(details))


def verify_mh_sharpness(exponents: ExponentSet, kernel: KernelSpec,
                        weights: Sequence[HomogeneousWeight],
                        tol: float = 1e-4, window=(-48, 48)) -> VerificationReport:
    """Sharpness of the Morrey-Herz bound on the extremal power-law family.

    lhs is the measured ratio ||U(f_1..f_m)|| / prod ||f_i|| (norms summed
    numerically over the window); rhs is the closed-form prediction
    A1 * (output closed norm) / prod (input closed norms).  The lower
    bound lhs >= D * A1 * (1 - tol) is asserted alongside the equality.
    """
    _require_valid(exponents, TheoremMode.MORREY_HERZ_SHARP)
    e = exponents
    agg = derive_aggregates(e)
    spec = OperatorSpec(e.m, e.n, kernel)

    profiles = [extremal_morrey_herz(e, i) for i in range(e.m)]
    details = []
    meas_prod = 1.0
    closed_prod = 1.0
    for i, (f, w) in enumerate(zip(profiles, weights)):
        res = morrey_herz_norm(f, w, e.alpha_i[i], e.lambda_i[i], e.p_i[i],
                               e.q_i[i], window, 1e-8, e.d)
        meas_prod *= _finite(res, f"extremal factor {i}")
        closed = power_norm_closed(f.exponent, w, e.alpha_i[i], e.lambda_i[i],
                                   e.p_i[i], e.q_i[i], e.d)
        closed_prod *= closed
        details.append({"factor": i, "measured": res.value, "closed": closed})

    a1 = _converged(kernel_constant(ConstantKind.A1, e, kernel), "A1 constant")
    out_weight = product_weight(weights, e.q_i, agg.q, d=e.d)
    u_profile = apply_to_profile(spec, profiles, _grid(window))
    lhs_res = morrey_herz_norm(u_profile, out_weight, agg.alpha, agg.lam,
                               agg.p, agg.q, window, 1e-8, e.d)
    lhs = _finite(lhs_res, "operator output") / meas_prod

    closed_out = power_norm_closed(
        -agg.alpha - (e.d + out_weight.degree) / agg.q + agg.lam,
        out_weight, agg.alpha, agg.lam, agg.p, agg.q, e.d)
    rhs = a1 * closed_out / closed_prod

    d_low = structural_constant(StructuralKind.D_LOWER, e, weights)
    lower_target = d_low * a1
    lower_ok = lhs >= lower_target * (1.0 - tol)
    ratio = _ratio(lhs, rhs)
    passed = abs(ratio - 1.0) <= tol and lower_ok
    details.append({"A1": a1, "D_lower": d_low, "lower_target": lower_target})
    return VerificationReport(TheoremId.T31_SHARP, lhs, rhs, ratio, passed,
                              tol, tuple(details))


def _herz_growth_hypothesis(kernel: KernelSpec):
    """Theorem-side curve hypothesis |s_i(t)| >= min(t_j)**beta for some beta>0."""
    for i, s in enumerate(kernel.curves):
        if isinstance(s, PowerCurve):
            if s.b <= 0:
                raise HypothesisError(f"curve {i}: power curve needs b > 0")
        elif isinstance(s, MinPower):
            pass
        elif isinstance(s, CurveCallback):
            if s.growth_exponent <= 0:
                raise HypothesisError(f"curve {i}: positive growth exponent required")
        else:  # pragma: no cover
            raise HypothesisError(f"curve {i}: unsupported descriptor")


def verify_herz_upper(exponents: ExponentSet, kernel: KernelSpec,
                      profiles: Sequence[RadialProfile],
                      weights: Sequence[HomogeneousWeight],
                      tol: float = 1e-6, window=(-48, 48),
                      norm_tol: float = 1e-6) -> VerificationReport:
    """Herz upper bound: ||U f|| <= A2 * prod (2^|alpha_k| + 1) * prod ||f_i||."""
    _require_valid(exponents, TheoremMode.HERZ_UPPER)
    e = exponents
    agg = derive_aggregates(e)
    spec = OperatorSpec(e.m, e.n, kernel)

    details = []
    prod_norm = 1.0
    for i, (f, w) in enumerate(zip(profiles, weights)):
        res = herz_norm(f, w, e.alpha_i[i], e.p_i[i], e.q_i[i], window,
                        norm_tol, e.d)
        prod_norm *= _finite(res, f"factor {i}")
        details.append({"factor": i, "norm": res.value})

    a2 = _converged(kernel_constant(ConstantKind.A2, e, kernel), "A2 constant")
    c_herz = math.prod(2.0 ** abs(a) + 1.0 for a in e.alpha_i)
    rhs = a2 * c_herz * prod_norm

    out_weight = product_weight(weights, e.q_i, agg.q, d=e.d)
    u_profile = apply_to_profile(spec, profiles, _grid(window))
    lhs_res = herz_norm(u_profile, out_weight, agg.alpha, agg.p, agg.q,
                        window, norm_tol, e.d)
    lhs = _finite(lhs_res, "operator output")
    ratio = _ratio(lhs, rhs)
    details.append({"output_norm": lhs, "A2": a2, "C_herz": c_herz})
    return VerificationReport(TheoremId.T32_UPPER, lhs, rhs, ratio,
                              ratio <= 1.0 + tol, tol, tuple(details))


def verify_herz(exponents: ExponentSet, kernel: KernelSpec,
                weights: Sequence[HomogeneousWeight],
                eps_sequence: Sequence[float] = (0.2, 0.1, 0.05, 0.02, 0.01),
                tol: float = 0.05, window=(-16, 256),
                norm_tol: float = 0.25) -> VerificationReport:
    """Herz lower bound along the truncated-extremal epsilon family.

    The measured ratios ||U(f_eps)|| / prod ||f_i,eps|| must be
    nondecreasing as eps decreases and reach E * A2 * (1 - tol); the
    matching upper bound is checked for every eps along the way.  The
    truncated extremals converge slowly in the shell window, so the raw
    norms carry sizable matched truncation (hence the loose norm_tol);
    the truncation cancels in the measured quotient.
    """
    _require_valid(exponents, TheoremMode.HERZ_UPPER)
    _require_valid(exponents, TheoremMode.HERZ_LOWER)
    _herz_growth_hypothesis(kernel)
    eps_list = [float(x) for x in eps_sequence]
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_sequence must be decreasing")
    if any(not 0.0 < x < 1.0 for x in eps_list):
        raise ValueError("eps values must lie in (0, 1)")

    e = exponents
    agg = derive_aggregates(e)
    spec = OperatorSpec(e.m, e.n, kernel)
    a2 = _converged(kernel_constant(ConstantKind.A2, e, kernel), "A2 constant")
    e_low = structural_constant(StructuralKind.E_LOWER, e, weights)
    target = a2 * e_low
    upper_const = a2 * math.prod(2.0 ** abs(a) + 1.0 for a in e.alpha_i)
    out_weight = product_weight(weights, e.q_i, agg.q, d=e.d)
    grid = _grid(window)

    rows = []
    ratios = []
    for eps in eps_list:
        profiles = [extremal_herz(e, i, eps) for i in range(e.m)]
        prod_norm = 1.0
        for i, (f, w) in enumerate(zip(profiles, weights)):
            res = herz_norm(f, w, e.alpha_i[i], e.p_i[i], e.q_i[i], window,
                            norm_tol, e.d)
            prod_norm *= _finite(res, f"factor {i} (eps={eps})")
        u_profile = apply_to_profile(spec, profiles, grid)
        lhs_res = herz_norm(u_profile, out_weight, agg.alpha, agg.p, agg.q,
                            window, norm_tol, e.d)
        lhs = _finite(lhs_res, f"operator output (eps={eps})")
        measured = lhs / prod_norm
        ratios.append(measured)
        rows.append({"eps": eps, "measured_ratio": measured,
                     "upper_ratio": measured / upper_const})

    nondecreasing = all(b >= a * (1.0 - 1e-9) for a, b in zip(ratios, ratios[1:]))
    upper_ok = all(row["upper_ratio"] <= 1.0 + tol for row in rows)
    final = ratios[-1]
    if len(ratios) >= 3:
        increments = [b - a for a, b in zip(ratios, ratios[1:])]
        stabilized = increments[-1] <= increments[-2] + 1e-9 or final >= target * (1.0 - tol)
    else:
        stabilized = final >= target * (1.0 - tol)
    passed = (nondecreasing and upper_ok and stabilized
              and final >= target * (1.0 - tol))
    ratio = _ratio(final, target)
    details = tuple(rows) + ({"target": target, "A2": a2, "E_lower": e_low,
                              "nondecreasing": nondecreasing,
                              "stabilized": stabilized},)
    return VerificationReport(TheoremId.T32_LOWER, final, target, ratio,
                              passed, tol, details)


def commutator_target_weight(exponents: ExponentSet,
                             weights: Sequence[HomogeneousWeight]) -> HomogeneousWeight:
    """Target-space weight of the commutator bound.

    The Hoelder split behind the bound pairs each factor weight with the
    combined exponent q*(1/q_i + 1/r_i), so the target weight is
    prod omega_i^(q(1/q_i + 1/r_i)); with all r_i infinite this reduces to
    the plain product weight.
    """
    e = exponents
    agg = derive_aggregates(e)
    r_i = e.r_i if e.r_i is not None else (math.inf,) * e.m
    q_eff = [1.0 / (1.0 / q + (0.0 if math.isinf(r) else 1.0 / r))
             for q, r in zip(e.q_i, r_i)]
    return product_weight(weights, q_eff, agg.q, d=e.d)


def verify_commutator(exponents: ExponentSet, kernel: KernelSpec,
                      symbols: Sequence[PowerSymbol],
                      profiles: Sequence[RadialProfile],
                      weights: Sequence[HomogeneousWeight],
                      tol: float = 0.05, window=(-48, 48),
                      norm_tol: float = 1e-3) -> VerificationReport:
    """Commutator bound: finite ratio against Lip * CommutatorMH * input norms.

    The statement's constant is implicit, so a single report passes when
    the ratio is finite; families are judged on the boundedness and
    stability of their ratio supremum.  The default norm tolerance is
    loose: the acceptance for this statement is a bounded, window-stable
    ratio supremum, not a tight equality.
    """
    _require_valid(exponents, TheoremMode.COMMUTATOR)
    e = exponents
    if len(symbols) != e.m:
        raise ValueError(f"expected {e.m} symbols, got {len(symbols)}")
    for i, s in enumerate(symbols):
        if abs(s.beta - e.beta_i[i]) > 1e-12:
            raise HypothesisError(f"symbol {i} order {s.beta} != beta_i {e.beta_i[i]}")
    agg = derive_aggregates(e)
    spec = OperatorSpec(e.m, e.n, kernel)

    amh = _converged(kernel_constant(ConstantKind.COMMUTATOR_MH, e, kernel),
                     "CommutatorMH constant")
    lip = math.prod(s.lipschitz_constant for s in symbols)

    details = []
    prod_norm = 1.0
    for i, (f, w) in enumerate(zip(profiles, weights)):
        res = morrey_herz_norm(f, w, e.alpha_i[i], e.lambda_i[i], e.p_i[i],
                               e.q_i[i], window, norm_tol, e.d)
        prod_norm *= _finite(res, f"factor {i}")
        details.append({"factor": i, "norm": res.value})
    rhs = lip * amh * prod_norm

    out = commutator_to_profile(spec, profiles, symbols, _grid(window))
    target_w = commutator_target_weight(e, weights)
    lhs_res = morrey_herz_norm(out, target_w, agg.alpha_prime, agg.lam,
                               agg.p, agg.q, window, norm_tol, e.d)
    lhs = _finite(lhs_res, "commutator output")
    ratio = _ratio(lhs, rhs)
    details.append({"output_norm": lhs, "CommutatorMH": amh, "lipschitz": lip,
                    "alpha_prime": agg.alpha_prime})
    return VerificationReport(TheoremId.T41_BOUND, lhs, rhs, ratio,
                              math.isfinite(ratio), tol, tuple(details))


# --------------------------------------------------------------------------
# randomized families for the property suites (seeded, rejection-sampled so
# that every norm in play is comfortably classifiable inside the window)

# Attempts per draw before a family gives up.  For m = 1 and 2 the families
# need at most a few dozen; for larger m their ranges may admit no case at
# all (sample_upper_case with m >= 3 always has aggregate q < 1).
_MAX_ATTEMPTS = 1000


def sample_upper_case(rng: np.random.Generator, m: int, low_p: bool = False):
    """Random (exponents, kernel, profiles, weights) for the T31 upper suite.

    Raises ValueError when no admissible case turns up for this m.
    """
    for _ in range(_MAX_ATTEMPTS):
        d = int(rng.integers(1, 3))
        q_i = rng.uniform(1.0, 2.5, m)
        if low_p:
            p_i = rng.uniform(0.5, 0.9, m) if m == 1 else rng.uniform(1.0, 1.8, m)
            lambda_i = rng.uniform(0.5, 1.2, m)
        else:
            p_i = rng.uniform(m, 4.0 * m, m)
            lambda_i = rng.uniform(0.4, 1.2, m)
        alpha_i = rng.uniform(-0.4, 0.4, m)
        gamma_i = rng.uniform(max(-d + 0.3, -0.7), 1.5, m)
        bs = rng.uniform(0.5, 2.0, m)
        psi = PowerBeta(rng.uniform(0.0, 1.0), rng.uniform(-0.5, 1.0),
                        rng.uniform(0.5, 2.0))
        p_agg = 1.0 / np.sum(1.0 / p_i)
        if low_p and not p_agg < 1.0:
            continue
        if not low_p and p_agg < 1.0:
            continue
        e1 = [-a - (d + g) / q + lam
              for a, g, q, lam in zip(alpha_i, gamma_i, q_i, lambda_i)]
        if psi.c + float(np.dot(e1, bs)) <= -0.8:
            continue
        exponents = ExponentSet(m=m, n=1, d=d, alpha_i=alpha_i, p_i=p_i,
                                q_i=q_i, lambda_i=lambda_i, gamma_i=gamma_i)
        if validate(exponents, TheoremMode.MORREY_HERZ_UPPER):
            continue
        kernel = KernelSpec(1, psi, tuple(PowerCurve(float(b)) for b in bs))
        profiles = []
        for i in range(m):
            margin = rng.uniform(0.35, 1.2)
            a = lambda_i[i] - alpha_i[i] - (d + gamma_i[i]) / q_i[i] - margin
            profiles.append(TruncatedPowerLaw(float(a), float(rng.uniform(0.5, 2.0)),
                                              float(2.0 ** rng.uniform(-4, 4))))
        weights = [HomogeneousWeight.power(float(g), float(rng.uniform(0.5, 2.0)), d)
                   for g in gamma_i]
        return exponents, kernel, profiles, weights
    raise ValueError(f"no admissible T31 upper case for m = {m} "
                     f"in {_MAX_ATTEMPTS} attempts")


def sample_commutator_case(rng: np.random.Generator, m: int):
    """Random (exponents, kernel, symbols, profiles, weights) for the T41 suite.

    Raises ValueError when no admissible case turns up for this m.
    """
    for _ in range(_MAX_ATTEMPTS):
        d = int(rng.integers(1, 3))
        q_i = rng.uniform(1.5, 3.0, m) if m == 1 else rng.uniform(3.0, 5.0, m)
        r_i = np.where(rng.random(m) < 0.5, np.inf, rng.uniform(4.0, 9.0, m))
        inv_q = np.sum(1.0 / q_i) + np.sum(np.where(np.isinf(r_i), 0.0, 1.0 / r_i))
        if inv_q > 1.0:
            continue
        beta_i = rng.uniform(0.1, 0.8 / m, m)
        if not 0.0 < float(np.sum(beta_i)) < 1.0:
            continue
        lambda_i = rng.uniform(0.05, 1.0 / m, m)
        alpha_i = rng.uniform(-0.3, 0.3, m)
        gamma_i = rng.uniform(-0.5, 1.0, m)
        p_i = rng.uniform(1.0, 3.0, m)
        bs = rng.uniform(0.7, 1.5, m)
        psi = PowerBeta(rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5),
                        rng.uniform(0.5, 2.0))
        e1 = [-(d + g) / q + lam - a
              for a, g, q, lam in zip(alpha_i, gamma_i, q_i, lambda_i)]
        if psi.c + float(np.dot(e1, bs)) <= -0.8:
            continue
        exponents = ExponentSet(m=m, n=1, d=d, alpha_i=alpha_i, p_i=p_i,
                                q_i=q_i, lambda_i=lambda_i, gamma_i=gamma_i,
                                r_i=r_i, beta_i=beta_i)
        if validate(exponents, TheoremMode.COMMUTATOR):
            continue
        kernel = KernelSpec(1, psi, tuple(PowerCurve(float(b)) for b in bs))
        symbols = [PowerSymbol(float(b), float(rng.uniform(0.5, 2.0))) for b in beta_i]
        profiles = []
        for i in range(m):
            margin = rng.uniform(0.35, 1.0)
            a = lambda_i[i] - alpha_i[i] - (d + gamma_i[i]) / q_i[i] - margin
            profiles.append(TruncatedPowerLaw(float(a), float(rng.uniform(0.5, 2.0)),
                                              float(2.0 ** rng.uniform(-3, 3))))
        weights = [HomogeneousWeight.power(float(g), float(rng.uniform(0.5, 2.0)), d)
                   for g in gamma_i]
        return exponents, kernel, symbols, profiles, weights
    raise ValueError(f"no admissible T41 commutator case for m = {m} "
                     f"in {_MAX_ATTEMPTS} attempts")
