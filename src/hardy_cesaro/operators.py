"""Weighted multilinear Hardy-Cesaro operator and Lipschitz-symbol commutator.

The operator maps m radial profiles to

    U(f_1..f_m)(x) = int_{[0,1]^n} prod_k f_k(|s_k(t)| |x|) psi(t) dt,

so on radial data only the moduli |s_k(t)| enter.  The commutator carries
the extra factor prod_k (b_k(x) - b_k(s_k(t) x)) with power symbols
b_k(x) = c_k |x|**beta_k, which reduces to
c_k r**beta_k (1 - |s_k(t)|**beta_k).

Every kernel is first reduced to n = 1 (``quadrature.min_reduction``):
n >= 2 min-power kernels become line integrals against the density of
min(t), and at n = 1 a min-power curve is a power curve.

Power-shaped instances are evaluated in closed form: pure power-law
inputs with PowerBeta/PowerCurve kernels produce exact power-law outputs
(Beta-function coefficients), and truncated power laws reduce to tail
integrals int_{t0}^1 t^a (1-t)^e dt, given by the incomplete Beta
function for a > -1 and for a <= -1 by the piece [ln t0, 0] of
``quadrature.beta_pieces`` (``quadrature.tail_power_beta``, with a finite
Gauss line in ln t beyond the series' range); a whole log2-radius grid is
one array pass per term.

Sampled and sum inputs (every built-in profile, with PowerBeta/PowerCurve
kernels) are taken piece by piece between the inputs' breakpoints, for
blocks of radii at once (``_piecewise_values``): on a piece each input is
a sum of power terms or a ramp (a sampled segment with one zero node), so
a piece with no ramp is a sum of incomplete Beta integrals
(``quadrature.beta_pieces``; from t = 0 where the inputs do not vanish
near 0, divergent where a term has A <= -1 there; powers of two that
leave the float range at extreme radii are kept apart), and a piece with
a ramp is integrated in v = ln t by a fixed Gauss rule at two orders.
Where every curve has the same exponent b, the inputs' breakpoints cut
one partition for all radii, and the closed pieces that lie wholly below
t = h (the split point of the binomial series) come from prefix sums of
per-piece series constants, built once per call (``_far_tables``): a
radius enumerates only its far ramp pieces and its near pieces, from the
last partition edge at or below the cut up to t = 1.  What
remains (callback kernels, reduced min-power kernels, profiles that define
only ``evaluate``, integrands with no integrable order at t = 1, and radii
whose verdict is not certified) goes through the graded integrator on
[0, 1], radius by radius, with endpoint orders and support breakpoints
derived from the profiles and the kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence, Tuple

import numpy as np

from .numerics import LN2
from .profiles import (PowerLaw, RadialProfile, SampledProfile, ScaledProfile,
                       TruncatedPowerLaw)
from .quadrature import (PIECE_RULE, _MAX_PIECES, IntegralResult, IntegralStatus, KernelSpec,
                         PowerBeta, PowerCurve, _line_verdicts, _split, _term_count, _unwrap,
                         beta_closed_form, beta_pieces, integrate_unit_cube, min_reduction,
                         piece_sums, tail_power_beta)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)   # smallest normal float


class OperatorDivergenceError(RuntimeError):
    """The operator output is divergent at some radius."""


@dataclass(frozen=True)
class OperatorSpec:
    m: int
    n: int
    kernel: KernelSpec

    def __post_init__(self):
        if self.kernel.n != self.n:
            raise ValueError(f"kernel dimension {self.kernel.n} != n = {self.n}")
        if self.kernel.m != self.m:
            raise ValueError(f"kernel has {self.kernel.m} curves, expected m = {self.m}")


@dataclass(frozen=True)
class PowerSymbol:
    """Lipschitz symbol b(x) = coefficient * |x|**beta with beta in (0,1).

    For this family the Lipschitz seminorm is exactly |coefficient|,
    since | |x|^beta - |y|^beta | <= |x-y|^beta.
    """

    beta: float
    coefficient: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")

    @property
    def lipschitz_constant(self) -> float:
        return abs(self.coefficient)


# --------------------------------------------------------------------------
# closed-form machinery for power-shaped instances


def _power_parts(profile: RadialProfile) -> Optional[Tuple[float, float, float]]:
    """(coefficient, exponent, inner_radius) for power-shaped profiles."""
    if isinstance(profile, PowerLaw):
        return (profile.coefficient, profile.exponent, 0.0)
    if isinstance(profile, TruncatedPowerLaw):
        return (profile.coefficient, profile.exponent, profile.inner_radius)
    if isinstance(profile, ScaledProfile):
        inner = _power_parts(profile.base)
        if inner is None:
            return None
        c, a, R = inner
        return (profile.factor * c, a, R)
    return None


def _power_kernel(kernel: KernelSpec) -> bool:
    """A PowerBeta psi and curves t**b with b > 0."""
    return (isinstance(kernel.psi, PowerBeta)
            and all(isinstance(s, PowerCurve) and s.b > 0 for s in kernel.curves))


def _fast_setup(spec: OperatorSpec, profiles: Sequence[RadialProfile]):
    kernel = spec.kernel
    if not _power_kernel(kernel):
        return None
    parts = [_power_parts(f) for f in profiles]
    if any(p is None for p in parts):
        return None
    return {
        "c": kernel.psi.c,
        "e": kernel.psi.e,
        "scale": kernel.psi.scale,
        "bs": [s.b for s in kernel.curves],
        "coeffs": [p[0] for p in parts],
        "exps": [p[1] for p in parts],
        "radii": [p[2] for p in parts],
    }


def _t_lower(fast: dict, r):
    """Lower integration limit at radius r (a scalar or an array of radii)."""
    t0 = np.zeros(np.shape(r))
    for b, R in zip(fast["bs"], fast["radii"]):
        if R > 0.0:
            t0 = np.maximum(t0, (R / r) ** (1.0 / b))
    return t0


def _scaled_result(res: IntegralResult, scale: float) -> IntegralResult:
    if res.status is IntegralStatus.DIVERGENT:
        return res
    return IntegralResult(scale * res.value, abs(scale) * res.abs_error,
                          res.status, res.evaluations)


# --------------------------------------------------------------------------
# numeric integrand assembly


def _local_exponent_for_curve(profile: RadialProfile, z: float) -> Optional[float]:
    """Order of f(|s| r) in t as t -> 0, given |s| ~ t**z there."""
    if z == 0.0:
        return 0.0
    end = "zero" if z > 0 else "infinity"
    a = profile.local_exponent(end)
    if a is None:
        return None
    return a * z


def _operator_integrand(spec: OperatorSpec, profiles, r: float,
                        symbols: Sequence[PowerSymbol]):
    kernel = spec.kernel

    def factors(t, u=None):
        # u is 1 - t when evaluating in reflected coordinates; power curves
        # go by ln t, as t**b underflows at the deepest graded nodes
        log_t = np.log(t) if u is None else np.log1p(-u)
        out = 1.0
        for k, f in enumerate(profiles):
            curve = kernel.curves[k]
            if isinstance(curve, PowerCurve):
                term = f.log2_evaluate(math.log2(r) + curve.b * (log_t / LN2))
                gap = -np.expm1(symbols[k].beta * curve.b * log_t) if symbols else None
            else:
                s = np.abs(kernel.curve_values(k, t))
                if np.any(s == 0.0):
                    raise ValueError("curve vanished at a quadrature node")
                term = f.evaluate(s * r)
                gap = 1.0 - s ** symbols[k].beta if symbols else None
            if symbols:
                term = term * (symbols[k].coefficient * r ** symbols[k].beta * gap)
            out = out * term
        return out

    def product(psi, fac):
        # where an input vanishes the integrand does, also where psi overflows
        return np.where(fac == 0.0, 0.0, psi * fac)

    def integrand(t):
        return product(kernel.psi_values(t), factors(t))

    reflected = None
    if kernel.supports_reflection():
        def reflected(u):
            return product(kernel.psi_values_reflected(u), factors(1.0 - u, u))

    at0, at1 = kernel.psi_endpoint_exponents()
    for k, f in enumerate(profiles):
        z = kernel.curve_zero_exponent(k)
        contrib = _local_exponent_for_curve(f, z)
        if contrib is None:
            at0 = math.inf    # the integrand vanishes near t = 0
            break
        at0 += contrib
        if symbols and z < 0:
            at0 += symbols[k].beta * z
    if symbols:
        for k in range(spec.m):
            if kernel.curve_tends_to_one(k):
                at1 += 1.0

    breakpoints = None
    if all(isinstance(s, PowerCurve) for s in kernel.curves):
        # t = (2**rho / r)**(1/b), capped at 1 before 2**rho can overflow
        breakpoints = [2.0 ** min((rho - math.log2(r)) / s.b, 0.0)
                       for f, s in zip(profiles, kernel.curves) for rho in f.log2_breakpoints()]

    return integrand, reflected, (at0, at1), breakpoints


# --------------------------------------------------------------------------
# piecewise closed forms for inputs with no single power form
#
# With psi = PowerBeta and curves t**b_k, every built-in input at t**b_k r
# is, between two of the inputs' breakpoints, a sum of terms
# 2**L t**(a b_k) or a ramp, a sampled segment with one zero node, linear
# in ln t (``RadialProfile.log2_terms``); the symbol gap c_k r**beta_k
# (1 - t**(b_k beta_k)) is two such terms.  A piece with no ramp expands
# into terms coef t**A (1-t)**e, each an incomplete Beta integral
# (``quadrature.beta_pieces``), with coef and the integral's scale kept in
# log2 until they meet.  A piece with a ramp is integrated in
# v = ln t by the Gauss pair (``piece_sums``), cut so that no sub-piece is
# wider than _PIECE_WIDTH or than its distance to v = 0; the sub-piece
# that ends there carries the factor (1-t)**e, and the symbol gaps, in a
# Gauss-Jacobi weight.  So does the piece that ends at t = 1 where
# e <= -1 < e + m: there the commutator converges, but each term of its
# expansion diverges.

_PIECE_WIDTH = 1.0       # widest Gauss piece in v = ln t
# the state of a radius on the piecewise path is its index in _STATES
_STATES = (IntegralStatus.CONVERGED, IntegralStatus.INCONCLUSIVE, IntegralStatus.DIVERGENT)
_CONVERGED, _INCONCLUSIVE, _DIVERGENT = range(3)
# elements of the temporary arrays: pieces x terms in a block of radii,
# and nodes x pieces, _BLOCK_PIECES Gauss sub-pieces at a time, in the sums
_BLOCK = 2 ** 13
_BLOCK_PIECES = 2 ** 15 // (3 * PIECE_RULE)


def _piecewise_setup(spec: OperatorSpec, profiles, symbols) -> Optional[dict]:
    """Data of the piecewise path, or None where it does not apply: it needs
    a PowerBeta psi, curves t**b with b > 0, an integrand that vanishes
    faster than (1-t)**-1 at t = 1 (e plus one per symbol gap), and inputs
    with no single power form that all split into terms (``log2_terms``)."""
    kernel = spec.kernel
    if not _power_kernel(kernel) or _fast_setup(spec, profiles) is not None:
        return None
    probe = np.empty(0)
    terms = [f.log2_terms(probe, probe) for f in profiles]
    order = kernel.psi.e + len(symbols)
    if not order > -1.0 or None in terms:
        return None
    setup = {
        "c": kernel.psi.c, "e": kernel.psi.e, "scale": kernel.psi.scale,
        "order": order, "bs": [s.b for s in kernel.curves],
        "starts": [f.support_start() for f in profiles],
        "breaks": [np.sort(np.asarray(f.log2_breakpoints(), dtype=float)) for f in profiles],
        "profiles": tuple(profiles), "symbols": tuple(symbols),
        # terms of the expansion of a piece with no ramp
        "terms": math.prod(len(t) for t in terms) * 2 ** len(symbols),
    }
    setup["far"] = _far_tables(setup)
    return setup


def _margin(floor):
    """How far below the largest support start breakpoints still count."""
    return 1e-9 * (1.0 + np.abs(floor))


# --------------------------------------------------------------------------
# far pieces by prefix sums
#
# Where every curve is t**b with one b, the inputs are functions of
# x = log2(t**b r) = u + b log2 t alone, so their breakpoints cut x into one
# partition for every radius: piece 0 from x = -inf (t = 0) to the first
# edge X_0, piece j >= 1 from X_{j-1} to X_j.  On a piece with no ramp the
# integrand is a sum of terms 2**L (t / T_j)**(A - c) t**c (1-t)**e, L the
# log2 of the term at X_j and T_j = 2**((X_j - u) / b) (a symbol subset S
# multiplies a term by -coef 2**(beta_S x): it adds beta_S X_j to L and
# beta_S b to A; the other symbols give coef r**beta).  Below t = h =
# ``quadrature._split(e)`` the binomial series of (1-t)**e (DLMF 15.2.1)
# integrates such a piece to
#
#     2**L sum_k gamma_k T_j**(c+k+1) q_jk,   gamma_k = (-e)_k / k!,
#     q_jk = -expm1(-D_j s) / s,  s = A + k + 1,  D_j = (X_j - X_{j-1}) ln 2 / b,
#
# (D_j at s = 0, and 1/s on piece 0), so the J pieces below a radius's
# cut sum to sum_k gamma_k T_{J-1}**(c+k+1) R_k(J) with the radius-free
# prefix sums R_k(J+1) = R_k(J) 2**(-(X_J - X_{J-1})(c+k+1)/b) + sum 2**L q_Jk.
# Each R_k(J) is kept relative to an integer power of two 2**lambda_J, so
# that no table leaves the float range where the inputs do not; every
# term it adds is positive for a positive input, and R_k(J) <= R_0(J).

# most pieces x terms x series terms of the prefix tables (2 MB an array);
# larger setups take their far pieces one by one
_FAR_CELLS = 2 ** 18


def _far_tables(setup: dict) -> Optional[dict]:
    """Prefix tables of the far pieces (see above), or None where they do
    not apply: curves with different b, a zero psi scale or symbol
    coefficient, more than _MAX_TERMS series terms, or a table beyond the
    float range.  Built from the inputs and the kernel alone, so that every
    radius's value depends on that radius only.

    The tables hold, for every J and every symbol subset S (a group), the
    sums R (relative to 2**lam), their relative error bound ``rel`` in eps
    (the largest bound of an added term, plus, for every step since, the
    multiplication, the addition, and the ulp of the step's power of two
    and the rounding of its exponent), and for the radii the term count K of
    ``quadrature._term_count`` at h for the partition's least exponent, the
    ramp pieces above piece 0, and whether piece 0 diverges or is a ramp."""
    bs, symbols = setup["bs"], setup["symbols"]
    b, c, e = bs[0], setup["c"], setup["e"]
    if (any(x != b for x in bs) or setup["scale"] == 0.0
            or any(sym.coefficient == 0.0 for sym in symbols)):
        return None
    starts = [a for a in setup["starts"] if a is not None]
    edges = np.unique(np.concatenate(setup["breaks"]))
    if starts:
        floor = max(starts)
        edges = edges[edges >= floor - _margin(floor)]
    if edges.size == 0:
        return None
    width = np.concatenate([[np.inf], np.diff(edges)])
    at = np.concatenate([[edges[0] - 1.0], 0.5 * (edges[:-1] + edges[1:])])
    terms = [f.log2_terms(edges, at) for f in setup["profiles"]]
    nonzero = np.all([np.any([(L > -np.inf) | r for L, _, r in parts], axis=0)
                      for parts in terms], axis=0)
    ramp = nonzero & np.any([r for parts in terms for _, _, r in parts], axis=0)

    subsets = list(itertools.product((0, 1), repeat=len(symbols)))
    levels, powers, sizes, counts, groups = [], [], [], [], []
    for choice in itertools.product(*terms):
        level = sum(L for L, _, _ in choice)
        size = sum(np.abs(L) for L, _, _ in choice)
        power = c + sum(a * b for _, a, _ in choice)
        for g, subset in enumerate(subsets):
            shift = fsum(sym.beta for sym, bit in zip(symbols, subset) if bit)
            levels.append(level + shift * edges)
            sizes.append(size + abs(shift) * np.abs(edges))
            powers.append(power + fsum(sym.beta * b for sym, bit in zip(symbols, subset) if bit))
            counts.append(len(choice) + sum(subset))
            groups.append(g)
    level, power = np.array(levels).T, np.array(powers).T    # pieces x entries
    live = (level > -np.inf) & (nonzero & ~ramp)[:, None]
    diverges = bool(np.any(live[0] & (power[0] <= -1.0)))
    live[0] &= power[0] > -1.0
    least = np.min(power[live]) if np.any(live) else 0.0
    count = _term_count(-math.ceil(-least), e, _split(e))
    if count is None or edges.size * len(groups) * count > _FAR_CELLS:
        return None
    k = np.arange(count, dtype=float)

    with np.errstate(all="ignore"):
        s = power[:, :, None] + (k + 1.0)
        span = width * (LN2 / b)
        y = span[:, None, None] * s
        q = np.where(s == 0.0, span[:, None, None], -np.expm1(-y) / s)
        q[0] = 1.0 / s[0]
        q = np.where(live[:, :, None], q, 0.0)
        # in eps: s, the product, expm1 and the division, and the rounding
        # of s and of span magnified by |y| (-d ln q / d ln s <= |y|)
        q_err = 3.0 + 3.0 * np.maximum(1.0, np.abs(y))
        q_err[0] = 2.0
        # group maxima of the levels, the sums over each group's terms
        group = np.array(groups)
        top = np.stack([np.max(np.where(live[:, group == g], level[:, group == g], -np.inf), axis=1)
                        for g in range(len(subsets))], axis=1)
        diff = np.where(live, level - top[:, group], 0.0)
        weight = np.where(live, np.exp2(diff), 0.0)
        term_err = np.where(live[:, :, None], q_err + 2.0 + LN2 * (
            np.abs(diff) + (np.array(counts) + 2.0) * np.array(sizes).T)[:, :, None], 0.0)
        adds = np.zeros((edges.size, len(subsets), count))
        add_err = np.zeros(adds.shape)
        for n, g in enumerate(groups):
            adds[:, g] += weight[:, n, None] * q[:, n]
            add_err[:, g] = np.maximum(add_err[:, g], term_err[:, n])
        add_err += len(groups)
        # lam[J] for R(J): the integer part of the largest term in it at
        # k = 0, max_{p < J} (top_p - (c+1)/b (X_{J-1} - X_p)), or 0 where
        # R(J) is empty
        decay = np.concatenate([[0.0], width[1:] * ((c + 1.0) / b)])
        reach = np.cumsum(decay)
        lam = np.floor(np.maximum.accumulate(top + reach[:, None], axis=0) - reach[:, None])
        held = np.isfinite(lam)
        lam = np.concatenate([np.zeros((1, len(subsets))), np.where(held, lam, 0.0)])
        exponent = -(width[:, None] * (c + k + 1.0)) / b
        shift = (lam[:-1] - lam[1:])[:, :, None] + exponent[:, None, :]
        # the step from R(J) to R(J+1) multiplies only an R(J) with a term
        held = np.concatenate([np.zeros((1, len(subsets)), dtype=bool), held[:-1]])[:, :, None]
        mult = np.where(held, np.exp2(shift), 0.0)
        mult_err = np.where(held, 3.0 + LN2 * (2.0 * np.abs(exponent[:, None, :])
                                                + np.abs(shift)), 0.0)
        rise = np.where(np.isfinite(top), top - lam[1:], -np.inf)
        adds *= np.exp2(rise)[:, :, None]
        add_err += 2.0 + LN2 * np.abs(np.where(np.isfinite(rise), rise, 0.0))[:, :, None]
    sums = np.zeros((edges.size + 1, len(subsets), count))
    rows = list(sums)
    for before, after, step, add in zip(rows, rows[1:], list(mult), list(adds)):
        np.multiply(before, step, out=after)
        after += add
    if not np.all(np.isfinite(sums)):
        return None
    rel = np.zeros(sums.shape)
    rel[1:] = np.maximum.accumulate(add_err, axis=0) + np.cumsum(mult_err, axis=0) + 1.0
    gamma = np.cumprod(np.concatenate([[1.0], (k - e) / (k + 1.0)]))
    return {
        "b": b, "edges": edges, "cut": b * math.log2(_split(e)), "sums": sums, "rel": rel,
        "lam": lam, "gamma": gamma, "count": count, "subsets": subsets,
        "ramps": np.flatnonzero(ramp[1:]) + 1, "bottom_ramp": bool(ramp[0]),
        "diverges": diverges,
    }


def _far_count(far: dict, u: np.ndarray) -> np.ndarray:
    """J of each log2 radius u: its pieces 0..J-1 end at or below t = h."""
    return np.searchsorted(far["edges"], u + far["cut"], side="right")


def _pow2_scaled(level: np.ndarray):
    """x -> 2**level x elementwise, where 2**level alone may overflow or
    underflow: the powers of two join x by frexp and ldexp."""
    whole = np.floor(level)
    weight, shift = np.exp2(level - whole), np.clip(whole, -2 ** 20, 2 ** 20).astype(int)

    def scaled(x):
        mantissa, exponent = np.frexp(x)
        return np.ldexp(weight * mantissa, exponent + shift)
    return scaled


def _far_values(setup: dict, u: np.ndarray, J: np.ndarray):
    """(value, error, row) of the far pieces of the log2 radii u with J >= 1
    far pieces each (``_far_count``), one per symbol subset with a term
    there: sign 2**G sum_k gamma_k T**k R_k(J), T = T_{J-1}, in the order
    of k (a cumulative sum along each row), G = log2 |psi scale, symbol
    coefficients| + beta_out u + lam + (c+1) log2 T, beta_out the betas of
    the symbols outside the subset.

    The bound counts, in eps of each |term|, R_k(J)'s own bound, 3k for
    gamma_k, k (2 + ln2 |log2 T|) for T**k, the product and the sum of K
    terms; the terms left out, at most |R_0| sum_{k >= K} |gamma_k| T**k
    <= |R_0 gamma_K| T**K / (1 - rho T) with rho = max(1, (K - e) / (K + 1))
    as in ``quadrature._binomial_series``; _TINY; and the rounding of G as
    ``_closed_sums`` counts it."""
    far, symbols = setup["far"], setup["symbols"]
    b, c, e, count = far["b"], setup["c"], setup["e"], far["count"]
    row = np.flatnonzero(J > 0)
    u, J = u[row], J[row]
    arg = (far["edges"][J - 1] - u) / b         # log2 T
    T = np.exp2(arg)
    k = np.arange(count, dtype=float)
    powers = np.cumprod(np.concatenate([np.ones((u.size, 1)),
                                        np.broadcast_to(T[:, None], (u.size, count - 1))],
                                       axis=1), axis=1)
    gamma = far["gamma"]
    rho = max(1.0, (count - e) / (count + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.where(rho * T < 1.0, abs(gamma[count]) * T ** count / (1.0 - rho * T), np.inf)
    steps = [math.log2(abs(setup["scale"]))] + [math.log2(abs(sym.coefficient)) for sym in symbols]
    base, sign = sum(steps), math.copysign(1.0, setup["scale"]) * math.prod(
        math.copysign(1.0, sym.coefficient) for sym in symbols)
    values, errors, rows = [], [], []
    for g, subset in enumerate(far["subsets"]):
        sums, rel = far["sums"][J, g], far["rel"][J, g]
        outer = fsum(sym.beta for sym, bit in zip(symbols, subset) if not bit) * u
        lam = far["lam"][J, g]
        level = base + outer + lam + (c + 1.0) * arg
        size = sum(abs(x) for x in steps) + np.abs(outer) + np.abs(lam) + np.abs((c + 1.0) * arg)
        terms = gamma[:count] * powers * sums
        magnitude = np.abs(terms) * (rel + 4.0 * k + 3.0 + count + k * LN2 * np.abs(arg)[:, None])
        total = np.cumsum(terms, axis=1)[:, -1]
        bound = (_EPS * np.cumsum(magnitude, axis=1)[:, -1]
                 + np.abs(sums[:, 0]) * (1.0 + _EPS * (rel[:, 0] + 1.0)) * rest)
        scaled = _pow2_scaled(level)
        with np.errstate(over="ignore"):
            value = (-sign if sum(subset) % 2 else sign) * scaled(total)
            error = (scaled(bound + _TINY) + _EPS * (4.0 + LN2 * (len(steps) + 5.0) * size)
                     * np.abs(value))
        some = sums[:, 0] != 0.0
        values.append(value[some])
        errors.append(error[some])
        rows.append(row[some])
    return np.concatenate(values), np.concatenate(errors), np.concatenate(rows)


def _breakpoint_ranges(setup: dict, u: np.ndarray):
    """For each input, the index ranges [first, last) of its breakpoints
    that can cut the pieces at the log2 radii u: below u, and not below
    the largest support start (less a margin; pieces below it vanish),
    nor, where ``setup["far"]`` holds the far pieces, below the top edge
    X_{J-1} of a radius's J >= 1 far pieces (``_far_count``)."""
    low = np.full(u.shape, -np.inf)     # log2 t of the largest support start
    for a, b in zip(setup["starts"], setup["bs"]):
        if a is not None:
            low = np.maximum(low, (a - u) / b)
    far = setup["far"]
    if far is not None:
        J = _far_count(far, u)
        lowest = far["edges"][np.maximum(J - 1, 0)]
    ranges = []
    for rho, b in zip(setup["breaks"], setup["bs"]):
        floor = u + b * low
        last = np.searchsorted(rho, u)
        first = np.searchsorted(rho, floor - _margin(floor))
        if far is not None:
            first = np.where(J > 0, np.maximum(first, np.searchsorted(rho, lowest)), first)
        ranges.append((np.minimum(first, last), last))
    return ranges


def _block_edges(setup: dict, u: np.ndarray, ranges):
    """Pieces at the log2 radii u, from the breakpoint ``ranges``
    (``_breakpoint_ranges``): the arrays (lo, hi) in v = ln t of every
    radius's pieces in increasing order, radius after radius, and the
    number of pieces of each radius.

    The edges are the breakpoints (rho - u) ln 2 / b_k, cleared of
    repeats; the lowest piece starts at -inf and the highest ends at 0.
    Breakpoints within rounding of log2 r sit at t = 1 itself and are
    dropped.  Each radius's edges are sorted on their own, so they do not
    depend on the block."""
    rows, edges = [], []
    for rho, b, (first, last) in zip(setup["breaks"], setup["bs"], ranges):
        count = last - first
        row = np.repeat(np.arange(u.size), count)
        index = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count) + first[row]
        x, ux = rho[index], u[row]
        keep = x < ux - 4.0 * _EPS * np.maximum(np.abs(ux), np.abs(x))
        rows.append(row[keep])
        edges.append((x[keep] - ux[keep]) * (LN2 / b))
    row, v = np.concatenate(rows), np.concatenate(edges)
    order = np.lexsort((v, row))
    row, v = row[order], v[order]
    fresh = np.ones(v.size, dtype=bool)
    fresh[1:] = (row[1:] != row[:-1]) | (v[1:] != v[:-1])
    row, v = row[fresh], v[fresh]
    # edge i of the sorted list ends piece i + row and starts piece i + row + 1
    position = np.arange(v.size) + row
    lo, hi = np.full(v.size + u.size, -np.inf), np.zeros(v.size + u.size)
    lo[position + 1], hi[position] = v, v
    return lo, hi, np.bincount(row, minlength=u.size) + 1


def _closed_sums(setup: dict, terms, log2_radius: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray):
    """(value, error, divergent) of the pieces [lo, hi] in v with no ramp,
    given each input's ``terms`` (L, a) on them (``log2_terms``).

    The integrand expands into terms coef t**A (1-t)**e, one per choice of
    a term of every input and a subset S of the symbols, with A = c +
    sum_k a_k b_k + sum_{k in S} beta_k b_k.  coef, the psi scale times the
    inputs' terms at t = 1 and the signed symbol factors c_k r**beta_k, is
    kept as a sign and its log2 G (-inf for a term that vanishes): at large
    radii it leaves the float range where the term does not.  Each term is
    2**G times an integral of ``beta_pieces``, which comes as value *
    2**level for the same reason; the powers of two join the value by
    frexp and ldexp.  The error is 2**(G + level) times the value's bound
    and _TINY (a value below the normal range has lost digits its bound
    does not count), plus the rounding of G + level and of the product.  A
    piece adds its terms in a fixed order.  A piece from t = 0 with a term
    A <= -1 is divergent."""
    symbols = setup["symbols"]
    with np.errstate(divide="ignore"):
        steps = [np.log2(abs(setup["scale"]))] + [
            part for sym in symbols
            for part in (np.log2(abs(sym.coefficient)), sym.beta * log2_radius)]
    base = sum(steps)
    sign = math.copysign(1.0, setup["scale"]) * math.prod(
        math.copysign(1.0, sym.coefficient) for sym in symbols)
    # summands of G, for its rounding
    count = len(steps) + len(terms)
    signs, levels, powers, sizes = [], [], [], []
    for choice in itertools.product(*terms):
        level = base + sum(L for L, _ in choice)
        size = sum(np.abs(x) for x in steps) + sum(np.abs(L) for L, _ in choice)
        power = setup["c"] + sum(a * b for (_, a), b in zip(choice, setup["bs"]))
        for subset in itertools.product((0, 1), repeat=len(symbols)):
            signs.append(-sign if sum(subset) % 2 else sign)
            levels.append(level)
            sizes.append(size)
            powers.append(power + fsum(sym.beta * b for sym, b, bit in
                                       zip(symbols, setup["bs"], subset) if bit))
    level = np.array(levels).reshape(len(signs), lo.size)
    power = np.array(powers).reshape(level.shape)
    live = level > -np.inf
    diverges = live & (power <= -1.0) & ~np.isfinite(lo)
    live &= ~diverges
    piece = np.broadcast_to(np.arange(lo.size), level.shape)[live]
    integral, bound, scale = beta_pieces(power[live], setup["e"], lo[piece], hi[piece])
    scaled = _pow2_scaled(level[live] + scale)
    term, err = np.zeros(level.shape), np.zeros(level.shape)
    with np.errstate(over="ignore"):
        term[live] = np.repeat(signs, live.sum(axis=1)) * scaled(integral)
        err[live] = (scaled(bound + _TINY)
                     + _EPS * (4.0 * len(signs) + LN2 * (count + 2)
                               * (np.array(sizes).reshape(level.shape)[live] + np.abs(scale)))
                     * np.abs(term[live]))
    value, error = term[0].copy(), err[0].copy()
    for k in range(1, len(signs)):
        value += term[k]
        error += err[k]
    return value, error, np.any(diverges, axis=0)


def _piece_sums(setup: dict, lo: np.ndarray, hi: np.ndarray, last: np.ndarray,
                log2_radius: np.ndarray):
    """(coarse, fine) rule sums of each Gauss piece [lo, hi] in v at its
    log2 radius; ``last`` marks the pieces [-h, 0], integrated against
    (-v)**order.  Nodes run down the rows, pieces along them, and a piece's
    sums add its column in a fixed order, whatever the block."""
    mid = 0.5 * (hi + lo)

    def values(v):
        g = setup["scale"] * np.exp((setup["c"] + 1.0) * v) * (-np.expm1(v)) ** setup["e"]
        for f, b in zip(setup["profiles"], setup["bs"]):
            # at log2(t**b r); the piece lies between two breakpoints of
            # every input, so its midpoint names its smooth piece of the input
            g = g * f.log2_evaluate(log2_radius + (b / LN2) * v,
                                    at=log2_radius + (b / LN2) * mid)
        for sym, b in zip(setup["symbols"], setup["bs"]):
            g = g * (sym.coefficient * np.exp2(sym.beta * log2_radius)
                     * -np.expm1(b * sym.beta * v))
        return g

    return piece_sums(values, lo, hi, last, setup["order"])


def _gauss_plan(lo: np.ndarray, hi: np.ndarray):
    """How ``_gauss_pieces`` cuts the pieces [lo, hi] in v (lo finite,
    hi <= 0): (h, depth, count).  The cuts are -h 2**j for j <= depth, h
    the distance of hi to 0 (for hi = 0 the width min(_PIECE_WIDTH, -lo)),
    so that a sub-piece is no wider than its distance to v = 0 until
    -h 2**depth, and then steps of _PIECE_WIDTH down to lo; ``count``
    bounds the number of sub-pieces."""
    h = np.where(hi < 0.0, -hi, np.minimum(_PIECE_WIDTH, -lo))
    depth = np.maximum(0.0, np.ceil(np.log2(_PIECE_WIDTH / h)))
    steps = np.clip(np.ceil((-h * np.exp2(depth) - lo) / _PIECE_WIDTH), 0.0, _MAX_PIECES)
    return h, depth, (depth + 1.0 + steps).astype(int)


def _gauss_pieces(lo: np.ndarray, hi: np.ndarray, plan):
    """Gauss sub-pieces of the pieces [lo, hi] cut as ``plan`` says
    (``_gauss_plan``): the sub-pieces (lo, hi) in decreasing order, piece
    after piece, and the number of sub-pieces of each piece."""
    h, depth, count = plan
    piece = np.repeat(np.arange(lo.size), count)
    j = np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count)
    top = depth[piece]
    cut = np.where(j <= top, -h[piece] * np.exp2(np.minimum(j, top)),
                   -h[piece] * np.exp2(top) - _PIECE_WIDTH * (j - top))
    keep = (cut > lo[piece]) & (cut < hi[piece])
    piece, cut = piece[keep], cut[keep]
    sizes = np.bincount(piece, minlength=lo.size) + 1
    # cut i of the list ends sub-piece i + piece and starts sub-piece i + piece + 1
    position = np.arange(cut.size) + piece
    sub_lo, sub_hi = np.empty(cut.size + lo.size), np.empty(cut.size + lo.size)
    sub_lo[position], sub_hi[position + 1] = cut, cut
    ends = np.cumsum(sizes)
    sub_hi[ends - sizes], sub_lo[ends - 1] = hi, lo
    return sub_lo, sub_hi, sizes


def _gauss_sums(setup: dict, lo: np.ndarray, hi: np.ndarray, log2_radius: np.ndarray, plan):
    """(fine sum, |fine - coarse|, piece) of every Gauss sub-piece of the
    pieces [lo, hi] cut as ``plan`` says, _BLOCK_PIECES sub-pieces at a
    time; ``piece`` indexes the piece a sub-piece belongs to."""
    sub_lo, sub_hi, counts = _gauss_pieces(lo, hi, plan)
    owner = np.repeat(np.arange(lo.size), counts)
    fine, diff = [np.zeros(0)], [np.zeros(0)]
    for a in range(0, owner.size, _BLOCK_PIECES):
        part = slice(a, a + _BLOCK_PIECES)
        coarse, sums = _piece_sums(setup, sub_lo[part], sub_hi[part], sub_hi[part] == 0.0,
                                   log2_radius[owner[part]])
        fine.append(sums)
        diff.append(np.abs(sums - coarse))
    return np.concatenate(fine), np.concatenate(diff), owner


def _far_ramps(far: dict, u: np.ndarray, J: np.ndarray):
    """(lo, hi, row): the far ramp pieces [X_{j-1}, X_j], 1 <= j < J, of
    the log2 radii u, in v = ln t at their radius."""
    count = np.searchsorted(far["ramps"], J)
    row = np.repeat(np.arange(u.size), count)
    j = far["ramps"][np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)]
    scale = LN2 / far["b"]
    return (far["edges"][j - 1] - u[row]) * scale, (far["edges"][j] - u[row]) * scale, row


def _block_values(setup: dict, u: np.ndarray, ranges, tol: float):
    """The arrays (value, error, evaluations, state) at the log2 radii u of
    one block, ``state`` indexing _STATES: converged; divergent, where a
    piece from t = 0 diverges; inconclusive for a radius this path leaves
    to the graded integrator (its line verdict is not converged, or a ramp
    reaches t = 0, or it has more than _MAX_PIECES Gauss pieces, or a piece
    whose value or bound is not finite, which then counts no evaluations).

    Where ``setup["far"]`` holds the far pieces, a radius with J >= 1 of
    them (``_far_count``) takes its lowest block piece, [-inf, X_{J-1}] in
    x, from the prefix tables (``_far_values``) and its far ramp pieces
    as Gauss pieces; the rest is the same for every radius."""
    far = setup["far"]
    lo, hi, sizes = _block_edges(setup, u, ranges)
    row = np.repeat(np.arange(u.size), sizes)
    unsettled = np.zeros(u.size, dtype=bool)
    divergent = np.zeros(u.size, dtype=bool)
    if far is not None:
        J = _far_count(far, u)
        near = np.isfinite(lo) | (J[row] == 0)
        lo, hi, row = lo[near], hi[near], row[near]
        far_values, far_errors, far_rows = _far_values(setup, u, J)
        far_lo, far_hi, far_ramp_rows = _far_ramps(far, u, J)
        unsettled[J > 0] = far["bottom_ramp"]
        divergent[J > 0] = far["diverges"]
    else:
        far_values = far_errors = far_lo = far_hi = np.zeros(0)
        far_rows = far_ramp_rows = np.zeros(0, dtype=int)
    mid = np.where(np.isfinite(lo), 0.5 * (lo + hi), hi - 1.0)
    terms = [f.log2_terms(u[row], u[row] + (b / LN2) * mid)
             for f, b in zip(setup["profiles"], setup["bs"])]
    nonzero = np.all([np.any([(L > -np.inf) | r for L, _, r in parts], axis=0)
                      for parts in terms], axis=0)
    ramp = nonzero & (np.any([r for parts in terms for _, _, r in parts], axis=0)
                      | ((hi == 0.0) & (setup["e"] <= -1.0)))

    unsettled[row[ramp & ~np.isfinite(lo)]] = True
    ramps = ramp & np.isfinite(lo)
    ramp_lo, ramp_hi = np.concatenate([lo[ramps], far_lo]), np.concatenate([hi[ramps], far_hi])
    ramp_row = np.concatenate([row[ramps], far_ramp_rows])
    plan = _gauss_plan(ramp_lo, ramp_hi)
    unsettled |= np.bincount(ramp_row, plan[2], minlength=u.size) > _MAX_PIECES
    keep = ~unsettled[ramp_row]
    fine, diff, piece = _gauss_sums(setup, ramp_lo[keep], ramp_hi[keep], u[ramp_row[keep]],
                                    [x[keep] for x in plan])
    gauss_row = ramp_row[keep][piece]

    closed = np.flatnonzero(nonzero & ~ramp)
    values, errors, diverges = _closed_sums(
        setup, [[(L[closed], a[closed]) for L, a, _ in parts] for parts in terms],
        u[row[closed]], lo[closed], hi[closed])
    divergent[row[closed[diverges]]] = True

    owner = np.concatenate([far_rows, row[closed], gauss_row])
    order = np.argsort(owner, kind="stable")
    values = np.concatenate([far_values, values, fine])[order]
    errors = np.concatenate([far_errors, errors, diff])[order]
    # a piece beyond the float range leaves its radius to the graded integrator
    finite = np.isfinite(values) & np.isfinite(errors)
    unsettled[owner[order][~finite]] = True
    value, error, converged = _line_verdicts(np.where(finite, values, 0.0),
                                             np.where(finite, errors, 0.0),
                                             np.bincount(owner, minlength=u.size), tol)
    divergent &= ~unsettled
    state = np.where(converged & ~unsettled, _CONVERGED, _INCONCLUSIVE)
    state[divergent] = _DIVERGENT
    value[divergent], error[divergent] = math.inf, math.inf
    gauss = np.bincount(gauss_row, minlength=u.size)
    return value, error, np.where(unsettled | divergent, 0, 3 * PIECE_RULE * gauss), state


def _piecewise_values(spec: OperatorSpec, setup: dict, radii: np.ndarray, tol: float):
    """Values at the radii: the arrays (value, error, evaluations, state),
    ``state`` indexing _STATES.

    A radius takes the fsum of its closed pieces, whose errors are the
    bounds of their special-function values, of its far pieces from the
    prefix tables where ``setup["far"]`` holds them (one value per symbol
    subset), and of its Gauss pieces, each
    summed with the PIECE_RULE- and the 2 * PIECE_RULE-point rule, and its
    verdict from ``quadrature._line_verdicts``: converged under the test of
    the line, and inconclusive otherwise; divergent where a piece from
    t = 0 diverges.  A radius that is inconclusive, or that
    ``_block_values`` leaves aside, is integrated by the graded integrator
    instead, its evaluations added to the line's.  The radii go in blocks of
    about _BLOCK near pieces times terms; the pieces of a radius depend on
    that radius alone, and the prefix tables on the inputs and the kernel
    alone, so a value does not depend on the grid or the block it arrives
    in.
    """
    u = np.log2(radii)
    ranges = _breakpoint_ranges(setup, u)
    width = np.cumsum((1 + sum(last - first for first, last in ranges)) * setup["terms"])
    out = (np.empty(radii.size), np.empty(radii.size), np.empty(radii.size, dtype=int),
           np.empty(radii.size, dtype=int))
    a = 0
    while a < radii.size:
        b = max(a + 1, int(np.searchsorted(width, (width[a - 1] if a else 0) + _BLOCK,
                                           side="right")))
        block = _block_values(setup, u[a:b], [(first[a:b], last[a:b]) for first, last in ranges],
                              tol)
        for whole, part in zip(out, block):
            whole[a:b] = part
        a = b
    value, error, evaluations, state = out
    for i in np.flatnonzero(state == _INCONCLUSIVE).tolist():
        res = _graded(spec, setup["profiles"], setup["symbols"], float(radii[i]), tol)
        value[i], error[i], state[i] = res.value, res.abs_error, _STATES.index(res.status)
        evaluations[i] += res.evaluations
    return out


# --------------------------------------------------------------------------
# operator application
#
# The commutator integrand prod_k f_k(s_k r) (b_k(r) - b_k(s_k r)) psi
# expands into 2^m signed power integrals, one per subset of the symbols;
# with no symbols the single empty subset is the operator itself.


def _expansion(fast: dict, symbols, r, integral) -> IntegralResult:
    """Power-shaped value at radius r: the signed sum over subsets S of the
    symbols of integral(c + sum_k a_k b_k + sum_{k in S} beta_k b_k).

    ``r`` may be an array of radii, as long as ``integral`` returns values
    of its shape.  A term that is not converged makes the sum not
    converged; a divergent term is returned as it is.
    """
    coeff = math.prod(fast["coeffs"]) * math.prod(s.coefficient for s in symbols)
    if coeff == 0.0:
        return IntegralResult(np.zeros(np.shape(r)), 0.0, IntegralStatus.CONVERGED, 0)
    a_sum = fsum(fast["exps"]) + fsum(s.beta for s in symbols)
    A = fast["c"] + fsum(a * b for a, b in zip(fast["exps"], fast["bs"]))
    value = 0.0
    err = 0.0
    evals = 0
    status = IntegralStatus.CONVERGED
    for subset in itertools.product((0, 1), repeat=len(symbols)):
        shift = fsum(sym.beta * b for sym, b, bit in zip(symbols, fast["bs"], subset) if bit)
        term = integral(A + shift)
        if term.status is IntegralStatus.DIVERGENT:
            return term
        if term.status is not IntegralStatus.CONVERGED:
            status = term.status
        value += (-1.0 if sum(subset) % 2 else 1.0) * term.value
        err += term.abs_error
        evals += term.evaluations
    return _scaled_result(IntegralResult(value, err, status, evals),
                          fast["scale"] * coeff * r ** a_sum)


def _closed_values(fast: dict, symbols, r) -> IntegralResult:
    """Power-shaped values at the radii r (an array), one array pass per term."""
    t0 = _t_lower(fast, r)
    return _expansion(fast, symbols, r, lambda a: tail_power_beta(a, fast["e"], t0))


def _graded(spec: OperatorSpec, profiles, symbols, r: float, tol: float) -> IntegralResult:
    """Pointwise value at |x| = r by the graded integrator."""
    integrand, reflected, orders, brks = _operator_integrand(spec, profiles, r, symbols)
    return integrate_unit_cube(integrand, 1, tol, orders, breakpoints=brks,
                               detect_growth=spec.kernel.has_callback(),
                               reflected=reflected)


def _evaluate(spec: OperatorSpec, profiles, symbols, r: float,
              tol: float) -> IntegralResult:
    """Pointwise commutator value at |x| = r; ``symbols = ()`` gives U.

    The closed and piecewise paths run the grid sampler's arithmetic on a
    single radius, so both agree with it bit for bit.
    """
    spec = OperatorSpec(spec.m, 1, min_reduction(spec.kernel))
    fast = _fast_setup(spec, profiles)
    if fast is not None:
        res = _closed_values(fast, symbols, np.asarray(float(r)))
        return IntegralResult(_unwrap(res.value), _unwrap(res.abs_error), res.status,
                              res.evaluations)
    setup = _piecewise_setup(spec, profiles, symbols)
    if setup is not None:
        value, error, evaluations, state = _piecewise_values(spec, setup,
                                                             np.asarray([float(r)]), tol)
        return IntegralResult(float(value[0]), float(error[0]), _STATES[state[0]],
                              int(evaluations[0]))
    return _graded(spec, profiles, symbols, r, tol)


def apply_hardy_cesaro(spec: OperatorSpec, profiles: Sequence[RadialProfile],
                       r: float, tol: float = 1e-10) -> IntegralResult:
    """Pointwise value U(f_1..f_m)(x) at |x| = r."""
    if len(profiles) != spec.m:
        raise ValueError(f"expected {spec.m} profiles, got {len(profiles)}")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    return _evaluate(spec, profiles, (), r, tol)


def apply_commutator(spec: OperatorSpec, profiles: Sequence[RadialProfile],
                     symbols: Sequence[PowerSymbol], r: float,
                     tol: float = 1e-10) -> IntegralResult:
    """Pointwise value of the commutator at |x| = r (signed)."""
    if len(profiles) != spec.m or len(symbols) != spec.m:
        raise ValueError(f"expected {spec.m} profiles and symbols")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    return _evaluate(spec, profiles, symbols, r, tol)


def log2_grid(start: float, stop: float, per_octave: int = 8) -> np.ndarray:
    """Log2-radius grid from start to stop with per_octave points per octave."""
    if stop <= start:
        raise ValueError(f"empty grid range [{start}, {stop}]")
    count = int(round((stop - start) * per_octave)) + 1
    return np.linspace(start, stop, count)


def _sample(spec: OperatorSpec, profiles, symbols, grid, tol) -> RadialProfile:
    """|output| as a radial profile.

    Pure power-law inputs with power-shaped kernels give the exact output
    PowerLaw; other power-shaped inputs are evaluated on the whole
    log2-radius grid at once, and inputs for the piecewise path in blocks
    of radii; otherwise each radius goes to the graded integrator.
    Any divergent value rejects the profile.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    what = "commutator" if symbols else "operator"
    spec = OperatorSpec(spec.m, 1, min_reduction(spec.kernel))

    fast = _fast_setup(spec, profiles)
    if fast is not None and not any(R > 0 for R in fast["radii"]):
        # a homogeneous output: the power law with its value at r = 1
        res = _expansion(fast, symbols, 1.0, lambda a: beta_closed_form(a, fast["e"]))
        if res.status is IntegralStatus.DIVERGENT:
            raise OperatorDivergenceError(
                f"{what} output is divergent for these power-law inputs")
        a_sum = fsum(fast["exps"]) + fsum(s.beta for s in symbols)
        if res.value == 0.0:
            return ScaledProfile(PowerLaw(a_sum, 1.0), 0.0)
        return PowerLaw(a_sum, abs(res.value))

    if fast is not None:
        res = _closed_values(fast, symbols, np.exp2(grid))
        if res.status is IntegralStatus.DIVERGENT:
            at = grid[np.argmax(~np.isfinite(res.value))]
            raise OperatorDivergenceError(f"{what} output is divergent at log2 radius {at}")
        return SampledProfile(grid, np.abs(res.value))

    setup = _piecewise_setup(spec, profiles, symbols)
    if setup is None:
        values = []
        for u in grid:
            res = _graded(spec, profiles, symbols, float(2.0 ** u), tol)
            if res.status is IntegralStatus.DIVERGENT:
                raise OperatorDivergenceError(f"{what} output is divergent at log2 radius {u}")
            values.append(abs(res.value))
        return SampledProfile(grid, values)
    value, _, _, state = _piecewise_values(spec, setup, np.exp2(grid), tol)
    divergent = state == _DIVERGENT
    if np.any(divergent):
        at = grid[np.argmax(divergent)]
        raise OperatorDivergenceError(f"{what} output is divergent at log2 radius {at}")
    return SampledProfile(grid, np.abs(value))


def apply_to_profile(spec: OperatorSpec, profiles: Sequence[RadialProfile],
                     grid, tol: float = 1e-10) -> RadialProfile:
    """Operator output as a radial profile.

    Pure power-law inputs with power-shaped kernels give the exact output
    PowerLaw (exponent sum a_i, coefficient = kernel power integral);
    otherwise the output is sampled on the log2-radius ``grid``.  Any
    pointwise divergent value rejects the profile.
    """
    if len(profiles) != spec.m:
        raise ValueError(f"expected {spec.m} profiles, got {len(profiles)}")
    return _sample(spec, profiles, (), grid, tol)


def commutator_to_profile(spec: OperatorSpec, profiles: Sequence[RadialProfile],
                          symbols: Sequence[PowerSymbol], grid,
                          tol: float = 1e-10) -> RadialProfile:
    """Commutator output as a radial profile of absolute values.

    Downstream norms only see |output|, so the sampled profile stores
    magnitudes; the exact power-law path returns the magnitude-coefficient
    PowerLaw.
    """
    if len(profiles) != spec.m or len(symbols) != spec.m:
        raise ValueError(f"expected {spec.m} profiles and symbols")
    return _sample(spec, profiles, symbols, grid, tol)
