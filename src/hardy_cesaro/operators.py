"""Weighted multilinear Hardy-Cesaro operator and Lipschitz-symbol commutator.

The operator maps m radial profiles to

    U(f_1..f_m)(x) = int_{[0,1]^n} prod_k f_k(|s_k(t)| |x|) psi(t) dt,

so on radial data only the moduli |s_k(t)| enter.  The commutator carries
the extra factor prod_k (b_k(x) - b_k(s_k(t) x)) with power symbols
b_k(x) = c_k |x|**beta_k, which reduces to
c_k r**beta_k (1 - |s_k(t)|**beta_k).

Power-shaped instances are evaluated in closed form: pure power-law
inputs with PowerBeta/PowerCurve kernels produce exact power-law outputs
(Beta-function coefficients), and truncated power laws reduce to tail
integrals int_{t0}^1 t^a (1-t)^e dt, given by the incomplete Beta
function for a > -1 and by hypergeometric series for a <= -1
(``tail_power_beta``, with graded quadrature beyond the series' range);
a whole log2-radius grid is one array pass per term.

Inputs with no closed form that vanish near 0 (sampled or sum profiles,
with PowerBeta/PowerCurve kernels) are integrated in v = ln t by a fixed
Gauss rule on each piece between the inputs' breakpoints, at two orders,
for blocks of radii at once (``_piecewise_values``).  What remains
(callback kernels, n >= 2, inputs that do not vanish near 0, and radii
whose two rules disagree) goes through the graded cube integrator, radius
by radius, with endpoint orders and support breakpoints derived from the
profiles and the kernel; n >= 2 min-power kernels go there reduced to
n = 1 (``quadrature.min_reduction``), on the graded line.
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
from .quadrature import (PIECE_RULE, ROUNDING, IntegralResult, IntegralStatus, KernelSpec,
                         PowerBeta, PowerCurve, beta_closed_form, beta_tail,
                         integrate_unit_cube, min_reduction, piece_sums)

_EPS = float(np.finfo(float).eps)


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
    """n = 1, a PowerBeta psi and curves t**b with b > 0."""
    return (kernel.n == 1 and isinstance(kernel.psi, PowerBeta)
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


# Terms of a series in _binomial_series beyond which tail_power_beta
# integrates numerically instead; 2000 terms serve e up to about 150 and
# a down to about -560.
_MAX_TERMS = 2000
# Largest error bound, relative to the value, accepted from the series.
_SERIES_RTOL = 1e-10
_LOG2_EPS = math.log2(_EPS)


def _split(e: float) -> float:
    """Split point h of the a <= -1 tail: on [t0, h] the binomial series of
    (1-t)**e cancels by at most ((1+h)/(1-h))**e <= 2**8; h = 1/2 for
    e <= 5."""
    return 0.5 if e <= 0.0 else min(0.5, math.tanh(4.0 * LN2 / e))


def _term_count(p: float, q: float, hi: float) -> Optional[int]:
    """Terms K after which the series of _binomial_series has a remainder
    below eps/4 of its value for every upper limit up to hi < 1, with
    p + K + 1 > 0.

    Consecutive terms shrink at least by r_k = hi |k - q| / (k + 1), and
    the value is at least (1 - hi)**max(q, 0) times the first term; the
    bound is kept in log2.  None when more than _MAX_TERMS terms would be
    needed.
    """
    log_bound = -max(q, 0.0) * math.log2(1.0 - hi)    # log2 of |term k| / value, at most
    for k in range(_MAX_TERMS):
        # from k >= q on, rho bounds every later r_j
        rho = hi * max(1.0, abs(k - q) / (k + 1.0))
        if k >= q and rho < 1.0 and log_bound + math.log2(rho / (1.0 - rho)) <= _LOG2_EPS - 2.0:
            count = max(k + 1, math.floor(-p))
            return count if count <= _MAX_TERMS else None
        step = hi * abs(k - q) / (k + 1.0)
        log_bound += math.log2(step) if step > 0.0 else -math.inf
    return None


def _binomial_series(p: float, q: float, lo, hi, count: int):
    """int_lo^hi t**p (1-t)**q dt for 0 <= lo <= hi < 1, with an error bound.

    The binomial series of (1-t)**q integrated term by term,

        sum_k (-q)_k / k! * int_lo^hi t**(p+k) dt,

    which is the Gauss series of 2F1(-q, p+1; p+2; .) (DLMF 15.2.1)
    between the two limits.  A power p + k = -1 contributes log(hi/lo),
    so integer p needs no special case.  ``lo`` and ``hi`` broadcast;
    every element sums the same ``count`` terms, so its value does not
    depend on the array it arrives in.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    span = np.where(hi > lo, np.log1p((hi - lo) / lo), 0.0)   # log(hi/lo); inf at lo = 0
    finite_span = np.where(np.isfinite(span), span, 0.0)
    pow_lo, pow_hi = lo ** (p + 1.0), hi ** (p + 1.0)
    # per-term relative error, in eps: 3 roundings per step of the
    # coefficient recursion and 1 of the power recursion, 10 for the term
    # itself, and the rounding of s = p + k + 1 magnified by the logarithms
    # it multiplies
    magnify_lo = np.abs(np.log(lo)) + finite_span
    magnify_hi = np.abs(np.log(hi)) + finite_span
    value = mass = err = 0.0
    coef = 1.0
    for k in range(count):
        s = p + k + 1.0
        if s > 0.0:
            term = coef * pow_hi * (-np.expm1(-s * span) / s)
            magnify = magnify_hi
        elif s < 0.0:
            term = coef * pow_lo * (-np.expm1(s * span) / -s)
            magnify = magnify_lo
        else:
            term = coef * span
            magnify = magnify_lo
        size = np.abs(term)
        value = value + term
        mass = mass + size
        err = err + size * (4.0 * k + 10.0 + abs(s) * magnify)
        pow_lo, pow_hi = pow_lo * lo, pow_hi * hi
        coef *= (k - q) / (k + 1.0)
    # the terms left out, from the first one on, shrink geometrically by at
    # most rho (count >= q, and s > 0 from count >= -p - 1 on)
    rho = hi * max(1.0, (count - q) / (count + 1.0))
    s = p + count + 1.0
    rest = np.abs(coef) * pow_hi * (-np.expm1(-s * span) / s) / (1.0 - rho)
    return value, _EPS * (err + count * mass) + rest


def _unwrap(x):
    return float(x) if np.ndim(x) == 0 else x


def tail_power_beta(a: float, e: float, t0) -> IntegralResult:
    """int_{t0}^{1} t**a (1-t)**e dt for t0 in [0, 1].

    ``t0`` may be an array; value and abs_error then are arrays of its
    shape, and each element equals the scalar call on it bit for bit.

    - t0 = 0 is the complete Beta function; t0 > 0 with a > -1 uses the
      regularized incomplete Beta, from the t = 1 side (in 1 - t0) above
      t0 = 1/2.
    - a <= -1 with t0 > 0 (DLMF 8.17.7 and 15.8), with h = ``_split(e)``:
      for t0 > h the integral is
      x**(e+1)/(e+1) * 2F1(-a, e+1; e+2; x) with x = 1 - t0 (exact in
      floating point); for t0 <= h it is that value at x = 1 - h plus
      int_{t0}^{h}, the difference of
      t**(a+1)/(a+1) * 2F1(a+1, -e; a+2; t) between the limits, which
      stays finite where a is an integer (a = -1 is the log case).
      Both are summed term by term in ``_binomial_series``; abs_error
      bounds the rounding and the truncation of those sums.
    - Where the series would need more than _MAX_TERMS terms (e above
      about 150, a below about -560), or its bound exceeds _SERIES_RTOL of
      a finite value, that element is integrated numerically instead
      (``_numeric_tail``), and the result takes the worst status of its
      elements.
    - Divergent when e <= -1, or a <= -1 and t0 = 0.
    """
    t = np.clip(np.asarray(t0, dtype=float), 0.0, 1.0)
    inside = t < 1.0
    diverges = inside & ((e <= -1.0) | ((a <= -1.0) & (t == 0.0)))
    if np.any(diverges):
        return IntegralResult(_unwrap(np.where(diverges, math.inf, 0.0)), math.inf,
                              IntegralStatus.DIVERGENT, 0)
    if not np.any(inside):
        return IntegralResult(_unwrap(np.zeros(t.shape)), 0.0, IntegralStatus.CONVERGED, 0)
    if a > -1.0:
        # above t0 = 1/2 the regularized tail is taken from the t = 1 side,
        # where 1 - t0 is exact, instead of as a difference that cancels
        value = beta_tail(a, e, t, 1.0 - t)
        return IntegralResult(_unwrap(value), 16.0 * _EPS * beta_closed_form(a, e).value,
                              IntegralStatus.CONVERGED, 0)

    h = _split(e)
    upper_terms, lower_terms = _term_count(e, a, 1.0 - h), _term_count(a, e, h)
    if upper_terms is None or lower_terms is None:
        value, err = np.where(inside, math.nan, 0.0), np.where(inside, math.inf, 0.0)
    else:
        with np.errstate(all="ignore"):
            upper, upper_err = _binomial_series(e, a, 0.0, np.where(t < h, 1.0 - h, 1.0 - t),
                                                upper_terms)
            lower, lower_err = _binomial_series(a, e, np.minimum(t, h), h, lower_terms)
            value = np.where(inside, upper + lower, 0.0)
            err = np.where(inside, upper_err + lower_err + _EPS * np.abs(value), 0.0)
    with np.errstate(invalid="ignore"):
        numeric = inside & ~(np.isfinite(value) & (err <= _SERIES_RTOL * np.abs(value)))
    status, evaluations = IntegralStatus.CONVERGED, 0
    for i in np.flatnonzero(numeric):
        res = _numeric_tail(a, e, float(t.flat[i]))
        value.flat[i], err.flat[i] = res.value, res.abs_error
        evaluations += res.evaluations
        if res.status is IntegralStatus.DIVERGENT or status is IntegralStatus.CONVERGED:
            status = res.status
    return IntegralResult(_unwrap(value), _unwrap(err), status, evaluations)


def _numeric_tail(a: float, e: float, t0: float, tol: float = 1e-10) -> IntegralResult:
    """int_{t0}^{1} t**a (1-t)**e dt by graded quadrature in u = 1 - t,
    which puts the singularity of (1-t)**e at u = 0."""
    span = 1.0 - t0

    def fun(v):
        # u = span * v; integrand (1-u)^a u^e du
        u = span * v
        return np.exp(a * np.log1p(-u) + e * np.log(u)) * span

    return integrate_unit_cube(fun, 1, tol, [(e, 0.0)])


def _scaled_result(res: IntegralResult, scale: float) -> IntegralResult:
    if res.status is IntegralStatus.DIVERGENT:
        return res
    return IntegralResult(scale * res.value, abs(scale) * res.abs_error,
                          res.status, res.evaluations)


# --------------------------------------------------------------------------
# numeric integrand assembly


def _local_exponent_for_curve(profile: RadialProfile, z: float) -> Optional[float]:
    """Order of f(|s| r) in t_j as t_j -> 0, given |s| ~ t_j**z there."""
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

    def integrand(t):
        return kernel.psi_values(t) * factors(t)

    reflected = None
    if kernel.supports_reflection():
        def reflected(u):
            return kernel.psi_values_reflected(u) * factors(1.0 - u, u)

    pe = kernel.psi_endpoint_exponents()
    endexp = []
    for j in range(kernel.n):
        at0 = pe[j][0]
        vanishes = False
        for k, f in enumerate(profiles):
            z = kernel.curve_zero_exponents(k)[j]
            contrib = _local_exponent_for_curve(f, z)
            if contrib is None:
                vanishes = True
                break
            at0 += contrib
            if symbols and z < 0:
                at0 += symbols[k].beta * z
        at1 = pe[j][1]
        if symbols:
            for k in range(spec.m):
                if kernel.curve_tends_to_one_at_face(k, j):
                    at1 += 1.0
        endexp.append((math.inf if vanishes else at0, at1))

    breakpoints = None
    if kernel.n == 1 and all(isinstance(s, PowerCurve) for s in kernel.curves):
        pts = []
        for k, f in enumerate(profiles):
            b = kernel.curves[k].b
            for rho in f.log2_breakpoints():
                t = (2.0 ** rho / r) ** (1.0 / b)
                if 0.0 < t < 1.0:
                    pts.append(t)
        pts = sorted(set(pts))
        if 0 < len(pts) <= 24:
            breakpoints = [pts]

    return integrand, reflected, endexp, breakpoints


# --------------------------------------------------------------------------
# piecewise Gauss evaluation of inputs with no closed form
#
# With n = 1, psi = PowerBeta and curves t**b_k, the integrand in v = ln t
# is sc t**(c+1) (1-t)**e prod_k f_k(t**b_k r), times the symbol gaps
# c_k r**beta_k (1 - t**(b_k beta_k)).  Between two breakpoints of the
# inputs it is analytic apart from the factor (1-t)**e at v = 0, so a
# fixed Gauss rule per piece converges fast once the pieces keep their
# distance from v = 0, and the piece that ends there carries that factor
# in a Gauss-Jacobi weight.

_PIECE_WIDTH = 1.0       # widest piece in v = ln t
_MAX_PIECES = 2 ** 12    # a radius needing more goes to the graded integrator
# elements of the temporary arrays: radii x candidate edges in the edge
# pass, and nodes x pieces, _BLOCK_PIECES pieces at a time, in the sums
_BLOCK = 2 ** 13
_BLOCK_PIECES = _BLOCK // (3 * PIECE_RULE)
_GRADING_ALLOWANCE = 8   # grading cuts assumed per radius when sizing a block of radii


def _piecewise_setup(spec: OperatorSpec, profiles, symbols) -> Optional[dict]:
    """Data of the piecewise Gauss path, or None where it does not apply:
    it needs n = 1, a PowerBeta psi, curves t**b with b > 0, inputs with no
    closed form, and at least one input that vanishes below some radius."""
    kernel = spec.kernel
    if not _power_kernel(kernel) or _fast_setup(spec, profiles) is not None:
        return None
    starts = [f.support_start() for f in profiles]
    # each symbol gap vanishes like (1-t) at t = 1
    order = kernel.psi.e + len(symbols)
    if all(a is None for a in starts) or not order > -1.0:
        return None
    return {
        "c": kernel.psi.c, "e": kernel.psi.e, "scale": kernel.psi.scale,
        "order": order, "bs": [s.b for s in kernel.curves], "starts": starts,
        "breaks": [np.asarray(f.log2_breakpoints(), dtype=float) for f in profiles],
        "profiles": tuple(profiles), "symbols": tuple(symbols),
    }


def _lower_limits(setup: dict, u: np.ndarray) -> np.ndarray:
    """Lower limit in v = ln t at each log2 radius u: the largest support
    start, (a - u) ln 2 / b; the integrand vanishes below it."""
    return np.max([(a - u) * LN2 / b for a, b in zip(setup["starts"], setup["bs"])
                   if a is not None], axis=0)


def _block_edges(setup: dict, u: np.ndarray, lower: np.ndarray):
    """Edges in v = ln t of the pieces at the log2 radii u (with lower
    limits ``lower``): every radius's edges in increasing order, radius
    after radius, from its lower limit up to -h, where [-h, 0] is its last
    piece; and the number of edges of each radius, 0 where the integrand
    vanishes.

    The edges are the inputs' breakpoints (rho - u) ln 2 / b_k above the
    lower limit, and grading cuts -h, -2h, -4h, ... and then steps of
    _PIECE_WIDTH, so that no piece is wider than _PIECE_WIDTH or than its
    distance to v = 0.  Breakpoints within rounding of log2 r sit at t = 1
    itself and are dropped.  The steps stop after _MAX_PIECES, so a radius
    has a bounded number of edges; one with more than _MAX_PIECES is left
    to the graded integrator.  Each radius is one row of candidate edges,
    sorted and cleared of repeats on its own, so its edges do not depend
    on the block.
    """
    uu, lo = u[:, None], lower[:, None]
    cuts = np.concatenate(
        [np.where(rho < uu - 4.0 * _EPS * np.maximum(np.abs(uu), np.abs(rho)),
                  (rho - uu) * (LN2 / b), -np.inf)
         for rho, b in zip(setup["breaks"], setup["bs"])], axis=1)
    cuts[~(cuts > lo)] = -np.inf
    h = np.minimum(_PIECE_WIDTH, -np.maximum(lower, cuts.max(axis=1, initial=-np.inf)))
    h[~(lower < 0.0)] = _PIECE_WIDTH
    depth = np.array([max(0, math.ceil(math.log2(_PIECE_WIDTH / x))) for x in h.tolist()])
    deepest = -h * np.exp2(depth)        # the last grading cut
    steps = np.clip(np.ceil((deepest - lower) / _PIECE_WIDTH), 0, _MAX_PIECES)
    j = np.arange(depth.max() + 1.0)
    k = np.arange(1.0, steps.max() + 1.0)
    grading = np.concatenate(
        [np.where(j <= depth[:, None], -h[:, None] * np.exp2(j), -np.inf),
         np.where(k <= steps[:, None], deepest[:, None] - _PIECE_WIDTH * k, -np.inf)], axis=1)
    rows = np.concatenate([lo, cuts, grading], axis=1)
    rows[~(rows > lo)] = np.inf
    rows[:, 0] = np.where(lower < 0.0, lower, np.inf)
    rows.sort(axis=1)
    keep = np.isfinite(rows)
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    return rows[keep], keep.sum(axis=1)


def _piece_sums(setup: dict, lo: np.ndarray, hi: np.ndarray, last: np.ndarray,
                log2_radius: np.ndarray):
    """(coarse, fine) rule sums of each piece [lo, hi] in v at its log2
    radius; ``last`` marks the pieces [-h, 0], integrated against
    (-v)**order.  Nodes run down the rows, pieces along them, and a piece's
    sums add its column in a fixed order, whatever the block."""
    mid = 0.5 * (hi + lo)

    def values(v):
        g = setup["scale"] * np.exp((setup["c"] + 1.0) * v) * (-np.expm1(v)) ** setup["e"]
        for f, b in zip(setup["profiles"], setup["bs"]):
            # at log2(t**b r); the edges include every input's breakpoints,
            # so the piece's midpoint names its smooth piece of the input
            g = g * f.log2_evaluate(log2_radius + (b / LN2) * v,
                                    at=log2_radius + (b / LN2) * mid)
        for sym, b in zip(setup["symbols"], setup["bs"]):
            g = g * (sym.coefficient * np.exp2(sym.beta * log2_radius)
                     * -np.expm1(b * sym.beta * v))
        return g

    return piece_sums(values, lo, hi, last, setup["order"])


def _radius_sums(setup: dict, edges: np.ndarray, sizes: np.ndarray, u: np.ndarray) -> list:
    """(value, summed piece differences) at each log2 radius u, from its
    ``sizes`` edges in ``edges``, _BLOCK_PIECES pieces at a time."""
    ends = np.cumsum(sizes)
    hi = np.append(edges[1:], 0.0)
    hi[ends - 1] = 0.0
    last = np.zeros(edges.size, dtype=bool)
    last[ends - 1] = True
    log2_radius = np.repeat(u, sizes)
    coarse, fine = np.empty(edges.size), np.empty(edges.size)
    for a in range(0, edges.size, _BLOCK_PIECES):
        b = slice(a, a + _BLOCK_PIECES)
        coarse[b], fine[b] = _piece_sums(setup, edges[b], hi[b], last[b], log2_radius[b])
    diff = np.abs(fine - coarse)
    return [(math.fsum(fine[b - size:b].tolist()), math.fsum(diff[b - size:b].tolist()))
            for b, size in zip(ends.tolist(), sizes.tolist())]


def _piecewise_values(spec: OperatorSpec, setup: dict, radii: np.ndarray,
                      tol: float) -> list:
    """Values at the radii, one IntegralResult each.

    Each piece is integrated with the PIECE_RULE- and the 2 * PIECE_RULE-
    point rule; the value is the sum of the finer sums, and abs_error the
    sum of the pieces' differences plus a rounding allowance (the
    integrand keeps one sign).  A radius whose error is above tol * max(1, |value|), the
    test of ``_refine``, or that needs more than _MAX_PIECES pieces, is
    integrated by the graded cube integrator instead.  The radii go in
    blocks of about _BLOCK candidate edges, one edge pass per block; the
    pieces of a radius and their summation order depend on that radius
    alone, so a value does not depend on the grid or the block it arrives
    in.
    """
    results = [IntegralResult(0.0, 0.0, IntegralStatus.CONVERGED, 0)] * radii.size

    def graded(i, evaluations):
        res = _graded(spec, setup["profiles"], setup["symbols"], float(radii[i]), tol)
        results[i] = IntegralResult(res.value, res.abs_error, res.status,
                                    res.evaluations + evaluations)

    u = np.log2(radii)
    lower = _lower_limits(setup, u)
    # a radius has at most 2 + breakpoints + grading cuts + steps candidate
    # edges, and at most -1 - lower steps
    width = np.cumsum(2 + _GRADING_ALLOWANCE + sum(rho.size for rho in setup["breaks"])
                      + np.clip(np.ceil(-1.0 - lower), 0, _MAX_PIECES))
    a = 0
    while a < radii.size:
        b = max(a + 1, int(np.searchsorted(width, (width[a - 1] if a else 0.0) + _BLOCK,
                                           side="right")))
        edges, sizes = _block_edges(setup, u[a:b], lower[a:b])
        for i in np.flatnonzero(sizes > _MAX_PIECES).tolist():
            graded(a + i, 0)
        fits = sizes <= _MAX_PIECES
        rows = np.flatnonzero(fits & (sizes > 0))
        sums = _radius_sums(setup, edges[np.repeat(fits, sizes)], sizes[rows], u[a + rows])
        for i, size, (value, diff) in zip((a + rows).tolist(), sizes[rows].tolist(), sums):
            err = diff + ROUNDING * abs(value)
            if math.isfinite(err) and err <= tol * max(1.0, abs(value)):
                results[i] = IntegralResult(value, err, IntegralStatus.CONVERGED,
                                            3 * PIECE_RULE * size)
            else:
                graded(i, 3 * PIECE_RULE * size)
        a = b
    return results


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
    """Pointwise value at |x| = r by the graded cube integrator; min-power
    kernels go to it reduced to n = 1 (``min_reduction``)."""
    kernel = min_reduction(spec.kernel)
    if kernel is not spec.kernel:
        spec = OperatorSpec(spec.m, 1, kernel)
    integrand, reflected, endexp, brks = _operator_integrand(spec, profiles, r, symbols)
    return integrate_unit_cube(integrand, spec.n, tol, endexp, breakpoints=brks,
                               detect_growth=spec.kernel.has_callback(),
                               reflected=reflected)


def _evaluate(spec: OperatorSpec, profiles, symbols, r: float,
              tol: float) -> IntegralResult:
    """Pointwise commutator value at |x| = r; ``symbols = ()`` gives U.

    The closed and piecewise paths run the grid sampler's arithmetic on a
    single radius, so both agree with it bit for bit.
    """
    fast = _fast_setup(spec, profiles)
    if fast is not None:
        res = _closed_values(fast, symbols, np.asarray(float(r)))
        return IntegralResult(_unwrap(res.value), _unwrap(res.abs_error), res.status,
                              res.evaluations)
    setup = _piecewise_setup(spec, profiles, symbols)
    if setup is not None:
        return _piecewise_values(spec, setup, np.asarray([float(r)]), tol)[0]
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
    log2-radius grid at once, and inputs for the piecewise Gauss path in
    blocks of radii; otherwise each radius goes to the graded integrator.
    Any divergent value rejects the profile.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    what = "commutator" if symbols else "operator"

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
        return SampledProfile(tuple(grid.tolist()), tuple(np.abs(res.value).tolist()))

    setup = _piecewise_setup(spec, profiles, symbols)
    if setup is not None:
        results = _piecewise_values(spec, setup, np.exp2(grid), tol)
    else:
        results = (_graded(spec, profiles, symbols, float(2.0 ** u), tol) for u in grid)
    values = []
    for u, res in zip(grid, results):
        if res.status is IntegralStatus.DIVERGENT:
            raise OperatorDivergenceError(f"{what} output is divergent at log2 radius {u}")
        values.append(abs(res.value))
    return SampledProfile(tuple(grid.tolist()), tuple(values))


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
