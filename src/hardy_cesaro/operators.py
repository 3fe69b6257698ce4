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
function for a > -1 and by hypergeometric series for a <= -1
(``quadrature.tail_power_beta``, with graded quadrature beyond the
series' range); a whole log2-radius grid is one array pass per term.

Inputs with no closed form that vanish near 0 (sampled or sum profiles,
with PowerBeta/PowerCurve kernels) are integrated in v = ln t by a fixed
Gauss rule on each piece between the inputs' breakpoints, at two orders,
for blocks of radii at once (``_piecewise_values``).  What remains
(callback kernels, reduced min-power kernels, inputs that do not vanish
near 0, and radii whose two rules disagree) goes through the graded
integrator on [0, 1], radius by radius, with endpoint orders and support
breakpoints derived from the profiles and the kernel.
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
from .quadrature import (PIECE_RULE, IntegralResult, IntegralStatus, KernelSpec, PowerBeta,
                         PowerCurve, _line_verdicts, _unwrap, beta_closed_form,
                         integrate_unit_cube, min_reduction, piece_sums, tail_power_beta)

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

    def integrand(t):
        return kernel.psi_values(t) * factors(t)

    reflected = None
    if kernel.supports_reflection():
        def reflected(u):
            return kernel.psi_values_reflected(u) * factors(1.0 - u, u)

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
        pts = []
        for k, f in enumerate(profiles):
            b = kernel.curves[k].b
            for rho in f.log2_breakpoints():
                t = (2.0 ** rho / r) ** (1.0 / b)
                if 0.0 < t < 1.0:
                    pts.append(t)
        pts = sorted(set(pts))
        if 0 < len(pts) <= 24:
            breakpoints = pts

    return integrand, reflected, (at0, at1), breakpoints


# --------------------------------------------------------------------------
# piecewise Gauss evaluation of inputs with no closed form
#
# With psi = PowerBeta and curves t**b_k, the integrand in v = ln t
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
    it needs a PowerBeta psi, curves t**b with b > 0, inputs with no
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


def _radius_sums(setup: dict, edges: np.ndarray, sizes: np.ndarray, u: np.ndarray,
                 tol: float) -> list:
    """The line verdict (``quadrature._line_verdicts``) at each log2
    radius u, from its ``sizes`` edges in ``edges``, _BLOCK_PIECES pieces
    at a time."""
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
    return _line_verdicts(coarse, fine, sizes.tolist(), tol)


def _piecewise_values(spec: OperatorSpec, setup: dict, radii: np.ndarray,
                      tol: float) -> list:
    """Values at the radii, one IntegralResult each.

    Each piece is integrated with the PIECE_RULE- and the 2 * PIECE_RULE-
    point rule, and a radius takes the line verdict of its pieces
    (``quadrature._line_verdicts``).  A radius whose verdict is not
    converged, or that needs more than _MAX_PIECES pieces, is integrated by
    the graded integrator instead.  The radii go in blocks of about
    _BLOCK candidate edges, one edge pass per block; the pieces of a radius
    and their summation order depend on that radius alone, so a value does
    not depend on the grid or the block it arrives in.
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
        sums = _radius_sums(setup, edges[np.repeat(fits, sizes)], sizes[rows], u[a + rows], tol)
        for i, res in zip((a + rows).tolist(), sums):
            if res.converged:
                results[i] = res
            else:
                graded(i, res.evaluations)
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
