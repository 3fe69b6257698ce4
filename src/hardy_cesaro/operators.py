"""Weighted multilinear Hardy-Cesaro operator and Lipschitz-symbol commutator.

The operator maps m radial profiles to

    U(f_1..f_m)(x) = int_{[0,1]^n} prod_k f_k(|s_k(t)| |x|) psi(t) dt,

so on radial data only the moduli |s_k(t)| enter.  The commutator carries
the extra factor prod_k (b_k(x) - b_k(s_k(t) x)) with power symbols
b_k(x) = c_k |x|**beta_k, which reduces to
c_k r**beta_k (1 - |s_k(t)|**beta_k).

Power-shaped instances are evaluated in closed form: pure power-law
inputs with PowerBeta/PowerCurve kernels produce exact power-law outputs
(Beta-function coefficients), and truncated power laws reduce to
incomplete-Beta tail integrals.  Everything else goes through the graded
cube integrator with endpoint orders and support breakpoints derived from
the profiles and the kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc

from .profiles import (PowerLaw, RadialProfile, SampledProfile, ScaledProfile,
                       TruncatedPowerLaw)
from .quadrature import (IntegralResult, IntegralStatus, KernelSpec, PowerBeta,
                         PowerCurve, beta_closed_form, integrate_unit_cube)

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


def _fast_setup(spec: OperatorSpec, profiles: Sequence[RadialProfile]):
    kernel = spec.kernel
    if not (kernel.n == 1 and isinstance(kernel.psi, PowerBeta)):
        return None
    if not all(isinstance(s, PowerCurve) and s.b > 0 for s in kernel.curves):
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


def _t_lower(fast: dict, r: float) -> float:
    t0 = 0.0
    for b, R in zip(fast["bs"], fast["radii"]):
        if R > 0.0:
            t0 = max(t0, (R / r) ** (1.0 / b))
    return t0


def tail_power_beta(a: float, e: float, t0: float, tol: float = 1e-10) -> IntegralResult:
    """int_{t0}^{1} t**a (1-t)**e dt for t0 in [0, 1].

    t0 = 0 is the complete Beta function; t0 > 0 with a > -1 uses the
    regularized incomplete Beta; a <= -1 with t0 > 0 substitutes u = 1 - t
    (the singularity then sits at u = 0, fully resolvable by grading).
    """
    if t0 >= 1.0:
        return IntegralResult(0.0, 0.0, IntegralStatus.CONVERGED, 0)
    if e <= -1.0:
        return IntegralResult(math.inf, math.inf, IntegralStatus.DIVERGENT, 0)
    if t0 <= 0.0:
        return beta_closed_form(a, e)
    if a > -1.0:
        total = beta_closed_form(a, e)
        frac = float(betainc(a + 1.0, e + 1.0, t0))
        value = total.value * (1.0 - frac)
        return IntegralResult(value, 16.0 * _EPS * total.value,
                              IntegralStatus.CONVERGED, 0)

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
        # u is 1 - t when evaluating in reflected coordinates
        out = None
        for k, f in enumerate(profiles):
            s = np.abs(kernel.curve_values(k, t))
            if np.any(s == 0.0):
                raise ValueError("curve vanished at a quadrature node")
            term = f.evaluate(s * r)
            if symbols:
                sym = symbols[k]
                curve = kernel.curves[k]
                if u is not None and isinstance(curve, PowerCurve):
                    gap = -np.expm1(sym.beta * curve.b * np.log1p(-u))
                else:
                    gap = 1.0 - s ** sym.beta
                term = term * (sym.coefficient * r ** sym.beta * gap)
            out = term if out is None else out * term
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
# operator application
#
# The commutator integrand prod_k f_k(s_k r) (b_k(r) - b_k(s_k r)) psi
# expands into 2^m signed power integrals, one per subset of the symbols;
# with no symbols the single empty subset is the operator itself.


def _expansion(fast: dict, symbols, r: float, integral) -> IntegralResult:
    """Power-shaped value at radius r: the signed sum over subsets S of the
    symbols of integral(c + sum_k a_k b_k + sum_{k in S} beta_k b_k).

    A term that is not converged makes the sum not converged; a divergent
    term is returned as it is.
    """
    coeff = math.prod(fast["coeffs"]) * math.prod(s.coefficient for s in symbols)
    if coeff == 0.0:
        return IntegralResult(0.0, 0.0, IntegralStatus.CONVERGED, 0)
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


def _evaluate(spec: OperatorSpec, profiles, symbols, r: float,
              tol: float) -> IntegralResult:
    """Pointwise commutator value at |x| = r; ``symbols = ()`` gives U."""
    fast = _fast_setup(spec, profiles)
    if fast is None:
        integrand, reflected, endexp, brks = _operator_integrand(spec, profiles, r, symbols)
        return integrate_unit_cube(integrand, spec.n, tol, endexp, breakpoints=brks,
                                   detect_growth=spec.kernel.has_callback(),
                                   reflected=reflected)
    t0 = _t_lower(fast, r)
    return _expansion(fast, symbols, r, lambda a: tail_power_beta(a, fast["e"], t0, tol))


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


def _sample(spec: OperatorSpec, profiles, symbols, grid, point) -> RadialProfile:
    """|output| as a radial profile; ``point(r)`` is the pointwise value.

    Pure power-law inputs with power-shaped kernels give the exact output
    PowerLaw; otherwise |point(2**u)| is sampled on the log2-radius grid.
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

    values = []
    for u in grid:
        res = point(float(2.0 ** u))
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
    return _sample(spec, profiles, (), grid,
                   lambda r: apply_hardy_cesaro(spec, profiles, r, tol))


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
    return _sample(spec, profiles, symbols, grid,
                   lambda r: apply_commutator(spec, profiles, symbols, r, tol))
