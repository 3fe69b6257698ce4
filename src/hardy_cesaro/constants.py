"""Named kernel constants and structural constants of the boundedness theory.

Kernel constants are integrals over the unit cube of prod |s_i(t)|**e_i
times psi(t), with kind-specific exponents e_i and, for some kinds, an
extra factor:

    A                  e_i = -(d+gamma_i)/p_i
    A1                 e_i = -alpha_i - (d+gamma_i)/q_i + lambda_i
    A2                 e_i = -(d+gamma_i)/q_i - alpha_i
    XIAO               single-curve, e_1 = -d/p (aggregate p)
    XIAO_LOG           XIAO integrand times log(2/t)
    COMMUTATOR_MH      A1-shaped exponents times prod |1 - s_i(t)|**beta_i
    COMMUTATOR_COR     single-curve, e_1 = -(gamma_1 - lambda - d/q_1),
                       integrand times (1-t)
    COMMUTATOR_COR_PLAIN   the same without the (1-t) factor (the
                       comparison integral that the corollary strictly
                       improves on)

Every kernel is reduced to n = 1 on entry (``quadrature.min_reduction``):
the constants of min-power kernels (ProductPowerBeta psi, MinPower curves)
at n >= 2 are line integrals against the density of min(t), and XIAO_LOG
takes the density of min(t) under psi(t) log(2/t_1)
(``quadrature.LogMinDensity``).  COMMUTATOR_COR needs n = 1.

Every kind is one call of ``quadrature.kernel_power_integral``, with the
kind's factor where it has one.  It takes constants with no closed Beta
form on the piecewise line in v = ln t where their kernel has a PowerBeta
or MinDensity psi and curves t**b with b > 0: A, A1, A2, XIAO and
COMMUTATOR_COR_PLAIN of reduced min-power kernels, COMMUTATOR_MH with
curves t**b, b != 1, or reduced, and XIAO_LOG; pieces of the line that do
not settle are bisected there.  Callback kernels and COMMUTATOR_COR beyond
its folded closed form go to the graded integrator.

A ``Divergent`` status is a valid answer for kernel constants.  The
structural constants (C upper factor, D and E lower factors) are finite
closed-form expressions in the exponents and sphere masses.
"""

from __future__ import annotations

import math
from enum import Enum
from math import fsum
from typing import Optional, Sequence

import numpy as np

from .numerics import LN2, one_minus_pow2_over, pow2m1, pow2m1_over
from .parameters import ExponentSet, derive_aggregates
from .quadrature import (IntegralResult, KernelFactor, KernelSpec, LogMinDensity, MinDensity,
                         PowerBeta, PowerCurve, kernel_power_integral, min_reduction)
from .weights import HomogeneousWeight, product_weight


class ConstantKind(Enum):
    A = "A"
    A1 = "A1"
    A2 = "A2"
    XIAO = "Xiao"
    XIAO_LOG = "XiaoLog"
    COMMUTATOR_MH = "CommutatorMH"
    COMMUTATOR_COR = "CommutatorCor"
    COMMUTATOR_COR_PLAIN = "CommutatorCorPlain"


class StructuralKind(Enum):
    C_UPPER = "C_upper"
    D_LOWER = "D_lower"
    E_LOWER = "E_lower"


def _kind_exponents(kind: ConstantKind, e: ExponentSet) -> list:
    agg = derive_aggregates(e)
    d = e.d
    if kind is ConstantKind.A:
        return [-(d + g) / p for g, p in zip(e.gamma_i, e.p_i)]
    if kind is ConstantKind.A1 or kind is ConstantKind.COMMUTATOR_MH:
        return [-a - (d + g) / q + lam
                for a, g, q, lam in zip(e.alpha_i, e.gamma_i, e.q_i, e.lambda_i)]
    if kind is ConstantKind.A2:
        return [-(d + g) / q - a for a, g, q in zip(e.alpha_i, e.gamma_i, e.q_i)]
    if kind in (ConstantKind.XIAO, ConstantKind.XIAO_LOG):
        return [-d / agg.p]
    if kind in (ConstantKind.COMMUTATOR_COR, ConstantKind.COMMUTATOR_COR_PLAIN):
        return [-(e.gamma_i[0] - agg.lam - d / e.q_i[0])]
    raise ValueError(f"unknown kind {kind!r}")  # pragma: no cover


def kernel_constant(kind: ConstantKind, exponents: ExponentSet,
                    kernel: KernelSpec, tol: float = 1e-10) -> IntegralResult:
    """Evaluate the kind's kernel integral; Divergent is a valid verdict."""
    if kind in (ConstantKind.XIAO, ConstantKind.XIAO_LOG,
                ConstantKind.COMMUTATOR_COR, ConstantKind.COMMUTATOR_COR_PLAIN):
        if kernel.m != 1:
            raise ValueError(f"{kind.value} requires a single-curve kernel")
    elif kernel.m != exponents.m:
        raise ValueError(f"kernel has {kernel.m} curves, exponent set has m={exponents.m}")
    if kind is ConstantKind.COMMUTATOR_COR and kernel.n != 1:
        # its (1 - t) factor is one-dimensional
        raise ValueError("CommutatorCor requires n = 1")
    kernel = min_reduction(kernel)
    e = _kind_exponents(kind, exponents)

    if kind in (ConstantKind.A, ConstantKind.A1, ConstantKind.A2, ConstantKind.XIAO,
                ConstantKind.COMMUTATOR_COR_PLAIN):
        return kernel_power_integral(kernel, e, tol)

    if kind is ConstantKind.COMMUTATOR_COR:
        if kernel.is_power_closed():
            folded = KernelSpec(1, PowerBeta(kernel.psi.c, kernel.psi.e + 1.0,
                                             kernel.psi.scale), kernel.curves)
            return kernel_power_integral(folded, e, tol)
        return kernel_power_integral(kernel, e, tol, KernelFactor(
            lambda t: 1.0 - t, lambda u: u, lambda v: -np.expm1(v), (0.0, 1.0)))

    if kind is ConstantKind.COMMUTATOR_MH:
        if exponents.beta_i is None:
            raise ValueError("CommutatorMH requires beta_i")
        betas = exponents.beta_i
        if kernel.is_power_closed() and all(s.b == 1.0 for s in kernel.curves):
            folded = KernelSpec(1, PowerBeta(kernel.psi.c,
                                             kernel.psi.e + fsum(betas),
                                             kernel.psi.scale), kernel.curves)
            return kernel_power_integral(folded, e, tol)

        def commutator_factor(t, u=None):
            # |1 - s_i(t)|**beta_i; for power curves near t = 1 the base is
            # computed from u = 1 - t to avoid cancellation
            out = 1.0
            for i, beta in enumerate(betas):
                s = kernel.curves[i]
                if u is not None and isinstance(s, PowerCurve):
                    base = np.abs(-np.expm1(s.b * np.log1p(-u)))
                else:
                    base = np.abs(1.0 - np.abs(kernel.curve_values(i, t)))
                out = out * base ** beta
            return out

        def line_factor(v):
            # on the line of curves t**b, b > 0: 1 - t**b = -expm1(b v)
            return math.prod((-np.expm1(s.b * v)) ** beta
                             for s, beta in zip(kernel.curves, betas))

        shift = (fsum(b * kernel.curve_zero_exponent(i) for i, b in enumerate(betas)
                      if kernel.curve_zero_exponent(i) < 0),
                 fsum(b for i, b in enumerate(betas) if kernel.curve_tends_to_one(i)))
        return kernel_power_integral(kernel, e, tol, KernelFactor(
            commutator_factor, lambda u: commutator_factor(1.0 - u, u), line_factor, shift))

    # XIAO_LOG: a reduced min-power kernel takes the log into its density;
    # otherwise log(2/t) = ln 2 - v on the line
    psi = kernel.psi
    if isinstance(psi, MinDensity):
        return kernel_power_integral(KernelSpec(1, LogMinDensity(psi.factors, psi.scale,
                                                                 psi.power), kernel.curves),
                                     e, tol)
    return kernel_power_integral(kernel, e, tol, KernelFactor(
        lambda t: np.log(2.0 / t), lambda u: np.log(2.0 / (1.0 - u)), lambda v: LN2 - v,
        (0.0, 0.0)))


def structural_constant(kind: StructuralKind, exponents: ExponentSet,
                        weights: Optional[Sequence[HomogeneousWeight]] = None) -> float:
    """Closed-form structural factor of the stated inequality.

    C_UPPER needs no weights; D_LOWER and E_LOWER include the sphere-mass
    ratio of the product weight against the factor weights.
    """
    e = exponents
    agg = derive_aggregates(e)

    if kind is StructuralKind.C_UPPER:
        value = math.prod(2.0 ** abs(a - lam) + 1.0
                          for a, lam in zip(e.alpha_i, e.lambda_i))
        if agg.p < 1.0:
            if agg.lam <= 0.0:
                raise ValueError("0<p<1 requires lambda>0")
            value *= 2.0 ** agg.lam / pow2m1(agg.lam * agg.p) ** (1.0 / agg.p)
        return value

    if weights is None or len(weights) != e.m:
        raise ValueError(f"{kind.value} needs the {e.m} factor weights")
    product = product_weight(weights, e.q_i, agg.q, d=e.d)
    mass_ratio = product.sphere_mass ** (1.0 / agg.q) / math.prod(
        w.sphere_mass ** (1.0 / qi) for w, qi in zip(weights, e.q_i))

    if kind is StructuralKind.D_LOWER:
        if agg.lam <= agg.alpha:
            raise ValueError("D_lower requires lambda > alpha")
        for i, (a, lam) in enumerate(zip(e.alpha_i, e.lambda_i)):
            if lam <= a:
                raise ValueError(f"D_lower requires lambda_i > alpha_i (factor {i})")
            if lam <= 0:
                raise ValueError(f"D_lower requires lambda_i > 0 (factor {i})")
        lead = math.prod(pow2m1(lam * p) ** (1.0 / p)
                         for lam, p in zip(e.lambda_i, e.p_i))
        lead /= pow2m1(agg.lam * agg.p) ** (1.0 / agg.p)
        x = agg.q * (agg.lam - agg.alpha)
        mid = one_minus_pow2_over(x) ** (1.0 / agg.q)
        for a, lam, q in zip(e.alpha_i, e.lambda_i, e.q_i):
            mid /= one_minus_pow2_over(q * (lam - a)) ** (1.0 / q)
        return lead * mid * mass_ratio

    if kind is StructuralKind.E_LOWER:
        lead = (e.m * agg.p) ** (1.0 / agg.p) / math.prod(
            p ** (1.0 / p) for p in e.p_i)
        mid = pow2m1_over(agg.q * agg.alpha) ** (1.0 / agg.q)
        for a, q in zip(e.alpha_i, e.q_i):
            mid /= pow2m1_over(q * a) ** (1.0 / q)
        return lead * mid * mass_ratio

    raise ValueError(f"unknown kind {kind!r}")  # pragma: no cover
