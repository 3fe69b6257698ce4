"""Reference values computed with mpmath, apart from the program.

Nothing here imports hardy_cesaro: every reference rebuilds its integrand
from the plain parameters of a case (exponents, coefficients, grid nodes)
and integrates it with ``mpmath.quad`` at ``DPS`` digits.  Algebraic
endpoint behaviour (t - lo)**a is removed by the substitution
t = lo + x**(1/(1+a)) before tanh-sinh quadrature, which otherwise
cannot reach the mass of strong endpoint singularities.
"""

from __future__ import annotations

import bisect

import mpmath as mp

DPS = 20


def _piece(f, lo, hi, a_lo=0.0, a_hi=0.0):
    """int_lo^hi f(t, 1 - t) dt, with f ~ (t-lo)**a_lo at lo and (hi-t)**a_hi at hi.

    Each half is substituted (t = lo + x**p, p = 1/(1+a_lo); t = hi - y**q,
    q = 1/(1+a_hi)) so the integrand is smooth at the end; near hi = 1 the
    distance 1 - t is passed exactly as y**q.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    mid = (lo + hi) / 2
    p = 1 / (1 + mp.mpf(a_lo))
    q = 1 / (1 + mp.mpf(a_hi))

    def left(x):
        t = lo + x ** p
        return f(t, 1 - t) * p * x ** (p - 1)

    def right(y):
        gap = y ** q
        return f(hi - gap, (1 - hi) + gap) * q * y ** (q - 1)

    return (mp.quad(left, [0, (mid - lo) ** (1 / p)])
            + mp.quad(right, [0, (hi - mid) ** (1 / q)]))


def _pieces(f, cuts, a_lo=0.0, a_hi=0.0):
    """Sum of ``_piece`` over consecutive cuts; endpoint orders at the ends."""
    last = len(cuts) - 2
    return mp.fsum(_piece(f, a, b, a_lo if i == 0 else 0.0, a_hi if i == last else 0.0)
                   for i, (a, b) in enumerate(zip(cuts, cuts[1:])))


def _geometric_cuts(lo, hi):
    """lo, 4 lo, 16 lo, ... below hi/4, then hi: resolves t**a near a small lo."""
    cuts = [mp.mpf(lo)]
    while cuts[-1] * 4 < mp.mpf(hi) / 4:
        cuts.append(cuts[-1] * 4)
    cuts.append(mp.mpf(hi))
    return cuts


# --------------------------------------------------------------------------
# commutator of truncated power laws with power symbols (n = 1)


def commutator_value(psi, curves, profiles, symbols, r):
    """|int_0^1 prod_k f_k(t^b_k r)(b_k(r) - b_k(t^b_k r)) psi(t) dt|.

    psi = (c, e, scale): scale t^c (1-t)^e; curves = [b_k];
    profiles = [(a_k, coefficient_k, inner_radius_k)] for
    f_k(x) = coefficient_k x^a_k on x > inner_radius_k;
    symbols = [(beta_k, coefficient_k)] for b_k(x) = coefficient_k x^beta_k.
    """
    with mp.workdps(DPS):
        c, e, scale = (mp.mpf(x) for x in psi)
        r = mp.mpf(r)
        t0 = max((mp.mpf(R) / r) ** (1 / mp.mpf(b)) for b, (_, _, R) in zip(curves, profiles))
        if t0 >= 1:
            return mp.mpf(0)

        def f(t, s):
            out = scale * t ** c * s ** e
            for b, (a, coef, _), (beta, scoef) in zip(curves, profiles, symbols):
                x = t ** b * r
                out *= mp.mpf(coef) * x ** a
                # b_k(r) - b_k(x) = coef r^beta (1 - t^(b beta)), with s = 1 - t
                out *= mp.mpf(scoef) * r ** beta * -mp.expm1(b * beta * mp.log1p(-s))
            return out

        # each symbol difference vanishes like (1 - t) at t = 1
        return abs(_pieces(f, _geometric_cuts(t0, 1), 0.0, float(e) + len(curves)))


# --------------------------------------------------------------------------
# Hardy-Cesaro operator on log-log interpolated sampled inputs (n = 1)


class LogLogProfile:
    """Own log-log interpolation of (log2 radius, value) nodes.

    Both endpoint values positive: 2**(linear interpolation of log2 v);
    a zero endpoint: linear in the value, clamped at zero.  Boundary
    segments extend beyond the grid.
    """

    def __init__(self, log2_radii, values):
        self.u = [float(x) for x in log2_radii]
        self.v = [mp.mpf(x) for x in values]
        self.w = [mp.log(x, 2) if x > 0 else None for x in self.v]

    def support_start(self):
        """log2 radius below which the profile vanishes (None: never)."""
        return self.u[0] if self.v[0] == 0 else None

    def nodes(self):
        return self.u

    def __call__(self, x):
        u = mp.log(x, 2)
        i = min(max(bisect.bisect_right(self.u, float(u)) - 1, 0), len(self.u) - 2)
        s = (u - self.u[i]) / (self.u[i + 1] - self.u[i])
        if self.w[i] is not None and self.w[i + 1] is not None:
            return 2 ** (self.w[i] + s * (self.w[i + 1] - self.w[i]))
        return max(self.v[i] + s * (self.v[i + 1] - self.v[i]), mp.mpf(0))


class TruncatedPower:
    """coefficient * x**a for x > inner_radius, zero below."""

    def __init__(self, a, coefficient, inner_radius):
        self.a, self.coefficient = mp.mpf(a), mp.mpf(coefficient)
        self.inner_radius = mp.mpf(inner_radius)

    def support_start(self):
        return mp.log(self.inner_radius, 2)

    def nodes(self):
        return [float(mp.log(self.inner_radius, 2))]

    def __call__(self, x):
        return self.coefficient * x ** self.a if x > self.inner_radius else mp.mpf(0)


class Sum:
    def __init__(self, terms):
        self.terms = terms

    def support_start(self):
        starts = [t.support_start() for t in self.terms]
        return None if None in starts else min(starts)

    def nodes(self):
        return sorted({u for t in self.terms for u in t.nodes()})

    def __call__(self, x):
        return mp.fsum(t(x) for t in self.terms)


def operator_value(psi, curves, profiles, r):
    """int_0^1 prod_k f_k(t^b_k r) psi(t) dt, split at the inputs' nodes.

    psi = (c, e, scale); curves = [b_k]; profiles are LogLogProfile,
    TruncatedPower or Sum objects.
    """
    with mp.workdps(DPS):
        c, e, scale = (mp.mpf(x) for x in psi)
        r = mp.mpf(r)
        lo = mp.mpf(0)
        cuts = set()
        for b, prof in zip(curves, profiles):
            start = prof.support_start()
            if start is None:
                raise ValueError("reference needs inputs that vanish near zero")
            lo = max(lo, (2 ** mp.mpf(start) / r) ** (1 / mp.mpf(b)))
            for u in prof.nodes():
                cuts.add((2 ** mp.mpf(u) / r) ** (1 / mp.mpf(b)))
        if lo >= 1:
            return mp.mpf(0)

        def f(t, s):
            out = scale * t ** c * s ** e
            for b, prof in zip(curves, profiles):
                out *= prof(t ** b * r)
            return out

        inner = sorted(t for t in cuts if lo < t < 1)
        return _pieces(f, [lo] + inner + [mp.mpf(1)], 0.0, float(e))


# --------------------------------------------------------------------------
# kernel constants over [0,1]^2 with min-power curves


def min_kernel_constant(factors, scale, curve_betas, exponents, commutator_betas=None):
    """scale * int_{[0,1]^2} phi_1(t1) phi_2(t2) F(min(t1, t2)) dt.

    phi_j(t) = t^c_j (1-t)^e_j for factors = [(c_1, e_1), (c_2, e_2)];
    F(m) = prod_i m^(curve_beta_i * exponent_i), times
    prod_i (1 - m^curve_beta_i)^commutator_beta_i when commutator_betas
    is given.  By the symmetry of min the double integral is

        int_0^1 F(m) [phi_1(m) Phi_2(m) + phi_2(m) Phi_1(m)] dm,
        Phi_j(m) = int_m^1 phi_j = betainc(e_j + 1, c_j + 1, 0, 1 - m).
    """
    with mp.workdps(DPS):
        (c1, e1), (c2, e2) = [(mp.mpf(c), mp.mpf(e)) for c, e in factors]
        power = mp.fsum(mp.mpf(b) * mp.mpf(x) for b, x in zip(curve_betas, exponents))

        def integrand(m, x):
            # x = 1 - m
            F = m ** power
            if commutator_betas is not None:
                for b, beta in zip(curve_betas, commutator_betas):
                    F *= (-mp.expm1(mp.mpf(b) * mp.log1p(-x))) ** mp.mpf(beta)
            big1 = mp.betainc(e1 + 1, c1 + 1, 0, x)
            big2 = mp.betainc(e2 + 1, c2 + 1, 0, x)
            return F * (m ** c1 * x ** e1 * big2 + m ** c2 * x ** e2 * big1)

        a0 = float(min(c1, c2) + power)
        a1 = float(e1 + e2 + 1 + (mp.fsum(commutator_betas) if commutator_betas else 0))
        return mp.mpf(scale) * _piece(integrand, 0, 1, min(a0, 0.0), min(a1, 0.0))
