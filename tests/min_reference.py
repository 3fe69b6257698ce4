"""mpmath references for min-power kernels, built apart from the package.

With psi(t) = scale * prod_j t_j**c_j (1-t_j)**e_j on [0,1]^n and an
integrand F(m) of m = min(t) alone,

    int_{[0,1]^n} F(m) psi(t) dt = int_0^1 F(m) g(m) dm,
    g(m) = scale * sum_j phi_j(m) prod_{i != j} Phi_i(m),

with phi_j(m) = m**c_j (1-m)**e_j and Phi_i(m) = int_m^1 phi_i, since
the coordinate j that is the minimum has density phi_j(m) and every other
coordinate lies above m.  In u = 1 - m, Phi_i(m) = int_0^u y**e_i
(1-y)**c_i dy = u**(e_i+1)/(e_i+1) 2F1(e_i+1, -c_i; e_i+2; u) (DLMF
8.17.7), finite for u < 1 at every c_i, c_i = -1 included.
"""

import mpmath

DPS = 30


def _tail(c, e, m, u):
    """Phi(m) = int_m^1 t**c (1-t)**e dt, given m and u = 1 - m."""
    if u == 1 and c <= -1:
        # m lies below the working precision, where Phi is infinite at
        # u = 1 itself: take u at a precision that keeps m
        with mpmath.workdps(mpmath.mp.dps + int(-mpmath.log10(m)) + 10):
            return +_tail(c, e, m, 1 - m)
    return u ** (e + 1) / (e + 1) * mpmath.hyp2f1(e + 1, -c, e + 2, u)


def density(factors, scale, m, u):
    """g(m), given m and u = 1 - m (both mpmath numbers)."""
    phis = [m ** c * u ** e for c, e in factors]
    tails = [_tail(c, e, m, u) for c, e in factors]
    return scale * mpmath.fsum(
        phi * mpmath.fprod(tail for i, tail in enumerate(tails) if i != j)
        for j, phi in enumerate(phis))


def integral(f, lo, a_lo, a_hi):
    """int_lo^1 f(m, 1 - m) dm for f ~ (m - lo)**a_lo at lo and
    (1 - m)**a_hi at 1.

    Each half is substituted (m = lo + x**p, p = 1/(1 + min(a_lo, 0)); the
    distance to 1 as y**q, q = 1/(1 + min(a_hi, 0))) so that tanh-sinh
    quadrature sees no endpoint singularity; the distance 1 - m near 1 is
    passed exactly.
    """
    lo = mpmath.mpf(lo)
    mid = (1 + lo) / 2
    p = 1 / (1 + mpmath.mpf(min(a_lo, 0.0)))
    q = 1 / (1 + mpmath.mpf(min(a_hi, 0.0)))

    def left(x):
        m = lo + x ** p
        return f(m, 1 - m) * p * x ** (p - 1)

    def right(y):
        u = y ** q
        return f(1 - u, u) * q * y ** (q - 1)

    return (mpmath.quad(left, [0, (mid - lo) ** (1 / p)])
            + mpmath.quad(right, [0, (1 - mid) ** (1 / q)]))


def min_kernel_constant(factors, scale, curve_betas, exponents, commutator_betas=()):
    """int over [0,1]^n of prod_i min(t)**(b_i e_i) psi(t) dt, times
    prod_i (1 - min(t)**b_i)**beta_i for CommutatorMH's ``commutator_betas``."""
    with mpmath.workdps(DPS):
        factors = [(mpmath.mpf(c), mpmath.mpf(e)) for c, e in factors]
        power = mpmath.fsum(mpmath.mpf(b) * x for b, x in zip(curve_betas, exponents))

        def f(m, u):
            out = m ** power * density(factors, scale, m, u)
            for b, beta in zip(curve_betas, commutator_betas):
                out *= (-mpmath.expm1(b * mpmath.log1p(-u))) ** beta
            return out

        a_lo = float(min(c for c, _ in factors) + power)
        a_hi = float(mpmath.fsum(e + 1 for _, e in factors) - 1) + sum(commutator_betas)
        return integral(f, 0, a_lo, a_hi)


def log_min_kernel_constant(factors, scale, curve_beta, exponent):
    """int over [0,1]^n of min(t)**(b e) psi(t) log(2/t_1) dt: the density
    of m under psi(t) log(2/t_1) is that of ``density`` with phi_1(m) times
    log(2/m) and Phi_1 replaced by Psi_1(m) = int_m^1 log(2/t) phi_1(t) dt
    = ln 2 I - dI/dc_1, I = int_0^u y**e_1 (1-y)**c_1 dy (u = 1 - m, exact
    near m = 1)."""
    with mpmath.workdps(DPS):
        factors = [(mpmath.mpf(c), mpmath.mpf(e)) for c, e in factors]
        c1, e1 = factors[0]
        power = mpmath.mpf(curve_beta) * exponent

        def f(m, u):
            phis = [m ** c * u ** e for c, e in factors]
            phis[0] *= mpmath.log(2 / m)
            tails = [mpmath.betainc(e + 1, c + 1, 0, u) for c, e in factors]
            tails[0] = mpmath.log(2) * tails[0] - mpmath.diff(
                lambda c: mpmath.betainc(e1 + 1, c + 1, 0, u), c1)
            return scale * m ** power * mpmath.fsum(
                phi * mpmath.fprod(tail for i, tail in enumerate(tails) if i != j)
                for j, phi in enumerate(phis))

        a_lo = float(min(c for c, _ in factors) + power)
        a_hi = float(mpmath.fsum(e + 1 for _, e in factors) - 1)
        return integral(f, 0, a_lo, a_hi)
