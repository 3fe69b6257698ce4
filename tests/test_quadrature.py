import gc
import importlib
import math
import sys
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_cesaro import quadrature
from hardy_cesaro.quadrature import (CurveCallback, IntegralStatus, KernelSpec,
                                     MinDensity, MinPower, PowerBeta, PowerCurve,
                                     ProductPowerBeta, PsiCallback,
                                     beta_closed_form, beta_tail, gauss_jacobi,
                                     gauss_laguerre, gauss_legendre, integrate_unit_cube,
                                     kernel_power_integral, min_reduction,
                                     power_law_integrand)


def test_constant_integrand():
    res = integrate_unit_cube(lambda t: np.ones_like(t), 1, 1e-10, [(0.0, 0.0)])
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_inverse_sqrt_at_zero():
    res = integrate_unit_cube(lambda t: t ** -0.5, 1, 1e-10, [(-0.5, 0.0)])
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.abs_error <= 1e-10 * max(1.0, res.value)


def test_declared_divergence_is_structural():
    res = integrate_unit_cube(lambda t: 1.0 / (1.0 - t), 1, 1e-8, [(0.0, -1.0)])
    assert res.status is IntegralStatus.DIVERGENT
    assert res.evaluations == 0


def test_growth_detection_fallback():
    # harmonic singularity at 0 hidden behind an optimistic declaration
    res = integrate_unit_cube(lambda t: 1.0 / t, 1, 1e-8, [(-0.5, 0.0)])
    assert res.status is IntegralStatus.DIVERGENT


def test_two_dimensional_product():
    res = integrate_unit_cube(lambda p: p[:, 0] * p[:, 1], 2, 1e-10,
                              [(0.0, 0.0), (0.0, 0.0)])
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(0.25, abs=1e-10)


def test_budget_exhaustion_is_inconclusive():
    res = integrate_unit_cube(lambda t: t ** -0.97, 1, 1e-13, [(-0.97, 0.0)],
                              budget=5000)
    assert res.status is IntegralStatus.INCONCLUSIVE


def test_vanishing_face_declaration():
    def f(t):
        return np.where(t > 0.5, (t - 0.5) ** 2, 0.0)

    res = integrate_unit_cube(f, 1, 1e-10, [(math.inf, 0.0)], breakpoints=[0.5])
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(0.5 ** 3 / 3.0, rel=1e-10)


def test_interior_breakpoint_jump():
    def f(t):
        return np.where(t > 0.3, 1.0, 0.0)

    res = integrate_unit_cube(f, 1, 1e-12, [(0.0, 0.0)], breakpoints=[0.3])
    assert res.value == pytest.approx(0.7, abs=1e-12)


def test_tolerance_range_enforced():
    with pytest.raises(ValueError):
        integrate_unit_cube(lambda t: t, 1, 1e-1, [(0.0, 0.0)])
    with pytest.raises(ValueError):
        integrate_unit_cube(lambda t: t, 4, 1e-8, None)


def test_beta_closed_form_examples():
    assert beta_closed_form(0.0, 0.0).value == pytest.approx(1.0, rel=1e-14)
    assert beta_closed_form(-0.5, 0.0).value == pytest.approx(2.0, rel=1e-14)
    assert beta_closed_form(-1.0, 0.0).status is IntegralStatus.DIVERGENT
    assert beta_closed_form(0.0, -1.2).status is IntegralStatus.DIVERGENT


def test_kernel_power_integral_examples():
    k = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0),))
    assert kernel_power_integral(k, [-0.5]).value == pytest.approx(2.0, rel=1e-12)
    assert kernel_power_integral(k, [-1.0]).status is IntegralStatus.DIVERGENT
    # psi(t) = t/(1-t) with e_1 = -1: the integrand is 1/(1-t), divergent
    ktxz = KernelSpec(1, PowerBeta(1.0, -1.0), (PowerCurve(1.0),))
    assert kernel_power_integral(ktxz, [-1.0]).status is IntegralStatus.DIVERGENT
    # folding the cutoff by hand gives the convergent value 1
    kfold = KernelSpec(1, PowerBeta(1.0, 0.0), (PowerCurve(1.0),))
    assert kernel_power_integral(kfold, [-1.0]).value == pytest.approx(1.0, rel=1e-12)


def test_kernel_scale_factor():
    k = KernelSpec(1, PowerBeta(0.0, 0.0, scale=2.0), (PowerCurve(1.0),))
    assert kernel_power_integral(k, [-0.5]).value == pytest.approx(4.0, rel=1e-12)


def test_numeric_matches_beta_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = float(rng.uniform(-0.89, 2.0))
        e = float(rng.uniform(-0.89, 2.0))
        k = KernelSpec(1, PowerBeta(0.0, e), (PowerCurve(1.0),))
        integrand, reflected, endexp = power_law_integrand(k, [a])
        res = integrate_unit_cube(integrand, 1, 1e-8, endexp, reflected=reflected)
        exact = beta_closed_form(a, e).value
        assert res.status is IntegralStatus.CONVERGED
        assert abs(res.value - exact) <= 5e-8 * max(1.0, exact)


def test_halving_tol_never_flips_converged_to_divergent():
    rng = np.random.default_rng(37)
    for _ in range(15):
        a = float(rng.uniform(-0.85, 1.0))
        e = float(rng.uniform(-0.85, 1.0))
        k = KernelSpec(1, PowerBeta(0.0, e), (PowerCurve(1.0),))
        integrand, reflected, endexp = power_law_integrand(k, [a])
        first = integrate_unit_cube(integrand, 1, 1e-6, endexp, reflected=reflected)
        second = integrate_unit_cube(integrand, 1, 5e-7, endexp, reflected=reflected)
        assert first.status is IntegralStatus.CONVERGED
        assert second.status is not IntegralStatus.DIVERGENT


def test_min_power_two_dimensional():
    # the diagonal kink of min(t1, t2) limits the tensor mesh to ~h^2
    # convergence, so the tolerance is modest
    k = KernelSpec(2, ProductPowerBeta(((0.0, 0.0), (0.0, 0.0))), (MinPower(1.0),))
    res = kernel_power_integral(k, [1.0], tol=1e-4)
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-4)


def _min_kernel_reference(c1, e1, c2, e2, power):
    """int over [0,1]^2 of min(t1, t2)**power t1^c1 (1-t1)^e1 t2^c2 (1-t2)^e2.

    By the symmetry of min this is int_0^1 m^power [phi_1 Phi_2 + phi_2 Phi_1] dm
    with phi_j(m) = m^c_j (1-m)^e_j and Phi_j(m) = int_m^1 phi_j.
    """
    with mpmath.workdps(20):
        def f(m):
            tail1 = mpmath.betainc(c1 + 1, e1 + 1, m, 1)
            tail2 = mpmath.betainc(c2 + 1, e2 + 1, m, 1)
            return m ** power * (m ** c1 * (1 - m) ** e1 * tail2
                                 + m ** c2 * (1 - m) ** e2 * tail1)
        return mpmath.quad(f, [0, 0.5, 1])


def test_abs_error_covers_third_level_min_power_constant():
    # converges on the third refinement level, where the last level
    # difference alone is below the true error
    (c1, e1), (c2, e2) = factors = ((0.15, 0.33), (-0.22, -0.17))
    k = KernelSpec(2, ProductPowerBeta(factors), (MinPower(1.24),))
    res = kernel_power_integral(k, [-0.21], tol=1e-4)
    assert res.status is IntegralStatus.CONVERGED
    exact = _min_kernel_reference(c1, e1, c2, e2, 1.24 * -0.21)
    assert abs(res.value - exact) <= res.abs_error


def test_callback_psi_self_test():
    good = PsiCallback(lambda t: t ** 0.5, ((0.5, 0.0),))
    KernelSpec(1, good, (PowerCurve(1.0),))
    bad = PsiCallback(lambda t: t ** 2.0, ((0.5, 0.0),))
    with pytest.raises(ValueError):
        KernelSpec(1, bad, (PowerCurve(1.0),))


def test_callback_curve_self_test():
    good = CurveCallback(lambda t: t * (1.0 + 0.1 * t), 1.0)
    KernelSpec(1, PowerBeta(0.0, 0.0), (good,))
    lying = CurveCallback(lambda t: t ** 3, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(1, PowerBeta(0.0, 0.0), (lying,))
    vanishing = CurveCallback(lambda t: np.maximum(t - 0.5, 0.0), 1.0)
    with pytest.raises(ValueError):
        KernelSpec(1, PowerBeta(0.0, 0.0), (vanishing,))


def test_kernel_dimension_checks():
    with pytest.raises(ValueError):
        KernelSpec(2, PowerBeta(0.0, 0.0), (MinPower(1.0),))
    with pytest.raises(ValueError):
        KernelSpec(1, PowerBeta(0.0, 0.0), ())


def test_dropped_fresh_import_is_released():
    # a module-level typing.Union of the kernel descriptors used to sit in
    # typing's cache and keep every freshly imported copy of the package
    # alive (about 0.17 MB each)
    def ours():
        return [k for k in sys.modules if k == "hardy_cesaro" or k.startswith("hardy_cesaro.")]

    saved = {k: sys.modules[k] for k in ours()}
    try:
        for k in saved:
            del sys.modules[k]
        fresh = importlib.import_module("hardy_cesaro.quadrature")
        assert fresh is not saved["hardy_cesaro.quadrature"]
        ref = weakref.ref(fresh.KernelSpec)
        del fresh
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("anchors, hi", [((), 0.5), ((), 1.0), ((1e-3,), 0.5), ((1e-9, 0.3), 1.0)])
def test_capped_zero_grading_keeps_nodes_normal(anchors, hi):
    # grading toward t = 0 used to reach depth 600, where 15 nodes sat at
    # exactly 0.0 and about 300 were subnormal
    tiny = np.finfo(float).tiny
    breaks = quadrature._compose_axis(anchors, 4 * quadrature._MAX_ZERO_DEPTH, 1e-3,
                                      0.0, hi, deep_lo=True)
    nodes, weights = quadrature._axis_nodes(breaks)
    assert np.all(nodes >= tiny) and np.all(weights >= tiny)


def test_strong_endpoint_singularity_is_finite():
    # the grading cap leaves mass 1e-9 below the innermost cell unresolved:
    # an honest inconclusive, where nodes at 0.0 used to give NaN
    res = integrate_unit_cube(lambda t: t ** -0.97, 1, 1e-10, [(-0.97, 0.0)])
    assert math.isfinite(res.value) and math.isfinite(res.abs_error)
    assert res.status is IntegralStatus.INCONCLUSIVE
    assert abs(res.value - 100.0 / 3.0) <= res.abs_error


@pytest.mark.parametrize("n", [1, 5, 16, 32])
@pytest.mark.parametrize("alpha", [0.0, -0.97, -0.5, 0.3, 2.5])
def test_gauss_rules_integrate_polynomials_exactly(n, alpha):
    x, w = gauss_legendre(n)
    assert np.array_equal(x, np.polynomial.legendre.leggauss(n)[0])
    assert np.array_equal(w, np.polynomial.legendre.leggauss(n)[1])
    xj, wj = gauss_jacobi(n, alpha)
    assert np.all(np.diff(xj) > 0) and np.all(wj > 0)
    # int_{-1}^{1} (1-x)**alpha x**k dx = 2**(alpha+1) sum_j C(k, j) (-2)**j / (alpha+j+1)
    mass = 2.0 ** (alpha + 1.0) / (alpha + 1.0)
    with mpmath.workdps(60):
        for k in range(2 * n):
            a = mpmath.mpf(alpha)
            want = 2 ** (a + 1) * mpmath.fsum(
                math.comb(k, j) * mpmath.mpf(-2) ** j / (a + j + 1) for j in range(k + 1))
            assert abs(float(np.dot(wj, xj ** k)) - float(want)) <= 5e-14 * mass


@pytest.mark.parametrize("n", [1, 16, 32])
def test_gauss_laguerre_moments_to_relative_precision(n):
    # int_0^inf e^-x x**k dx = k!; the high moments sit on the largest
    # nodes, whose weights (down to 1e-49) must be right to rounding too
    x, w = gauss_laguerre(n)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    for k in range(2 * n):
        assert float(np.dot(w, x ** k)) == pytest.approx(math.factorial(k), rel=2e-14)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("alpha", [-0.99, 0.7, 9.5, 40.0])
def test_gauss_jacobi_moments_to_relative_precision(n, alpha):
    # int_{-1}^{1} (1-x)**alpha (1+x)**j dx = 2**(alpha+j+1) B(alpha+1, j+1);
    # for large j or alpha the moment sits on the few nodes nearest x = 1
    x, w = gauss_jacobi(n, alpha)
    with mpmath.workdps(30):
        for j in range(2 * n):
            want = 2 ** (mpmath.mpf(alpha) + j + 1) * mpmath.beta(alpha + 1, j + 1)
            assert float(np.dot(w, (1.0 + x) ** j)) == pytest.approx(float(want), rel=2e-14)


def test_gauss_jacobi_rejects_nonintegrable_weight():
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.0)


@pytest.mark.parametrize("a", [-0.6, -0.9, -0.97])
def test_abs_error_covers_the_cell_rule_error(a):
    # the 12-point rule has the same relative error (1e-12 at a = -0.6,
    # 3.5e-12 at a = -0.9) on every graded cell of t**a, which no level
    # difference shows: at a = -0.9 the value used to miss 1/(a+1) by 6.7
    # times its abs_error
    res = integrate_unit_cube(lambda t: t ** a, 1, 1e-10, [(a, 0.0)],
                              reflected=lambda u: (1.0 - u) ** a)
    assert abs(res.value - 1.0 / (a + 1.0)) <= res.abs_error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [-0.85, -0.4, 0.0, 0.6, 2.3])
def test_min_power_matches_closed_form(n, p):
    # int_{[0,1]^n} min(t)**p dt = n B(p + 1, n): P(min(t) > m) = (1 - m)**n
    beta = 1.3
    k = KernelSpec(n, ProductPowerBeta(((0.0, 0.0),) * n), (MinPower(beta),))
    res = kernel_power_integral(k, [p / beta])
    exact = n * math.exp(math.lgamma(p + 1.0) + math.lgamma(n) - math.lgamma(p + 1.0 + n))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - exact) <= res.abs_error
    assert abs(res.value - exact) <= 1e-11 * exact


def test_min_reduction_descriptor():
    factors = ((0.3, -0.2), (-0.5, 0.4), (0.1, 0.0))
    k = KernelSpec(3, ProductPowerBeta(factors, 1.5), (MinPower(0.7), MinPower(0.9)))
    r = min_reduction(k)
    assert r.n == 1 and r.psi == MinDensity(factors, 1.5)
    assert r.curves == (PowerCurve(0.7), PowerCurve(0.9))
    assert r.supports_reflection() and not r.is_power_closed()
    # orders: min c_j at m = 0, sum (e_j + 1) - 1 at m = 1
    assert r.psi_endpoint_exponents() == [(-0.5, pytest.approx(2.2))]
    u = np.array([1e-300, 1e-9, 0.25, 0.5])
    assert np.array_equal(r.psi_values_reflected(u), r.psi.values(1.0 - u, u))
    # a curve steeper than m: the variable is v = m**1.2, and the density
    # carries dm/dv, with order (-0.5 + 1)/1.2 - 1 at v = 0
    k = KernelSpec(3, ProductPowerBeta(factors, 1.5), (MinPower(0.6), MinPower(1.2)))
    r = min_reduction(k)
    assert r.psi == MinDensity(factors, 1.5, 1.2)
    assert r.curves == (PowerCurve(0.5), PowerCurve(1.0))
    assert r.psi_endpoint_exponents() == [(pytest.approx(-7.0 / 12.0), pytest.approx(2.2))]
    v = np.array([1e-300, 1e-9, 0.25, 0.5, 0.75])
    m = v ** (1.0 / 1.2)
    want = MinDensity(factors, 1.5).values(m, 1.0 - m) * m / (1.2 * v)
    assert np.allclose(r.psi_values(v), want, rtol=1e-13, atol=0.0)
    for kernel in (KernelSpec(1, PowerBeta(0.3, 0.2), (PowerCurve(1.0),)),
                   KernelSpec(2, ProductPowerBeta(((0.0, -1.0), (0.0, 0.0))), (MinPower(1.0),)),
                   KernelSpec(2, ProductPowerBeta(((-1.2, 0.0), (0.0, 0.0))), (MinPower(1.0),))):
        assert min_reduction(kernel) is kernel
    with pytest.raises(ValueError):
        MinDensity(((0.0, -1.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        KernelSpec(2, MinDensity(((0.0, 0.0), (0.0, 0.0))), (MinPower(1.0),))


def test_min_power_divergent_verdicts_are_kept():
    # some e_j <= -1: the cube path's structural verdict, no evaluation
    k = KernelSpec(2, ProductPowerBeta(((0.2, -1.0), (0.1, 0.3))), (MinPower(1.0),))
    res = kernel_power_integral(k, [0.5])
    assert res.status is IntegralStatus.DIVERGENT and res.evaluations == 0
    # min_j c_j + sum_i beta_i e_i <= -1 at m = 0
    for n in (2, 3):
        factors = ((-0.5, 0.2),) + ((0.3, 0.1),) * (n - 1)
        k = KernelSpec(n, ProductPowerBeta(factors), (MinPower(1.0), MinPower(2.0)))
        assert kernel_power_integral(k, [-0.2, -0.15]).status is IntegralStatus.DIVERGENT
        res = kernel_power_integral(k, [-0.2, -0.1])
        assert res.status is IntegralStatus.CONVERGED and res.value > 0


@pytest.mark.parametrize("factors, beta, x", [
    (((0.15, 0.33), (-0.22, -0.17)), 1.24, -0.21),
    (((-0.28, 0.06), (-0.02, 0.34)), 1.1, 0.4),
])
def test_min_reduction_agrees_with_cube_path(factors, beta, x):
    # the same psi as a callback is not reduced and goes through the cube
    def psi(t):
        out = np.ones(t.shape[0])
        for j, (c, e) in enumerate(factors):
            out = out * t[:, j] ** c * (1.0 - t[:, j]) ** e
        return out

    reduced = KernelSpec(2, ProductPowerBeta(factors), (MinPower(beta),))
    cube = KernelSpec(2, PsiCallback(psi, factors), (MinPower(beta),))
    assert min_reduction(cube) is cube
    a = kernel_power_integral(reduced, [x], tol=1e-4)
    b = kernel_power_integral(cube, [x], tol=1e-4)
    assert a.status is IntegralStatus.CONVERGED and b.status is IntegralStatus.CONVERGED
    assert 20 * a.evaluations < b.evaluations
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error


@pytest.mark.parametrize("c, e", [(-0.9, 0.3), (0.4, -0.7)])
def test_beta_tail_takes_the_exact_side(c, e):
    # t and u = 1 - t are each exact on one side of 1/2; taken from u at
    # t = 1e-10, the tail of t**-0.9 would be 1e-8 relative off
    u = np.array([1.0, 1.0 - 1e-10, 0.7, 0.3, 1e-12, 1e-300])
    t = np.array([1e-300, 1e-10, 0.3, 0.7, 1.0 - 1e-12, 1.0])
    got = beta_tail(c, e, t, u)
    with mpmath.workdps(40):
        for g, ti, ui in zip(got, t.tolist(), u.tolist()):
            # int_t^1 x**c (1-x)**e dx, from the side of the exact argument
            want = (mpmath.betainc(e + 1, c + 1, 0, ui) if ti > 0.5
                    else mpmath.beta(c + 1, e + 1) - mpmath.betainc(c + 1, e + 1, 0, ti))
            assert abs(g - float(want)) <= 1e-14 * float(want)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-0.99, 3.0), e=st.floats(-0.99, 3.0),
       tol=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10]))
def test_line_integral_matches_beta_closed_form(a, e, tol):
    # int_0^1 t**a (1-t)**e dt = B(a + 1, e + 1), endpoint orders down to -0.99
    res = integrate_unit_cube(lambda t: t ** a * (1.0 - t) ** e, 1, tol, [(a, e)],
                              reflected=lambda u: (1.0 - u) ** a * u ** e)
    exact = beta_closed_form(a, e).value
    assert res.status is not IntegralStatus.DIVERGENT
    assert abs(res.value - exact) <= res.abs_error
    if res.status is IntegralStatus.CONVERGED:
        assert abs(res.value - exact) <= tol * max(1.0, exact)
