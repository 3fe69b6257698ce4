import math

import mpmath
import numpy as np
import pytest

from hardy_cesaro.quadrature import (CurveCallback, IntegralStatus, KernelSpec,
                                     MinPower, PowerBeta, PowerCurve,
                                     ProductPowerBeta, PsiCallback,
                                     beta_closed_form, integrate_unit_cube,
                                     kernel_power_integral, power_law_integrand)


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
