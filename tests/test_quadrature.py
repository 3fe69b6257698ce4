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
from min_reference import min_kernel_constant


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


def test_budget_exhaustion_is_inconclusive():
    # t**-0.97 leaves 2e-8 of its mass below the smallest normal float, so
    # it stops before the budget; the kink of |t - 1/3|**0.5 takes only
    # bisections, which converge with a larger budget
    res = integrate_unit_cube(lambda t: t ** -0.97, 1, 1e-13, [(-0.97, 0.0)],
                              budget=5000)
    assert res.status is IntegralStatus.INCONCLUSIVE
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    for budget, status in ((2000, IntegralStatus.INCONCLUSIVE), (10 ** 5, IntegralStatus.CONVERGED)):
        res = integrate_unit_cube(lambda t: np.abs(t - 1.0 / 3.0) ** 0.5, 1, 1e-13,
                                  [(0.0, 0.0)], budget=budget)
        assert res.status is status and res.evaluations <= budget
        assert abs(res.value - exact) <= res.abs_error


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_undeclared_jump_within_its_error(tol):
    # a step psi whose jump at t = 1/3 no breakpoint declares: where the jump
    # lies beyond both rules' outermost nodes of a piece their sums agree,
    # and only the miss of the bisected piece's sum shows it (without it
    # the value at tol 1e-6 was 3.9e-6 off with abs_error 3.1e-10)
    psi = PsiCallback(lambda t: np.where(t > 1.0 / 3.0, 1.0, 0.0), (0.0, 0.0))
    res = kernel_power_integral(KernelSpec(1, psi, (PowerCurve(1.0),)), [0.5], tol=tol)
    want = (2.0 / 3.0) * (1.0 - (1.0 / 3.0) ** 1.5)
    assert res.status is not IntegralStatus.DIVERGENT
    assert abs(res.value - want) <= res.abs_error


def test_vanishing_face_declaration():
    def f(t):
        return np.where(t > 0.5, (t - 0.5) ** 2, 0.0)

    res = integrate_unit_cube(f, 1, 1e-10, [(math.inf, 0.0)], breakpoints=[0.5])
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(0.5 ** 3 / 3.0, rel=1e-10)


def test_vanishing_declaration_with_a_breakpoint_above_the_support():
    # the support starts at the unlisted kink t = 0.1, below the one
    # breakpoint: the mass on [0.1, 0.5] counts all the same
    res = integrate_unit_cube(lambda t: np.maximum(t - 0.1, 0.0), 1, 1e-10,
                              [(math.inf, 0.0)], breakpoints=[0.5])
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - 0.405) <= min(res.abs_error, 1e-10)


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


def _mp_beta_miss(a, e):
    """|beta_closed_form(a, e) - B(a + 1, e + 1)| by mpmath at dps 50, and
    the result."""
    res = beta_closed_form(a, e)
    with mpmath.workdps(50):
        want = mpmath.beta(mpmath.mpf(a) + 1, mpmath.mpf(e) + 1)
        return float(abs(res.value - want)), res


@pytest.mark.parametrize("a, e", [(200.0, 0.3), (300.0, -0.4), (1000.0, 5.0)])
def test_beta_closed_form_bound_counts_lgamma_cancellation(a, e):
    # exp(betaln) is 1.5e-13 to 2.5e-13 of the value off here, where the
    # log-Gamma terms cancel from about 1.7e3 to 1.2e4; 4 eps was claimed
    miss, res = _mp_beta_miss(a, e)
    assert miss > 4.0 * np.finfo(float).eps * res.value
    assert miss <= res.abs_error <= 2e-11 * res.value


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.999, 5e4), st.floats(-0.999, 5e4))
def test_beta_closed_form_within_its_bound(a, e):
    miss, res = _mp_beta_miss(a, e)
    assert res.status is IntegralStatus.CONVERGED
    assert miss <= res.abs_error


def test_beta_closed_form_where_its_arguments_sum_beyond_the_floats():
    # betaln(x, y) is NaN where x + y or log-Gamma overflows; B has
    # underflowed to 0 there, and NaN came back converged
    k = KernelSpec(1, PowerBeta(1e308, 1e308), (PowerCurve(1.0),))
    for a, e, res in ((9e307, 9e307, beta_closed_form(9e307, 9e307)),
                      (1.7e308, 2e292, beta_closed_form(1.7e308, 2e292)),
                      (1e306, 2e77, beta_closed_form(1e306, 2e77)),
                      (1e308, 1e308, kernel_power_integral(k, [0.0]))):
        # mpmath's log-Gamma terms cancel across about 300 digits here
        with mpmath.workdps(400):
            want = mpmath.beta(mpmath.mpf(a) + 1, mpmath.mpf(e) + 1)
            assert want < mpmath.mpf("1e-400")
        assert res.status is IntegralStatus.CONVERGED and res.value == 0.0
        assert abs(res.value - want) <= res.abs_error


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


def test_abs_error_covers_third_level_min_power_constant():
    # on the graded t-mesh this constant converged on the third refinement
    # level, where the last level difference alone was below the true error
    factors = ((0.15, 0.33), (-0.22, -0.17))
    k = KernelSpec(2, ProductPowerBeta(factors), (MinPower(1.24),))
    exact = float(min_kernel_constant(factors, 1.0, (1.24,), (-0.21,)))
    integrand, reflected, endexp = power_law_integrand(min_reduction(k), [-0.21])
    graded = integrate_unit_cube(integrand, 1, 1e-4, endexp, reflected=reflected)
    # kernel_power_integral takes the piecewise line instead
    line = kernel_power_integral(k, [-0.21], tol=1e-4)
    assert line.evaluations == 432
    assert line.abs_error < 1e-13
    for res in (graded, line):
        assert res.status is IntegralStatus.CONVERGED
        assert abs(res.value - exact) <= res.abs_error


@pytest.mark.parametrize("rate", [41.0, 1e6, 1e300, math.inf])
def test_log_line_resolves_any_rate(rate):
    # int_{-inf}^0 e^{rate v} dv = 1/rate; the first piece narrows with the
    # rate, down to the smallest normal float
    res = quadrature.integrate_log_line(np.ones_like, rate, 0.0, 1.0, 1e-10)
    assert res.status is IntegralStatus.CONVERGED and res.evaluations <= 144
    assert abs(res.value - 1.0 / rate) <= res.abs_error


def test_line_verdicts_rounding_of_the_summed_pieces():
    # two pieces that cancel to 1e-12: the rounding allowance is of the
    # pieces' magnitudes, not of the 1e-12 left of them
    _, abs_error, _ = quadrature._line_verdicts(np.array([1.0, -1.0 + 1e-12]), np.zeros(2),
                                                np.array([2]), 1e-10)
    assert abs_error[0] >= quadrature.ROUNDING


def _fsum_verdicts(rows, errors, tol):
    """(value, abs_error, converged) of each row by a math.fsum per row."""
    out = []
    for row, err in zip(rows, errors):
        value = math.fsum(row)
        bound = math.fsum(err) + quadrature.ROUNDING * math.fsum(map(abs, row))
        out.append((value, bound, math.isfinite(bound) and bound <= tol * max(1.0, abs(value))))
    return out


def _check_verdicts(rows, errors, tol):
    sizes = np.array([len(r) for r in rows], dtype=int)
    value, abs_error, converged = quadrature._line_verdicts(
        np.array([x for r in rows for x in r], dtype=float),
        np.array([x for r in errors for x in r], dtype=float), sizes, tol)
    assert value.shape == abs_error.shape == converged.shape == sizes.shape
    for i, (want, bound, settled) in enumerate(_fsum_verdicts(rows, errors, tol)):
        assert value[i] == want or (math.isnan(want) and math.isnan(value[i]))
        if math.isnan(bound):
            assert math.isnan(abs_error[i]) and not converged[i]
        else:
            # never below the fsum bound, so never converged where it is not
            assert abs_error[i] >= bound
            assert settled or not converged[i]


def test_line_verdicts_match_a_per_row_fsum():
    rows = [[], [2.5], [1.0, -1.0 + 1e-12], [1e300, -1e300, 3.0], [],
            [1.0, math.inf], [math.nan, 2.0], [0.1] * 7, [-0.3], []]
    errors = [[abs(x) * 1e-13 if math.isfinite(x) else 0.0 for x in r] for r in rows]
    _check_verdicts(rows, errors, 1e-10)
    value, abs_error, converged = quadrature._line_verdicts(
        np.array([0.5]), np.array([0.0]), np.array([0, 0, 1, 0]), 1e-10)
    # empty rows are 0 and converged, wherever they sit
    assert value.tolist() == [0.0, 0.0, 0.5, 0.0] and abs_error[[0, 1, 3]].tolist() == [0.0] * 3
    assert converged.all()
    # no rows at all
    assert all(x.size == 0 for x in quadrature._line_verdicts(np.zeros(0), np.zeros(0),
                                                              np.zeros(0, dtype=int), 1e-10))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e-3)), max_size=6),
                max_size=8),
       st.sampled_from([1e-14, 1e-10, 1e-4]))
def test_line_verdicts_match_a_per_row_fsum_drawn(pieces, tol):
    # pieces near a cancelling pair: rows whose fsum is far below their terms
    rows = [[x for x, _ in r] + [-x for x, _ in r[:1]] for r in pieces]
    errors = [[e for _, e in r] + [e for _, e in r[:1]] for r in pieces]
    _check_verdicts(rows, errors, tol)


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


def test_strong_endpoint_singularity_is_finite():
    # 2e-8 of the mass lies below the smallest normal float: an honest
    # inconclusive, where nodes at 0.0 used to give NaN
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
    # on the graded t-mesh the 12-point rule had the same relative error on
    # every cell of t**a, which no level difference showed: at a = -0.9 the
    # value used to miss 1/(a+1) by 6.7 times its abs_error
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
    # the piecewise line, not the graded one
    assert res.evaluations < 1000


def test_min_reduction_descriptor():
    factors = ((0.3, -0.2), (-0.5, 0.4), (0.1, 0.0))
    k = KernelSpec(3, ProductPowerBeta(factors, 1.5), (MinPower(0.7), MinPower(0.9)))
    r = min_reduction(k)
    assert r.n == 1 and r.psi == MinDensity(factors, 1.5)
    assert r.curves == (PowerCurve(0.7), PowerCurve(0.9))
    assert r.supports_reflection() and not r.is_power_closed()
    # orders: min c_j at m = 0, sum (e_j + 1) - 1 at m = 1
    assert r.psi_endpoint_exponents() == (-0.5, pytest.approx(2.2))
    u = np.array([1e-300, 1e-9, 0.25, 0.5])
    assert np.array_equal(r.psi_values_reflected(u), r.psi.values(1.0 - u, u))
    # a curve steeper than m: the variable is v = m**1.2, and the density
    # carries dm/dv, with order (-0.5 + 1)/1.2 - 1 at v = 0
    k = KernelSpec(3, ProductPowerBeta(factors, 1.5), (MinPower(0.6), MinPower(1.2)))
    r = min_reduction(k)
    assert r.psi == MinDensity(factors, 1.5, 1.2)
    assert r.curves == (PowerCurve(0.5), PowerCurve(1.0))
    assert r.psi_endpoint_exponents() == (pytest.approx(-7.0 / 12.0), pytest.approx(2.2))
    v = np.array([1e-300, 1e-9, 0.25, 0.5, 0.75])
    m = v ** (1.0 / 1.2)
    want = MinDensity(factors, 1.5).values(m, 1.0 - m) * m / (1.2 * v)
    assert np.allclose(r.psi_values(v), want, rtol=1e-13, atol=0.0)
    kernel = KernelSpec(1, PowerBeta(0.3, 0.2), (PowerCurve(1.0),))
    assert min_reduction(kernel) is kernel
    # every n >= 2 kernel reduces: c_j <= -1 through its scaled tail, with
    # order c_j + sum_{i != j} min(c_i + 1, 0) for each term at m = 0; some
    # e_j <= -1 makes the density infinite, order -inf at m = 1
    r = min_reduction(KernelSpec(2, ProductPowerBeta(((-1.2, 0.0), (0.0, 0.0))), (MinPower(1.0),)))
    assert r.psi == MinDensity(((-1.2, 0.0), (0.0, 0.0)))
    assert r.psi_endpoint_exponents() == (pytest.approx(-1.2), pytest.approx(1.0))
    r = min_reduction(KernelSpec(2, ProductPowerBeta(((0.0, -1.0), (0.0, 0.0))), (MinPower(1.0),)))
    assert r.psi_endpoint_exponents() == (0.0, -math.inf)
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
    # the cube integral of the kernel, from the 1-D mpmath reference (the
    # n = 2 callback kernel that took the tensor mesh for it is gone)
    reduced = KernelSpec(2, ProductPowerBeta(factors), (MinPower(beta),))
    res = kernel_power_integral(reduced, [x], tol=1e-4)
    want = float(min_kernel_constant(factors, 1.0, (beta,), (x,)))
    assert res.status is IntegralStatus.CONVERGED and res.evaluations < 1000
    assert abs(res.value - want) <= res.abs_error


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


def test_steep_interior_peak_within_its_error():
    # t**999.5 (1-t)**2 peaks at t = 0.998; the graded t-mesh certified it
    # with abs_error 2.8e-23 while 1.5e-19 off B(1000.5, 3)
    tol = 1e-10
    res = integrate_unit_cube(lambda t: t ** 999.5 * (1.0 - t) ** 2, 1, tol, [(999.5, 2.0)],
                              reflected=lambda u: (1.0 - u) ** 999.5 * u ** 2)
    with mpmath.workdps(40):
        want = float(mpmath.beta(mpmath.mpf(1000.5), 3))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= min(res.abs_error, tol * max(1.0, want))


def test_kernels_beyond_min_power_are_one_dimensional():
    # callback kernels and raw integrands at n >= 2 took the tensor mesh,
    # which is gone
    psi = PsiCallback(lambda t: np.ones_like(t), (0.0, 0.0))
    curve = CurveCallback(lambda t: t, 1.0)
    for n in (2, 3):
        with pytest.raises(ValueError):
            KernelSpec(n, psi, (MinPower(1.0),))
        with pytest.raises(ValueError):
            KernelSpec(n, ProductPowerBeta(((0.0, 0.0),) * n), (curve,))
        with pytest.raises(ValueError):
            KernelSpec(n, ProductPowerBeta(((0.0, 0.0),) * n), (MinPower(1.0), PowerCurve(1.0)))
        with pytest.raises(ValueError):
            integrate_unit_cube(lambda t: np.ones(len(t)), n, 1e-8, [(0.0, 0.0)] * n)


def test_min_reduction_at_n_one():
    # min(t)**beta is t**beta, and a one-factor product is its PowerBeta
    k = KernelSpec(1, ProductPowerBeta(((0.2, 0.3),), 1.5), (MinPower(1.3),))
    r = min_reduction(k)
    assert r.psi == PowerBeta(0.2, 0.3, 1.5) and r.curves == (PowerCurve(1.3),)
    res = kernel_power_integral(k, [-0.4])
    assert res.status is IntegralStatus.CONVERGED and res.evaluations == 0
    assert res.value == pytest.approx(1.5 * beta_closed_form(0.2 - 0.52, 0.3).value, rel=1e-14)
    callback = PsiCallback(lambda t: t ** 0.5, (0.5, 0.0))
    r = min_reduction(KernelSpec(1, callback, (MinPower(2.0),)))
    assert r.psi is callback and r.curves == (PowerCurve(2.0),)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-0.95, 3.0), e=st.floats(-0.95, 3.0), near_one=st.booleans(),
       digits=st.floats(0.0, 1.0))
def test_log_beta_tail_matches_mpmath(c, e, near_one, digits):
    # int_t^1 log(2/x) x**c (1-x)**e dx = ln 2 I - dI/dc with
    # I = int_t^1 x**c (1-x)**e dx; above t = 1/2 I is taken in u = 1 - t,
    # where a difference of incomplete Betas at dps 40 loses the value
    if near_one:
        u = 10.0 ** (-15.0 + digits * (15.0 + math.log10(0.5)))
        t = 1.0 - u
    else:
        t = 10.0 ** (-300.0 + digits * (300.0 + math.log10(0.5)))
        u = 1.0 - t
    got = float(quadrature.log_beta_tail(c, e, np.array([t]), np.array([u]))[0])
    with mpmath.workdps(40):
        cc, ee = mpmath.mpf(c), mpmath.mpf(e)
        if near_one:
            def tail(x):
                return mpmath.betainc(ee + 1, x + 1, 0, mpmath.mpf(u))
        else:
            def tail(x):
                return mpmath.betainc(x + 1, ee + 1, mpmath.mpf(t), 1)
        want = mpmath.log(2) * tail(cc) - mpmath.diff(tail, cc)
    assert abs(got - float(want)) <= 1e-12 * float(want)


def test_log_beta_tail_gives_nan_where_its_terms_cancel():
    # exponents of 10 and more: the alternating terms cancel beyond the
    # series' rounding bound, so the element is NaN instead of a wrong value
    t = np.array([1e-3, 0.5, 0.6, 0.999])
    got = quadrature.log_beta_tail(10.0, 10.0, t, 1.0 - t)
    assert np.isnan(got[1])
    with mpmath.workdps(40):
        for g, x in zip(got, t.tolist()):
            if not math.isnan(g):
                want = mpmath.quad(lambda y: mpmath.log(2 / y) * y ** 10 * (1 - y) ** 10,
                                   [x, 0.5, 1])
                assert abs(g - float(want)) <= 1e-12 * float(want)


def test_min_power_with_large_c_settles_on_the_line(monkeypatch):
    # the tails vary like m**c_i near m = 1, so the line's first piece is
    # sized by max c_i / power as well as by the rate; on [-1, 0] the two
    # rules disagreed and the constant took the graded integrator too
    factors = ((200.0, 0.3), (300.0, -0.4))
    k = KernelSpec(2, ProductPowerBeta(factors), (MinPower(1.3),))

    def no_graded(*args, **kwargs):
        raise AssertionError("the graded integrator was called")

    monkeypatch.setattr(quadrature, "integrate_unit_cube", no_graded)
    res = kernel_power_integral(k, [2.0])
    want = float(min_kernel_constant(factors, 1.0, (1.3,), (2.0,)))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error
    # settled on the first pass: 4 pieces of 48 nodes, none bisected
    assert res.evaluations == 4 * 3 * quadrature.PIECE_RULE


def test_min_power_with_c_below_minus_one_matches_mpmath():
    # Phi_1(m) grows like m**-0.2 toward m = 0; the order at 0 is -0.7.
    # On the tensor mesh: inconclusive after 2.16 M evaluations
    factors = ((-1.2, 0.3), (0.2, 0.1))
    k = KernelSpec(2, ProductPowerBeta(factors), (MinPower(1.0),))
    res = kernel_power_integral(k, [0.5])
    want = float(min_kernel_constant(factors, 1.0, (1.0,), (0.5,)))
    assert want == pytest.approx(2.1359928457855094, rel=1e-15)
    assert res.status is IntegralStatus.CONVERGED and res.evaluations < 1000
    assert abs(res.value - want) <= res.abs_error


def test_min_power_with_c_minus_one_matches_mpmath():
    # c_1 = -1: Phi_1(m) grows like log(1/m) toward m = 0, where the
    # reference's tail, once a regularized incomplete Beta with b = 0, was inf
    factors = ((-1.0, 0.3), (0.2, 0.1))
    k = KernelSpec(2, ProductPowerBeta(factors), (MinPower(1.0),))
    res = kernel_power_integral(k, [0.5])
    want = float(min_kernel_constant(factors, 1.0, (1.0,), (0.5,)))
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(1.1811462927787346, rel=1e-15)
    assert abs(res.value - want) <= res.abs_error


def test_scaled_tail_stays_on_its_series_at_deep_nodes():
    # m**(c + 1) overflows at the line's deepest nodes; unscaled, those
    # elements went to the numeric tail (about a million evaluations)
    m = np.exp(-np.linspace(0.0, 690.0, 480))[1:]
    res = quadrature.tail_power_beta(-2.5, 0.4, m, scaled=True)
    assert res.status is IntegralStatus.CONVERGED and res.evaluations == 0
    with mpmath.workdps(40):
        for x, got in list(zip(m.tolist(), res.value.tolist()))[::53]:
            x = mpmath.mpf(x)
            want = x ** 1.5 * mpmath.betainc(-1.5, 1.4, x, 1)
            assert abs(got - float(want)) <= 1e-13 * float(want), (x, got, float(want))


def test_beta_pieces_where_the_integral_leaves_the_float_range():
    # pieces in v = ln t: t far below the normal range, and integrals of
    # 2**±1000 and beyond; the value comes relative to ref**(a+1) and
    # stays near 1
    e = 0.3
    a = np.array([0.5, 2.0, -3.0, -1.35, -1.0, 0.3, -0.5])
    lo = np.array([-2000.0, -800.0, -374.0, -1731.0, -900.0, -np.inf, -3.0])
    hi = np.array([-1990.0, -700.0, 0.0, -1729.0, -890.0, -0.5, -0.2])
    value, err, level = quadrature.beta_pieces(a, e, lo, hi)
    assert level[-1] == 0.0 and np.all(err < 1e-12 * np.abs(value))
    with mpmath.workdps(30):
        for ai, x, y, got, bound, shift in zip(a.tolist(), lo.tolist(), hi.tolist(), value.tolist(),
                                               err.tolist(), level.tolist()):
            # int e**((a+1) (v - ref)) (1 - e**v)**e dv, with quad's
            # absolute tolerance on a value near 1
            ref = (x if ai < -1.0 else y) if shift else 0.0
            assert shift == (ai + 1.0) * ref / math.log(2.0)
            # the rest of the piece adds below 1e-18 of the value
            x, y = (x, min(y, x + 60.0)) if ai < -1.0 else (max(x, y - 60.0), y)
            want = float(mpmath.quad(lambda v: mpmath.exp((ai + 1) * (v - ref))
                                     * (-mpmath.expm1(v)) ** e,
                                     [x + (y - x) * k / 64 for k in range(65)]))
            assert abs(got - want) <= bound
            assert abs(got - want) <= 1e-13 * want


def _loop_binomial_series(p, q, lo, hi, count, logs):
    """``quadrature._binomial_series`` as it summed every call, one term at
    a time: the reference its table must equal bit for bit."""
    eps = np.finfo(float).eps
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    log_lo, log_hi, log_ref = logs
    span = np.where(log_hi > log_lo, log_hi - log_lo, 0.0)
    pow_lo = np.exp((p + 1.0) * (log_lo - log_ref))
    pow_hi = np.exp((p + 1.0) * (log_hi - log_ref))
    finite_span = np.where(np.isfinite(span), span, 0.0)
    magnify_lo = np.abs(log_lo) + finite_span
    magnify_hi = np.abs(log_hi) + finite_span
    value = mass = err = 0.0
    coef = 1.0
    stops = set(np.unique(count).tolist()) if np.ndim(count) else set()
    stop_coef, stop_pow = np.zeros(lo.shape), np.zeros(lo.shape)
    for k in range(int(np.max(count))):
        s = p + k + 1.0
        if (s > 0.0) if isinstance(s, float) else np.all(s > 0.0):
            term = coef * pow_hi * (-np.expm1(-s * span) / s)
            magnify = magnify_hi
        else:
            term = np.where(s > 0.0, coef * pow_hi * (-np.expm1(-s * span) / s),
                            np.where(s < 0.0, coef * pow_lo * (-np.expm1(s * span) / -s),
                                     coef * span * pow_lo))
            magnify = np.where(s > 0.0, magnify_hi, magnify_lo)
        if stops and k >= min(stops):
            term = np.where(k < count, term, 0.0)
        size = np.abs(term)
        value = value + term
        mass = mass + size
        err = err + size * (4.0 * k + 10.0 + abs(s) * magnify)
        pow_lo, pow_hi = pow_lo * lo, pow_hi * hi
        coef *= (k - q) / (k + 1.0)
        if k + 1 in stops:
            stop = k + 1 == count
            stop_coef = np.where(stop, coef, stop_coef)
            stop_pow = np.where(stop, pow_hi, stop_pow)
    if stops:
        coef, pow_hi = stop_coef, stop_pow
    rho = hi * np.maximum(1.0, (count - q) / (count + 1.0))
    s = p + count + 1.0
    rest = np.abs(coef) * pow_hi * (-np.expm1(-s * span) / s) / (1.0 - rho)
    return value, eps * (err + count * mass) + rest


def _bits(x):
    """The bits of each element, any NaN as one value."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), 0x7FF8 << 48, x.view(np.int64)).tolist()


@st.composite
def _series_calls(draw):
    """Arguments of _binomial_series: p and q numbers or arrays, with
    leading terms s = p + k + 1 <= 0 (integer p among them); one count or
    one per element; limits in t and their logarithms, some series from
    t = 0 (ln lo = -inf) where they converge."""
    n = draw(st.integers(1, 6))
    floats = st.floats(-6.0, 4.0) | st.integers(-5, 3).map(float)
    p = draw(floats if draw(st.booleans()) else st.lists(floats, min_size=n, max_size=n).map(
        np.array))
    q = draw(st.floats(-3.0, 6.0) if draw(st.booleans()) else st.lists(
        st.floats(-3.0, 6.0), min_size=n, max_size=n).map(np.array))
    count = draw(st.integers(1, 40) if draw(st.booleans()) else st.lists(
        st.integers(1, 40), min_size=n, max_size=n).map(np.array))
    log_lo = np.array(draw(st.lists(st.floats(-60.0, -0.05), min_size=n, max_size=n)))
    log_hi = np.minimum(log_lo + np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=n,
                                                          max_size=n))), -0.05)
    if draw(st.booleans()):
        log_lo = np.where((np.arange(n) % 2 == 0) & (np.broadcast_to(p, (n,)) > -1.0),
                          -np.inf, log_lo)
    return p, q, np.exp(log_lo), np.exp(log_hi), count, (
        log_lo, log_hi, np.where(np.asarray(p) < -1.0, log_lo, log_hi))


@settings(max_examples=300, deadline=None)
@given(_series_calls())
def test_binomial_series_table_matches_the_term_loop(call):
    # the table (cumulative products and sums down each column) adds in the
    # loop's order, so both forms give its bits, whichever a call takes
    with np.errstate(all="ignore"):
        want = _loop_binomial_series(*call)
        for cells in (0, 10 ** 9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quadrature, "_SERIES_CELLS", cells)
                got = quadrature._binomial_series(*call)
            assert [_bits(x) for x in got] == [_bits(x) for x in want], cells


def test_series_pieces_pass_no_empty_part():
    # pieces wholly below h = _split(e) have no part in 1 - t, pieces wholly
    # above h none in t; each such part summed to exactly 0
    e, h = 0.3, quadrature._split(0.3)
    cut = math.log(h)
    a = np.array([-2.5, -3.2, -2.5, -3.2, -2.5, -4.0])
    lo = np.array([-5.0, cut - 1.0, cut - 0.5, cut + 0.05, -0.3, cut - 2e-3])
    hi = np.array([-4.0, cut, cut + 0.5, -0.2, 0.0, cut + 1e-3])
    seen = []
    series = quadrature._binomial_series

    def spy(p, q, lo, hi, count, logs):
        seen.append(logs)
        return series(p, q, lo, hi, count, logs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_binomial_series", spy)
        quadrature.beta_pieces(a, e, lo, hi)
    (log_lo, log_hi, _), = seen
    assert np.all(log_hi > log_lo)
    # a part for each piece that meets (0, h) and for each that meets (h, 1)
    assert log_lo.size == np.count_nonzero(lo < cut) + np.count_nonzero(hi > cut)


@pytest.mark.parametrize("a, e, lo, hi", [
    (-1.3556790378487535, 0.7348456758728013, -0.5716018483025037, -0.5716018172922326),
    (-4.0, 0.3, math.log(0.5) - 2e-3, math.log(0.5) + 1e-3)])
def test_narrow_series_pieces_within_their_bound(a, e, lo, hi):
    # the ends of the part in 1 - t, |expm1 v| and its logarithm, round,
    # which magnifies by 1/span on a narrow piece: these came back 1.1e-9
    # and 3.4e-14 of the value off with bounds of 1.7e-14 and 2.6e-14; and
    # the parts meet at exp(ln h), not at exp(ln h) and 1 - h
    (value,), (bound,), (level,) = quadrature.beta_pieces([a], e, [lo], [hi])
    assert level != 0.0         # on the series
    with mpmath.workdps(50):
        want = mpmath.betainc(a + 1, e + 1, mpmath.exp(lo), mpmath.exp(hi)) / mpmath.exp(
            (a + 1) * mpmath.mpf(lo))
    assert abs(value - want) <= bound


def test_lifted_pieces_within_their_bound():
    # -2 < A < -1 pieces of beta_pieces go by parts onto the incomplete Beta
    # of A + 1 (_by_parts): tails (hi = 0), narrow and wide pieces, pieces
    # above t = 1/2 and deep ones, against mpmath at dps 50; A within 1e-7
    # of -1 or -2 cancels beyond _CANCELLATION, and the series takes those
    rng = np.random.default_rng(18)
    edges = [(-1.0 - 1e-7, 0.3, -2.0, -1.0), (-2.0 + 1e-7, 0.3, -2.0, -1.0),
             (-1.0 - 1e-7, 5.0, -40.0, 0.0), (-2.0 + 1e-7, -0.5, -3.0, -0.01)]
    rows = []
    for i in range(200):
        a = float(rng.uniform(-2.0, -1.0))
        e = float(rng.uniform(-0.99, 2.0) if i // 4 % 2 else rng.uniform(-0.99, 30.0))
        lo = -float(10.0 ** rng.uniform(-3.0, 2.8))
        hi = {0: 0.0, 1: lo * (1.0 - float(10.0 ** rng.uniform(-3.0, -0.5))),
              2: lo * float(rng.uniform(0.0, 1.0)), 3: -float(rng.uniform(0.0, 0.6))}[i % 4]
        if i % 4 == 3:
            lo = -float(rng.uniform(-hi, 0.69))
        rows.append((a, e, lo, hi))
    lifted = 0
    for i, (a, e, lo, hi) in enumerate(edges + rows):
        piece = [np.array([x]) for x in (a, lo, hi)]
        with np.errstate(all="ignore"):
            (lift,), (bound,) = quadrature._by_parts(piece[0], e, *(
                f(x) for x in piece[1:] for f in (np.exp, lambda v: np.abs(np.expm1(v)))))
            (value,), _, (level,) = quadrature.beta_pieces(piece[0], e, *piece[1:])
            (series,), (rival,), (scale,) = quadrature._series_pieces(piece[0], e, *piece[1:])
        # beta_pieces takes the lift where its bound passes _CANCELLATION,
        # else the one of lift and series with the smaller bound; and never
        # where t**(A+1) exceeds 2**_FAR, outside the lift's level 0
        taken = (a + 1.0) * lo <= quadrature._FAR * math.log(2.0) and (
            bound <= quadrature._CANCELLATION * abs(lift) or bound <= rival * 2.0 ** scale)
        assert (value, level) == ((lift, 0.0) if taken else (series, scale))
        assert not (taken and i < len(edges)), (a, e, lo, hi)
        if taken:
            lifted += 1
            with mpmath.workdps(50):
                want = mpmath.betainc(a + 1, e + 1, mpmath.exp(lo), mpmath.exp(hi))
                assert abs(lift - want) <= bound, (a, e, lo, hi)
    assert lifted >= 0.4 * len(rows)
