import bisect
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_cesaro import operators, quadrature
from hardy_cesaro.operators import (OperatorDivergenceError, OperatorSpec,
                                    PowerSymbol, apply_commutator,
                                    apply_hardy_cesaro, apply_to_profile,
                                    commutator_to_profile, log2_grid,
                                    tail_power_beta)
from hardy_cesaro.profiles import (PowerLaw, RadialProfile, SampledProfile,
                                   ScaledProfile, SumProfile, TruncatedPowerLaw)
from hardy_cesaro.quadrature import (IntegralResult, IntegralStatus, KernelSpec,
                                     MinPower, PowerBeta, PowerCurve, ProductPowerBeta,
                                     PsiCallback, integrate_unit_cube, kernel_power_integral)
from min_reference import DPS, density, integral


def identity_spec(m=1):
    return OperatorSpec(m, 1, KernelSpec(1, PowerBeta(0.0, 0.0),
                                         tuple(PowerCurve(1.0) for _ in range(m))))


def test_apply_examples():
    spec = identity_spec()
    assert apply_hardy_cesaro(spec, [PowerLaw(0.0)], 5.0).value == pytest.approx(1.0)
    assert apply_hardy_cesaro(spec, [PowerLaw(1.0)], 3.0).value == pytest.approx(1.5)
    spec2 = identity_spec(2)
    res = apply_hardy_cesaro(spec2, [PowerLaw(1.0), PowerLaw(1.0)], 3.0)
    assert res.value == pytest.approx(3.0, rel=1e-12)


def test_apply_rejects_bad_inputs():
    spec = identity_spec()
    with pytest.raises(ValueError):
        apply_hardy_cesaro(spec, [PowerLaw(0.0)], -1.0)
    with pytest.raises(ValueError):
        apply_hardy_cesaro(spec, [PowerLaw(0.0), PowerLaw(0.0)], 1.0)
    with pytest.raises(ValueError):
        commutator_to_profile(spec, [PowerLaw(0.0)], [], log2_grid(-2, 2))


def test_operator_spec_consistency():
    with pytest.raises(ValueError):
        OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0),)))


def test_apply_to_profile_exact_power_law():
    spec = identity_spec()
    out = apply_to_profile(spec, [PowerLaw(-0.5)], log2_grid(-4, 4))
    assert isinstance(out, PowerLaw)
    assert out.exponent == pytest.approx(-0.5)
    assert out.coefficient == pytest.approx(2.0, rel=1e-12)


def test_apply_to_profile_constants():
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(1.0, 2.0), (PowerCurve(1.0),)))
    out = apply_to_profile(spec, [PowerLaw(0.0)], log2_grid(-2, 2))
    # constants map to constants with value int psi = B(2, 3) = 1/12
    assert out.exponent == pytest.approx(0.0)
    assert out.coefficient == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_apply_to_profile_extremal_family_exponent():
    # extremal inputs produce |x|^(-alpha + lambda - (d+gamma)/q) with
    # coefficient equal to the A1 kernel integral
    from hardy_cesaro.constants import ConstantKind, kernel_constant
    from hardy_cesaro.parameters import ExponentSet, derive_aggregates
    from hardy_cesaro.profiles import extremal_morrey_herz

    e = ExponentSet(m=2, n=1, d=1, alpha_i=[0.1, -0.2], p_i=[2.0, 2.0],
                    q_i=[2.0, 1.5], lambda_i=[0.8, 0.6], gamma_i=[0.3, 0.0])
    kernel = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0), PowerCurve(1.0)))
    spec = OperatorSpec(2, 1, kernel)
    profiles = [extremal_morrey_herz(e, i) for i in range(2)]
    out = apply_to_profile(spec, profiles, log2_grid(-2, 2))
    agg = derive_aggregates(e)
    expected_exp = -agg.alpha + agg.lam - (1 + agg.gamma) / agg.q
    assert out.exponent == pytest.approx(expected_exp, rel=1e-12)
    a1 = kernel_constant(ConstantKind.A1, e, kernel)
    assert out.coefficient == pytest.approx(a1.value, rel=1e-12)


def test_apply_to_profile_divergent_rejected():
    spec = identity_spec()
    with pytest.raises(OperatorDivergenceError):
        apply_to_profile(spec, [PowerLaw(-1.5)], log2_grid(-2, 2))


def test_truncated_input_sampled_output():
    spec = identity_spec()
    f = TruncatedPowerLaw(-1.5, 1.0, 1.0)
    out = apply_to_profile(spec, [f], log2_grid(-3, 6, per_octave=8))
    assert isinstance(out, SampledProfile)
    # U f(r) = (r^{-1.5} ... ) closed form: for r > 1,
    # int_{1/r}^1 (t r)^{-1.5} dt = (r^{-1} - r^{-1.5}) / 0.5... check directly
    r = 8.0
    expect = (r ** -1.0 - r ** -1.5) / 0.5
    assert out(r) == pytest.approx(expect, rel=1e-6)
    assert out(0.5) == 0.0


def test_multilinearity_in_coefficients():
    spec = identity_spec(2)
    f1, f2 = PowerLaw(-0.3, 1.3), PowerLaw(0.2, 0.7)
    base = apply_hardy_cesaro(spec, [f1, f2], 2.5).value
    doubled = apply_hardy_cesaro(spec, [PowerLaw(-0.3, 2.6), f2], 2.5).value
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_closed_form_agrees_with_numeric_path():
    # a callback psi forces the numeric integrator; values must match the
    # closed power-law path at random radii
    rng = np.random.default_rng(41)
    closed_kernel = KernelSpec(1, PowerBeta(0.5, 0.25), (PowerCurve(1.0),))
    numeric_kernel = KernelSpec(
        1, PsiCallback(lambda t: t ** 0.5 * (1.0 - t) ** 0.25, ((0.5, 0.25),)),
        (PowerCurve(1.0),))
    f = PowerLaw(-0.4, 1.2)
    spec_c = OperatorSpec(1, 1, closed_kernel)
    spec_n = OperatorSpec(1, 1, numeric_kernel)
    for _ in range(10):
        r = float(2.0 ** rng.uniform(-5, 5))
        vc = apply_hardy_cesaro(spec_c, [f], r).value
        vn = apply_hardy_cesaro(spec_n, [f], r, tol=1e-10).value
        assert vn == pytest.approx(vc, rel=1e-8)


def test_commutator_examples():
    spec = identity_spec()
    sym = PowerSymbol(0.5, 1.0)
    res = apply_commutator(spec, [PowerLaw(0.0)], [sym], 4.0)
    assert res.value == pytest.approx(4.0 ** 0.5 / 3.0, rel=1e-12)
    for r in (0.3, 1.0, 17.0):
        res = apply_commutator(spec, [PowerLaw(-0.5)], [sym], r)
        assert res.value == pytest.approx(1.0, rel=1e-12)
    # zero symbol annihilates
    res = apply_commutator(spec, [PowerLaw(0.0)], [PowerSymbol(0.5, 0.0)], 2.0)
    assert res.value == 0.0


def test_commutator_distributivity():
    # with m=1 and b = |x|^beta: comm(f)(r) = r^beta (U_psi f - U_{|s|^beta psi} f)
    beta = 0.5
    psi_kernel = KernelSpec(1, PowerBeta(0.2, 0.1), (PowerCurve(1.0),))
    shifted_kernel = KernelSpec(1, PowerBeta(0.2 + beta, 0.1), (PowerCurve(1.0),))
    spec = OperatorSpec(1, 1, psi_kernel)
    spec_shift = OperatorSpec(1, 1, shifted_kernel)
    f = PowerLaw(-0.3, 1.0)
    for r in (0.7, 3.0):
        lhs = apply_commutator(spec, [f], [PowerSymbol(beta, 1.0)], r).value
        rhs = r ** beta * (apply_hardy_cesaro(spec, [f], r).value
                           - apply_hardy_cesaro(spec_shift, [f], r).value)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_commutator_status_follows_its_terms(monkeypatch):
    # a subset term that is inconclusive makes the sum inconclusive, even
    # when the other terms converge
    import hardy_cesaro.operators as operators
    real = operators.tail_power_beta
    spoiled = []

    def tail(a, e, t0):
        if a in spoiled:
            return IntegralResult(np.full(np.shape(t0), math.nan), math.inf,
                                  IntegralStatus.INCONCLUSIVE, 0)
        return real(a, e, t0)

    monkeypatch.setattr(operators, "tail_power_beta", tail)
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.0, 0.3), (PowerCurve(1.0),)))
    f = [TruncatedPowerLaw(-1.5, 1.0, 1.0)]
    symbols = [PowerSymbol(0.5, 1.0)]
    assert apply_commutator(spec, f, symbols, 2.0).status is IntegralStatus.CONVERGED
    spoiled.append(-1.5)        # the tail exponent of U itself
    assert apply_hardy_cesaro(spec, f, 2.0).status is IntegralStatus.INCONCLUSIVE
    spoiled[:] = [-1.0]         # only the term shifted by the symbol
    comm = apply_commutator(spec, f, symbols, 2.0)
    assert comm.status is IntegralStatus.INCONCLUSIVE
    assert math.isnan(comm.value)


def test_commutator_profile_closed_case():
    spec = identity_spec()
    out = commutator_to_profile(spec, [PowerLaw(0.0)], [PowerSymbol(0.5, 1.0)],
                                log2_grid(-2, 2))
    assert isinstance(out, PowerLaw)
    assert out.exponent == pytest.approx(0.5)
    assert out.coefficient == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_tail_power_beta_paths():
    # complete, incomplete, and hypergeometric branches against scipy
    from scipy.integrate import quad
    cases = [(0.5, 0.0, 0.0), (0.5, 0.0, 0.25), (-0.5, -0.3, 0.4),
             (-1.5, -0.5, 0.3), (-1.5, -0.5, 0.7), (0.2, 1.5, 0.9)]
    for a, e, t0 in cases:
        res = tail_power_beta(a, e, t0)
        ref, _ = quad(lambda t: t ** a * (1.0 - t) ** e, max(t0, 1e-300), 1.0,
                      points=[1.0], limit=200)
        assert res.status is IntegralStatus.CONVERGED
        assert res.value == pytest.approx(ref, rel=1e-8)
    assert tail_power_beta(0.0, -1.0, 0.5).status is IntegralStatus.DIVERGENT
    assert tail_power_beta(0.0, 0.0, 1.0).value == 0.0


def test_tail_power_beta_strong_endpoint_singularity():
    # (1-t)**-0.97 next to t**-1.5: the graded quadrature this replaced gave NaN
    res = tail_power_beta(-1.5, -0.97, 0.5)
    with mpmath.workdps(40):
        ref = float(mpmath.betainc(-0.5, 0.03, 0.5, 1))
    assert ref == pytest.approx(33.74278574586281, rel=1e-15)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - ref) <= 1e-12 * ref


def _tail_reference(a, e, t0):
    """int_{t0}^1 t**a (1-t)**e dt by mpmath at 40 digits; above t0 = 1/2 as
    int_0^{1-t0} u**e (1-u)**a du, which does not cancel near t0 = 1."""
    with mpmath.workdps(40):
        t0 = mpmath.mpf(t0)
        if t0 > 0.5:
            return mpmath.betainc(e + 1, a + 1, 0, 1 - t0)
        return mpmath.betainc(a + 1, e + 1, t0, 1)


def test_tail_power_beta_mpmath_oracle():
    rng = np.random.default_rng(2024)
    draws = []
    for i in range(240):
        a = float(rng.uniform(-3.0, -1.0)) if i % 6 else (-1.0, -2.0, -3.0)[i % 18 // 6]
        e = float(rng.uniform(-0.999, 2.0))
        if i % 2:
            t0 = float(10.0 ** rng.uniform(-30.0, math.log10(0.5)))
        else:
            t0 = 1.0 - float(10.0 ** rng.uniform(-12.0, math.log10(0.5)))
        draws.append((a, e, t0))
    draws += [(-1.0, 0.5, 1e-30), (-2.0, 0.0, 0.5), (-1.0, 2.0, 1.0 - 1e-12),
              (-2.0, 1.0, 1e-30), (-1.08, 0.08, 0.975), (-1.29, 0.24, 2e-30)]
    for a, e, t0 in draws:
        res = tail_power_beta(a, e, t0)
        ref = _tail_reference(a, e, t0)
        assert res.status is IntegralStatus.CONVERGED
        assert res.evaluations == 0, (a, e, t0)
        miss = abs(res.value - ref)
        assert miss <= 1e-10 * ref, (a, e, t0)
        assert miss <= res.abs_error, (a, e, t0)


def _tail_quad(a, e, t0):
    """int_{t0}^1 t**a (1-t)**e dt by mpmath.quad at 40 digits, split next to
    t0, where a large exponent gathers the integrand."""
    with mpmath.workdps(40):
        t0 = mpmath.mpf(t0)
        w = 1 - t0
        return mpmath.quad(lambda t: t ** a * (1 - t) ** e, [t0, t0 + w / 64, t0 + w / 8, 1])


def test_tail_power_beta_large_exponents():
    # for large e the binomial series of (1-t)**e cancels beyond double
    # precision on [t0, 1/2] (terms near 1e4 against 1e-12 at (-1.5, 40,
    # 0.45)); the series then splits nearer t = 0
    rng = np.random.default_rng(41)
    draws = [(-1.5, 40.0, 0.45), (-1.0, 30.0, 0.5), (-2.0, 50.0, 1e-30)]
    for i in range(30):
        a = float(rng.uniform(-3.0, -1.0))
        e = float(rng.uniform(25.0, 50.0))
        if i % 2:
            t0 = float(rng.uniform(0.3, 0.5))
        else:
            t0 = float(10.0 ** rng.uniform(-30.0, math.log10(0.3)))
        draws.append((a, e, t0))
    for a, e, t0 in draws:
        res = tail_power_beta(a, e, t0)
        ref = _tail_quad(a, e, t0)
        assert res.status is IntegralStatus.CONVERGED
        assert res.evaluations == 0, (a, e, t0)
        miss = abs(res.value - ref)
        assert miss <= 1e-10 * ref, (a, e, t0)
        assert miss <= res.abs_error, (a, e, t0)
    # beyond the series' term budget each element is integrated numerically
    for a, e, t0 in ((-1.5, 1024.0, 0.01), (-600.0, 0.3, 0.9)):
        res = tail_power_beta(a, e, t0)
        assert res.status is IntegralStatus.CONVERGED
        assert res.evaluations > 0
        assert res.value == pytest.approx(float(_tail_quad(a, e, t0)), rel=1e-8)
    whole = tail_power_beta(-1.5, 1024.0, np.array([0.01, 0.2, 1.0]))
    assert whole.value[0] == tail_power_beta(-1.5, 1024.0, 0.01).value
    assert whole.value[2] == 0.0


@pytest.mark.parametrize("a, e, t0", [
    (-1.5, 1500.0, 0.3), (-800.0, 0.3, 0.5), (-700.0, 160.0, 0.4), (-1.0, 3000.0, 0.001),
    (-1.5, 1024.0, 0.01), (-600.0, 0.3, 0.9), (-650.0, -0.6, 0.7)])
def test_tail_beyond_the_series_within_its_error(a, e, t0):
    # beyond the series, on the finite line in ln t; the graded quadrature
    # it replaced missed (-1.5, 1500, 0.3) by 22 and (-800, 0.3, 0.5) by 900
    # times its abs_error
    with mpmath.workdps(60):
        want = mpmath.betainc(e + 1, a + 1, 0, 1 - mpmath.mpf(t0))
        scale = mpmath.mpf(t0) ** -(a + 1)
    for scaled, ref in ((False, want), (True, want * scale)):
        res = tail_power_beta(a, e, t0, scaled=scaled)
        assert res.status is IntegralStatus.CONVERGED and res.evaluations > 0
        assert abs(res.value - ref) <= res.abs_error, (scaled, res, float(ref))


@pytest.mark.parametrize("a, e, t0", [(-3.0, 0.5, 1e-160), (-3.0, 1.9455, 5.69e-282)])
def test_tail_beyond_the_float_range_is_inf_and_not_converged(a, e, t0):
    # about 5.0e319 and 1.5e562: the piece of beta_pieces is settled and
    # only its power of t0 overflows; the finite line spent 17,712 and
    # 31,968 evaluations on them and returned abs_error NaN
    res = tail_power_beta(a, e, t0)
    assert res.value == math.inf and res.abs_error == math.inf
    assert res.status is IntegralStatus.INCONCLUSIVE and res.evaluations == 0
    scaled = tail_power_beta(a, e, t0, scaled=True)
    with mpmath.workdps(40):
        want = mpmath.betainc(a + 1, e + 1, mpmath.mpf(t0), 1) * mpmath.mpf(t0) ** -(a + 1)
    assert scaled.status is IntegralStatus.CONVERGED and scaled.evaluations == 0
    assert abs(scaled.value - want) <= scaled.abs_error


def _tail_draws(rng, count):
    """(a, e, t0) for a <= -1 tails: a = -1, -2, -3, a <= -2 and
    -2 < a < -1; t0 from 1e-300 to h = _split(e), and from h to
    1 - 1e-12 where (1 - t0)**(e+1) stays above 1e-250."""
    draws = []
    for i in range(count):
        a = ((-1.0, -2.0, -3.0)[i // 4 % 3] if i % 4 == 0 else float(rng.uniform(-7.0, -2.0))
             if i % 4 < 3 else float(rng.uniform(-2.0, -1.0)))
        e = float(rng.uniform(-0.99, 3.0) if i % 3 else rng.uniform(-0.99, 40.0))
        h = quadrature._split(e)
        if i % 2:
            t0 = float(10.0 ** rng.uniform(-300.0, math.log10(h)))
        else:
            t0 = 1.0 - float(10.0 ** rng.uniform(max(-12.0, -250.0 / (e + 1.0)),
                                                 math.log10(1.0 - h)))
        draws.append((a, e, t0))
    return draws


def test_tail_power_beta_below_minus_one_mpmath_oracle():
    # each a <= -1 tail, as the piece [ln t0, 0] of beta_pieces, scaled
    # (times t0**-(a+1)) and unscaled, within its bound of mpmath at dps 40;
    # unscaled, inf and inconclusive where the value leaves the float range
    for a, e, t0 in _tail_draws(np.random.default_rng(19), 240):
        with mpmath.workdps(40):
            x = mpmath.mpf(t0)
            want = (mpmath.betainc(e + 1, a + 1, 0, 1 - x) if t0 > 0.5
                    else mpmath.betainc(a + 1, e + 1, x, 1))
            wants = {False: want, True: want * x ** -(a + 1)}
        for scaled, want in wants.items():
            res = tail_power_beta(a, e, t0, scaled)
            assert res.evaluations == 0, (a, e, t0, scaled)
            if want > np.finfo(float).max:
                assert res.value == math.inf and res.status is IntegralStatus.INCONCLUSIVE
                continue
            assert res.status is IntegralStatus.CONVERGED, (a, e, t0, scaled)
            assert abs(res.value - want) <= res.abs_error, (a, e, t0, scaled)
            assert abs(res.value - want) <= 1e-12 * want, (a, e, t0, scaled)


def test_tail_power_beta_checks_the_series_bound(monkeypatch):
    # split at 1/2 whatever e: at (-1.5, 40, 0.45) the series then loses
    # every digit, its bound says so, and the finite line takes over; the
    # lift onto beta_tail leaves it to them, as its bound (16 eps B(1/2, 41)
    # times the coefficient 81) is 4.5 % of the value
    monkeypatch.setattr(quadrature, "_split", lambda e: 0.5)
    res = tail_power_beta(-1.5, 40.0, 0.45)
    assert res.status is IntegralStatus.CONVERGED
    assert res.evaluations > 0
    assert res.value == pytest.approx(float(_tail_quad(-1.5, 40.0, 0.45)), rel=1e-8)


def _power(t0, exponent):
    """t0**exponent by pow, as ``tail_power_beta`` scales: with a number
    exponent of 0.5, numpy takes sqrt, which rounds differently."""
    return t0 ** np.broadcast_to(exponent, np.shape(t0))


def _lifted_tail(a, e, t0, scaled):
    """The lift by parts of the a <= -1 tails from t0, in the convention of
    ``tail_power_beta``: the piece [ln t0, 0] of ``beta_pieces``, whose
    ends are t = exp(v) and 1 - t = |expm1 v|, multiplied by t0**-(a+1)
    where scaled."""
    x = np.asarray(t0, dtype=float)
    v = np.log(x)
    lifted = quadrature._by_parts(np.full(x.shape, a), e, np.exp(v), np.abs(np.expm1(v)),
                                  1.0, 0.0)[0]
    return lifted * _power(x, -(a + 1.0) if scaled else 0.0)


def test_tail_power_beta_array_matches_scalar_calls():
    t0 = np.concatenate([[0.0, 1.0], np.geomspace(1e-25, 0.999, 40)])
    # with -2 < a < -1 an element is lifted onto the incomplete Beta of
    # a + 1 unless the lift cancels (near h = _split(e) at e = 47); the
    # others, a = -1 - 1e-12 and a = -2 throughout, keep the series
    lifts = []
    for a, e in ((-1.2, 0.1), (-2.0, 0.5), (0.3, -0.4), (-1.0 - 1e-12, 0.5), (-1.97, 47.0)):
        h = quadrature._split(e)
        t = np.sort(np.concatenate([t0[1:], h * (1.0 - np.geomspace(1e-12, 0.5, 8))]))
        for scaled in (False, True):
            whole = tail_power_beta(a, e, t, scaled).value
            for x, v in zip(t, whole):
                assert tail_power_beta(a, e, float(x), scaled).value == v, (a, e, x, scaled)
            if -2.0 < a < -1.0:
                x = t[t < 1.0]
                with np.errstate(all="ignore"):
                    lifted = whole[t < 1.0] == _lifted_tail(a, e, x, scaled)
                lifts.append((a, scaled, lifted.sum(), (~lifted).sum()))
    assert all(n > 0 for a, _, n, _ in lifts if a < -1.1)
    assert all(n == 0 for a, _, n, _ in lifts if a > -1.1)
    assert all(rest > 0 for a, _, _, rest in lifts if a < -1.9)
    out = tail_power_beta(-1.2, 0.1, t0)
    assert out.status is IntegralStatus.DIVERGENT
    assert np.isinf(out.value[0])


@pytest.mark.parametrize("a, e", [(-1.5, 0.3), (-1.0, 0.7), (-2.0, 0.5), (-3.3, 2.0),
                                  (-1.97, 47.0), (-1.2, -0.6)])
def test_tail_power_beta_is_the_piece_of_beta_pieces(a, e):
    # an a <= -1 tail is beta_pieces(a, e, ln t0, 0): its series (level
    # != 0) times t0**(a+1) unscaled, its lift (level 0) times t0**-(a+1)
    # scaled, and the other one as it comes; t0 down to where t0**(a+1)
    # nears the float range unscaled, and below it scaled
    t0 = np.concatenate([np.geomspace(1e-300, 0.999, 90), 1.0 - np.geomspace(1e-12, 1e-4, 5)])
    with np.errstate(all="ignore"):
        piece, bound, level = quadrature.beta_pieces(np.full(t0.shape, a), e, np.log(t0), 0.0)
    series = level != 0.0
    for scaled in (False, True):
        near = scaled | ((a + 1.0) * np.log(t0) < 700.0)
        res = tail_power_beta(a, e, t0[near], scaled)
        assert res.status is IntegralStatus.CONVERGED and res.evaluations == 0
        power = _power(t0[near], (a + 1.0) * (series[near] - float(scaled)))
        assert _bits(res.value) == _bits(piece[near] * power), scaled
        assert np.all(res.abs_error >= bound[near] * power)
    # -2 < a < -1 is lifted where that does not cancel, down to
    # t0**(a+1) = 2**512; a = -1 is a series at level 0
    assert np.all(series) == (a <= -2.0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_tail_power_beta_lifted_tails_mpmath_oracle():
    # -2 < a < -1 with t0 below h = _split(e): t0**(a+1) (1-t0)**(e+1) / d
    # - (a+e+2) / d * beta_tail(a+1, e, t0), d = -(a+1), where its bound is
    # within 1e-13 of the value and t0**(a+1) <= 2**512, else the series
    rng = np.random.default_rng(15)
    draws = [(-1.999, 50.0, 1e-300), (-1.001, -0.999, 0.4999), (-1.5, 0.0, 1e-300),
             (-1.077, 0.078, 0.254), (-1.9999, 2.0, 1e-150), (-1.0001, 30.0, 1e-3)]
    for i in range(120):
        a = float(rng.uniform(-2.0, -1.0))
        e = float(rng.uniform(-0.999, 2.0)) if i % 2 else float(rng.uniform(-0.999, 50.0))
        h = quadrature._split(e)
        if i % 4 < 3:
            t0 = float(10.0 ** rng.uniform(-300.0, math.log10(h)))
        else:
            t0 = h * (1.0 - float(10.0 ** rng.uniform(-12.0, -1.0)))
        draws.append((a, e, t0))
    lifted = 0
    for a, e, t0 in draws:
        for scaled in (False, True):
            res = tail_power_beta(a, e, t0, scaled=scaled)
            with mpmath.workdps(50):
                ref = mpmath.betainc(a + 1, e + 1, mpmath.mpf(t0), 1)
                if scaled:
                    ref *= mpmath.mpf(t0) ** -(a + 1)
            assert res.status is IntegralStatus.CONVERGED
            assert res.evaluations == 0, (a, e, t0, scaled)
            miss = abs(res.value - ref)
            assert miss <= res.abs_error, (a, e, t0, scaled)
            assert miss <= 1e-12 * ref, (a, e, t0, scaled)
            with np.errstate(all="ignore"):
                lifted += res.value == _lifted_tail(a, e, np.array([t0]), scaled)[0]
    assert lifted >= 0.6 * 2 * len(draws)


def test_commutator_profile_values_independent_of_grid():
    # hcbench compares the windows 48 and 96 at their shared radii bit for bit
    spec = OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.4, -0.2, 1.3),
                                         (PowerCurve(0.9), PowerCurve(1.2))))
    profiles = [TruncatedPowerLaw(-1.1, 1.4, 0.7), TruncatedPowerLaw(-0.6, 0.8, 2.5)]
    symbols = [PowerSymbol(0.3, 1.1), PowerSymbol(0.2, 0.7)]
    narrow = commutator_to_profile(spec, profiles, symbols, log2_grid(-48, 48))
    wide = commutator_to_profile(spec, profiles, symbols, log2_grid(-96, 96))
    shared = dict(zip(wide.log2_radii, wide.values))
    assert all(shared[u] == v for u, v in zip(narrow.log2_radii, narrow.values))
    assert any(v > 0 for v in narrow.values)
    # and each sampled value is the pointwise commutator at that radius
    for u, v in list(zip(narrow.log2_radii, narrow.values))[::37]:
        assert abs(apply_commutator(spec, profiles, symbols, 2.0 ** u).value) \
            == pytest.approx(v, rel=1e-14)


def test_scaled_zero_profile_passes_through():
    spec = identity_spec()
    zero = ScaledProfile(PowerLaw(0.0), 0.0)
    out = apply_to_profile(spec, [zero], log2_grid(-2, 2))
    assert out(1.0) == 0.0


def test_tail_power_beta_near_one_for_a_above_minus_one():
    # B * (1 - betainc(a+1, e+1, t0)) cancelled: 2.107e-16, 9 % off
    res = tail_power_beta(0.5, 0.3, 1 - 1e-12)
    ref = _tail_reference(0.5, 0.3, 1 - 1e-12)
    assert float(ref) == pytest.approx(1.9321647648656703e-16, rel=1e-15, abs=0.0)
    assert res.value == pytest.approx(float(ref), rel=1e-13, abs=0.0)


# --------------------------------------------------------------------------
# piecewise path: sampled and sum inputs, closed pieces and Gauss ramp pieces


def _mp_profile(profile):
    """mpmath evaluator of a sampled, cut-off power-law or sum input."""
    if isinstance(profile, SumProfile):
        terms = [_mp_profile(t) for t in profile.terms]
        return lambda x: mpmath.fsum(t(x) for t in terms)
    if isinstance(profile, TruncatedPowerLaw):
        return lambda x: (profile.coefficient * x ** profile.exponent
                          if x > profile.inner_radius else mpmath.mpf(0))
    u, v = profile.log2_radii, profile.values

    def f(x):
        ux = mpmath.log(x, 2)
        i = min(max(bisect.bisect_right(u, float(ux)) - 1, 0), len(u) - 2)
        s = (ux - u[i]) / (u[i + 1] - u[i])
        if v[i] > 0 and v[i + 1] > 0:
            return mpmath.mpf(v[i]) ** (1 - s) * mpmath.mpf(v[i + 1]) ** s
        return max(v[i] + s * (v[i + 1] - v[i]), mpmath.mpf(0))
    return f


def _mp_commutator(psi, bs, profiles, symbols, r):
    """int_0^1 psi(t) prod_k f_k(t**b_k r) (b_k(r) - b_k(t**b_k r)) dt by
    mpmath, split at the inputs' breakpoints."""
    c, e, scale = psi
    fs = [_mp_profile(p) for p in profiles]
    with mpmath.workdps(25):
        r = mpmath.mpf(r)

        def t_of(rho, b):
            return (2 ** mpmath.mpf(rho) / r) ** (1 / mpmath.mpf(b))

        starts = [t_of(p.support_start(), b) for p, b in zip(profiles, bs)
                  if p.support_start() is not None]
        lo = max(starts, default=mpmath.mpf(0))
        if lo >= 1:
            return mpmath.mpf(0)
        cuts = sorted({t for p, b in zip(profiles, bs) for t in
                       (t_of(rho, b) for rho in p.log2_breakpoints()) if lo < t < 1})

        def g(t, s):
            # s = 1 - t, passed exactly next to t = 1
            out = scale * t ** c * s ** e
            for f, b in zip(fs, bs):
                out *= f(t ** b * r)
            for sym, b in zip(symbols, bs):
                out *= sym.coefficient * r ** sym.beta * -mpmath.expm1(b * sym.beta
                                                                       * mpmath.log1p(-s))
            return out

        edges = [lo] + cuts
        head = []
        if lo == 0:
            # below their first breakpoints the inputs are power laws, and the
            # integrand is t**a0; x = t**(1 + a0) takes that off
            a0 = c + sum(b * p.local_exponent("zero") for p, b in zip(profiles, bs))
            q = 1 / (1 + mpmath.mpf(a0))
            edges = cuts or [mpmath.mpf(1) / 2]
            head = [(lambda x: g(x ** q, 1 - x ** q) * q * x ** (q - 1),
                     [0, edges[0] ** (1 / q)])]
        # dyadic cuts from the last breakpoint up to 1/2: above it the
        # integrand can peak at that breakpoint however far below 1 it lies
        last = edges[-1]
        edges = edges + [mpmath.mpf(2) ** -j for j in range(int(-mpmath.log(last, 2)), 0, -1)
                         if mpmath.mpf(2) ** -j > last]
        inner = [(lambda t: g(t, 1 - t), edges)] if len(edges) > 1 else []
        # s = y**p takes the s**(e + m) behaviour at t = 1 off the integrand
        p = 1 / (1 + mpmath.mpf(e) + len(symbols))
        parts = head + inner + [(lambda y: g(1 - y ** p, y ** p) * p * y ** (p - 1),
                                 [0, (1 - edges[-1]) ** (1 / p)])]

        def total(unit):
            return mpmath.fsum(mpmath.quad(lambda t: f(t) / unit, at) for f, at in parts)

        # quad stops at an absolute error of about 10**-25, more than an ulp
        # of values below about 1e-8: there a second pass over the integrand
        # divided by the first value makes it relative
        rough = total(1)
        return rough if not 0 < abs(rough) < 1e-8 else total(abs(rough)) * abs(rough)


@st.composite
def _sampled_input(draw, vanishing=True):
    """A sampled input, alone or plus a cut-off power law.  Its first node
    is 0 when ``vanishing``, else positive with a first slope in [0, 1/2]
    (its power extension toward 0); sometimes an interior node is 0 too."""
    count = draw(st.integers(3, 7))
    start = draw(st.floats(-3.0, 1.0))
    step = draw(st.floats(0.4, 1.5))
    slope = draw(st.floats(-1.5, 0.5))
    factors = draw(st.lists(st.floats(0.6, 1.4), min_size=count, max_size=count))
    u = [start + step * i for i in range(count)]
    v = [0.0] + [2.0 ** (slope * x) * k for x, k in zip(u[1:], factors[1:])]
    if not vanishing:
        v[0] = v[1] * 2.0 ** (-step * draw(st.floats(0.0, 0.5)))
    if count > 4 and draw(st.integers(0, 3)) == 0:
        v[3] = 0.0
    sampled = SampledProfile(tuple(u), tuple(v))
    if not draw(st.booleans()):
        return sampled
    cut = TruncatedPowerLaw(draw(st.floats(-1.5, 0.5)), draw(st.floats(0.5, 2.0)),
                            2.0 ** draw(st.floats(-2.0, 3.0)))
    return SumProfile((sampled, cut))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_piecewise_path_matches_mpmath(m, data):
    # near: c puts the exponent A of the second segment of a one-input
    # integrand within 1e-6 of -1, where incomplete Beta differences cancel
    near = m == 1 and data.draw(st.booleans())
    vanishing = near or data.draw(st.booleans())
    psi = [data.draw(st.floats(-0.5, 1.0)), data.draw(st.floats(-0.6, 1.5)),
           data.draw(st.floats(0.5, 2.0))]
    bs = [data.draw(st.floats(0.5, 2.0)) for _ in range(m)]
    profiles = [data.draw(_sampled_input(vanishing)) for _ in range(m)]
    symbols = []
    if data.draw(st.booleans()):
        symbols = [PowerSymbol(data.draw(st.floats(0.1, 0.9)),
                               data.draw(st.sampled_from([-1.3, 0.6, 1.0])))
                   for _ in range(m)]
    first = profiles[0].terms[0] if isinstance(profiles[0], SumProfile) else profiles[0]
    nodes = first.log2_radii
    if near:
        slope = math.log2(first.values[2] / first.values[1]) / (nodes[2] - nodes[1])
        psi[0] = -1.0 + data.draw(st.floats(-1e-6, 1e-6)) - slope * bs[0]
    spec = OperatorSpec(m, 1, KernelSpec(1, PowerBeta(*psi), tuple(PowerCurve(b) for b in bs)))
    if near:
        r = 2.0 ** (nodes[2] + data.draw(st.floats(0.2, 12.0)))
    elif vanishing:
        r = 2.0 ** (max(p.support_start() for p in profiles) + data.draw(st.floats(0.2, 12.0)))
    else:
        r = 2.0 ** (nodes[0] + data.draw(st.floats(-3.0, 12.0)))
    assert operators._piecewise_setup(spec, profiles, symbols) is not None
    if symbols:
        res = apply_commutator(spec, profiles, symbols, r)
    else:
        res = apply_hardy_cesaro(spec, profiles, r)
    want = float(_mp_commutator(psi, bs, profiles, symbols, r))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= 1e-9 * abs(want)
    assert abs(res.value - want) <= res.abs_error


_SUM_INPUT = SumProfile((SampledProfile((0.0, 1.0, 2.0), (1.0, 0.5, 0.4)),
                         TruncatedPowerLaw(0.3, 1.0, 2.0)))
_DECAYING = SampledProfile((0.0, 1.0), (1.0, 0.25))


@pytest.mark.parametrize("m, profile, psi, b, radii, with_symbols", [
    # c + b a(0) = 0.25 + 1.25 * -1 = -1
    (1, _SUM_INPUT, (0.25, 0.3), 1.25, (0.5, 3.0, 40.0), False),
    (1, _SUM_INPUT, (0.25, 0.3), 1.25, (0.5, 3.0, 40.0), True),
    # a decaying input extended to log2 r, where its value (or the product
    # of m of them) underflows to 0: c + b a(0) = -2, -20 and -6
    (1, _DECAYING, (0.0, 0.0), 1.0, (2.0 ** 540,), False),
    (1, SampledProfile((0.0, 1.0), (1.0, 2.0 ** -20)), (0.0, 0.0), 1.0, (2.0 ** 54,), False),
    (3, _DECAYING, (0.0, 0.0), 1.0, (2.0 ** 180,), False),
], ids=["sum", "sum-commutator", "underflow", "underflow-steep", "underflow-m3"])
def test_piecewise_divergent_at_zero_gives_the_graded_verdict(m, profile, psi, b, radii,
                                                              with_symbols):
    # not vanishing near 0: the lowest piece, from t = 0, diverges
    profiles = [profile] * m
    spec = OperatorSpec(m, 1, KernelSpec(1, PowerBeta(*psi), (PowerCurve(b),) * m))
    assert operators._piecewise_setup(spec, profiles, ()) is not None
    symbols = [PowerSymbol(0.5, 1.0)] * m if with_symbols else []
    for r in radii:
        res = (apply_commutator(spec, profiles, symbols, r) if symbols
               else apply_hardy_cesaro(spec, profiles, r))
        graded = operators._graded(spec, profiles, symbols, r, 1e-10)
        assert res.status is graded.status is IntegralStatus.DIVERGENT
    grid = log2_grid(math.log2(radii[0]) - 2, math.log2(radii[0]) + 2)
    with pytest.raises(OperatorDivergenceError):
        if symbols:
            commutator_to_profile(spec, profiles, symbols, grid)
        else:
            apply_to_profile(spec, profiles, grid)


@pytest.mark.parametrize("m, psi, b, top, r", [
    (2, (0.0, 0.0), 1.0, 0.25, 2.0 ** 270),     # the inputs' product at r underflows
    (3, (0.0, 0.0), 1.0, 0.25, 2.0 ** 200),
    (1, (0.0, 0.0), 1.0, 0.125, 2.0 ** 540),    # int t**-3 over the top piece overflows
    (1, (-0.95, 0.3), 0.4, 0.5, 2.0 ** 1000),   # pieces near t = 2**-2500
    (1, (-0.5, 0.2), 1.0, 2.0, 2.0 ** 900),     # the input at r is near 2**899
    (2, (0.3, -0.4), 0.7, 0.5, 2.0 ** 300),
])
def test_piecewise_values_where_the_inputs_leave_the_float_range(monkeypatch, m, psi, b, top,
                                                                   r):
    # m copies of an input that vanishes below log2 radius 0, is the ramp
    # x on [0, 1] and then 2**(s (x - 1)), s = log2 top, extended to log2 r
    monkeypatch.setattr(operators, "integrate_unit_cube", None)
    spec = OperatorSpec(m, 1, KernelSpec(1, PowerBeta(*psi), (PowerCurve(b),) * m))
    res = apply_hardy_cesaro(spec, [SampledProfile((0.0, 1.0, 2.0), (0.0, 1.0, top))] * m, r)
    c, e = psi
    s = math.log2(top)
    with mpmath.workdps(40):
        big = mpmath.mpf(r)

        def t_of(x):
            return (2 ** mpmath.mpf(x) / big) ** (1 / mpmath.mpf(b))

        # the ramp in x, dt = t ln 2 / b dx; quad's tolerance is absolute,
        # so the scale r**(-(c+1)/b) of t**(c+1) stays outside
        ramp = big ** (-(c + 1) / b) * mpmath.quad(
            lambda x: 2 ** (x * (c + 1) / b) * (1 - t_of(x)) ** e * x ** m * mpmath.log(2) / b,
            [0, 1])
        # the power, f**m = (t**b r / 2)**(m s), from t(1) to 1
        a = c + m * s * b
        tail = ((1 - t_of(1) ** (a + 1)) / (a + 1) if e == 0
                else mpmath.betainc(a + 1, e + 1, t_of(1), 1))
        want = float(ramp + (big / 2) ** (m * s) * tail)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= 1e-12 * want
    assert abs(res.value - want) <= res.abs_error


def _sampled_case():
    spec = OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.3, -0.4, 1.2),
                                         (PowerCurve(0.8), PowerCurve(1.3))))
    u = tuple(-2.0 + 0.75 * i for i in range(9))
    v = (0.0,) + tuple(1.3 * 2.0 ** (-0.4 * x) * (1.0 + 0.2 * math.sin(3 * x)) for x in u[1:])
    profiles = [SampledProfile(u, v),
                SumProfile((SampledProfile((0.0, 1.0, 2.0), (0.0, 0.5, 0.2)),
                            TruncatedPowerLaw(-0.7, 0.9, 2.0 ** 0.4)))]
    return spec, profiles, [PowerSymbol(0.4, 1.1), PowerSymbol(0.7, -0.8)]


@pytest.mark.parametrize("with_symbols, equal_b", [(False, False), (True, False),
                                                   (False, True), (True, True)],
                         ids=["False", "True", "False-equal-b", "True-equal-b"])
def test_piecewise_values_independent_of_grid_and_pointwise(monkeypatch, with_symbols, equal_b):
    # with equal b the far pieces come from the prefix tables
    spec, profiles, symbols = _sampled_case()
    if equal_b:
        spec = OperatorSpec(2, 1, KernelSpec(1, spec.kernel.psi, (PowerCurve(0.8),) * 2))
    symbols = symbols if with_symbols else []
    assert (operators._piecewise_setup(spec, profiles, symbols)["far"] is not None) == equal_b

    def sample(grid):
        if symbols:
            return commutator_to_profile(spec, profiles, symbols, grid)
        return apply_to_profile(spec, profiles, grid)

    narrow, wide = sample(log2_grid(-25, 25)), sample(log2_grid(-49, 49))
    shared = dict(zip(wide.log2_radii, wide.values))
    assert all(shared[u] == v for u, v in zip(narrow.log2_radii, narrow.values))
    assert sum(v > 0 for v in narrow.values) > 100
    for u, v in list(zip(narrow.log2_radii, narrow.values))[::23]:
        r = float(np.exp2(u))
        if symbols:
            res = apply_commutator(spec, profiles, symbols, r)
        else:
            res = apply_hardy_cesaro(spec, profiles, r)
        assert abs(res.value) == v
    # blocks of a few radii each
    monkeypatch.setattr(operators, "_BLOCK", 2 ** 7)
    assert sample(log2_grid(-25, 25)).values == narrow.values


def test_piecewise_grid_keeps_its_results_in_arrays(monkeypatch):
    # one fsum per radius, and no IntegralResult where no radius goes to
    # the graded integrator
    spec, profiles, symbols = _sampled_case()
    grid = log2_grid(-25, 25)
    want = commutator_to_profile(spec, profiles, symbols, grid)
    sums = []

    def counting(x):
        sums.append(len(x))
        return math.fsum(x)

    def no_result(*args):
        raise AssertionError("an IntegralResult was built")

    monkeypatch.setattr(quadrature, "fsum", counting)
    monkeypatch.setattr(quadrature, "IntegralResult", no_result)
    monkeypatch.setattr(operators, "IntegralResult", no_result)
    monkeypatch.setattr(operators, "integrate_unit_cube", None)
    got = commutator_to_profile(spec, profiles, symbols, grid)
    assert len(sums) == grid.size
    assert got.log2_radii == want.log2_radii and got.values == want.values


def test_piecewise_commutator_with_e_below_minus_one_matches_mpmath(monkeypatch):
    # e = -1.4 < -1 < e + m: each term of the expanded gaps diverges at
    # t = 1, so the piece that ends there takes the Gauss pair
    spec, profiles, symbols = _sampled_case()
    spec = OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.3, -1.4, 1.2), spec.kernel.curves))
    monkeypatch.setattr(operators, "integrate_unit_cube", None)
    for r in (2.0 ** 0.1, 5.0, 2.0 ** 7.3):
        res = apply_commutator(spec, profiles, symbols, r)
        want = float(_mp_commutator((0.3, -1.4, 1.2), (0.8, 1.3), profiles, symbols, r))
        assert res.status is IntegralStatus.CONVERGED
        assert abs(res.value - want) <= 1e-9 * abs(want)
        assert abs(res.value - want) <= res.abs_error


def test_piecewise_radius_missing_tol_goes_to_graded_integrator(monkeypatch):
    profiles = _sampled_case()[1][:1]
    # psi scale 12 puts the value above 1, where the rounding allowance
    # 64 eps |value| alone exceeds tol * |value| at tol 1e-14
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.3, -0.4, 12.0), (PowerCurve(0.8),)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return integrate_unit_cube(*args, **kwargs)

    monkeypatch.setattr(operators, "integrate_unit_cube", counting)
    fine = apply_hardy_cesaro(spec, profiles, 2.0 ** -0.5)
    assert fine.status is IntegralStatus.CONVERGED and fine.value > 1.0 and not calls
    strict = apply_hardy_cesaro(spec, profiles, 2.0 ** -0.5, tol=1e-14)
    assert calls == [1e-14]
    assert strict.evaluations > fine.evaluations
    assert strict.value == pytest.approx(fine.value, rel=1e-12)


def test_graded_exponent_within_rounding_of_minus_one():
    # the integrand is t**A with A = -0.9999999999999999 on the top segment;
    # the graded t-mesh certified 41.75616742528078 with abs_error 2.8e-11,
    # 3.9e-11 off
    profile = SampledProfile((0.0, 1.0, 2.0), (0.0, 1.189207115002721, 1.4142135623730951))
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(-1.125, 0.0, 1.0), (PowerCurve(0.5),)))
    tol = 1e-10
    res = operators._graded(spec, [profile], (), 2.0 ** 8, tol)
    want = float(_mp_commutator((-1.125, 0.0, 1.0), (0.5,), [profile], (), 2.0 ** 8))
    assert want == pytest.approx(41.75616742531963, rel=1e-15)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= min(res.abs_error, tol * max(1.0, abs(want)))


_STEP = ((0.0, 1.0, 2.0), (0.0, 1.0, 0.125))
_RAMP = (0.0, 1.0, 1.0)


@pytest.mark.parametrize("profile, a, b, r, want", [
    *((_STEP, 0.0, 1.0, 2.0 ** k, (3.0 - 1.0 / math.log(2.0)) / 2.0 ** k)
      for k in (100, 200, 300, 540)),
    (((0.0, 1.0, 530.0), _RAMP), -0.5, 0.5, 2.0 ** 540, 2.0),
    (((-1100.0, -1099.0, -20.0), _RAMP), -0.5, 1.0, 1.0, 2.0)])
def test_graded_support_that_starts_deep_inside(profile, a, b, r, want):
    # the support starts at t = 2**-k: the graded t-mesh missed its
    # breakpoints there and certified a value 16 % off; the exact value of
    # int t**-3 over the extended top segment is (3 - 1 / ln 2) / r.  In the
    # last two cases the first breakpoints map to t below the smallest
    # normal float and round to 0, and the input is 1 from t = 2**-1078 on:
    # the value is int_0^1 t**-0.5 dt = 2 but for less than 2**-538 of it,
    # and the 2**-9 of it below the next breakpoint, t = 2**-20, counts
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(a, 0.0), (PowerCurve(b),)))
    tol = 1e-10
    res = operators._graded(spec, [SampledProfile(*profile)], (), r, tol)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= min(res.abs_error, tol * max(1.0, want))


def test_value_beyond_the_float_range_is_inf_and_not_converged():
    # the pieces of the radius are finite but sum beyond the float range:
    # math.fsum raised OverflowError from the line's and the graded
    # integrator's sums
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.0, 0.0, 1.5), (PowerCurve(1.0),)))
    profile = SampledProfile((-3, -2, -1, 0, 1), (1e308, 1.7e308, 1.7e308, 1.7e308, 1e308))
    with np.errstate(all="ignore"):
        res = apply_hardy_cesaro(spec, [profile], 1.0)
    assert res.value == math.inf and res.status is not IntegralStatus.CONVERGED
    assert res.abs_error == math.inf


@pytest.mark.parametrize("k", [100, 200])
def test_mp_reference_where_the_support_starts_deep_inside(k):
    # the reference took [2**(2-k), 1] in one quad, which missed the peak at
    # its left end, and quad's absolute stopping rule (about 1e-25) ignored
    # the value's own size: 35 % off at 2**100 and 16 % at 2**200
    r = 2.0 ** k
    got = float(_mp_commutator((0.0, 0.0, 1.0), (1.0,), [SampledProfile(*_STEP)], (), r))
    assert got == pytest.approx((3.0 - 1.0 / math.log(2.0)) / r, rel=1e-14, abs=0.0)


def test_graded_min_power_operator_with_many_breakpoints():
    # 33 input nodes: every breakpoint is a piece edge, where the graded
    # t-mesh took at most 24 and was inconclusive, 1.6e-5 off
    u = -8.0 + 0.5 * np.arange(33)
    v = 2.0 ** (-0.3 * u) * np.random.default_rng(0).uniform(0.7, 1.3, 33)
    v[0] = 0.0
    profile = SampledProfile(tuple(u.tolist()), tuple(v.tolist()))
    factors, b, r = ((0.2, -0.3), (-0.4, 0.5)), 0.8, 2.0 ** 9
    spec = OperatorSpec(1, 2, KernelSpec(2, ProductPowerBeta(factors, 1.5), (MinPower(b),)))
    res = apply_hardy_cesaro(spec, [profile], r, tol=1e-8)
    f = _mp_profile(profile)
    with mpmath.workdps(20):
        mp_factors = [(mpmath.mpf(c), mpmath.mpf(e)) for c, e in factors]
        edges = [(2 ** mpmath.mpf(x) / r) ** (1 / mpmath.mpf(b)) for x in u.tolist()]
        want = float(mpmath.quad(lambda m: density(mp_factors, 1.5, m, 1 - m) * f(m ** b * r),
                                 [x for x in edges if x < 1] + [1]))
    assert want == pytest.approx(0.67361588639526044, rel=1e-14)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error


def test_graded_input_with_a_node_beyond_the_float_range():
    # the node at log2 radius 1030 made 2.0 ** rho raise OverflowError; the
    # two segments' line is x**(-1/1030) throughout, so the value is
    # r**a times the kernel's power integral
    spec = OperatorSpec(1, 2, KernelSpec(2, ProductPowerBeta(((0.2, 0.3), (0.1, 0.2))),
                                         (MinPower(1.0),)))
    a, r = -1.0 / 1030.0, 2.0
    res = apply_hardy_cesaro(spec, [SampledProfile((0.0, 1030.0), (1.0, 0.5))], r)
    want = kernel_power_integral(spec.kernel, [a])
    assert res.status is IntegralStatus.CONVERGED and want.status is IntegralStatus.CONVERGED
    assert abs(res.value - r ** a * want.value) <= res.abs_error + r ** a * want.abs_error


class _EvaluateOnly(RadialProfile):
    """f(r) = r**-0.43 (1 + 0.1 sin ln r), with no log2 form of its own."""

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(~(r > 0.0)):
            raise ValueError("radius must be positive and finite")
        return r ** -0.43 * (1.0 + 0.1 * np.sin(np.log(r)))

    def local_exponent(self, end):
        return -0.43


def test_evaluate_only_input_under_a_steep_curve():
    # t**1.5 r underflows at the graded integrator's deepest nodes, where the
    # default log2_evaluate called evaluate(0.0); with t = e^v the value is
    # int e^{0.055 v} (-expm1 v)**0.2 (1 + 0.1 sin 1.5 v) dv
    # = B(0.055, 1.2) + 0.1 Im B(0.055 + 1.5i, 1.2)
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(-0.3, 0.2), (PowerCurve(1.5),)))
    tol = 1e-6
    res = apply_hardy_cesaro(spec, [_EvaluateOnly()], 1.0, tol=tol)
    with mpmath.workdps(30):
        s = 1 + mpmath.mpf(-0.3) + mpmath.mpf(1.5) * mpmath.mpf(-0.43)
        want = float(mpmath.beta(s, 1.2) + mpmath.im(mpmath.beta(s + 1.5j, 1.2)) / 10)
    assert want == pytest.approx(17.85118754122, rel=1e-11)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= min(res.abs_error, tol * want)


def _mp_min_commutator(factors, scale, curves, inputs, symbols, r):
    """The operator (no symbols) or commutator of truncated power laws
    (a, coefficient, inner radius) under a min-power kernel, as the 1-D
    integral over m = min(t) by mpmath."""
    with mpmath.workdps(DPS):
        r = mpmath.mpf(r)
        lo = max((mpmath.mpf(R) / r) ** (1 / mpmath.mpf(b)) for b, (_, _, R) in zip(curves, inputs))
        # order at m = 0 of inputs that do not vanish there (inner radius 0)
        at0 = min(c for c, _ in factors) + sum(a * b for b, (a, _, _) in zip(curves, inputs))

        def f(m, u):
            out = density(factors, scale, m, u)
            for b, (a, c, _) in zip(curves, inputs):
                out *= c * (m ** b * r) ** a
            for b, (beta, c) in zip(curves, symbols):
                out *= c * r ** beta * -mpmath.expm1(b * beta * mpmath.log1p(-u))
            return out

        order = float(sum(e + 1 for _, e in factors)) - 1 + len(symbols)
        return integral(f, lo, 0.0 if lo > 0 else at0, order)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3])
def test_min_power_operator_and_commutator_match_mpmath(n):
    # reduced to n = 1; on the tensor mesh an n = 2 value was inconclusive
    # (abs_error 1.1e-2 at tol 1e-4 after 2.16 M evaluations)
    factors = ((0.2, -0.3), (-0.4, 0.5), (0.1, 0.2))[:n]
    curves = (0.8, 1.3)
    inputs = ((-0.6, 2.0, 0.5), (0.3, 1.0, 0.25))
    symbols = ((0.4, 1.2), (0.7, -0.5))
    spec = OperatorSpec(2, n, KernelSpec(n, ProductPowerBeta(factors, 1.5),
                                         tuple(MinPower(b) for b in curves)))
    profiles = [TruncatedPowerLaw(*f) for f in inputs]
    for r in (0.9, 40.0):
        op = apply_hardy_cesaro(spec, profiles, r)
        com = apply_commutator(spec, profiles, [PowerSymbol(*s) for s in symbols], r)
        for res, syms in ((op, ()), (com, symbols)):
            want = float(_mp_min_commutator(factors, 1.5, curves, inputs, syms, r))
            assert res.status is IntegralStatus.CONVERGED
            assert abs(res.value - want) <= 1e-10 * abs(want)
            assert abs(res.value - want) <= res.abs_error


@pytest.mark.filterwarnings("error")
def test_min_power_operator_with_steep_curve_and_strong_singularity():
    # order -0.93 at m = 0 grades to nodes near 1e-305, where m**1.3 would
    # underflow ("curve vanished at a quadrature node"); on the tensor mesh
    # the value was inconclusive (17.12, abs_error 1.8, 2.16 M evaluations)
    factors, curves = ((0.2, -0.3), (-0.4, 0.5)), (0.8, 1.3)
    inputs = ((-0.5, 1.0, 0.0), (-0.1, 1.0, 0.0))
    spec = OperatorSpec(2, 2, KernelSpec(2, ProductPowerBeta(factors, 1.5),
                                         tuple(MinPower(b) for b in curves)))
    res = apply_hardy_cesaro(spec, [PowerLaw(a, c) for a, c, _ in inputs], 2.0, tol=1e-6)
    want = float(_mp_min_commutator(factors, 1.5, curves, inputs, (), 2.0))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error


def _reference_edges(setup, u):
    """The largest support start ``lower`` in v at one log2 radius u, and
    the edges above it: the per-radius construction the block-wide edges
    must equal there."""
    eps = np.finfo(float).eps
    lower = max(((a - u) * math.log(2.0) / b for a, b in zip(setup["starts"], setup["bs"])
                 if a is not None), default=-math.inf)
    cuts = np.concatenate([
        (rho[rho < u - 4.0 * eps * np.maximum(abs(u), np.abs(rho))] - u) * (math.log(2.0) / b)
        for rho, b in zip(setup["breaks"], setup["bs"])])
    return lower, np.unique(cuts[cuts > lower])


@pytest.mark.parametrize("seed", range(4))
def test_block_edges_match_per_radius_reference(seed):
    rng = np.random.default_rng(seed)
    profiles = []
    for count in rng.integers(2, 40, size=2):
        u = np.unique(np.round(rng.uniform(-10.0, 10.0, count) * 8.0) / 8.0)
        profiles.append(SampledProfile(tuple(u.tolist()), (0.0,) + (1.0,) * (u.size - 1)))
    profiles[1] = SumProfile((profiles[1], TruncatedPowerLaw(-0.5, 1.0, 2.0 ** rng.uniform(-4, 4))))
    bs = (2e-3, 1e-3) if seed % 2 else (float(rng.choice([0.5, 1.7])), float(rng.choice([0.8, 2.0])))
    spec = OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.2, 0.1), tuple(PowerCurve(b) for b in bs)))
    setup = operators._piecewise_setup(spec, profiles, ())
    nodes = np.concatenate([p.log2_breakpoints() for p in profiles])
    # radii below the support start (only vanishing pieces), on breakpoints and just off them
    u = np.concatenate([rng.uniform(-30.0, 30.0, 200), nodes, nodes + 1e-15, nodes - 1e-13])
    ranges = operators._breakpoint_ranges(setup, u)
    # one block, blocks split at random rows, and one radius at a time
    cuts = [0] + sorted(rng.choice(np.arange(1, u.size), size=5, replace=False).tolist()) + [u.size]
    blockings = []
    for bounds in ([0, u.size], cuts, list(range(u.size + 1))):
        pieces = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            lo, hi, sizes = operators._block_edges(setup, u[a:b], [(f[a:b], l[a:b])
                                                                   for f, l in ranges])
            ends = np.cumsum(sizes)
            pieces += [(lo[end - size:end], hi[end - size:end])
                       for size, end in zip(sizes.tolist(), ends.tolist())]
        blockings.append(pieces)
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
               for other in blockings[1:] for x, y in zip(blockings[0], other))
    for x, (lo, hi) in zip(u.tolist(), blockings[0]):
        lower, reference = _reference_edges(setup, x)
        # pieces from t = 0 to t = 1, one after the other
        assert lo[0] == -np.inf and hi[-1] == 0.0 and np.array_equal(lo[1:], hi[:-1])
        edges = hi[:-1]
        assert np.array_equal(edges[edges > lower], reference)
        assert np.all(edges >= lower - 1e-6 * (1.0 + abs(lower)))
    # Gauss sub-pieces of pieces as the ramps have them
    lo = np.concatenate([-np.exp2(rng.uniform(-8.0, 10.0, 50)), [-3.0, -0.5]])
    hi = np.concatenate([np.where(rng.random(50) < 0.5, 0.0, lo[:50] * rng.uniform(0.0, 1.0, 50)),
                         [-1e-15, 0.0]])
    plan = operators._gauss_plan(lo, hi)
    sub_lo, sub_hi, sizes = operators._gauss_pieces(lo, hi, plan)
    assert np.all(sizes <= plan[2])
    ends = np.cumsum(sizes)
    for i, (size, end) in enumerate(zip(sizes.tolist(), ends.tolist())):
        a, b = sub_lo[end - size:end], sub_hi[end - size:end]
        assert b[0] == hi[i] and a[-1] == lo[i] and np.array_equal(a[:-1], b[1:])
        # no wider than _PIECE_WIDTH or than the distance to 0, up to rounding
        width = (b - a) * (1.0 - 1e-12)
        assert np.all(width > 0.0) and np.all(width <= operators._PIECE_WIDTH)
        assert np.all(width[b < 0.0] <= -b[b < 0.0])
    # an input that is a ramp for eight octaves: at curves this flat more
    # than _MAX_PIECES Gauss pieces, and the radius is left to the graded integrator
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.2, 0.1), (PowerCurve(min(bs)),)))
    setup = operators._piecewise_setup(spec, [SampledProfile((0.0, 8.0), (0.0, 1.0))], ())
    x = np.array([9.0])
    _, _, evaluations, state = operators._block_values(setup, x,
                                                      operators._breakpoint_ranges(setup, x), 1e-10)
    # left aside before any Gauss sum, or converged on the line
    assert (state[0] == operators._INCONCLUSIVE) == seed % 2
    assert (evaluations[0] == 0) == seed % 2


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_steep_power_curve_on_input_not_vanishing_near_zero(tol):
    # grading toward t = 0 reaches nodes near 1e-305, where t**1.5
    # underflows; the integrand raised "curve vanished at a quadrature node"
    u = tuple(float(x) for x in range(-4, 5))
    v = tuple(2.0 ** (-0.43 * x) * (1.0 + 0.1 * math.sin(max(x, -2.0) + 2.0)) for x in u)
    profile = SampledProfile(u, v)
    c, e, b = -0.3, 0.2, 1.5
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(c, e), (PowerCurve(b),)))
    res = apply_hardy_cesaro(spec, [profile], 1.0, tol=tol)
    f = _mp_profile(profile)
    with mpmath.workdps(30):
        # t at each node below r = 1; below the first node the input is the
        # power law v_0 (x / 2**u_0)**slope, so that part is a Beta integral
        cuts = [mpmath.mpf(2) ** (mpmath.mpf(x) / b) for x in u if x < 0]
        slope = (mpmath.log(v[1], 2) - mpmath.log(v[0], 2)) / (u[1] - u[0])
        head = (v[0] * mpmath.mpf(2) ** (-u[0] * slope)
                * mpmath.betainc(c + b * slope + 1, e + 1, 0, cuts[0]))
        tail = mpmath.quad(lambda t: t ** c * (1 - t) ** e * f(t ** b), cuts + [1])
        want = float(head + tail)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error


@st.composite
def _power_inputs(draw, m):
    """m PowerLaw or TruncatedPowerLaw inputs whose operator converges on
    a kernel with c >= 0 and curves t**b, b <= 1.5."""
    out = []
    for _ in range(m):
        coefficient = draw(st.floats(0.25, 4.0))
        if draw(st.booleans()):
            out.append(PowerLaw(draw(st.floats(-0.3, 1.0)), coefficient))
        else:
            out.append(TruncatedPowerLaw(draw(st.floats(-3.0, 1.0)), coefficient,
                                         draw(st.floats(0.1, 4.0))))
    return out


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 2), data=st.data())
def test_dilation_covariance(m, data):
    # U(f)(lam r) = U(f(lam .))(r); for the commutator the symbols dilate
    # as well, b(lam x) = c lam**beta |x|**beta
    lam, r = data.draw(st.floats(0.1, 10.0)), data.draw(st.floats(0.25, 4.0))
    kernel = KernelSpec(1, PowerBeta(data.draw(st.floats(0.0, 1.0)),
                                     data.draw(st.floats(-0.5, 1.0))),
                        tuple(PowerCurve(data.draw(st.floats(0.5, 1.5))) for _ in range(m)))
    spec = OperatorSpec(m, 1, kernel)
    profiles = data.draw(_power_inputs(m))
    scaled = [f.argument_scaled(lam) for f in profiles]
    symbols = [PowerSymbol(data.draw(st.floats(0.1, 0.9)), data.draw(st.floats(0.5, 2.0)))
               for _ in range(m)]
    dilated = [PowerSymbol(s.beta, s.coefficient * lam ** s.beta) for s in symbols]
    for far, near in ((apply_hardy_cesaro(spec, profiles, lam * r),
                       apply_hardy_cesaro(spec, scaled, r)),
                      (apply_commutator(spec, profiles, symbols, lam * r),
                       apply_commutator(spec, scaled, dilated, r))):
        assert far.status is near.status is IntegralStatus.CONVERGED
        assert abs(far.value - near.value) <= far.abs_error + near.abs_error


# --------------------------------------------------------------------------
# far pieces by prefix sums: curves with one exponent b


def _mp_piece_terms(profile, x):
    """[(C, a)] with the input 2**y -> sum C 2**(a y) on its smooth piece
    around the log2 radius x, in mpmath from the nodes; None on a ramp."""
    if isinstance(profile, SumProfile):
        parts = [_mp_piece_terms(p, x) for p in profile.terms]
        return None if None in parts else [t for part in parts for t in part]
    if isinstance(profile, TruncatedPowerLaw):
        inside = x > math.log2(profile.inner_radius)
        return [(mpmath.mpf(profile.coefficient), mpmath.mpf(profile.exponent))] if inside else []
    u, v = profile.log2_radii, profile.values
    i = min(max(bisect.bisect_right(u, x) - 1, 0), len(u) - 2)
    if v[i] > 0 and v[i + 1] > 0:
        w0, w1 = mpmath.log(v[i], 2), mpmath.log(v[i + 1], 2)
        a = (w1 - w0) / (mpmath.mpf(u[i + 1]) - u[i])
        return [(2 ** (w0 - a * u[i]), a)]
    return [] if v[i] == v[i + 1] == 0 else None


def _mp_far(psi, b, profiles, symbols, subset, u, edges):
    """The symbol subset's term of the operator over the pieces with no
    ramp between the ``edges`` (log2 radii of the inputs' argument), the
    first from t = 0: psi scale t**c (1-t)**e times the inputs' products
    and the subset's symbol factors, each piece a sum of incomplete Beta
    integrals at dps 50."""
    with mpmath.workdps(50):
        c, e, scale = (mpmath.mpf(x) for x in psi)
        b, u = mpmath.mpf(b), mpmath.mpf(u)
        total = mpmath.mpf(0)
        for j, top in enumerate(edges):
            mid = edges[0] - 1.0 if j == 0 else 0.5 * (edges[j - 1] + top)
            parts = [_mp_piece_terms(p, mid) for p in profiles]
            if None in parts:
                continue
            low = 0 if j == 0 else 2 ** ((edges[j - 1] - u) / b)
            for choice in itertools.product(*parts):
                coef = scale * mpmath.fprod(C for C, _ in choice)
                a = mpmath.fsum(a for _, a in choice)
                for sym, bit in zip(symbols, subset):
                    coef *= -sym.coefficient if bit else sym.coefficient * 2 ** (sym.beta * u)
                    a += sym.beta if bit else 0
                total += coef * 2 ** (a * u) * mpmath.betainc(c + a * b + 1, e + 1, low,
                                                              2 ** ((top - u) / b))
        return total


def _octaves(count, step, slope=-0.3, start=-2.0, vanishing=True):
    """A sampled input with ``count`` nodes ``step`` octaves apart: 1.3
    2**(slope x) (1 + 0.2 sin x), 0 at its first node when ``vanishing``."""
    x = start + step * np.arange(count)
    v = 1.3 * np.exp2(slope * x) * (1.0 + 0.2 * np.sin(x))
    if vanishing:
        v[0] = 0.0
    return SampledProfile(tuple(x.tolist()), tuple(v.tolist()))


# (psi, b, inputs, symbols, log2 radii)
_FAR_CASES = {
    "401-nodes": ((0.3, 0.2, 1.0), 1.0, [_octaves(401, 0.125)], [], (2.0, 7.5, 15.25, 21.0)),
    "octave-nodes": ((0.3, 0.2, 1.0), 1.0, [_octaves(25, 1.0)], [], (2.0, 7.5, 15.25, 21.0)),
    "sum": ((0.3, 0.2, 1.5), 0.8, [SumProfile((_octaves(9, 1.0),
                                               TruncatedPowerLaw(-0.6, 0.9, 2.0 ** 0.4)))],
            [], (3.0, 6.5, 12.0)),
    "commutator": ((0.3, -0.4, 1.2), 0.8, [_octaves(9, 0.75)], [PowerSymbol(0.4, 1.1)],
                   (3.0, 6.5, 12.0)),
    "commutator-m2": ((0.3, -0.4, 1.2), 0.8,
                      [_octaves(9, 0.75), SumProfile((_octaves(5, 1.0, slope=0.2),
                                                      TruncatedPowerLaw(-0.7, 0.9, 2.0 ** 0.4)))],
                      [PowerSymbol(0.4, 1.1), PowerSymbol(0.7, -0.8)], (3.0, 6.5, 12.0)),
    "m2": ((0.3, 0.2, 1.0), 1.3, [_octaves(9, 1.0), _octaves(7, 0.6, slope=0.1)], [],
           (3.0, 6.5, 12.0)),
    "e-negative": ((0.3, -0.6, 1.0), 1.0, [_octaves(33, 0.5)], [], (3.0, 6.5, 12.0)),
    "e-above-5": ((0.3, 7.0, 1.0), 1.0, [_octaves(33, 0.5)], [], (3.0, 6.5, 12.0)),
    # c + b a = -1 on every segment: s = 0 exactly, and within 3e-10 of it
    "s-zero": ((0.0, 0.2, 1.0), 1.0, [SampledProfile(tuple(range(-2, 12)),
                                                     (0.0,) + tuple(2.0 ** -k for k in range(-1, 12)))],
               [], (4.0, 9.5, 14.0)),
    "s-near-zero": ((3e-10, 0.2, 1.0), 1.0, [SampledProfile(tuple(range(-2, 12)),
                                                            (0.0,) + tuple(2.0 ** -k for k in range(-1, 12)))],
                    [], (4.0, 9.5, 14.0)),
    # from log2 radius -0.75 on, piece 0 from t = 0 alone
    "not-vanishing": ((0.3, 0.5, 1.0), 1.0, [_octaves(33, 0.5, slope=0.2, vanishing=False)], [],
                      (-0.75, 3.0, 6.5, 12.0)),
}


@pytest.mark.parametrize("name", sorted(_FAR_CASES))
def test_far_values_match_mpmath(name):
    psi, b, profiles, symbols, radii = _FAR_CASES[name]
    m = len(profiles)
    spec = OperatorSpec(m, 1, KernelSpec(1, PowerBeta(*psi), (PowerCurve(b),) * m))
    setup = operators._piecewise_setup(spec, profiles, symbols)
    far = setup["far"]
    assert far is not None
    u = np.array(radii)
    J = operators._far_count(far, u)
    assert np.all(J > 0)
    values, errors, rows = operators._far_values(setup, u, J)
    # one value per radius and symbol subset, subset after subset
    assert rows.tolist() == list(range(u.size)) * len(far["subsets"])
    for value, error, row, subset in zip(values, errors, rows, np.repeat(far["subsets"], u.size,
                                                                         axis=0)):
        edges = far["edges"][:J[row]].tolist()
        # every piece below the cut ends at or below t = h
        assert 2.0 ** ((edges[-1] - u[row]) / b) <= quadrature._split(psi[1])
        want = _mp_far(psi, b, profiles, symbols, subset, u[row], edges)
        assert abs(value - want) <= error
        assert abs(value - want) <= 1e-12 * abs(want)


def test_far_pieces_leave_beta_pieces_the_near_pieces(monkeypatch):
    # a 401-node input an eighth of an octave apart: beta_pieces sees at
    # most the pieces from the last edge at or below the cut t = 1/2 up
    # to t = 1, times the terms of a piece, of each radius
    profile = _octaves(401, 0.125)
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.3, 0.2), (PowerCurve(1.0),)))
    grid = log2_grid(-24.0, 25.0)
    seen = []

    def counting(a, e, lo, hi):
        seen.append(np.broadcast(a, lo, hi).size)
        return quadrature.beta_pieces(a, e, lo, hi)

    monkeypatch.setattr(operators, "beta_pieces", counting)
    apply_to_profile(spec, [profile], grid)
    edges = np.array(profile.log2_radii)
    near = 0
    for u in grid:
        below = edges[edges <= u - 1.0]
        near += np.count_nonzero((edges >= below[-1]) & (edges < u)) if below.size else (
            np.count_nonzero(edges < u) + 1)
    assert 0 < sum(seen) <= near


def test_distinct_curve_exponents_take_no_prefix_path(monkeypatch):
    spec, profiles, symbols = _sampled_case()
    assert operators._piecewise_setup(spec, profiles, symbols)["far"] is None
    want = commutator_to_profile(spec, profiles, symbols, log2_grid(-25, 25))

    def no_far(*args):
        raise AssertionError("far pieces on a setup with distinct b")

    monkeypatch.setattr(operators, "_far_values", no_far)
    monkeypatch.setattr(operators, "_far_ramps", no_far)
    got = commutator_to_profile(spec, profiles, symbols, log2_grid(-25, 25))
    assert got.values == want.values


def test_gauss_sums_in_one_pass_or_many(monkeypatch):
    spec, profiles, symbols = _sampled_case()
    grid = log2_grid(-25, 25)
    calls = []
    counting = operators._piece_sums

    def spy(setup, lo, *args):
        calls.append(lo.size)
        return counting(setup, lo, *args)

    monkeypatch.setattr(operators, "_piece_sums", spy)
    one = commutator_to_profile(spec, profiles, symbols, grid)
    passes = len(calls)
    monkeypatch.setattr(operators, "_BLOCK_PIECES", 7)
    many = commutator_to_profile(spec, profiles, symbols, grid)
    assert len(calls) - passes > 2 * passes and max(calls[passes:]) <= 7
    assert one.values == many.values
