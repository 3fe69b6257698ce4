import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_cesaro import operators
from hardy_cesaro.operators import (OperatorDivergenceError, OperatorSpec,
                                    PowerSymbol, apply_commutator,
                                    apply_hardy_cesaro, apply_to_profile,
                                    commutator_to_profile, log2_grid,
                                    tail_power_beta)
from hardy_cesaro.profiles import (PowerLaw, SampledProfile, ScaledProfile,
                                   SumProfile, TruncatedPowerLaw)
from hardy_cesaro.quadrature import (IntegralResult, IntegralStatus, KernelSpec,
                                     MinPower, PowerBeta, PowerCurve, ProductPowerBeta,
                                     PsiCallback, integrate_unit_cube)
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


def test_tail_power_beta_checks_the_series_bound(monkeypatch):
    # split at 1/2 whatever e: at (-1.5, 40, 0.45) the series then loses
    # every digit, its bound says so, and the graded quadrature takes over
    import hardy_cesaro.operators as operators
    monkeypatch.setattr(operators, "_split", lambda e: 0.5)
    res = tail_power_beta(-1.5, 40.0, 0.45)
    assert res.status is IntegralStatus.CONVERGED
    assert res.evaluations > 0
    assert res.value == pytest.approx(float(_tail_quad(-1.5, 40.0, 0.45)), rel=1e-8)


def test_tail_power_beta_array_matches_scalar_calls():
    t0 = np.concatenate([[0.0, 1.0], np.geomspace(1e-25, 0.999, 40)])
    for a, e in ((-1.2, 0.1), (-2.0, 0.5), (0.3, -0.4)):
        whole = tail_power_beta(a, e, t0[1:]).value
        for t, v in zip(t0[1:], whole):
            assert tail_power_beta(a, e, float(t)).value == v
    out = tail_power_beta(-1.2, 0.1, t0)
    assert out.status is IntegralStatus.DIVERGENT
    assert np.isinf(out.value[0])


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
# piecewise Gauss path: sampled and sum inputs that vanish near 0


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

        lo = max(t_of(p.support_start(), b) for p, b in zip(profiles, bs)
                 if p.support_start() is not None)
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
        inner = mpmath.quad(lambda t: g(t, 1 - t), edges) if len(edges) > 1 else 0
        # s = y**p takes the s**(e + m) behaviour at t = 1 off the integrand
        p = 1 / (1 + mpmath.mpf(e) + len(symbols))
        return inner + mpmath.quad(lambda y: g(1 - y ** p, y ** p) * p * y ** (p - 1),
                                   [0, (1 - edges[-1]) ** (1 / p)])


@st.composite
def _vanishing_input(draw):
    """A sampled input whose first node is 0, alone or plus a cut-off power law."""
    count = draw(st.integers(3, 7))
    start = draw(st.floats(-3.0, 1.0))
    step = draw(st.floats(0.4, 1.5))
    slope = draw(st.floats(-1.5, 0.5))
    factors = draw(st.lists(st.floats(0.6, 1.4), min_size=count, max_size=count))
    u = [start + step * i for i in range(count)]
    v = [0.0] + [2.0 ** (slope * x) * k for x, k in zip(u[1:], factors[1:])]
    sampled = SampledProfile(tuple(u), tuple(v))
    if not draw(st.booleans()):
        return sampled
    cut = TruncatedPowerLaw(draw(st.floats(-1.5, 0.5)), draw(st.floats(0.5, 2.0)),
                            2.0 ** draw(st.floats(-2.0, 3.0)))
    return SumProfile((sampled, cut))


@settings(max_examples=24, deadline=None)
@given(m=st.integers(1, 2), data=st.data())
def test_piecewise_path_matches_mpmath(m, data):
    psi = (data.draw(st.floats(-0.5, 1.0)), data.draw(st.floats(-0.6, 1.5)),
           data.draw(st.floats(0.5, 2.0)))
    bs = [data.draw(st.floats(0.5, 2.0)) for _ in range(m)]
    profiles = [data.draw(_vanishing_input()) for _ in range(m)]
    symbols = []
    if data.draw(st.booleans()):
        symbols = [PowerSymbol(data.draw(st.floats(0.1, 0.9)),
                               data.draw(st.sampled_from([-1.3, 0.6, 1.0])))
                   for _ in range(m)]
    spec = OperatorSpec(m, 1, KernelSpec(1, PowerBeta(*psi), tuple(PowerCurve(b) for b in bs)))
    start = max(p.support_start() for p in profiles)
    r = 2.0 ** (start + data.draw(st.floats(0.2, 12.0)))
    assert operators._piecewise_setup(spec, profiles, symbols) is not None
    if symbols:
        res = apply_commutator(spec, profiles, symbols, r)
    else:
        res = apply_hardy_cesaro(spec, profiles, r)
    want = float(_mp_commutator(psi, bs, profiles, symbols, r))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= 1e-9 * abs(want)
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


@pytest.mark.parametrize("with_symbols", [False, True])
def test_piecewise_values_independent_of_grid_and_pointwise(with_symbols):
    spec, profiles, symbols = _sampled_case()
    symbols = symbols if with_symbols else []

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
    """Edges of the pieces at one log2 radius u, or None where the integrand
    vanishes: the per-radius construction the block-wide edges must equal."""
    eps, width = np.finfo(float).eps, operators._PIECE_WIDTH
    lower = max((a - u) * math.log(2.0) / b for a, b in zip(setup["starts"], setup["bs"])
                if a is not None)
    if not lower < 0.0:
        return None
    cuts = np.concatenate([
        (rho[rho < u - 4.0 * eps * np.maximum(abs(u), np.abs(rho))] - u) * (math.log(2.0) / b)
        for rho, b in zip(setup["breaks"], setup["bs"])])
    cuts = cuts[cuts > lower]
    h = min(width, -float(np.max(cuts, initial=lower)))
    grading = -h * np.exp2(np.arange(max(0, math.ceil(math.log2(width / h))) + 1.0))
    steps = min(math.ceil((grading[-1] - lower) / width), operators._MAX_PIECES)
    grading = np.append(grading, grading[-1] - width * np.arange(1.0, steps + 1.0))
    return np.unique(np.concatenate(([lower], cuts, grading[grading > lower])))


@pytest.mark.parametrize("seed", range(4))
def test_block_edges_match_per_radius_reference(seed):
    rng = np.random.default_rng(seed)
    profiles = []
    for count in rng.integers(2, 40, size=2):
        u = np.unique(np.round(rng.uniform(-10.0, 10.0, count) * 8.0) / 8.0)
        profiles.append(SampledProfile(tuple(u.tolist()), (0.0,) + (1.0,) * (u.size - 1)))
    profiles[1] = SumProfile((profiles[1], TruncatedPowerLaw(-0.5, 1.0, 2.0 ** rng.uniform(-4, 4))))
    # curves this flat put radii far above the support starts over _MAX_PIECES
    bs = (2e-3, 1e-3) if seed % 2 else (float(rng.choice([0.5, 1.7])), float(rng.choice([0.8, 2.0])))
    spec = OperatorSpec(2, 1, KernelSpec(1, PowerBeta(0.2, 0.1), tuple(PowerCurve(b) for b in bs)))
    setup = operators._piecewise_setup(spec, profiles, ())
    nodes = np.concatenate([p.log2_breakpoints() for p in profiles])
    # radii below the support start (no pieces), on breakpoints and just off them
    u = np.concatenate([rng.uniform(-30.0, 30.0, 200), nodes, nodes + 1e-15, nodes - 1e-13])
    reference = [_reference_edges(setup, x) for x in u.tolist()]
    assert any(e is None for e in reference)
    assert any(e is not None and e.size > operators._MAX_PIECES for e in reference) == seed % 2
    lower = operators._lower_limits(setup, u)
    # one block, and blocks split at random rows
    cuts = [0] + sorted(rng.choice(np.arange(1, u.size), size=5, replace=False).tolist()) + [u.size]
    for bounds in ([0, u.size], cuts):
        edges, sizes = [], []
        for a, b in zip(bounds[:-1], bounds[1:]):
            e, s = operators._block_edges(setup, u[a:b], lower[a:b])
            edges.append(e)
            sizes.extend(s.tolist())
        ends = np.cumsum(sizes)
        edges = np.concatenate(edges)
        for ref, size, end in zip(reference, sizes, ends.tolist()):
            if ref is None:
                assert size == 0
            else:
                assert np.array_equal(edges[end - size:end], ref)


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
