import numpy as np
import pytest

from hardy_cesaro.operators import (OperatorDivergenceError, OperatorSpec,
                                    PowerSymbol, apply_commutator,
                                    apply_hardy_cesaro, apply_to_profile,
                                    commutator_to_profile, log2_grid,
                                    tail_power_beta)
from hardy_cesaro.profiles import (PowerLaw, SampledProfile, ScaledProfile,
                                   TruncatedPowerLaw)
from hardy_cesaro.quadrature import (IntegralStatus, KernelSpec, PowerBeta,
                                     PowerCurve, PsiCallback)


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


def test_commutator_status_follows_its_terms():
    # the a <= -1 tail fallback cannot resolve psi ~ (1-t)^-0.97 here: every
    # subset term is NaN and inconclusive, and so must be their sum
    spec = OperatorSpec(1, 1, KernelSpec(1, PowerBeta(0.0, -0.97), (PowerCurve(1.0),)))
    f = [TruncatedPowerLaw(-1.5, 1.0, 1.0)]
    with np.errstate(all="ignore"):
        plain = apply_hardy_cesaro(spec, f, 2.0)
        comm = apply_commutator(spec, f, [PowerSymbol(0.5, 1.0)], 2.0)
    assert plain.status is IntegralStatus.INCONCLUSIVE
    assert comm.status is IntegralStatus.INCONCLUSIVE


def test_commutator_profile_closed_case():
    spec = identity_spec()
    out = commutator_to_profile(spec, [PowerLaw(0.0)], [PowerSymbol(0.5, 1.0)],
                                log2_grid(-2, 2))
    assert isinstance(out, PowerLaw)
    assert out.exponent == pytest.approx(0.5)
    assert out.coefficient == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_tail_power_beta_paths():
    # complete, incomplete, and substituted branches against scipy
    from scipy.integrate import quad
    cases = [(0.5, 0.0, 0.0), (0.5, 0.0, 0.25), (-0.5, -0.3, 0.4),
             (-1.5, -0.5, 0.3), (0.2, 1.5, 0.9)]
    for a, e, t0 in cases:
        res = tail_power_beta(a, e, t0, tol=1e-10)
        ref, _ = quad(lambda t: t ** a * (1.0 - t) ** e, max(t0, 1e-300), 1.0,
                      points=[1.0], limit=200)
        assert res.status is IntegralStatus.CONVERGED
        assert res.value == pytest.approx(ref, rel=1e-8)
    assert tail_power_beta(0.0, -1.0, 0.5).status is IntegralStatus.DIVERGENT
    assert tail_power_beta(0.0, 0.0, 1.0).value == 0.0


def test_scaled_zero_profile_passes_through():
    spec = identity_spec()
    zero = ScaledProfile(PowerLaw(0.0), 0.0)
    out = apply_to_profile(spec, [zero], log2_grid(-2, 2))
    assert out(1.0) == 0.0
