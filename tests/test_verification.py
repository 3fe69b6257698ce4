import math

import numpy as np
import pytest

from hardy_cesaro.operators import PowerSymbol
from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.profiles import PowerLaw, ScaledProfile, TruncatedPowerLaw
from hardy_cesaro.quadrature import KernelSpec, PowerBeta, PowerCurve
from hardy_cesaro.verification import (HypothesisError, NormStatusError, TheoremId,
                                       commutator_target_weight,
                                       sample_commutator_case, sample_upper_case,
                                       verify_commutator, verify_herz,
                                       verify_herz_upper, verify_mh_sharpness,
                                       verify_mh_upper)
from hardy_cesaro.weights import HomogeneousWeight

IDENTITY = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0),))
UNIT_W = [HomogeneousWeight.power(0.0, 1.0, 1)]


def canonical_sharp():
    return ExponentSet(m=1, n=1, d=1, alpha_i=[0.0], p_i=[1.0], q_i=[1.0],
                       lambda_i=[1.0], gamma_i=[0.0])


def test_sharpness_canonical_m1():
    rep = verify_mh_sharpness(canonical_sharp(), IDENTITY, UNIT_W)
    assert rep.theorem_id is TheoremId.T31_SHARP
    assert rep.passed
    assert abs(rep.ratio - 1.0) <= 1e-4


def test_sharpness_symmetric_m2():
    e = ExponentSet(m=2, n=1, d=1, alpha_i=[0.0, 0.0], p_i=[2.0, 2.0],
                    q_i=[2.0, 2.0], lambda_i=[0.5, 0.5], gamma_i=[0.0, 0.0])
    kernel = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0), PowerCurve(1.0)))
    rep = verify_mh_sharpness(e, kernel, UNIT_W * 2)
    assert rep.passed
    assert abs(rep.ratio - 1.0) <= 1e-4


def test_sharpness_degenerate_rejected():
    e = ExponentSet(m=1, n=1, d=1, alpha_i=[0.5], p_i=[1.0], q_i=[1.0],
                    lambda_i=[0.5], gamma_i=[0.0])
    with pytest.raises(HypothesisError):
        verify_mh_sharpness(e, IDENTITY, UNIT_W)


def test_upper_extremal_family_ratio_below_one():
    rep = verify_mh_upper(canonical_sharp(), IDENTITY,
                          [PowerLaw(0.0)], UNIT_W)
    assert rep.passed
    assert rep.ratio <= 1.0


def test_upper_zero_profile_passes():
    rep = verify_mh_upper(canonical_sharp(), IDENTITY,
                          [ScaledProfile(PowerLaw(0.0), 0.0)], UNIT_W)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.ratio == 0.0


def test_upper_randomized_small_suite():
    rng = np.random.default_rng(55)
    for i in range(10):
        m = 1 + (i % 2)
        ex, kernel, profiles, weights = sample_upper_case(rng, m, low_p=(i % 3 == 0))
        rep = verify_mh_upper(ex, kernel, profiles, weights, norm_tol=1e-4)
        assert rep.passed, f"case {i}: ratio {rep.ratio}"
        assert rep.ratio <= 1.0 + 1e-6


def test_upper_fails_fast_on_infinite_norm():
    with pytest.raises(NormStatusError):
        verify_mh_upper(canonical_sharp(), IDENTITY, [PowerLaw(-3.0)], UNIT_W)


def test_scaling_invariance_of_ratio():
    rng = np.random.default_rng(60)
    ex, kernel, profiles, weights = sample_upper_case(rng, 2)
    base = verify_mh_upper(ex, kernel, profiles, weights)
    scaled = [ScaledProfile(profiles[0], 3.7), profiles[1]]
    rep = verify_mh_upper(ex, kernel, scaled, weights)
    assert rep.ratio == pytest.approx(base.ratio, rel=1e-10)


def test_psi_scaling_invariance_of_ratio():
    rng = np.random.default_rng(61)
    ex, kernel, profiles, weights = sample_upper_case(rng, 1)
    base = verify_mh_upper(ex, kernel, profiles, weights)
    doubled = KernelSpec(1, PowerBeta(kernel.psi.c, kernel.psi.e,
                                      2.0 * kernel.psi.scale), kernel.curves)
    rep = verify_mh_upper(ex, doubled, profiles, weights)
    assert rep.lhs == pytest.approx(2.0 * base.lhs, rel=1e-10)
    assert rep.rhs == pytest.approx(2.0 * base.rhs, rel=1e-10)
    assert rep.ratio == pytest.approx(base.ratio, rel=1e-10)


def herz_exponents():
    return ExponentSet(m=1, n=1, d=1, alpha_i=[0.0], p_i=[2.0], q_i=[2.0],
                       lambda_i=[0.0], gamma_i=[0.0])


def test_herz_epsilon_sweep():
    rep = verify_herz(herz_exponents(), IDENTITY, UNIT_W)
    assert rep.theorem_id is TheoremId.T32_LOWER
    assert rep.passed
    ratios = [row["measured_ratio"] for row in rep.details[:-1]]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 1.9
    uppers = [row["upper_ratio"] for row in rep.details[:-1]]
    assert all(u <= 1.0 for u in uppers)


def test_herz_upper_report():
    f = TruncatedPowerLaw(-1.0, 1.0, 1.0)
    rep = verify_herz_upper(herz_exponents(), IDENTITY, [f], UNIT_W)
    assert rep.theorem_id is TheoremId.T32_UPPER
    assert rep.passed
    assert rep.ratio <= 1.0


def test_herz_requires_decreasing_eps():
    with pytest.raises(ValueError):
        verify_herz(herz_exponents(), IDENTITY, UNIT_W, eps_sequence=(0.1, 0.2))


def commutator_setup():
    # lambda_1 = (d+gamma_1)/q_1 + alpha_1 = 1/2 is the unique index at
    # which the constant input has a finite Morrey-Herz norm
    e = ExponentSet(m=1, n=1, d=1, alpha_i=[0.0], p_i=[1.0], q_i=[2.0],
                    lambda_i=[0.5], gamma_i=[0.0], r_i=[2.0], beta_i=[0.5])
    return e, IDENTITY, [PowerSymbol(0.5, 1.0)], [PowerLaw(0.0)], UNIT_W


def test_commutator_closed_case():
    e, kernel, symbols, profiles, weights = commutator_setup()
    rep = verify_commutator(e, kernel, symbols, profiles, weights)
    assert rep.theorem_id is TheoremId.T41_BOUND
    assert rep.passed
    assert math.isfinite(rep.ratio) and rep.ratio > 0


def test_commutator_zero_symbol_passes():
    e, kernel, _, profiles, weights = commutator_setup()
    rep = verify_commutator(e, kernel, [PowerSymbol(0.5, 0.0)], profiles, weights)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.ratio == 0.0


def test_commutator_symbol_order_mismatch():
    e, kernel, _, profiles, weights = commutator_setup()
    with pytest.raises(HypothesisError):
        verify_commutator(e, kernel, [PowerSymbol(0.4, 1.0)], profiles, weights)


def test_commutator_randomized_family_bounded():
    rng = np.random.default_rng(21)
    ratios = []
    for i in range(8):
        m = 1 + (i % 2)
        ex, kernel, symbols, profiles, weights = sample_commutator_case(rng, m)
        rep = verify_commutator(ex, kernel, symbols, profiles, weights)
        assert rep.passed
        ratios.append(rep.ratio)
    assert math.isfinite(max(ratios))


@pytest.mark.parametrize("m", [3, 4])
def test_families_beyond_m_two(m):
    # with q_i up to 2.5, as for m <= 2, no T31 member has aggregate q >= 1
    rng = np.random.default_rng(90 + m)
    for low_p in (False, True):
        ex, kernel, profiles, weights = sample_upper_case(rng, m, low_p=low_p)
        assert ex.m == len(profiles) == m
        rep = verify_mh_upper(ex, kernel, profiles, weights, norm_tol=1e-4)
        assert rep.passed and rep.ratio <= 1.0 + 1e-6
    ex, kernel, symbols, profiles, weights = sample_commutator_case(rng, m)
    assert ex.m == len(symbols) == m
    rep = verify_commutator(ex, kernel, symbols, profiles, weights)
    assert rep.passed and math.isfinite(rep.ratio)


def test_sharpness_randomized_consistency():
    # nontrivial kernels (b != 1, shaped psi), weights, and m up to 3: the
    # measured extremal ratio must match the closed prediction, and for
    # m = 1 it must reproduce D_lower * A1
    from hardy_cesaro.constants import (ConstantKind, StructuralKind,
                                        kernel_constant, structural_constant)
    from hardy_cesaro.parameters import TheoremMode, validate

    rng = np.random.default_rng(77)
    count = 0
    while count < 25:
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        q_i = rng.uniform(float(m), 3.0 * m, m)
        p_i = rng.uniform(1.0, 3.0, m)
        lambda_i = rng.uniform(0.5, 1.2, m)
        alpha_i = np.array([rng.uniform(-0.5, lam - 0.4) for lam in lambda_i])
        gamma_i = rng.uniform(-d + 0.3, 1.5, m)
        bs = rng.uniform(0.5, 1.8, m)
        psi = PowerBeta(float(rng.uniform(0, 1)), float(rng.uniform(-0.4, 1)),
                        float(rng.uniform(0.5, 2)))
        e1 = [-a - (d + g) / q + lam
              for a, g, q, lam in zip(alpha_i, gamma_i, q_i, lambda_i)]
        if psi.c + float(np.dot(e1, bs)) <= -0.8:
            continue
        es = ExponentSet(m=m, n=1, d=d, alpha_i=alpha_i, p_i=p_i, q_i=q_i,
                         lambda_i=lambda_i, gamma_i=gamma_i)
        if validate(es, TheoremMode.MORREY_HERZ_SHARP):
            continue
        kernel = KernelSpec(1, psi, tuple(PowerCurve(float(b)) for b in bs))
        ws = [HomogeneousWeight.power(float(g), float(rng.uniform(0.5, 2)), d)
              for g in gamma_i]
        rep = verify_mh_sharpness(es, kernel, ws, tol=1e-4)
        assert rep.passed
        assert abs(rep.ratio - 1.0) <= 1e-4
        if m == 1:
            a1 = kernel_constant(ConstantKind.A1, es, kernel).value
            dl = structural_constant(StructuralKind.D_LOWER, es, ws)
            assert abs(rep.lhs / (dl * a1) - 1.0) <= 1e-4
        count += 1


def test_commutator_numeric_path_against_quad():
    # a negative-exponent curve forces the numeric integrand; cross-check
    # one commutator value against direct quadrature
    from scipy.integrate import quad
    from hardy_cesaro.operators import apply_commutator

    kernel = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(-0.5),))
    from hardy_cesaro.operators import OperatorSpec
    spec = OperatorSpec(1, 1, kernel)
    from hardy_cesaro.profiles import PowerLaw
    f = PowerLaw(0.3, 1.0)
    beta, r = 0.4, 2.0
    res = apply_commutator(spec, [f], [PowerSymbol(beta, 1.0)], r, tol=1e-10)
    ref, _ = quad(lambda t: (t ** -0.5 * r) ** 0.3 * r ** beta
                  * (1.0 - t ** (-0.5 * beta)), 1e-12, 1.0, limit=200)
    assert res.value == pytest.approx(ref, rel=1e-7)


def test_norm_inconclusive_when_window_too_small():
    # slow decay inside a narrow window: the tail bound exceeds the
    # tolerance and the status degrades honestly
    f = TruncatedPowerLaw(-1.05, 1.0, 1.0)
    w = HomogeneousWeight.power(0.0, 1.0, 1)
    from hardy_cesaro.norms import NormStatus, herz_norm
    res = herz_norm(f, w, 0.0, 1.0, 1.0, window=(-4, 12), tol=1e-10)
    assert res.status is NormStatus.INCONCLUSIVE
    wide = herz_norm(f, w, 0.0, 1.0, 1.0, window=(-4, 400), tol=1e-6)
    assert wide.status is NormStatus.FINITE


def test_commutator_target_weight_reduces_without_r():
    e = ExponentSet(m=2, n=1, d=1, alpha_i=[0.0, 0.0], p_i=[2.0, 2.0],
                    q_i=[2.0, 2.0], lambda_i=[0.1, 0.1], gamma_i=[0.5, 0.25],
                    beta_i=[0.2, 0.2])
    ws = [HomogeneousWeight.power(0.5, 1.0, 1), HomogeneousWeight.power(0.25, 1.0, 1)]
    w = commutator_target_weight(e, ws)
    # with all r_i infinite this is the plain product weight
    from hardy_cesaro.parameters import derive_aggregates
    from hardy_cesaro.weights import product_weight
    agg = derive_aggregates(e)
    plain = product_weight(ws, e.q_i, agg.q, d=1)
    assert w.degree == pytest.approx(plain.degree, rel=1e-14)
    assert w.sphere_mass == pytest.approx(plain.sphere_mass, rel=1e-14)
