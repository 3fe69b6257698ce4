import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_cesaro import constants, quadrature
from hardy_cesaro.constants import (ConstantKind, StructuralKind, kernel_constant,
                                    structural_constant)
from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.quadrature import (CurveCallback, IntegralResult, IntegralStatus,
                                     KernelSpec, MinPower, PowerBeta, PowerCurve,
                                     ProductPowerBeta)
from hardy_cesaro.weights import HomogeneousWeight
import mpmath
from min_reference import DPS, integral, min_kernel_constant

IDENTITY = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0),))


def make(m=1, **kw):
    base = dict(m=m, n=1, d=1, alpha_i=[0.0] * m, p_i=[2.0] * m, q_i=[2.0] * m,
                lambda_i=[0.0] * m, gamma_i=[0.0] * m)
    base.update(kw)
    return ExponentSet(**base)


def test_a1_example():
    res = kernel_constant(ConstantKind.A1, make(), IDENTITY)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_xiao_example():
    res = kernel_constant(ConstantKind.XIAO, make(), IDENTITY)
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_xiao_log_more_singular():
    # the log(2/t) factor strictly dominates: Xiao finite, XiaoLog larger
    e = make(p_i=[2.0])
    plain = kernel_constant(ConstantKind.XIAO, e, IDENTITY)
    logged = kernel_constant(ConstantKind.XIAO_LOG, e, IDENTITY)
    assert logged.status is IntegralStatus.CONVERGED
    assert logged.value > plain.value
    # closed form: int t^{-1/2} log(2/t) = 2 log 2 + 4
    assert logged.value == pytest.approx(2.0 * math.log(2.0) + 4.0, rel=1e-8)


def test_a_constant_uses_p():
    e = make(p_i=[2.0], gamma_i=[0.0])
    res = kernel_constant(ConstantKind.A, e, IDENTITY)
    assert res.value == pytest.approx(2.0, rel=1e-12)  # int t^{-1/2}


def test_a2_divergence_verdict():
    e = make(alpha_i=[0.5], q_i=[1.0])  # e_1 = -(1+0)/1 - 0.5 = -1.5
    res = kernel_constant(ConstantKind.A2, e, IDENTITY)
    assert res.status is IntegralStatus.DIVERGENT


def test_counterexample_commutator_cor():
    # psi(t) = t/(1-t), exponent gamma_1 - lambda - d/q_1 = 1:
    # the cutoff integral converges to 1 while the plain comparison diverges
    e = make(q_i=[1.0], p_i=[1.0], gamma_i=[2.0])
    kernel = KernelSpec(1, PowerBeta(1.0, -1.0), (PowerCurve(1.0),))
    cor = kernel_constant(ConstantKind.COMMUTATOR_COR, e, kernel)
    assert cor.status is IntegralStatus.CONVERGED
    assert cor.value == pytest.approx(1.0, abs=1e-6)
    plain = kernel_constant(ConstantKind.COMMUTATOR_COR_PLAIN, e, kernel)
    assert plain.status is IntegralStatus.DIVERGENT


def test_commutator_mh_folding_and_numeric_agree():
    e = make(q_i=[2.0], lambda_i=[0.4], beta_i=[0.3], r_i=[4.0])
    folded = kernel_constant(ConstantKind.COMMUTATOR_MH, e, IDENTITY)
    bent = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0 + 1e-12),))
    numeric = kernel_constant(ConstantKind.COMMUTATOR_MH, e, bent, tol=1e-10)
    assert folded.status is IntegralStatus.CONVERGED
    assert numeric.value == pytest.approx(folded.value, rel=1e-8)


def test_kernel_constant_monotone_in_singularity():
    # with |s| <= 1 the integral grows as exponents move toward -1
    # (t**e decreases in e on (0,1), so the value is nonincreasing in e_i)
    from hardy_cesaro.quadrature import kernel_power_integral
    rng = np.random.default_rng(13)
    for _ in range(20):
        b = float(rng.uniform(0.5, 2.0))
        k = KernelSpec(1, PowerBeta(float(rng.uniform(0, 1)),
                                    float(rng.uniform(0, 1))), (PowerCurve(b),))
        e1 = float(rng.uniform(-0.8, 1.0))
        e2 = e1 + float(rng.uniform(0.05, 0.5))
        v1 = kernel_power_integral(k, [e1]).value
        v2 = kernel_power_integral(k, [e2]).value
        assert v2 <= v1 * (1.0 + 1e-12)


def test_cutoff_dominance():
    # kind COMMUTATOR_COR <= COMMUTATOR_COR_PLAIN whenever both converge
    rng = np.random.default_rng(17)
    for _ in range(15):
        e = make(q_i=[float(rng.uniform(1, 3))], p_i=[1.0],
                 gamma_i=[float(rng.uniform(-0.5, 1.0))],
                 lambda_i=[float(rng.uniform(0, 1))])
        kernel = KernelSpec(1, PowerBeta(float(rng.uniform(0.5, 2.0)),
                                         float(rng.uniform(0, 1))),
                            (PowerCurve(1.0),))
        cor = kernel_constant(ConstantKind.COMMUTATOR_COR, e, kernel)
        plain = kernel_constant(ConstantKind.COMMUTATOR_COR_PLAIN, e, kernel)
        if plain.status is IntegralStatus.CONVERGED:
            assert cor.status is IntegralStatus.CONVERGED
            assert cor.value <= plain.value * (1.0 + 1e-12)


def test_c_upper_examples():
    assert structural_constant(StructuralKind.C_UPPER,
                               make(alpha_i=[1.0], lambda_i=[1.0])) == 2.0
    val = structural_constant(StructuralKind.C_UPPER,
                              make(p_i=[0.5], lambda_i=[1.0], q_i=[1.0]))
    assert val == pytest.approx(18.0 + 12.0 * math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        structural_constant(StructuralKind.C_UPPER, make(p_i=[0.5]))  # p<1, lam=0


def test_d_lower_trivial_for_single_factor():
    e = make(p_i=[1.5], q_i=[2.0], lambda_i=[1.0], alpha_i=[0.2], gamma_i=[0.5])
    w = [HomogeneousWeight.power(0.5, 1.7, 1)]
    assert structural_constant(StructuralKind.D_LOWER, e, w) == pytest.approx(1.0, rel=1e-12)


def test_d_lower_rejections():
    e = make(lambda_i=[0.5], alpha_i=[0.6], p_i=[1.0], q_i=[1.0])
    w = [HomogeneousWeight.power(0.0, 1.0, 1)]
    with pytest.raises(ValueError):
        structural_constant(StructuralKind.D_LOWER, e, w)
    with pytest.raises(ValueError):
        structural_constant(StructuralKind.D_LOWER, e, None)


def test_e_lower_symmetric_example():
    e = make(m=2)
    w = [HomogeneousWeight.power(0.0, 1.0, 1)] * 2
    assert structural_constant(StructuralKind.E_LOWER, e, w) == pytest.approx(1.0, rel=1e-12)


def test_e_lower_single_factor_is_one():
    e = make(p_i=[2.0], q_i=[2.0])
    w = [HomogeneousWeight.power(0.0, 1.0, 1)]
    assert structural_constant(StructuralKind.E_LOWER, e, w) == pytest.approx(1.0, rel=1e-12)


def test_kernel_kind_m_checks():
    e2 = make(m=2)
    k2 = KernelSpec(1, PowerBeta(0.0, 0.0), (PowerCurve(1.0), PowerCurve(1.0)))
    with pytest.raises(ValueError):
        kernel_constant(ConstantKind.XIAO, e2, k2)
    with pytest.raises(ValueError):
        kernel_constant(ConstantKind.A1, e2, IDENTITY)
    with pytest.raises(ValueError):
        kernel_constant(ConstantKind.COMMUTATOR_MH, make(), IDENTITY)  # no beta_i


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
def test_commutator_mh_with_kinked_callback_curve_returns_a_verdict(tol):
    # |1 - s(t)|**beta has an undeclared kink where s(t) = t (1 + 0.1 t)
    # crosses 1 (t ~ 0.916); refinement then grades past the depth at which
    # nodes used to reach 0.0 and raise "curve vanished at a quadrature node"
    kernel = KernelSpec(1, PowerBeta(0.1, 0.0),
                        (CurveCallback(lambda t: t * (1.0 + 0.1 * t), 1.0),))
    e = make(lambda_i=[0.4], beta_i=[0.3], r_i=[4.0])
    res = kernel_constant(ConstantKind.COMMUTATOR_MH, e, kernel, tol=tol)
    assert res.status in (IntegralStatus.CONVERGED, IntegralStatus.INCONCLUSIVE)
    assert math.isfinite(res.value) and res.value > 0


@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["A1", "A2", "CommutatorMH"]), m=st.integers(1, 2),
       n=st.integers(2, 3), tol=st.sampled_from([1e-4, 1e-6, 1e-10]), data=st.data())
def test_min_power_constants_match_mpmath(kind, m, n, tol, data):
    factors = [(data.draw(st.floats(-0.6, 0.6)), data.draw(st.floats(-0.6, 0.6)))
               for _ in range(n)]
    scale = data.draw(st.floats(0.5, 2.0))
    betas = [data.draw(st.floats(0.6, 1.4)) for _ in range(m)]
    # kernel exponents x_i: the order at min(t) = 0 stays above -0.9
    x = [data.draw(st.floats(-0.2 / m, 0.5)) for _ in range(m)]
    cbeta = [data.draw(st.floats(0.1, 0.9)) for _ in range(m)]
    lam = [0.5] * m
    # d = 1, q_i = 2, gamma_i = 0: A1 and CommutatorMH give lambda_i - alpha_i - 1/2,
    # A2 -alpha_i - 1/2
    alpha = [-xi - 0.5 + (0.0 if kind == "A2" else li) for xi, li in zip(x, lam)]
    e = make(m=m, n=n, alpha_i=alpha, lambda_i=lam, beta_i=cbeta)
    kernel = KernelSpec(n, ProductPowerBeta(factors, scale), tuple(MinPower(b) for b in betas))
    res = kernel_constant(ConstantKind(kind), e, kernel, tol=tol)
    want = float(min_kernel_constant(factors, scale, betas, x,
                                     cbeta if kind == "CommutatorMH" else ()))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error
    if tol == 1e-10:
        assert abs(res.value - want) <= 1e-9 * want


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_commutator_mh_with_steep_power_curve_matches_mpmath(tol):
    # order -0.95 at t = 0 grades to nodes near 1e-305, where t**1.5
    # underflows; the integrand raised "curve vanished at a quadrature node"
    ex = make(p_i=[1.5], q_i=[1.5], lambda_i=[0.7 / 3], beta_i=[0.3])
    kernel = KernelSpec(1, PowerBeta(-0.3, 0.2), (PowerCurve(1.5),))
    res = kernel_constant(ConstantKind.COMMUTATOR_MH, ex, kernel, tol=tol)
    exponent = -1.0 / 1.5 + 0.7 / 3        # A1-shaped: -alpha - (d + gamma)/q + lambda
    # a min-power kernel with n = 1 is this power-curve kernel
    want = float(min_kernel_constant(((-0.3, 0.2),), 1.0, (1.5,), (exponent,), (0.3,)))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error


def _fractions(draw, count):
    """``count`` positive weights summing to 1."""
    w = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    return [x / sum(w) for x in w]


@st.composite
def _line_constants(draw):
    """(kind, exponent set, kernel, mpmath value) of a constant with no
    closed form: n = 1 PowerBeta CommutatorMH and XiaoLog with a curve t**b,
    b != 1, or min-power A1, A2 and CommutatorMH at n = 2 and 3, whose
    curve betas above 1 give a MinDensity power != 1.  The endpoint orders
    reach -0.99 at both ends."""
    at0, at1 = draw(st.floats(-0.99, 1.5)), draw(st.floats(-0.99, 1.5))
    scale = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["CommutatorMH", "XiaoLog"]))
        b = draw(st.floats(0.5, 1.5).filter(lambda x: x != 1.0))
        if kind == "XiaoLog":
            p = draw(st.floats(1.0, 4.0))
            x, cbeta = -1.0 / p, 0.0
            e = make(p_i=[p])
        else:
            # A1-shaped: -alpha - (d + gamma)/q + lambda = -alpha with q = 2, lambda = 1/2
            x, cbeta = draw(st.floats(-0.8, 0.5)), draw(st.floats(0.005, 0.9))
            e = make(alpha_i=[-x], lambda_i=[0.5], beta_i=[cbeta])
        c, ee = at0 - b * x, at1 - cbeta
        kernel = KernelSpec(1, PowerBeta(c, ee, scale), (PowerCurve(b),))
        if kind == "XiaoLog":
            with mpmath.workdps(DPS):
                want = integral(lambda t, u: scale * t ** at0 * u ** ee * mpmath.log(2 / t),
                                0, at0, at1)
        else:
            want = min_kernel_constant(((c, ee),), scale, (b,), (x,), (cbeta,))
        return kind, e, kernel, want
    kind = draw(st.sampled_from(["A1", "A2", "CommutatorMH"]))
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    betas = [draw(st.floats(0.5, 1.6)) for _ in range(m)]
    cbeta = [draw(st.floats(0.005, 0.9)) for _ in range(m)] if kind == "CommutatorMH" else []
    # order at min(t) = 0: min c_j + sum_i betas_i x_i; at 1: sum_j (e_j + 1) - 1 + sum cbeta
    cs = [draw(st.floats(-0.9, 0.9)) for _ in range(n)]
    room = max(at1 + 1.0 - sum(cbeta), 0.005)
    factors = [(c, room * r - 1.0) for c, r in zip(cs, _fractions(draw, n))]
    x = [(at0 - min(cs)) * r / b for r, b in zip(_fractions(draw, m), betas)]
    alpha = [-xi - 0.5 if kind == "A2" else -xi for xi in x]
    e = make(m=m, n=n, alpha_i=alpha, lambda_i=[0.5] * m, beta_i=cbeta or None)
    kernel = KernelSpec(n, ProductPowerBeta(factors, scale), tuple(MinPower(b) for b in betas))
    return kind, e, kernel, min_kernel_constant(factors, scale, betas, x, cbeta)


@settings(max_examples=50, deadline=None)
@given(_line_constants())
def test_line_constants_match_mpmath(case):
    kind, e, kernel, want = case
    res = kernel_constant(ConstantKind(kind), e, kernel)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error
    assert res.evaluations < 1000
    assert type(res.value) is float and type(res.abs_error) is float


def test_line_without_convergence_falls_back_to_graded(monkeypatch):
    # an n = 2 min-power CommutatorMH constant whose line value is made
    # inconclusive: the graded integrator's value and status, with the
    # evaluations of both
    ex = make(m=1, n=2, alpha_i=[0.3], lambda_i=[0.5], beta_i=[0.4])
    kernel = KernelSpec(2, ProductPowerBeta(((-0.2, 0.1), (0.3, -0.4)), 1.5), (MinPower(1.3),))
    with monkeypatch.context() as patch:
        patch.setattr(constants, "line_power_integral", lambda *args: None)
        graded = kernel_constant(ConstantKind.COMMUTATOR_MH, ex, kernel, tol=1e-8)
    line, seen = quadrature.integrate_log_line, []

    def unsettled(*args):
        res = line(*args)
        seen.append(res.evaluations)
        return IntegralResult(res.value, res.abs_error, IntegralStatus.INCONCLUSIVE,
                              res.evaluations)

    monkeypatch.setattr(quadrature, "integrate_log_line", unsettled)
    res = kernel_constant(ConstantKind.COMMUTATOR_MH, ex, kernel, tol=1e-8)
    assert graded.status is IntegralStatus.CONVERGED and seen[0] > 0
    assert (res.value, res.abs_error, res.status) == (graded.value, graded.abs_error,
                                                        graded.status)
    assert res.evaluations == graded.evaluations + seen[0]
