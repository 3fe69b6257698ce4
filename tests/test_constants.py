import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardy_cesaro import quadrature
from hardy_cesaro.constants import (ConstantKind, StructuralKind, kernel_constant,
                                    structural_constant)
from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.quadrature import (CurveCallback, IntegralStatus,
                                     KernelSpec, MinPower, PowerBeta, PowerCurve,
                                     ProductPowerBeta)
from hardy_cesaro.weights import HomogeneousWeight
import mpmath
from min_reference import DPS, integral, log_min_kernel_constant, min_kernel_constant

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
    # nodes used to reach 0.0 and raise "curve vanished at a quadrature node".
    # The reference is mpmath's, split at the kink
    kernel = KernelSpec(1, PowerBeta(0.1, 0.0),
                        (CurveCallback(lambda t: t * (1.0 + 0.1 * t), 1.0),))
    e = make(lambda_i=[0.4], beta_i=[0.3], r_i=[4.0])
    res = kernel_constant(ConstantKind.COMMUTATOR_MH, e, kernel, tol=tol)
    assert res.status in (IntegralStatus.CONVERGED, IntegralStatus.INCONCLUSIVE)
    assert math.isfinite(res.value) and res.value > 0
    assert abs(res.value - 0.74151999628277682) <= res.abs_error


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


def _xiao_log_case(at0, at1, scale, b, p):
    """An n = 1 XiaoLog case of ``_line_constants``.  The reference takes the
    kernel's own order at t = 0, c + b x as ``power_law_integrand`` forms
    it, not the drawn at0, from which it may differ in the last bit; near
    -1 that moves the value by more than the program's abs_error."""
    x = -1.0 / p
    c = at0 - b * x
    order = c + b * x
    kernel = KernelSpec(1, PowerBeta(c, at1, scale), (PowerCurve(b),))
    with mpmath.workdps(DPS):
        want = integral(lambda t, u: scale * t ** order * u ** at1 * mpmath.log(2 / t),
                        0, order, at1)
    return "XiaoLog", make(p_i=[p]), kernel, want


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
            return _xiao_log_case(at0, at1, scale, b, draw(st.floats(1.0, 4.0)))
        # A1-shaped: -alpha - (d + gamma)/q + lambda = -alpha with q = 2, lambda = 1/2
        x, cbeta = draw(st.floats(-0.8, 0.5)), draw(st.floats(0.005, 0.9))
        e = make(alpha_i=[-x], lambda_i=[0.5], beta_i=[cbeta])
        c, ee = at0 - b * x, at1 - cbeta
        kernel = KernelSpec(1, PowerBeta(c, ee, scale), (PowerCurve(b),))
        return kind, e, kernel, min_kernel_constant(((c, ee),), scale, (b,), (x,), (cbeta,))
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
# order -0.9899999999999998 at t = 0 from the drawn -0.9899999999999999:
# 10069.314718055524 with abs_error 1.5e-10 is 2.3e-10 off a reference built
# from the drawn order, 7e-12 off one built from its own
@example(_xiao_log_case(-0.9899999999999999, 0.0, 1.0, 0.5, 1.5))
def test_line_constants_match_mpmath(case):
    kind, e, kernel, want = case
    res = kernel_constant(ConstantKind(kind), e, kernel)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - want) <= res.abs_error
    assert res.evaluations < 1000
    assert type(res.value) is float and type(res.abs_error) is float


def _xiao_log_power_beta(c, e, scale=1.0):
    """int_0^1 scale t**a (1-t)**e log(2/t) dt, a = c - 1/2, at dps 40:
    B(a+1, e+1) (ln 2 + psi(a+e+2) - psi(a+1))."""
    with mpmath.workdps(40):
        a, e = c - mpmath.mpf(0.5), mpmath.mpf(e)
        return scale * mpmath.beta(a + 1, e + 1) * (mpmath.log(2) + mpmath.digamma(a + e + 2)
                                                    - mpmath.digamma(a + 1))


@pytest.mark.parametrize("e", [0.3, 5.0])
@pytest.mark.parametrize("c", [60.0, 200.0, 1000.0])
def test_high_rate_constants_settle_on_the_line(c, e):
    # rates above 40: e^{rate v} falls by more than e^-40 across [-1, 0],
    # so the line starts on a narrower piece; on [-1, 0] the two rules
    # agreed on a value 98 % off for c = 1000, e = 5
    kernel = KernelSpec(1, PowerBeta(c, e), (PowerCurve(1.0),))
    res = kernel_constant(ConstantKind.XIAO_LOG, make(p_i=[2.0]), kernel)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - _xiao_log_power_beta(c, e)) <= res.abs_error
    # settled on the first pass: 3 pieces of 48 nodes, none bisected
    assert res.evaluations == 3 * 3 * quadrature.PIECE_RULE


def test_unsettled_line_constant_bisects_on_the_line(monkeypatch):
    # scale 1e10 puts the value above 1, where the first pass's bound is
    # 2.1e-10 of it at tol 1e-10: its pieces are bisected on the line, where
    # the graded integrator used to start over (818 evaluations in all)
    def no_graded(*args, **kwargs):
        raise AssertionError("the graded integrator was called")

    monkeypatch.setattr(quadrature, "integrate_unit_cube", no_graded)
    kernel = KernelSpec(1, PowerBeta(60.0, 5.0, 1e10), (PowerCurve(1.0),))
    res = kernel_constant(ConstantKind.XIAO_LOG, make(p_i=[2.0]), kernel)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - _xiao_log_power_beta(60.0, 5.0, 1e10)) <= res.abs_error
    # the first pass is 3 pieces of 48 nodes
    assert 144 < res.evaluations < 400


@pytest.mark.parametrize("e", [1023.0, 1500.0])
def test_line_order_beyond_the_jacobi_rules(e):
    # order e at t = 1: the Jacobi rule's mass 2**(e+1) overflowed at
    # e >= 1023; above order 40 the piece at 0 is a Legendre piece
    kernel = KernelSpec(1, PowerBeta(3.0, e), (PowerCurve(1.0),))
    res = kernel_constant(ConstantKind.XIAO_LOG, make(p_i=[2.0]), kernel)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - _xiao_log_power_beta(3.0, e)) <= res.abs_error


@pytest.mark.parametrize("factors, beta", [
    (((0.2, 0.3),) * 2, 1.0),
    (((0.2, 0.3),) * 3, 1.0),
    (((0.3, -0.2), (-0.1, 0.5), (0.1, 0.2)), 1.2),
])
def test_xiao_log_min_power_matches_mpmath(factors, beta):
    # log(2/t_1) goes into the density of min(t); on the tensor mesh these
    # were inconclusive after 2.16 M (n = 2) and 1.73 M (n = 3) evaluations
    n = len(factors)
    kernel = KernelSpec(n, ProductPowerBeta(factors, 1.5), (MinPower(beta),))
    res = kernel_constant(ConstantKind.XIAO_LOG, make(n=n, p_i=[2.0]), kernel)
    want = float(log_min_kernel_constant(factors, 1.5, beta, -0.5))
    if factors[0] == (0.2, 0.3) and n == 2:
        assert want == pytest.approx(1.5 * 1.95928355589664, rel=1e-14)
    assert res.status is IntegralStatus.CONVERGED and res.evaluations < 1000
    assert abs(res.value - want) <= res.abs_error
    # without the log: Xiao, and the log strictly adds to it
    plain = kernel_constant(ConstantKind.XIAO, make(n=n, p_i=[2.0]), kernel)
    assert plain.value < res.value


def test_xiao_log_with_c_below_minus_one_is_divergent():
    # the order at min(t) = 0 is at most c_1 <= -1, and -d/p < 0
    kernel = KernelSpec(2, ProductPowerBeta(((-1.2, 0.3), (0.2, 0.1))), (MinPower(1.0),))
    res = kernel_constant(ConstantKind.XIAO_LOG, make(n=2, p_i=[2.0]), kernel)
    assert res.status is IntegralStatus.DIVERGENT and res.evaluations == 0


def test_a1_with_c_below_minus_one_at_n_three_matches_mpmath():
    # Phi_1(m) grows like m**-0.3 toward m = 0; the order there is
    # -1.3 + 0.8 * 0.6 = -0.82
    factors = ((-1.3, 0.2), (0.4, 0.1), (0.6, -0.2))
    kernel = KernelSpec(3, ProductPowerBeta(factors), (MinPower(0.8),))
    e = make(n=3, alpha_i=[-0.6], lambda_i=[0.5])      # A1 exponent 0.6
    res = kernel_constant(ConstantKind.A1, e, kernel)
    want = float(min_kernel_constant(factors, 1.0, (0.8,), (0.6,)))
    assert res.status is IntegralStatus.CONVERGED and res.evaluations < 1000
    assert abs(res.value - want) <= res.abs_error
