import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardy_cesaro.norms import (NormStatus, herz_norm, morrey_herz_norm,
                                power_norm_closed, shell_norm)
from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.profiles import (PowerLaw, RadialProfile, SampledProfile,
                                   ScaledProfile, SumProfile, TruncatedPowerLaw,
                                   extremal_morrey_herz)
from hardy_cesaro.weights import HomogeneousWeight

W1 = HomogeneousWeight.power(0.0, 1.0, d=1)


def test_shell_norm_examples():
    assert shell_norm(PowerLaw(0.0), W1, 1.0, 0, d=1) == pytest.approx(1.0, rel=1e-14)
    assert shell_norm(PowerLaw(-1.0), W1, 2.0, 1, d=1) == pytest.approx(1.0, rel=1e-14)
    assert shell_norm(TruncatedPowerLaw(-2.0, 1.0, 1.0), W1, 1.0, 0, d=1) == 0.0


def test_shell_norm_rejects_small_q():
    with pytest.raises(ValueError):
        shell_norm(PowerLaw(0.0), W1, 0.5, 0)


def test_shell_norm_numeric_matches_closed():
    # a sampled power law must reproduce the closed-form shell integral
    f = PowerLaw(-0.7, 1.3)
    grid = np.linspace(-6, 6, 97)
    s = SampledProfile(tuple(grid), tuple(f(np.exp2(grid))))
    w = HomogeneousWeight.power(0.4, 2.0, d=2)
    for k in (-3, 0, 2):
        closed = shell_norm(f, w, 1.7, k, d=2)
        numeric = shell_norm(s, w, 1.7, k, d=2)
        assert numeric == pytest.approx(closed, rel=1e-10)


def _interpolant_shell_integral(u, v, q, s, k):
    """mpmath value of int_{k-1}^{k} f(2^x)^q 2^(s x) ln2 dx for the
    SampledProfile interpolant of the nodes (u, v), extension included."""
    def f(x):
        i = min(max(j for j in range(len(u)) if j == 0 or x >= u[j]), len(u) - 2)
        u0, u1, v0, v1 = (mpmath.mpf(c) for c in (u[i], u[i + 1], v[i], v[i + 1]))
        t = (x - u0) / (u1 - u0)
        if v0 > 0 and v1 > 0:
            return 2 ** (mpmath.log(v0, 2) + t * (mpmath.log(v1, 2) - mpmath.log(v0, 2)))
        return max(v0 + t * (v1 - v0), 0)

    def g(x):
        return f(x) ** q * 2 ** (s * x) * mpmath.log(2)

    edges = [mpmath.mpf(k - 1)] + [mpmath.mpf(c) for c in u if k - 1 < c < k] + [mpmath.mpf(k)]
    total = mpmath.mpf(0)
    for a, b in zip(edges, edges[1:]):
        # quad's tolerance is absolute: scale each piece to order one
        scale = max(g(a + (b - a) * j / 4) for j in range(5))
        if scale > 0:
            total += scale * mpmath.quad(lambda x: g(x) / scale, [a, b])
    return total


@st.composite
def _sampled_shells(draw):
    n = draw(st.integers(2, 7))
    gaps = draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1))
    u = np.cumsum([draw(st.floats(-4.0, 2.0))] + gaps)
    v = [draw(st.one_of(st.just(0.0), st.floats(0.125, 8.0))) for _ in range(n)]
    d = draw(st.integers(1, 2))
    gamma = draw(st.floats(-d + 0.2, 2.0))
    q = draw(st.floats(1.0, 3.0))
    k = draw(st.integers(int(math.floor(u[0])) - 12, int(math.ceil(u[-1])) + 12))
    return tuple(u.tolist()), tuple(v), d, gamma, q, k


@settings(max_examples=60, deadline=None)
@given(_sampled_shells())
# rising and falling zero-node segments, both-zero segments, shells cut by nodes
@example(((-1.5, -0.75, 0.25, 0.6, 1.4), (0.0, 2.0, 0.0, 0.0, 3.0), 1, 0.3, 2.2, 1))
@example(((-1.5, -0.75, 0.25, 0.6, 1.4), (0.0, 2.0, 0.0, 0.0, 3.0), 1, 0.3, 2.2, 0))
# extension beyond both ends: a falling first segment, a rising last one
@example(((0.0, 0.5, 1.0), (2.0, 0.0, 1.5), 2, 0.5, 1.7, -10))
@example(((0.0, 0.5, 1.0), (2.0, 0.0, 1.5), 2, 0.5, 1.7, 12))
# log-log extension of positive boundary segments
@example(((0.0, 0.3, 1.2), (1.0, 4.0, 0.5), 1, 0.0, 1.0, -9))
@example(((0.0, 0.3, 1.2), (1.0, 4.0, 0.5), 1, 0.0, 1.0, 9))
def test_sampled_shell_norm_matches_mpmath(case):
    u, v, d, gamma, q, k = case
    w = HomogeneousWeight.power(gamma, 1.3, d=d)
    with mpmath.workdps(30):
        integral = _interpolant_shell_integral(u, v, q, gamma + d, k)
        if not (integral == 0 or 1e-290 < integral < 1e290):
            return   # beyond the float range
        want = float((w.sphere_mass * integral) ** (1.0 / q))
    got = shell_norm(SampledProfile(u, v), w, q, k, d=d)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_sampled_power_integral_beyond_float_range():
    # 2**1024 itself overflows a float: the integral is inf, not an error
    flat = SampledProfile((0.0, 1.0), (1.0, 1.0))
    assert flat.power_integral(1.0, 1024.0, 0.0, 1.0) == math.inf
    assert flat.power_integral(1.0, 2000.0, 0.0, 1.0) == math.inf
    assert flat.power_integral(1.0, 1100.0, -2.0, -1.0) == 0.0


def test_shell_norm_sum_profile():
    f = SumProfile((PowerLaw(0.0, 1.0), PowerLaw(0.0, 2.0)))
    assert shell_norm(f, W1, 1.0, 0, d=1) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("q", [1.1, 1.5, 2.5])
def test_small_sum_profile_shell_matches_mpmath(q):
    # a ramp from a zero node plus a cut-off power law; at q = 1.5 the
    # shell integral is 1.3e-6, which the stopping test absolute in
    # 5e-14 left 1.6e-9 relative off
    ramp = SampledProfile((-1.0, 0.0), (0.0, 2e-4))
    f = SumProfile((ramp, TruncatedPowerLaw(-1.5, 1e-4, 0.75)))
    got = shell_norm(f, W1, q, 0, d=1) ** q / W1.sphere_mass
    cut = math.log2(0.75)

    def g(u):
        tail = 1e-4 * 2 ** (-1.5 * u) if u > cut else 0
        return (2e-4 * (u + 1) + tail) ** q * 2 ** u * mpmath.log(2)

    with mpmath.workdps(30):
        want = float(mpmath.quad(g, [-1, cut, 0]))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class _Wiggly(RadialProfile):
    """2 + sin(1e5 r): no numeric shell integral settles on it."""

    def evaluate(self, r):
        return 2.0 + np.sin(1e5 * np.asarray(r, dtype=float))

    def local_exponent(self, end):
        return 0.0


def test_unsettled_shell_is_inconclusive():
    assert math.isnan(shell_norm(_Wiggly(), W1, 1.0, 3, d=1))
    res = herz_norm(_Wiggly(), W1, 0.5, 1.0, 1.0, window=(-4, 4))
    assert res.status is NormStatus.INCONCLUSIVE


def test_scaled_profile_shell_linearity():
    f = TruncatedPowerLaw(-1.5, 1.0, 2.0)
    direct = shell_norm(ScaledProfile(f, 3.0), W1, 2.0, 3, d=1)
    assert direct == pytest.approx(3.0 * shell_norm(f, W1, 2.0, 3, d=1), rel=1e-14)


def test_herz_norm_examples():
    res = herz_norm(TruncatedPowerLaw(-2.0, 1.0, 1.0), W1, 0.0, 1.0, 1.0)
    assert res.status is NormStatus.FINITE
    assert res.value == pytest.approx(2.0, rel=1e-12)

    res = herz_norm(PowerLaw(0.0), W1, 0.0, 1.0, 1.0)
    assert res.status is NormStatus.INFINITE

    res = herz_norm(ScaledProfile(PowerLaw(0.0), 0.0), W1, 0.0, 1.0, 1.0)
    assert res.status is NormStatus.FINITE
    assert res.value == 0.0


def test_herz_norm_window_validation():
    with pytest.raises(ValueError):
        herz_norm(PowerLaw(0.0), W1, 0.0, 1.0, 1.0, window=(3, 2))


def test_morrey_examples():
    res = morrey_herz_norm(PowerLaw(0.0), W1, 0.0, 1.0, 1.0, 1.0)
    assert res.status is NormStatus.FINITE
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.sup_index == res.window[1]  # sup approached as k0 -> +inf

    # lambda = 0 reduces to the Herz norm bit for bit
    f = TruncatedPowerLaw(-2.0, 1.0, 1.0)
    h = herz_norm(f, W1, 0.0, 1.0, 1.0)
    m = morrey_herz_norm(f, W1, 0.0, 0.0, 1.0, 1.0)
    assert m.value == h.value
    assert m.status == h.status

    f = extremal_morrey_herz(ExponentSet(m=1, n=1, d=1, alpha_i=[0.0], p_i=[1.0],
                                         q_i=[1.0], lambda_i=[1.0], gamma_i=[0.0]), 0)
    res = morrey_herz_norm(f, W1, 0.0, 1.0, 1.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_morrey_divergent_profiles():
    # too-singular power law: inner sums diverge
    res = morrey_herz_norm(PowerLaw(-2.0), W1, 0.0, 1.0, 1.0, 1.0)
    assert res.status is NormStatus.INFINITE
    # weighted partial sums grow toward -inf when lambda is too large
    res = morrey_herz_norm(PowerLaw(0.0), W1, 0.0, 1.5, 1.0, 1.0)
    assert res.status is NormStatus.INFINITE
    # still increasing at the right window edge: no guessed limit
    res = morrey_herz_norm(PowerLaw(0.0), W1, 0.0, 0.5, 1.0, 1.0)
    assert res.status is NormStatus.INCONCLUSIVE


def test_power_norm_closed_examples():
    assert power_norm_closed(0.0, W1, 0.0, 1.0, 1.0, 1.0, 1) == pytest.approx(2.0)
    val = power_norm_closed(0.0, W1, 0.0, 1.0, 2.0, 1.0, 1)
    assert val == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    # q(lambda - alpha) -> 0+ uses the log(2) continuous extension
    lam, alpha, q = 1.0, 1.0 - 1e-9, 1.0
    a = -alpha - 1.0 / q + lam
    val = power_norm_closed(a, W1, alpha, lam, 1.0, q, 1)
    assert val == pytest.approx(4.0 * math.log(2.0), rel=1e-6)


def test_power_norm_closed_rejections():
    with pytest.raises(ValueError):
        power_norm_closed(0.0, W1, 0.0, 0.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        power_norm_closed(0.0, W1, 1.0, 0.5, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        power_norm_closed(5.0, W1, 0.0, 1.0, 1.0, 1.0, 1)  # not the extremal exponent


def _random_sharp_parameters(rng):
    d = int(rng.integers(1, 4))
    q = float(rng.uniform(1.0, 3.0))
    p = float(rng.uniform(1.0, 3.0))
    lam = float(rng.uniform(0.5, 1.5))
    alpha = float(rng.uniform(-0.75, lam - 0.5))
    gamma = float(rng.uniform(-d + 0.25, 2.0))
    coeff = float(rng.uniform(0.5, 2.0))
    return d, q, p, lam, alpha, gamma, coeff


def test_oracle_equality_randomized():
    # numeric Morrey-Herz value of the extremal power law == closed form
    rng = np.random.default_rng(101)
    for _ in range(50):
        d, q, p, lam, alpha, gamma, coeff = _random_sharp_parameters(rng)
        w = HomogeneousWeight.power(gamma, coeff, d)
        a = -alpha - (d + gamma) / q + lam
        numeric = morrey_herz_norm(PowerLaw(a, 1.0), w, alpha, lam, p, q,
                                   window=(-48, 48), tol=1e-8, d=d)
        closed = power_norm_closed(a, w, alpha, lam, p, q, d)
        assert numeric.status is NormStatus.FINITE
        assert abs(numeric.value / closed - 1.0) <= 1e-6


def test_lemma_shell_bound():
    # ||f chi_k|| <= 2^{k(lambda-alpha)} * morrey_herz value on finite profiles
    rng = np.random.default_rng(7)
    for _ in range(10):
        d, q, p, lam, alpha, gamma, coeff = _random_sharp_parameters(rng)
        w = HomogeneousWeight.power(gamma, coeff, d)
        a = -alpha - (d + gamma) / q + lam
        f = PowerLaw(a, 1.0)
        res = morrey_herz_norm(f, w, alpha, lam, p, q, window=(-48, 48),
                               tol=1e-8, d=d)
        assert res.status is NormStatus.FINITE
        for k in range(-20, 21, 5):
            bound = 2.0 ** (k * (lam - alpha)) * res.value
            assert shell_norm(f, w, q, k, d) <= bound * (1.0 + 1e-9)


def test_dilation_covariance_exact():
    # replacing f by f(2^j x) shifts shells: closed paths agree exactly
    f = PowerLaw(-0.8, 1.9)
    w = HomogeneousWeight.power(0.3, 1.0, d=1)
    for j in (-2, 1, 3):
        g = f.argument_scaled(2.0 ** j)
        for k in (-4, 0, 5):
            lhs = shell_norm(g, w, 2.0, k, d=1)
            rhs = 2.0 ** (-j * (w.degree + 1) / 2.0) * shell_norm(f, w, 2.0, k + j, d=1)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_finite_norm_tail_bound_invariant():
    res = herz_norm(TruncatedPowerLaw(-3.0, 1.0, 1.0), W1, 0.0, 2.0, 2.0,
                    tol=1e-10)
    assert res.status is NormStatus.FINITE
    assert res.tail_bound <= 1e-10 * res.value
