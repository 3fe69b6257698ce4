import math
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardy_cesaro.norms import (NormStatus, _shell_integrals, _shell_norms, herz_norm,
                                morrey_herz_norm, power_norm_closed, shell_norm)
from hardy_cesaro.numerics import LN2
from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.profiles import (PowerLaw, RadialProfile, SampledProfile,
                                   ScaledProfile, SumProfile, TruncatedPowerLaw,
                                   _pow2, _ramp, extremal_morrey_herz)
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


# --------------------------------------------------------------------------
# reference: the shell integrals taken shell by shell, with one scalar
# segment loop per shell, against which the window pass is checked

EPS = np.finfo(float).eps


def _reference_exp2_integral(start, c, width):
    m = abs(c) * width * LN2
    top = start + max(c, 0.0) * width
    return _pow2(top) * width * LN2 * (-math.expm1(-m) / m if m > 0.0 else 1.0)


def _reference_power_integral(profile, q, s, lo, hi):
    u, v, w = profile.log2_radii, profile.values, profile._w
    last = len(u) - 2
    pieces = []
    a = lo
    while a < hi:
        j = min(max(bisect_right(u, a) - 1, 0), last)
        b = hi if j == last else min(hi, u[j + 1])
        u0, u1, v0, v1 = u[j], u[j + 1], v[j], v[j + 1]
        if v0 > 0.0 and v1 > 0.0:
            slope = float(w[j + 1] - w[j]) / (u1 - u0)
            start = q * (float(w[j]) + slope * (a - u0)) + s * a
            pieces.append(_reference_exp2_integral(start, q * slope + s, b - a))
        elif v1 > 0.0:
            pieces.append((v1 / (u1 - u0)) ** q * _pow2(s * u0) * LN2
                          * _ramp(q, s * LN2, max(a - u0, 0.0), max(b - u0, 0.0)))
        elif v0 > 0.0:
            pieces.append((v0 / (u1 - u0)) ** q * _pow2(s * u1) * LN2
                          * _ramp(q, -s * LN2, max(u1 - b, 0.0), max(u1 - a, 0.0)))
        a = b
    return math.fsum(pieces)


def _reference_segment_integral(E, k, lo_override=None):
    hi_p = 2.0 ** (k * (E + 1.0))
    lo_p = 2.0 ** ((k - 1) * (E + 1.0)) if lo_override is None else lo_override ** (E + 1.0)
    if E == -1.0:
        lo = 2.0 ** (k - 1) if lo_override is None else lo_override
        return math.log((2.0 ** k) / lo)
    return (hi_p - lo_p) / (E + 1.0)


def _reference_shell_integral(profile, q, gamma, d, k):
    if isinstance(profile, PowerLaw):
        E = profile.exponent * q + gamma + d - 1.0
        return profile.coefficient ** q * _reference_segment_integral(E, k)
    if isinstance(profile, TruncatedPowerLaw):
        lo = max(2.0 ** (k - 1), profile.inner_radius)
        if lo >= 2.0 ** k:
            return 0.0
        E = profile.exponent * q + gamma + d - 1.0
        lo_override = None if lo == 2.0 ** (k - 1) else lo
        return profile.coefficient ** q * _reference_segment_integral(E, k, lo_override)
    if isinstance(profile, SampledProfile):
        return _reference_power_integral(profile, q, gamma + d, k - 1.0, float(k))
    inner = _reference_shell_integral(profile.base, q, gamma, d, k)
    return profile.factor ** q * inner


def _reference_condition(profile, q, gamma, d, k):
    """How many eps the reference may be off on shell k.  1 for sampled
    profiles, whose pieces both paths take by the same formulas.  A power
    law's reference (2^(e hi) - 2^(e lo)) / e on [lo, hi] (log2 radii)
    cancels, and rounding its exponents and its inner radius moves it by
    ln 2 |e u| eps at each end: L (1 + |e u_L|) + S (1 + |e u_S|) over
    L - S, L and S the larger and the smaller end."""
    while isinstance(profile, ScaledProfile):
        profile = profile.base
    if isinstance(profile, SampledProfile):
        return 1.0
    e = profile.exponent * q + gamma + d
    lo = float(k - 1)
    if isinstance(profile, TruncatedPowerLaw):
        lo = min(max(lo, math.log2(profile.inner_radius)), float(k))
    if lo == k:
        return 1.0
    if e == 0.0:
        return (2.0 + abs(lo) + abs(k)) / ((k - lo) * LN2)
    big, small = (k, lo) if e > 0 else (lo, k)
    gap = -math.expm1(-abs(e) * (k - lo) * LN2)     # 1 - S / L
    return (1.0 + abs(e * big) + (1.0 - gap) * (1.0 + abs(e * small))) / gap


@st.composite
def _sampled_nodes(draw):
    n = draw(st.integers(2, 7))
    gaps = draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1))
    u = np.cumsum([draw(st.floats(-4.0, 2.0))] + gaps)
    # zero nodes make ramps (rising, falling, past their peak) and
    # both-zero segments; wide values make steep extensions
    v = [draw(st.one_of(st.just(0.0), st.floats(0.125, 8.0), st.floats(1e-30, 1e30)))
         for _ in range(n)]
    return SampledProfile(tuple(u.tolist()), tuple(v))


@st.composite
def _closed_windows(draw):
    """A profile with closed-form shells, indices q, gamma, d, and a window
    (kmin, kmax) that starts and ends inside or outside the profile's grid
    or breakpoint."""
    d = draw(st.integers(1, 2))
    q = draw(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(1.0, 3.0))
    # gamma up to 200 takes shells beyond the float range at both ends
    gamma = draw(st.floats(-d + 0.2, 3.0) | st.floats(20.0, 200.0) | st.sampled_from([0.0, 1.0]))
    kind = draw(st.sampled_from(["sampled", "power", "truncated"]))
    if kind == "sampled":
        profile = draw(_sampled_nodes())
        lo, hi = profile.log2_radii[0], profile.log2_radii[-1]
    else:
        # E = -1 exactly, steep laws, or moderate ones
        a = draw(st.just(-(gamma + d) / q) | st.floats(-45.0, 35.0) | st.floats(-4.0, 2.0))
        c = draw(st.floats(0.5, 2.0))
        if kind == "power":
            profile = PowerLaw(a, c)
        else:
            # inner radius inside a shell or on a shell edge
            edge = draw(st.integers(-6, 6))
            frac = draw(st.just(0.0) | st.floats(0.05, 0.95))
            profile = TruncatedPowerLaw(a, c, 2.0 ** (edge + frac))
        lo = hi = math.log2(getattr(profile, "inner_radius", 1.0))
    if draw(st.booleans()):
        profile = ScaledProfile(profile, draw(st.just(0.0) | st.floats(0.25, 4.0)))
    kmin = draw(st.integers(int(math.floor(lo)) - 14, int(math.ceil(hi)) + 3))
    kmax = draw(st.integers(kmin, kmin + 30))
    return profile, q, gamma, d, kmin, kmax


@settings(max_examples=200, deadline=None)
@given(_closed_windows())
# a falling first segment extended left past its ramp's peak, a both-zero
# segment, a rising ramp, and a window starting and ending outside the grid
@example((SampledProfile((-1.5, -0.75, 0.25, 0.6, 1.4), (2.0, 0.0, 0.0, 1.0, 3.0)),
          2.2, 0.3, 1, -12, 4))
# E = -1 exactly, with the inner radius inside a shell and on its edge
@example((TruncatedPowerLaw(-1.0, 1.5, 2.0 ** 0.3), 1.0, 0.0, 1, -3, 3))
@example((TruncatedPowerLaw(-1.0, 1.5, 2.0), 1.0, 0.0, 1, -3, 3))
# shells beyond the float range, above and below
@example((SampledProfile((0.0, 1.0), (1.0, 1.0)), 1.0, 150.0, 1, -10, 10))
@example((PowerLaw(30.0), 1.0, 0.0, 1, -48, 48))
@example((PowerLaw(-40.0), 1.0, 0.0, 1, -48, 48))
@example((ScaledProfile(PowerLaw(-40.0), 0.0), 1.0, 0.0, 1, -48, 48))
def test_window_shell_integrals_match_scalar_reference(case):
    profile, q, gamma, d, kmin, kmax = case
    ks = np.arange(kmin, kmax + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):     # as _shell_norms takes them
        got = _shell_integrals(profile, q, gamma, d, ks)
    assert got.shape == ks.shape
    if isinstance(profile, ScaledProfile) and profile.factor == 0.0:
        # the zero function (the reference takes 0 * inf as nan)
        assert not np.any(got)
        return
    for k, value in zip(range(kmin, kmax + 1), got):
        try:
            want = _reference_shell_integral(profile, q, gamma, d, k)
        except OverflowError:
            # the reference overflowed at the larger end of a power law,
            # which is then 2**1024 or more
            assert value == math.inf
            continue
        kappa = _reference_condition(profile, q, gamma, d, k)
        # a power law's reference can cancel to 0 (e within an ulp of 0):
        # then it has no digit to match
        if math.isnan(want) or want == math.inf or (want == 0.0 and 8 * EPS * kappa < 1.0):
            assert value == want or (math.isnan(want) and math.isnan(value)), (k, want, value)
        else:
            scale = max(abs(want), abs(value))
            assert abs(value - want) <= 8 * EPS * kappa * scale, (k, want, value)


@settings(max_examples=60, deadline=None)
@given(_closed_windows())
def test_shell_norm_is_one_shell_of_the_window(case):
    profile, q, gamma, d, kmin, kmax = case
    w = HomogeneousWeight.power(gamma, 1.3, d=d)
    ks = np.arange(kmin, kmax + 1, dtype=float)
    window = _shell_norms(profile, w, q, ks, d)
    for k, value in zip(range(kmin, kmax + 1), window):
        one = shell_norm(profile, w, q, k, d)
        assert one == value or (math.isnan(one) and math.isnan(value))


def test_numeric_shell_norm_is_one_shell_of_the_window():
    f = SumProfile((SampledProfile((-1.0, 0.0, 1.5), (0.0, 2.0, 0.5)),
                    TruncatedPowerLaw(-1.5, 1.0, 0.75)))
    ks = np.arange(-3.0, 5.0)
    window = _shell_norms(f, W1, 1.5, ks, 1)
    assert [shell_norm(f, W1, 1.5, int(k), 1) for k in ks] == window.tolist()


@st.composite
def _herz_cases(draw):
    profile, q, gamma, d, kmin, kmax = draw(_closed_windows())
    alpha = draw(st.floats(-1.0, 1.0))
    p = draw(st.floats(0.5, 3.0))
    return profile, HomogeneousWeight.power(gamma, 1.3, d=d), alpha, p, q, (kmin, kmax + 8), d


@settings(max_examples=60, deadline=None)
@given(_herz_cases())
def test_morrey_herz_with_lambda_zero_is_herz(case):
    profile, w, alpha, p, q, window, d = case
    h = herz_norm(profile, w, alpha, p, q, window, 1e-10, d)
    m = morrey_herz_norm(profile, w, alpha, 0.0, p, q, window, 1e-10, d)
    assert m.status == h.status
    assert m.value == h.value or (math.isnan(m.value) and math.isnan(h.value))
    assert m.tail_bound == h.tail_bound or (math.isnan(m.tail_bound)
                                            and math.isnan(h.tail_bound))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile", [PowerLaw(30.0), TruncatedPowerLaw(30.0, 1.0, 1.0),
                                     PowerLaw(-40.0)])
def test_steep_power_law_norms_are_verdicts(profile):
    # shells past 2**1024 used to raise OverflowError from 2.0 ** (k (E + 1))
    res = morrey_herz_norm(profile, W1, 0.0, 0.5, 1.0, 1.0)
    assert res.status in (NormStatus.INCONCLUSIVE, NormStatus.INFINITE)
    res = herz_norm(profile, W1, 0.0, 1.0, 1.0)
    assert res.status in (NormStatus.INCONCLUSIVE, NormStatus.INFINITE)


@pytest.mark.filterwarnings("error")
def test_ramp_slope_beyond_float_range_is_a_verdict():
    # a zero node next to 1e200: the ramp's slope to the power q left the
    # floats and raised OverflowError
    f = SampledProfile((0.0, 1.0), (0.0, 1e200))
    assert shell_norm(f, W1, 2.0, 1) == math.inf
    assert morrey_herz_norm(f, W1, 0.0, 0.5, 1.0, 2.0).status is NormStatus.INCONCLUSIVE


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

    # the zero function, also where the base's shells are inf
    for base in (PowerLaw(0.0), PowerLaw(-40.0)):
        res = herz_norm(ScaledProfile(base, 0.0), W1, 0.0, 1.0, 1.0)
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
