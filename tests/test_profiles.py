import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_cesaro.parameters import ExponentSet
from hardy_cesaro.profiles import (PowerLaw, SampledProfile, ScaledProfile,
                                   SumProfile, TruncatedPowerLaw,
                                   extremal_herz, extremal_morrey_herz)


def test_eval_examples():
    assert PowerLaw(0.0, 1.0).evaluate(7.3) == 1.0
    assert PowerLaw(-0.5, 2.0).evaluate(4.0) == pytest.approx(1.0, rel=1e-15)
    assert TruncatedPowerLaw(-2.0, 1.0, 1.0).evaluate(0.5) == 0.0


def test_eval_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        PowerLaw(1.0).evaluate(0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0).evaluate(np.array([1.0, -2.0]))


def test_power_law_dyadic_ratio_exact():
    f = PowerLaw(-1.3, 2.7)
    for r in (0.1, 1.0, 17.0):
        assert f(2 * r) / f(r) == pytest.approx(2.0 ** -1.3, rel=1e-15)


def test_argument_scaling_closure():
    f = PowerLaw(-0.75, 3.0)
    g = f.argument_scaled(5.0)
    assert g.coefficient == 3.0 * 5.0 ** -0.75
    r = 2.31
    assert g(r) == pytest.approx(f(5.0 * r), rel=1e-15)
    t = TruncatedPowerLaw(-2.0, 1.0, 4.0).argument_scaled(2.0)
    assert t.inner_radius == 2.0


def test_sampled_reproduces_power_law():
    f = PowerLaw(-0.6, 1.7)
    grid = np.linspace(-5, 5, 23)
    s = SampledProfile(tuple(grid), tuple(f(np.exp2(grid))))
    # at nodes
    assert np.allclose(s(np.exp2(grid)), f(np.exp2(grid)), rtol=1e-12)
    # between nodes and outside the grid (log-log linearity is exact)
    probes = np.exp2(np.array([-6.3, -2.17, 0.49, 3.33, 6.8]))
    assert np.allclose(s(probes), f(probes), rtol=1e-12)


def test_sampled_zero_segments_clamped():
    s = SampledProfile((0.0, 1.0, 2.0), (0.0, 0.0, 4.0))
    assert s(1.5) >= 0.0
    assert s(1.0) == 0.0


def test_sampled_validation():
    with pytest.raises(ValueError):
        SampledProfile((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        SampledProfile((0.0, 1.0), (1.0, -2.0))


def test_sum_and_scale():
    f = SumProfile((PowerLaw(0.0, 1.0), ScaledProfile(PowerLaw(1.0, 1.0), 2.0)))
    assert f(3.0) == pytest.approx(1.0 + 6.0)
    assert ScaledProfile(PowerLaw(1.0), 0.0)(10.0) == 0.0
    with pytest.raises(ValueError):
        ScaledProfile(PowerLaw(1.0), -1.0)


def test_local_exponents():
    assert PowerLaw(-0.5).local_exponent("zero") == -0.5
    assert TruncatedPowerLaw(-2.0, 1.0, 1.0).local_exponent("zero") is None
    assert TruncatedPowerLaw(-2.0, 1.0, 1.0).local_exponent("infinity") == -2.0
    s = SumProfile((PowerLaw(-0.5), PowerLaw(1.0)))
    assert s.local_exponent("zero") == -0.5
    assert s.local_exponent("infinity") == 1.0


def make_exponents(**kw):
    base = dict(m=1, n=1, d=1, alpha_i=[0.0], p_i=[1.0], q_i=[1.0],
                lambda_i=[1.0], gamma_i=[0.0])
    base.update(kw)
    return ExponentSet(**base)


def test_extremal_morrey_herz_examples():
    f = extremal_morrey_herz(make_exponents(), 0)
    assert f.exponent == pytest.approx(0.0)
    f = extremal_morrey_herz(make_exponents(alpha_i=[-0.5], q_i=[2.0],
                                            lambda_i=[0.5]), 0)
    assert f.exponent == pytest.approx(0.5)
    f = extremal_morrey_herz(make_exponents(q_i=[2.0], lambda_i=[0.25],
                                            gamma_i=[1.0]), 0)
    assert f.exponent == pytest.approx(-0.75)


def test_extremal_morrey_herz_validation():
    with pytest.raises(ValueError):
        extremal_morrey_herz(make_exponents(lambda_i=[0.0]), 0)
    with pytest.raises(ValueError):
        extremal_morrey_herz(make_exponents(alpha_i=[2.0]), 0)


def test_extremal_herz_examples():
    f = extremal_herz(make_exponents(), 0, 0.5)
    assert isinstance(f, TruncatedPowerLaw)
    assert f.inner_radius == 1.0
    assert f.exponent == pytest.approx(-1.5)
    f = extremal_herz(make_exponents(q_i=[2.0]), 0, 0.1)
    assert f.exponent == pytest.approx(-0.6)
    # affine in epsilon
    a1 = extremal_herz(make_exponents(), 0, 0.3).exponent
    a2 = extremal_herz(make_exponents(), 0, 0.4).exponent
    assert a1 - a2 == pytest.approx(0.1)
    with pytest.raises(ValueError):
        extremal_herz(make_exponents(), 0, 1.0)


EPS = float(np.finfo(float).eps)


@st.composite
def _sampled(draw):
    """A sampled profile with zero nodes among its values, so ramps and
    zero segments, and either extension, occur."""
    count = draw(st.integers(2, 8))
    steps = draw(st.lists(st.floats(0.25, 2.0), min_size=count - 1, max_size=count - 1))
    u = np.cumsum([draw(st.floats(-8.0, 0.0))] + steps)
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
                           min_size=count, max_size=count))
    return SampledProfile(tuple(u.tolist()), tuple(values))


def _simple():
    return st.one_of(
        st.builds(PowerLaw, st.floats(-2.0, 2.0), st.floats(0.1, 10.0)),
        st.builds(TruncatedPowerLaw, st.floats(-2.0, 2.0), st.floats(0.1, 10.0),
                  st.floats(-6.0, 6.0).map(lambda x: 2.0 ** x)),
        _sampled())


def _profiles():
    return st.one_of(
        _simple(),
        st.lists(_simple(), min_size=1, max_size=3).map(lambda t: SumProfile(tuple(t))),
        st.builds(ScaledProfile, _simple(), st.sampled_from([0.0, 0.3, 2.5])))


@settings(max_examples=200, deadline=None)
@given(profile=_profiles(), data=st.data())
def test_log2_evaluate_matches_evaluate(profile, data):
    # nodes x pieces: each column holds points of one smooth piece of the
    # profile (between two consecutive breakpoints, or beyond the last
    # one), and the hint names that piece by its midpoint
    cuts = sorted(set(profile.log2_breakpoints()))
    ends = [min(cuts, default=0.0) - 4.0] + cuts + [max(cuts, default=0.0) + 4.0]
    lo, hi = np.array(ends[:-1]), np.array(ends[1:])
    fractions = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6)))
    r = np.exp2(lo + fractions[:, None] * (hi - lo))
    u = np.log2(r)       # the log2 radii that evaluate(r) interpolates at
    want = profile.evaluate(r)
    # power laws are 2**(a u) against r**a: at most |a u| ln 2 + 2 ulps apart
    for got in (profile.log2_evaluate(u), profile.log2_evaluate(u, at=0.5 * (lo + hi))):
        assert got.shape == u.shape
        np.testing.assert_allclose(got, want, rtol=64 * EPS, atol=0.0)


def test_log2_evaluate_below_the_float_range():
    # a radius of 2**-1500 underflows, but its log2 still has a value
    s = SampledProfile((-4.0, 0.0, 4.0), (2.0, 1.0, 0.5))
    got = s.log2_evaluate(np.array([-1500.0]))
    assert got[0] == pytest.approx(2.0 ** (1.0 + (1500.0 - 4.0) / 4.0), rel=1e-13)
    assert PowerLaw(-0.5, 3.0).log2_evaluate(np.array([-1500.0]))[0] == 3.0 * 2.0 ** 750
    assert TruncatedPowerLaw(-0.5).log2_evaluate(np.array([-1500.0]))[0] == 0.0


def test_sampled_profile_from_arrays_equals_tuples_and_copies():
    u, v = np.array([-1.0, 0.0, 0.5, 2.0]), np.array([0.0, 1.5, 0.25, 3.0])
    built = SampledProfile(u, v)
    want = SampledProfile(tuple(u.tolist()), tuple(v.tolist()))
    assert type(built.log2_radii) is tuple and type(built.values) is tuple
    assert (built.log2_radii, built.values) == (want.log2_radii, want.values)
    x = np.linspace(-3.0, 4.0, 29)
    before = built.log2_evaluate(x)
    assert np.array_equal(before, want.log2_evaluate(x))
    assert np.array_equal(built.power_integrals(2.0, 1.0, [-2.0, 0.0, 3.0]),
                          want.power_integrals(2.0, 1.0, [-2.0, 0.0, 3.0]))
    # the caller's arrays are not the profile's
    u[:], v[:] = [0.0, 1.0, 2.0, 3.0], 7.0
    assert (built.log2_radii, built.values) == (want.log2_radii, want.values)
    assert np.array_equal(built.log2_evaluate(x), before)
