"""Radial test functions.

Profiles are nonnegative functions of the radius r > 0.  The concrete
variants are power laws, truncated power laws (zero inside a cutoff
radius), profiles sampled on a log2-radius grid with log-log linear
interpolation, and Sum/Scale combinators.  Sampled profiles live on a
log2 grid because all norms aggregate over dyadic shells, so shell
integrals see one smooth piece per grid segment.

Evaluation accepts scalars or numpy arrays of radii; radii must be
strictly positive.  ``log2_evaluate`` takes log2 radii instead, without
validation, so radii below the float range still have values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import gamma, gammaincc, hyp1f1

from .numerics import LN2, exp2_integrals


def _check_radii(r):
    arr = np.asarray(r, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(~np.isfinite(arr))):
        raise ValueError("radius must be positive and finite")
    return arr


def _wrap(r, out):
    if np.isscalar(r) or getattr(r, "ndim", 0) == 0:
        return float(out)
    return out


class RadialProfile:
    """Base interface for radial functions on (0, inf)."""

    def evaluate(self, r):
        raise NotImplementedError

    def __call__(self, r):
        return self.evaluate(r)

    def log2_evaluate(self, u, at=None):
        """Values at the log2 radii ``u`` (an array), unvalidated.  ``at``,
        if given, broadcasts against ``u`` and names for each point a log2
        radius on the same smooth piece (no breakpoint between the two), so
        the piece is looked up once per ``at`` value."""
        return self.evaluate(np.exp2(u))

    def local_exponent(self, end: str) -> Optional[float]:
        """Power-law exponent governing the profile near ``end``.

        ``end`` is ``"zero"`` or ``"infinity"``.  ``None`` means the
        profile vanishes identically near that end.
        """
        raise NotImplementedError

    def log2_breakpoints(self) -> Tuple[float, ...]:
        """log2 radii where the profile is not smooth (kinks, cutoffs)."""
        return ()

    def support_start(self) -> Optional[float]:
        """log2 radius at and below which the profile vanishes; None when it
        does not vanish near 0.  By default the first breakpoint of a
        profile that vanishes near 0."""
        if self.local_exponent("zero") is not None:
            return None
        return min(self.log2_breakpoints(), default=None)


@dataclass(frozen=True)
class PowerLaw(RadialProfile):
    """f(x) = coefficient * |x|**exponent."""

    exponent: float
    coefficient: float = 1.0

    def __post_init__(self):
        if not (self.coefficient > 0 and math.isfinite(self.coefficient)):
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")

    def evaluate(self, r):
        arr = _check_radii(r)
        return _wrap(r, self.coefficient * arr ** self.exponent)

    def log2_evaluate(self, u, at=None):
        return self.coefficient * np.exp2(self.exponent * np.asarray(u, dtype=float))

    def local_exponent(self, end):
        return self.exponent

    def argument_scaled(self, factor: float) -> "PowerLaw":
        """Profile x -> f(factor * x); exact for power laws."""
        if factor == 0:
            raise ValueError("argument scale must be nonzero")
        return PowerLaw(self.exponent, self.coefficient * abs(factor) ** self.exponent)


@dataclass(frozen=True)
class TruncatedPowerLaw(RadialProfile):
    """coefficient * |x|**exponent for |x| > inner_radius, zero otherwise."""

    exponent: float
    coefficient: float = 1.0
    inner_radius: float = 1.0

    def __post_init__(self):
        if not (self.coefficient > 0 and math.isfinite(self.coefficient)):
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")
        if not (self.inner_radius > 0 and math.isfinite(self.inner_radius)):
            raise ValueError(f"inner_radius must be positive, got {self.inner_radius}")

    def evaluate(self, r):
        arr = _check_radii(r)
        out = np.where(arr > self.inner_radius, self.coefficient * arr ** self.exponent, 0.0)
        return _wrap(r, out)

    def log2_evaluate(self, u, at=None):
        u = np.asarray(u, dtype=float)
        inside = (u if at is None else np.asarray(at)) > math.log2(self.inner_radius)
        return np.where(inside, self.coefficient * np.exp2(self.exponent * u), 0.0)

    def local_exponent(self, end):
        return self.exponent if end == "infinity" else None

    def log2_breakpoints(self):
        return (math.log2(self.inner_radius),)

    def argument_scaled(self, factor: float) -> "TruncatedPowerLaw":
        if factor == 0:
            raise ValueError("argument scale must be nonzero")
        return TruncatedPowerLaw(self.exponent,
                                 self.coefficient * abs(factor) ** self.exponent,
                                 self.inner_radius / abs(factor))


@dataclass(frozen=True, eq=False)
class SampledProfile(RadialProfile):
    """Nonnegative values on an increasing log2-radius grid.

    Interpolation is log-log linear (exact for power laws); segments with
    a zero endpoint fall back to linear interpolation in the value,
    clamped at zero.  Outside the grid the boundary segment's slope is
    extended.
    """

    log2_radii: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        u = np.asarray(self.log2_radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if u.ndim != 1 or u.size < 2:
            raise ValueError("log2_radii must contain at least two nodes")
        if v.shape != u.shape:
            raise ValueError("values must match log2_radii in length")
        if np.any(np.diff(u) <= 0):
            raise ValueError("log2_radii must be strictly increasing")
        if np.any(v < 0) or np.any(~np.isfinite(v)):
            raise ValueError("values must be finite and nonnegative")
        object.__setattr__(self, "log2_radii", tuple(u.tolist()))
        object.__setattr__(self, "values", tuple(v.tolist()))
        with np.errstate(divide="ignore"):
            w = np.where(v > 0, np.log2(np.where(v > 0, v, 1.0)), -np.inf)
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_w", w)

    def evaluate(self, r):
        return _wrap(r, self.log2_evaluate(np.log2(_check_radii(r))))

    def log2_evaluate(self, u, at=None):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self._u, u if at is None else at, side="right") - 1,
                      0, self._u.size - 2)
        u0, u1 = self._u[idx], self._u[idx + 1]
        v0, v1 = self._v[idx], self._v[idx + 1]
        w0, w1 = self._w[idx], self._w[idx + 1]
        t = (u - u0) / (u1 - u0)
        both = (v0 > 0) & (v1 > 0)
        with np.errstate(invalid="ignore", over="ignore"):
            geo = np.exp2(np.where(both, w0 + t * (w1 - w0), 0.0))
        lin = np.maximum(v0 + t * (v1 - v0), 0.0)
        return np.where(both, geo, lin)

    def local_exponent(self, end):
        if end == "zero":
            if self._v[0] <= 0:
                return None
            if self._v[1] <= 0:
                return 0.0
            return (self._w[1] - self._w[0]) / (self._u[1] - self._u[0])
        if self._v[-1] <= 0:
            return None
        if self._v[-2] <= 0:
            return 0.0
        return (self._w[-1] - self._w[-2]) / (self._u[-1] - self._u[-2])

    def log2_breakpoints(self):
        return self.log2_radii

    def support_start(self):
        """The last node of the leading run of zero values."""
        positive = np.flatnonzero(self._v > 0)
        if positive.size == 0:
            return self.log2_radii[-1]      # zero everywhere
        return self.log2_radii[positive[0] - 1] if positive[0] > 0 else None

    def power_integrals(self, q: float, s: float, edges) -> np.ndarray:
        """int_{2**edges[i]}^{2**edges[i+1]} f(r)**q r**(s-1) dr for every
        interval between the increasing ``edges``, in closed form, q > 0.

        In u = log2 r the integrand is f(2**u)**q 2**(s u) ln 2.  The edges
        and the interior nodes cut it into pieces, each on one segment of
        the interpolant (beyond the grid, of its extension).  Where both
        nodes are positive a piece is an exponential in u, and all such
        pieces are taken in one array pass; where one node is zero f is
        linear in the distance y from that node, and the piece is a multiple
        of int y**q e**(kappa y) dy (``_ramp``); where both are zero it
        vanishes.  Each interval is the ``math.fsum`` of its pieces in
        order.  Values beyond the float range come back as inf or 0.
        """
        u, v, w = self._u, self._v, self._w
        edges = np.asarray(edges, dtype=float)
        nodes = u[1:-1]
        cuts = np.union1d(edges, nodes[(nodes > edges[0]) & (nodes < edges[-1])])
        a, b = cuts[:-1], cuts[1:]
        j = np.clip(np.searchsorted(u, a, side="right") - 1, 0, u.size - 2)
        pos0, pos1 = v[j] > 0.0, v[j + 1] > 0.0
        with np.errstate(invalid="ignore"):
            slope = (w[j + 1] - w[j]) / (u[j + 1] - u[j])
            c = q * slope + s
            top = q * (w[j] + slope * (a - u[j])) + s * a + np.maximum(c, 0.0) * (b - a)
            pieces = np.where(pos0 & pos1, exp2_integrals(top, c, b - a), 0.0)
        for i in np.flatnonzero(pos0 != pos1):
            (u0, u1), (v0, v1) = self.log2_radii[j[i]:j[i] + 2], self.values[j[i]:j[i] + 2]
            lo, hi = float(a[i]), float(b[i])
            if v1 > 0.0:    # zero at u0, f = v1 (u - u0) / (u1 - u0)
                pieces[i] = (_pow(v1 / (u1 - u0), q) * _pow2(s * u0) * LN2
                             * _ramp(q, s * LN2, max(lo - u0, 0.0), max(hi - u0, 0.0)))
            else:           # zero at u1, f = v0 (u1 - u) / (u1 - u0)
                pieces[i] = (_pow(v0 / (u1 - u0), q) * _pow2(s * u1) * LN2
                             * _ramp(q, -s * LN2, max(u1 - hi, 0.0), max(u1 - lo, 0.0)))
        first = np.searchsorted(a, edges)   # interval i holds pieces first[i]:first[i + 1]
        out = np.zeros(edges.size - 1)
        out[np.searchsorted(edges, a, side="right") - 1] = pieces
        for i in np.flatnonzero(np.diff(first) > 1):
            out[i] = math.fsum(pieces[first[i]:first[i + 1]])
        return out

    def power_integral(self, q: float, s: float, lo: float, hi: float) -> float:
        """int_{2**lo}^{2**hi} f(r)**q r**(s-1) dr: the one-interval case of
        ``power_integrals`` (0 when hi <= lo)."""
        return float(self.power_integrals(q, s, (lo, hi))[0]) if lo < hi else 0.0


def _pow2(x: float) -> float:
    return math.inf if x >= 1024.0 else 2.0 ** x


def _pow(x: float, q: float) -> float:
    """x**q for x >= 0: inf beyond the float range, not an OverflowError."""
    try:
        return x ** q
    except OverflowError:
        return math.inf


def _ramp(q: float, kappa: float, y0: float, y1: float) -> float:
    """int_{y0}^{y1} y**q e**(kappa y) dy for 0 <= y0 <= y1, q > 0.

    From 0, the integral is y**(q+1)/(q+1) 1F1(q+1; q+2; kappa y).  Where
    the integrand decreases (kappa < 0, beyond its peak y = q/|kappa|)
    differences of that would cancel, so the part past the peak is taken
    as a difference of upper incomplete Gamma functions instead.
    """
    if y1 <= y0:
        return 0.0

    def from_zero(y):
        return y ** (q + 1.0) / (q + 1.0) * float(hyp1f1(q + 1.0, q + 2.0, kappa * y))

    if kappa >= 0.0:
        return from_zero(y1) - from_zero(y0)
    lam = -kappa
    peak = q / lam

    def to_infinity(y):
        return float(gamma(q + 1.0) * gammaincc(q + 1.0, lam * y)) / lam ** (q + 1.0)

    out = 0.0
    if y0 < peak:
        out += from_zero(min(y1, peak)) - from_zero(y0)
    if y1 > peak:
        out += to_infinity(max(y0, peak)) - to_infinity(y1)
    return out


@dataclass(frozen=True)
class SumProfile(RadialProfile):
    """Pointwise sum of profiles."""

    terms: Tuple[RadialProfile, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("SumProfile needs at least one term")
        object.__setattr__(self, "terms", terms)

    def evaluate(self, r):
        arr = _check_radii(r)
        out = np.zeros_like(arr, dtype=float)
        for t in self.terms:
            out = out + t.evaluate(arr)
        return _wrap(r, out)

    def log2_evaluate(self, u, at=None):
        out = 0.0
        for t in self.terms:
            out = out + t.log2_evaluate(u, at)
        return out

    def local_exponent(self, end):
        exps = [t.local_exponent(end) for t in self.terms]
        exps = [e for e in exps if e is not None]
        if not exps:
            return None
        # near zero the smallest exponent dominates, near infinity the largest
        return min(exps) if end == "zero" else max(exps)

    def log2_breakpoints(self):
        pts = []
        for t in self.terms:
            pts.extend(t.log2_breakpoints())
        return tuple(sorted(set(pts)))

    def support_start(self):
        starts = [t.support_start() for t in self.terms]
        return None if None in starts else min(starts)


@dataclass(frozen=True)
class ScaledProfile(RadialProfile):
    """factor * profile with factor >= 0 (zero gives the zero function)."""

    base: RadialProfile
    factor: float

    def __post_init__(self):
        if not (self.factor >= 0 and math.isfinite(self.factor)):
            raise ValueError(f"factor must be nonnegative and finite, got {self.factor}")

    def evaluate(self, r):
        arr = _check_radii(r)
        return _wrap(r, self.factor * self.base.evaluate(arr))

    def log2_evaluate(self, u, at=None):
        return self.factor * self.base.log2_evaluate(u, at)

    def local_exponent(self, end):
        if self.factor == 0:
            return None
        return self.base.local_exponent(end)

    def log2_breakpoints(self):
        return self.base.log2_breakpoints()

    def support_start(self):
        return self.base.support_start()


def extremal_morrey_herz(exponents, i: int) -> PowerLaw:
    """Power-law input attaining the Morrey-Herz sharp constant for factor i.

    Exponent: -alpha_i - (d + gamma_i)/q_i + lambda_i.  Requires
    lambda_i > 0 and lambda_i > alpha_i, otherwise the closed-form norm
    is not finite and positive.
    """
    lam, a = exponents.lambda_i[i], exponents.alpha_i[i]
    if lam <= 0:
        raise ValueError(f"lambda_i>0 required (factor {i})")
    if lam <= a:
        raise ValueError(f"lambda_i>alpha_i required (factor {i})")
    exp = -a - (exponents.d + exponents.gamma_i[i]) / exponents.q_i[i] + lam
    return PowerLaw(exp, 1.0)


def extremal_herz(exponents, i: int, epsilon: float) -> TruncatedPowerLaw:
    """Epsilon-truncated extremal input for the Herz lower bound (factor i)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    exp = (-exponents.alpha_i[i]
           - (exponents.d + exponents.gamma_i[i]) / exponents.q_i[i]
           - epsilon)
    return TruncatedPowerLaw(exp, 1.0, 1.0)
