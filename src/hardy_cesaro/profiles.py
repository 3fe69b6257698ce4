"""Radial test functions.

Profiles are nonnegative functions of the radius r > 0.  The concrete
variants are power laws, truncated power laws (zero inside a cutoff
radius), profiles sampled on a log2-radius grid with log-log linear
interpolation, and Sum/Scale combinators.  Sampled profiles live on a
log2 grid because all norms aggregate over dyadic shells, so shell
integrals see one smooth piece per grid segment.

Evaluation accepts scalars or numpy arrays of radii; radii must be
strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


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

    def local_exponent(self, end: str) -> Optional[float]:
        """Power-law exponent governing the profile near ``end``.

        ``end`` is ``"zero"`` or ``"infinity"``.  ``None`` means the
        profile vanishes identically near that end.
        """
        raise NotImplementedError

    def log2_breakpoints(self) -> Tuple[float, ...]:
        """log2 radii where the profile is not smooth (kinks, cutoffs)."""
        return ()


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
        arr = _check_radii(r)
        u = np.log2(arr)
        idx = np.clip(np.searchsorted(self._u, u, side="right") - 1, 0, self._u.size - 2)
        u0, u1 = self._u[idx], self._u[idx + 1]
        v0, v1 = self._v[idx], self._v[idx + 1]
        w0, w1 = self._w[idx], self._w[idx + 1]
        t = (u - u0) / (u1 - u0)
        both = (v0 > 0) & (v1 > 0)
        with np.errstate(invalid="ignore", over="ignore"):
            geo = np.exp2(np.where(both, w0 + t * (w1 - w0), 0.0))
        lin = np.maximum(v0 + t * (v1 - v0), 0.0)
        return _wrap(r, np.where(both, geo, lin))

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

    def local_exponent(self, end):
        if self.factor == 0:
            return None
        return self.base.local_exponent(end)

    def log2_breakpoints(self):
        return self.base.log2_breakpoints()


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
