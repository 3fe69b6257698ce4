"""Shell, Herz, and Morrey-Herz norms of radial profiles.

Shell index k refers to the dyadic annulus 2^(k-1) < |x| <= 2^k.  Under a
degree-gamma homogeneous weight w in R^d every shell quantity reduces to
a 1-d radial integral:

    ||f chi_k||_{q,w} = (w(S_d) * int_{2^(k-1)}^{2^k} f(r)^q r^(gamma+d-1) dr)^(1/q).

Power laws, truncated power laws, sampled profiles and their multiples
have closed-form shell integrals, taken for the whole window in one array
pass (``shell_norm`` is the one-shell case); sum profiles are integrated
numerically shell by shell, per smooth piece in log-radius.

Herz norms aggregate shell norms over k with 2^(k*alpha) scaling in l^p;
Morrey-Herz norms take the sup over the truncation index k_0 of
2^(-k_0*lambda) times partial Herz sums.  The infinite sums/sup are
replaced by a finite window plus a tail analysis on the last 8 terms at
each end: geometric decay is extrapolated into a tail bound, geometric
growth at an end certifies ``Infinite``, and anything the trend analysis
cannot classify is ``Inconclusive`` rather than a guessed limit.

Infinite norms are a first-class status, not an error; the sharpness and
counterexample workflows depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .numerics import LN2, exp2_integrals, one_minus_pow2_over, pow2m1
from .profiles import (PowerLaw, RadialProfile, SampledProfile, ScaledProfile,
                       TruncatedPowerLaw)
from .quadrature import gauss_legendre
from .weights import HomogeneousWeight

TAIL_TERMS = 8
RATIO_EPS = 1e-8


class NormStatus(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NormResult:
    """Norm value with the shell window used and a truncation estimate."""

    value: float
    window: Tuple[int, int]
    sup_index: Optional[int]
    tail_bound: float
    status: NormStatus

    @property
    def finite(self) -> bool:
        return self.status is NormStatus.FINITE


# --------------------------------------------------------------------------
# shell norms


def _shell_integrals(profile: RadialProfile, q: float, gamma: float, d: int,
                     ks: np.ndarray) -> Optional[np.ndarray]:
    """int_{2^(k-1)}^{2^k} f(r)^q r^(gamma+d-1) dr in closed form for every k
    of the consecutive shell indices ``ks`` in one array pass, or None.  In
    u = log2 r a (truncated) power law c r^a gives c^q 2^(e u) ln 2 with
    e = a q + gamma + d: inf or 0 beyond the float range, not an overflow."""
    if isinstance(profile, ScaledProfile):
        inner = _shell_integrals(profile.base, q, gamma, d, ks)
        if inner is None:
            return None
        # factor 0 is the zero function, also where the base's shells are inf
        return profile.factor ** q * inner if profile.factor > 0.0 else np.zeros_like(inner)
    if isinstance(profile, SampledProfile):
        return profile.power_integrals(q, gamma + d, np.append(ks[0] - 1.0, ks))
    if isinstance(profile, (PowerLaw, TruncatedPowerLaw)):
        e = profile.exponent * q + gamma + d
        lo = ks - 1.0
        if isinstance(profile, TruncatedPowerLaw):
            lo = np.clip(math.log2(profile.inner_radius), lo, ks)
        top = (ks if e > 0 else lo) * e
        shells = profile.coefficient ** q * exp2_integrals(top, e, ks - lo)
        return np.where(ks > lo, shells, 0.0)
    return None


def _gauss_on(fun, a: float, b: float, level: int) -> float:
    """12-point Gauss-Legendre on 2**level equal cells of [a, b], with the
    two end cells split further at a + h 4**-j and b - h 4**-j
    (j = 1..level, h the cell width)."""
    x, w = gauss_legendre(12)
    h = (b - a) / 2 ** level
    grade = h * 0.25 ** np.arange(1.0, level + 1.0)
    edges = np.unique(np.concatenate((np.linspace(a, b, 2 ** level + 1), a + grade, b - grade)))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return float(np.dot((half[:, None] * w).ravel(), fun((mid[:, None] + half[:, None] * x).ravel())))


def _integrate_piece(fun, a: float, b: float) -> float:
    """int_a^b fun for a nonnegative ``fun``, smooth inside [a, b]:
    ``_gauss_on`` at levels 0, 1, 2, ... 10 until two levels agree to
    5e-14 relative; NaN when they never do, so the norm comes back
    inconclusive instead of taking an unsettled value.

    The end cells are graded because f**q is not smooth at a zero node of
    a sampled term (like (u - u0)**q there).
    """
    prev = _gauss_on(fun, a, b, 0)
    for level in range(1, 11):
        cur = _gauss_on(fun, a, b, level)
        if abs(cur - prev) <= 5e-14 * abs(cur):
            return cur
        prev = cur
    return math.nan


def _numeric_shell_integral(profile: RadialProfile, q: float, gamma: float,
                            d: int, k: int) -> float:
    s = gamma + d

    def fun(u):
        return profile.log2_evaluate(u) ** q * np.exp2(u * s) * LN2

    cuts = sorted({float(b) for b in profile.log2_breakpoints() if k - 1 < b < k})
    edges = [float(k - 1)] + cuts + [float(k)]
    return math.fsum(_integrate_piece(fun, a, b) for a, b in zip(edges, edges[1:]))


def _shell_norms(profile: RadialProfile, weight: HomogeneousWeight, q: float,
                 ks: np.ndarray, d: int) -> np.ndarray:
    """Shell norms for the consecutive shell indices ``ks``: closed forms
    for the whole window at once, else numeric shells one by one."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if weight.degree <= -d:
        raise ValueError(f"weight degree must exceed -d = {-d}")
    with np.errstate(over="ignore", invalid="ignore"):    # inf and nan shells are data
        integrals = _shell_integrals(profile, q, weight.degree, d, ks)
        if integrals is None:
            integrals = np.array([_numeric_shell_integral(profile, q, weight.degree, d, int(k))
                                  for k in ks])
        return (weight.sphere_mass * np.maximum(integrals, 0.0)) ** (1.0 / q)


def shell_norm(profile: RadialProfile, weight: HomogeneousWeight, q: float,
               k: int, d: int = 1) -> float:
    """||f chi_k||_{q,w} on the shell 2^(k-1) < |x| <= 2^k: the one-shell
    case of the window pass the Herz norms take, so equal to their shell k
    bit for bit."""
    return float(_shell_norms(profile, weight, q, np.array([float(k)]), d)[0])


# --------------------------------------------------------------------------
# tail classification


@dataclass(frozen=True)
class _Edge:
    kind: str      # 'zero' | 'decay' | 'grow' | 'flat' | 'short'
    ratio: float
    tail: float


def _edge_analysis(terms: np.ndarray, side: str) -> _Edge:
    """Geometric trend of the terms adjacent to one window edge.

    Ratios are taken moving outward (beyond the window); 'decay' comes
    with a geometric tail-sum estimate.
    """
    u = terms[::-1] if side == "left" else terms
    nz = np.flatnonzero(u == 0.0)
    run_start = (nz[-1] + 1) if nz.size else 0
    run = u[run_start:]
    if run.size == 0:
        return _Edge("zero", 0.0, 0.0)
    run = run[-TAIL_TERMS:]
    if run.size < 2:
        return _Edge("short", math.nan, math.inf)
    ratios = run[1:] / run[:-1]
    rho = float(np.median(ratios))
    if rho > 1.0 + RATIO_EPS:
        return _Edge("grow", rho, math.inf)
    if rho < 1.0 - RATIO_EPS:
        return _Edge("decay", rho, float(run[-1]) * rho / (1.0 - rho))
    return _Edge("flat", rho, math.inf)


def _window_range(window) -> Tuple[int, int]:
    kmin, kmax = int(window[0]), int(window[1])
    if kmax < kmin:
        raise ValueError(f"window must be nonempty, got {window}")
    return kmin, kmax


def _shell_terms(profile, weight, alpha, p, q, ks, d) -> np.ndarray:
    shells = _shell_norms(profile, weight, q, ks, d)
    with np.errstate(over="ignore"):
        return np.exp2(ks * (alpha * p)) * shells ** p


# --------------------------------------------------------------------------
# Herz and Morrey-Herz norms


def herz_norm(profile: RadialProfile, weight: HomogeneousWeight, alpha: float,
              p: float, q: float, window=(-48, 48), tol: float = 1e-10,
              d: int = 1) -> NormResult:
    """Weighted Herz norm (sum over k of 2^(k alpha p) shell^p)^(1/p)."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    kmin, kmax = _window_range(window)
    ks = np.arange(kmin, kmax + 1, dtype=float)
    u = _shell_terms(profile, weight, alpha, p, q, ks, d)
    if not np.all(np.isfinite(u)):
        return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INCONCLUSIVE)
    if not np.any(u > 0):
        return NormResult(0.0, (kmin, kmax), None, 0.0, NormStatus.FINITE)

    left = _edge_analysis(u, "left")
    right = _edge_analysis(u, "right")
    S = float(np.cumsum(u)[-1])
    value = S ** (1.0 / p)
    if "grow" in (left.kind, right.kind):
        return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INFINITE)
    if left.kind in ("flat", "short") or right.kind in ("flat", "short"):
        return NormResult(value, (kmin, kmax), None, math.inf, NormStatus.INCONCLUSIVE)
    tail_terms = left.tail + right.tail
    tail_bound = (S + tail_terms) ** (1.0 / p) - value
    status = NormStatus.FINITE
    if tail_bound > tol * value:
        status = NormStatus.INCONCLUSIVE
    return NormResult(value, (kmin, kmax), None, tail_bound, status)


def morrey_herz_norm(profile: RadialProfile, weight: HomogeneousWeight,
                     alpha: float, lam: float, p: float, q: float,
                     window=(-48, 48), tol: float = 1e-10, d: int = 1) -> NormResult:
    """Weighted Morrey-Herz norm: sup_k0 2^(-k0 lambda) (partial Herz sum)^(1/p).

    lambda = 0 delegates to :func:`herz_norm` (same summation order, exact
    agreement).  A sup still increasing at the right window edge yields
    ``Inconclusive``; geometric growth of the terms or of the weighted
    partial sums toward the left edge yields ``Infinite``.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    kmin, kmax = _window_range(window)
    if lam == 0.0:
        base = herz_norm(profile, weight, alpha, p, q, window, tol, d)
        sup_index = kmax if base.status is NormStatus.FINITE and base.value > 0 else None
        return NormResult(base.value, base.window, sup_index, base.tail_bound, base.status)

    ks = np.arange(kmin, kmax + 1, dtype=float)
    u = _shell_terms(profile, weight, alpha, p, q, ks, d)
    if not np.all(np.isfinite(u)):
        return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INCONCLUSIVE)
    if not np.any(u > 0):
        return NormResult(0.0, (kmin, kmax), None, 0.0, NormStatus.FINITE)

    left = _edge_analysis(u, "left")
    if left.kind == "grow":
        # inner sums diverge for every k0
        return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INFINITE)
    if left.kind in ("flat", "short"):
        return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INCONCLUSIVE)

    S = np.cumsum(u)
    g = np.exp2(-ks * lam) * S ** (1.0 / p)

    # weighted partial sums growing toward the left edge: sup escapes to -inf
    head = g[:TAIL_TERMS]
    if head[0] > 0 and head.size >= 3:
        out_ratios = head[:-1] / head[1:]
        if float(np.median(out_ratios)) > 1.0 + RATIO_EPS:
            return NormResult(math.inf, (kmin, kmax), None, math.inf, NormStatus.INFINITE)

    right = _edge_analysis(u, "right")
    if right.kind == "short":
        return NormResult(float(np.max(g)), (kmin, kmax), None, math.inf,
                          NormStatus.INCONCLUSIVE)
    marginal = False
    if right.kind == "grow":
        sigma = right.ratio ** (1.0 / p) * 2.0 ** (-lam)
        if sigma > 1.0 + RATIO_EPS:
            # sup still increasing at the window edge
            return NormResult(float(g[-1]), (kmin, kmax), None, math.inf,
                              NormStatus.INCONCLUSIVE)
        marginal = sigma >= 1.0 - RATIO_EPS

    idx = int(g.size - 1 - np.argmax(g[::-1]))  # rightmost maximizer
    value = float(g[idx])
    sup_index = int(ks[idx])

    tail_bound = 0.0
    if left.kind == "decay" and left.tail > 0:
        g_adj = np.exp2(-ks * lam) * (S + left.tail) ** (1.0 / p)
        tail_bound += float(np.max(g_adj)) - value
    if right.kind == "decay" and right.tail > 0:
        s_edge = float(S[-1])
        tail_bound += 2.0 ** (-kmax * lam) * (
            (s_edge + left.tail + right.tail) ** (1.0 / p)
            - (s_edge + left.tail) ** (1.0 / p))
    if marginal:
        back = min(4, g.size - 1)
        tail_bound += max(0.0, float(g[-1] - g[-1 - back]))

    status = NormStatus.FINITE
    if tail_bound > tol * value:
        status = NormStatus.INCONCLUSIVE
    return NormResult(value, (kmin, kmax), sup_index, tail_bound, status)


def power_norm_closed(a: float, weight: HomogeneousWeight, alpha: float,
                      lam: float, p: float, q: float, d: int = 1) -> float:
    """Closed-form Morrey-Herz norm of the extremal power law |x|**a.

    Valid only at the extremal exponent a = -alpha - (d+gamma)/q + lambda
    with lambda > max(0, alpha):

        2^lambda / (2^(lambda p) - 1)^(1/p)
        * ((1 - 2^(-q(lambda-alpha))) / (q(lambda-alpha)))^(1/q)
        * sphere_mass^(1/q).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam <= alpha:
        raise ValueError(f"lambda must exceed alpha, got lambda={lam}, alpha={alpha}")
    expected = -alpha - (d + weight.degree) / q + lam
    if abs(a - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(
            f"exponent {a} is not the extremal exponent {expected} for these indices")
    x = q * (lam - alpha)
    lead = 2.0 ** lam / pow2m1(lam * p) ** (1.0 / p)
    mid = one_minus_pow2_over(x) ** (1.0 / q)
    return lead * mid * weight.sphere_mass ** (1.0 / q)
