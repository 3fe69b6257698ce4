"""Shell, Herz, and Morrey-Herz norms of radial profiles.

Shell index k refers to the dyadic annulus 2^(k-1) < |x| <= 2^k.  Under a
degree-gamma homogeneous weight w in R^d every shell quantity reduces to
a 1-d radial integral:

    ||f chi_k||_{q,w} = (w(S_d) * int_{2^(k-1)}^{2^k} f(r)^q r^(gamma+d-1) dr)^(1/q).

Power laws, truncated power laws, sampled profiles and their multiples
have closed-form shell integrals, taken for the whole window in one array
pass (``shell_norm`` is the one-shell case).  The other profiles (sums,
multiples of sums, profiles that define only ``evaluate``) are integrated
numerically, also for the whole window in one pass: in u = log2 r, cut at
the shell edges and the profile's breakpoints, each piece at two Gauss
orders (``quadrature.piece_sums``), with a Gauss-Jacobi weight at the
zero of a ramp and cuts toward a zero just beyond a piece; a shell whose
two sums disagree is NaN, so its norm comes back inconclusive.

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
from .quadrature import piece_sums
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


# a numeric shell whose two rule sums differ by more than this, relative
# to its value, is NaN, so that its norm comes back inconclusive
_SETTLED = 5e-14
_GRADE_DEPTH = 60    # cuts toward a piece end stop 2**-60 of its width from it


def _numeric_shells(profile: RadialProfile, q: float, s: float, ks: np.ndarray) -> np.ndarray:
    """int_{k-1}^{k} f(2**u)**q 2**(s u) ln 2 du for the consecutive shell
    indices ``ks``, for a profile with no closed shell form, in one
    ``piece_sums`` pass over [ks[0] - 1, ks[-1]] cut at the shell edges
    and the profile's log2 breakpoints.

    At an end of a piece toward which f falls, f's tangent vanishes a
    distance delta beyond it.  delta = 0 is a ramp's zero node (every
    built-in profile is linear in u there): the piece carries the
    Gauss-Jacobi weight (distance to that end)**q.  0 < delta < half the
    piece (a zero node just beyond the piece, or one that a live power
    term lifts): the piece is cut at delta 2**j from that end.  A shell is
    the fsum of its pieces' finer sums, or NaN where the fsum of their
    differences from the coarser ones exceeds _SETTLED of it.
    """
    breaks = np.asarray(profile.log2_breakpoints(), dtype=float)
    edges = np.union1d(np.append(ks[0] - 1.0, ks),
                       breaks[(breaks > ks[0] - 1.0) & (breaks < ks[-1])])
    a, b = edges[:-1], edges[1:]
    mid, width = 0.5 * (a + b), b - a
    # f's tangent at each end, by a difference quotient over 2**-20 of the piece
    step = width * 2.0 ** -20
    ends = profile.log2_evaluate(np.stack([a, b]), mid)
    inward = profile.log2_evaluate(np.stack([a + step, b - step]), mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(inward > ends, ends * step / (inward - ends), np.inf)
    # cuts at delta 2**j from an end (j < _GRADE_DEPTH), no nearer to it than
    # 2**-_GRADE_DEPTH of the piece
    nearest = np.maximum(delta, width * 2.0 ** -_GRADE_DEPTH)
    dist = nearest[..., None] * np.exp2(np.arange(_GRADE_DEPTH))
    graded = (delta > 0.0)[..., None] & (dist < 0.5 * width[:, None])
    lo = np.sort(np.concatenate([a, (a[:, None] + dist[0])[graded[0]],
                                 (b[:, None] - dist[1])[graded[1]]]))
    owner = np.searchsorted(a, lo, side="right") - 1
    hi = np.append(lo[1:], b[-1])
    # each piece in v = u - hi, or v = lo - u where f vanishes at lo, on [lo - hi, 0]
    zero_lo = (delta[0] == 0.0)[owner] & (lo == a[owner])
    jacobi = zero_lo | ((delta[1] == 0.0)[owner] & (hi == b[owner]))
    origin, sign, at = np.where(zero_lo, lo, hi), np.where(zero_lo, -1.0, 1.0), mid[owner]

    def values(v):
        u = origin + sign * v
        return profile.log2_evaluate(u, at) ** q * np.exp2(s * u) * LN2

    coarse, fine = piece_sums(values, lo - hi, np.zeros(lo.size), jacobi, q)
    first = np.searchsorted(lo, np.append(ks - 1.0, ks[-1])).tolist()   # the pieces of each shell
    fine, diff = fine.tolist(), np.abs(fine - coarse).tolist()
    out = []
    for i, j in zip(first, first[1:]):
        value = math.fsum(fine[i:j])
        out.append(value if math.fsum(diff[i:j]) <= _SETTLED * abs(value) else math.nan)
    return np.array(out)


def _shell_norms(profile: RadialProfile, weight: HomogeneousWeight, q: float,
                 ks: np.ndarray, d: int) -> np.ndarray:
    """Shell norms for the consecutive shell indices ``ks``: closed forms
    for the whole window at once, else numeric shells, also at once."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if weight.degree <= -d:
        raise ValueError(f"weight degree must exceed -d = {-d}")
    with np.errstate(over="ignore", invalid="ignore"):    # inf and nan shells are data
        integrals = _shell_integrals(profile, q, weight.degree, d, ks)
        if integrals is None:
            integrals = _numeric_shells(profile, q, weight.degree + d, ks)
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


def _median(x: list) -> float:
    """The median of a short list of floats, equal to ``np.median`` bit for
    bit: the middle term, or the mean of the middle two; NaN where a term is."""
    if any(map(math.isnan, x)):
        return math.nan
    x = sorted(x)
    half = len(x) // 2
    return x[half] if len(x) % 2 else (x[half - 1] + x[half]) / 2.0


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
    rho = _median((run[1:] / run[:-1]).tolist())
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
        if _median((head[:-1] / head[1:]).tolist()) > 1.0 + RATIO_EPS:
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
