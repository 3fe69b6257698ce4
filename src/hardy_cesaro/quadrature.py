"""Singularity-aware quadrature on [0, 1] and kernel descriptors.

Every kernel integral here is one-dimensional.  Kernels with n >= 2 have a
ProductPowerBeta psi and MinPower curves, so their integrands depend on t
through m = min(t) alone: ``min_reduction`` turns them into n = 1 kernels
whose psi is the density of m (``MinDensity``; ``LogMinDensity`` with the
XiaoLog factor log(2/t_1)).  At n = 1 it turns a MinPower curve into a
power curve and a one-factor ProductPowerBeta into a PowerBeta.

Two integrators live here, and one bisecting loop (``_bisected``) serves
both: Gauss pieces in v = ln t, each summed at two orders, bisected until
their two sums agree.  ``kernel_power_integral`` is the one entry point
for kernel integrals: a Beta closed form where there is one, else the
piecewise line (``integrate_log_line``) for n = 1 kernels with a
PowerBeta or MinDensity psi and power curves t**b, b > 0, the reduced
min-power kernels included, whose first pass is a Gauss-Jacobi piece at
v = 0, dyadic Gauss-Legendre pieces and a Gauss-Laguerre head; else the
graded integrator ``integrate_unit_cube``, whose first pass covers v from
the smallest normal float to 0, cut at the line's dyadic edges and at the
integrand's breakpoints, a ``reflected`` companion g(u) = f(1 - u) taking
the nodes above t = 1/2 from the exact u = 1 - t.  The mass below the
smallest normal float is bounded from the declared order at t = 0, and a
value whose bound alone exceeds the tolerance is ``Inconclusive``.
The line, the operators' ramp pieces, ``tail_power_beta`` beyond its
series (the finite line from ln t0 to 0, ``_finite_line``) and the
numeric shells of ``norms`` sum their pieces with ``piece_sums``; the
operators' other pieces are incomplete Beta integrals
(``beta_pieces``), and the operators and ``_finite_line`` take their
results from ``_line_verdicts``.  ``beta_pieces`` is the one place that
integrates t**a (1-t)**e with a <= -1: by binomial 2F1 series, except
that -2 < a < -1 is lifted by one integration by parts onto the
incomplete Beta of a + 1 (``_by_parts``) wherever the bound of that
allows; an a <= -1 tail of ``tail_power_beta`` is its piece [ln t0, 0].
The Gauss-Jacobi and Gauss-Laguerre
rules come from their three-term recurrences (``_golub_welsch``, no
eigenvectors), so a rule of a new order costs well under a millisecond.

Divergence is decided structurally whenever the endpoint behavior is
known: a declared endpoint exponent <= -1 yields ``Divergent`` without
any function evaluation.  Numeric growth detection (an integrand that
does not fall toward t = 0 in v) is the fallback for opaque callback
kernels.

Integrands are evaluated in vectorized form: they receive a 1-d ndarray
of abscissas and return an array of matching length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc, betaincc, betaln, digamma

from .numerics import LN2

DEFAULT_BUDGET = 2 ** 22
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)   # smallest normal float
# Rounding allowance of a summed integral, relative to its summed |pieces|.
ROUNDING = 64.0 * _EPS


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]
    (cached and read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float):
    """Nodes and weights of the Gauss rule whose monic orthogonal
    polynomials have the recurrence coefficients ``diag`` (a_0 .. a_{n-1})
    and ``off`` (the square roots b_1 .. b_n of the others), and whose
    weight has total mass mu0.

    The nodes are the eigenvalues of the Jacobi matrix (no eigenvectors:
    LAPACK's divide and conquer for them takes 0.1 to 16 ms at n = 32,
    with OpenBLAS threads), polished by one Newton step on the orthonormal
    polynomial q_n.  The weight at a node x is mu0 / S(x), S = sum_{k<n}
    q_k**2 with q_0 = 1, taken at the polished node to first order.  One
    pass of the three-term recurrence b_{k+1} q_{k+1} = (x - a_k) q_k -
    b_k q_{k-1} and its derivative gives q_n, q_n', S and S'.
    """
    a, b = diag.tolist(), off.tolist()
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    q_prev, q, dq_prev, dq = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    total, half_slope = np.ones_like(x), np.zeros_like(x)
    for k in range(diag.size):
        if k:
            total += q * q
            half_slope += q * dq
        back, y = (b[k - 1] if k else 0.0), x - a[k]
        q_prev, q, dq_prev, dq = (q, (y * q - back * q_prev) / b[k],
                                  dq, (q + y * dq - back * dq_prev) / b[k])
    step = q / dq
    nodes = x - step
    weights = mu0 / (total - 2.0 * half_slope * step)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule on [-1, 1] for the
    weight (1 - x)**alpha, alpha > -1 (cached and read-only), from the
    recurrence of the monic Jacobi polynomials P^(alpha, 0) and
    mu_0 = 2**(alpha+1)/(alpha+1) (``_golub_welsch``).
    """
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    k = np.arange(n + 1.0)
    s = 2.0 * k + alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = np.where(k == 0, -alpha / (alpha + 2.0), -alpha * alpha / (s * (s + 2.0)))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + alpha) ** 2 / (s * s * (s * s - 1.0)))
    return _golub_welsch(diag[:n], off, 2.0 ** (alpha + 1.0) / (alpha + 1.0))


@functools.lru_cache(maxsize=None)
def gauss_laguerre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule on [0, inf) for the
    weight exp(-x) (cached and read-only): the monic Laguerre polynomials
    have recurrence coefficients 2k + 1 and k**2, and mu_0 = 1
    (``_golub_welsch``).
    """
    return _golub_welsch(2.0 * np.arange(n) + 1.0, np.arange(1.0, n + 1.0), 1.0)


# --------------------------------------------------------------------------
# piecewise Gauss rules
#
# A piecewise line integrates each piece with a PIECE_RULE-point and a
# 2 * PIECE_RULE-point rule.  The rules are stored as columns, the coarse
# nodes (or weights) stacked on the fine ones, so that the nodes of many
# pieces form one (3 * PIECE_RULE, pieces) array.

PIECE_RULE = 16


def _stacked(coarse, fine) -> Tuple[np.ndarray, np.ndarray]:
    columns = tuple(np.concatenate(p)[:, None] for p in zip(coarse, fine))
    for x in columns:
        x.flags.writeable = False
    return columns


@functools.lru_cache(maxsize=None)
def _legendre_pair() -> Tuple[np.ndarray, np.ndarray]:
    """Stacked Gauss-Legendre columns on [-1, 1]."""
    return _stacked(gauss_legendre(PIECE_RULE), gauss_legendre(2 * PIECE_RULE))


@functools.lru_cache(maxsize=64)
def _jacobi_pair(alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked Gauss-Jacobi columns on [-1, 1] for the weight (1 - x)**alpha."""
    return _stacked(gauss_jacobi(PIECE_RULE, alpha), gauss_jacobi(2 * PIECE_RULE, alpha))


@functools.lru_cache(maxsize=None)
def _laguerre_pair() -> Tuple[np.ndarray, np.ndarray]:
    """Stacked Gauss-Laguerre columns on [0, inf), the weights multiplied
    by exp(x): sum_i w_i f(x_i) approximates int_0^inf f(x) dx for f that
    decay like exp(-x)."""
    (x, w), (fine_x, fine_w) = gauss_laguerre(PIECE_RULE), gauss_laguerre(2 * PIECE_RULE)
    return _stacked((x, w * np.exp(x)), (fine_x, fine_w * np.exp(fine_x)))


def _pair_sums(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) sums of each column of weighted values ``g``, added
    row by row in a fixed order, whatever the other columns."""
    coarse, fine = g[0].copy(), g[PIECE_RULE].copy()
    for j in range(1, PIECE_RULE):
        coarse += g[j]
    for j in range(PIECE_RULE + 1, 3 * PIECE_RULE):
        fine += g[j]
    return coarse, fine


def piece_sums(values: Callable, lo: np.ndarray, hi: np.ndarray, last: np.ndarray,
               order: float, head: Optional[Tuple[float, float]] = None):
    """(coarse, fine) rule sums of each piece [lo, hi] of a line in v.

    A piece is integrated with the Gauss-Legendre columns or, where
    ``last`` (a piece [lo, 0]), with the Gauss-Jacobi columns for the
    weight (-v)**order, which its values are divided by (the Jacobi rule
    is built only if some piece needs it).  ``head = (end,
    rate)`` appends the piece (-inf, end], integrated with the
    Gauss-Laguerre columns in x = rate (end - v), for values that decay
    like e^{rate v}.  ``values(v)`` gives the integrand at the nodes v, one
    column per piece and the head last.  A piece's sums add its column in
    a fixed order, whatever the other pieces.
    """
    lx, lw = _legendre_pair()
    jx, jw = _jacobi_pair(order) if np.any(last) else (lx, lw)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    v = mid + half * np.where(last, jx, lx)
    weight = np.where(last, half ** (order + 1.0), half) * np.where(last, jw, lw)
    if head is not None:
        (gx, gw), (end, rate) = _laguerre_pair(), head
        v = np.concatenate([v, end - gx / rate], axis=1)
        weight = np.concatenate([weight, gw / rate], axis=1)
        last = np.append(last, False)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = values(v)
        g[:, last] = g[:, last] * (-v[:, last]) ** -order
        g = g * weight
    return _pair_sums(g)


class IntegralStatus(Enum):
    CONVERGED = "converged"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error: float
    status: IntegralStatus
    evaluations: int = 0

    @property
    def converged(self) -> bool:
        return self.status is IntegralStatus.CONVERGED


def _check_tol(tol: float) -> None:
    if not (1e-14 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-14, 1e-2], got {tol}")


def _divergent(evaluations: int = 0) -> IntegralResult:
    return IntegralResult(math.inf, math.inf, IntegralStatus.DIVERGENT, evaluations)


def _endpoint_pair(endpoint_exponents) -> Tuple[float, float]:
    """(at0, at1) from a pair or from a sequence holding one pair."""
    if endpoint_exponents is None:
        return 0.0, 0.0
    pairs = list(endpoint_exponents)
    at0, at1 = pairs[0] if len(pairs) == 1 else pairs
    return float(at0), float(at1)


# --------------------------------------------------------------------------
# the piecewise line in v = ln t
#
# int_0^1 f(t) dt = int_{-inf}^0 f(e^v) e^v dv.  For the kernel integrands
# below, f(e^v) e^v = e^{rate v} h(v) with rate = (order of f at t = 0) + 1
# and h analytic on v < 0 apart from a factor (-v)**order at v = 0 (the
# order of f at t = 1, since 1 - t = -expm1(v) has a simple zero there);
# as v -> -inf, h tends to its limit (or to a polynomial in v) like
# e^{decay v}.  Pieces whose widths double away from v = 0 resolve the
# factor at v = 0, and a Gauss-Laguerre head takes e^{rate v} down to
# -inf, so nothing is truncated.

_HEAD_DECAY = 40.0   # the head starts where e^{-max(rate, decay) |v|} <= e^-40
_RATE_SPAN = 40.0    # e^{rate v} falls by at most e^-40 across the Jacobi piece


def _fsum(x: list) -> float:
    """math.fsum, or the float sum (inf, or NaN) where fsum's partial sums
    leave the float range."""
    try:
        return fsum(x)
    except OverflowError:
        return sum(x)


def _line_verdicts(values: np.ndarray, errors: np.ndarray, sizes: np.ndarray,
                   tol: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, abs_error, converged) arrays, one element per row of pieces,
    from the pieces' values and error bounds, the rows taking ``sizes``
    consecutive pieces each (a Gauss piece's value is its finer rule sum
    from ``piece_sums``, its bound the difference of the two sums).

    A row's value is the fsum of its pieces, as ``_bisected`` gives it.
    Its abs_error is the summed bounds plus ROUNDING times the summed
    |pieces|, each sum of nonnegative terms taken in one array pass and
    raised by (1 + size eps), so that it is never below its fsum.  A row
    is converged when that is at most tol * max(1, |value|); an empty row
    is 0, converged."""
    sizes = np.asarray(sizes, dtype=int)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pieces, slices = values.tolist(), list(zip(starts.tolist(), ends.tolist()))
    try:
        value = np.array([fsum(pieces[a:b]) for a, b in slices])
    except OverflowError:
        value = np.array([_fsum(pieces[a:b]) for a, b in slices])
    bound, magnitude = np.zeros(sizes.size), np.zeros(sizes.size)
    rows = sizes > 0
    if np.any(rows):
        bound[rows] = np.add.reduceat(errors, starts[rows])
        magnitude[rows] = np.add.reduceat(np.abs(values), starts[rows])
    slack = 1.0 + sizes * _EPS
    err = bound * slack + ROUNDING * (magnitude * slack)
    with np.errstate(invalid="ignore"):
        converged = np.isfinite(err) & (err <= tol * np.maximum(1.0, np.abs(value)))
    return value, err, converged


def _first_depth(rate: float) -> int:
    """J of the piece [-2**-J, 0], across which e^{rate v} falls by at most
    e^-40, no narrower than the smallest normal float."""
    return math.ceil(math.log2(max(1.0, min(rate / _RATE_SPAN, 1.0 / _TINY))))


def _bisected(values: Callable, lo: np.ndarray, hi: np.ndarray, order: float, tol: float,
              head: Optional[Tuple[float, float]] = None, mass: float = 0.0,
              evaluations: int = 0, budget: int = DEFAULT_BUDGET) -> IntegralResult:
    """The integral of ``values`` over the pieces [lo, hi] of a line in v,
    and over the head (-inf, end] when ``head = (end, rate)`` is given.

    A pass sums its pieces by ``piece_sums``, a piece [lo, 0] with the
    Gauss-Jacobi weight (-v)**order where order < 40, and the head on the
    first pass only.  A piece's bound is |fine - coarse|, and for each
    half of a bisected piece at least half the miss of that piece's fine
    sum against theirs.  Converged when the summed bounds and the
    unresolved ``mass`` are within tol * max(1, |value|); otherwise the
    pieces whose bound exceeds their share of that are bisected (the
    head, of infinite width, never is) and summed again.  Inconclusive
    when the mass alone exceeds the tolerance, when no piece can be
    bisected, or when the next pass would take ``evaluations`` past
    ``budget``.  ``abs_error`` is the summed bounds and the mass, plus
    ROUNDING times the summed |pieces| (reported, not tested).
    """
    jacobi = order < 40.0    # the Jacobi rules are checked up to order 40
    order = order if jacobi else 0.0
    parent, pieces = np.empty(0), np.empty((4, 0))   # lo, hi, fine sum and bound
    value, err, rounding = math.nan, math.inf, 0.0
    status = IntegralStatus.INCONCLUSIVE
    while evaluations + 3 * PIECE_RULE * (lo.size + (head is not None)) <= budget:
        coarse, fine = piece_sums(values, lo, hi, (hi == 0.0) & jacobi, order, head)
        if head is not None:
            lo, hi, head = np.append(lo, -np.inf), np.append(hi, head[0]), None
        evaluations += 3 * PIECE_RULE * lo.size
        bound = np.abs(fine - coarse)
        bound[np.isnan(bound)] = math.inf     # two infinite sums bound nothing
        if parent.size:
            # the halves of a bisected piece share the miss of its fine sum,
            # which shows a jump that lies beyond both rules' outermost nodes
            miss = 0.5 * np.abs(parent - fine[:parent.size] - fine[parent.size:])
            bound = np.maximum(bound, np.tile(miss, 2))
        pieces = np.concatenate([pieces, [lo, hi, fine, bound]], axis=1)
        value, err = _fsum(pieces[2].tolist()), _fsum(pieces[3].tolist())
        rounding = ROUNDING * _fsum(np.abs(pieces[2]).tolist())
        room = tol * max(1.0, abs(value)) - mass
        if not (math.isfinite(value) and room >= 0.0):
            break
        if err <= room:
            status = IntegralStatus.CONVERGED
            break
        mid = 0.5 * (pieces[0] + pieces[1])
        split = (pieces[3] > room / pieces.shape[1]) & (pieces[0] < mid) & (mid < pieces[1])
        if not np.any(split):
            break
        parent = pieces[2, split]
        lo = np.concatenate([pieces[0, split], mid[split]])
        hi = np.concatenate([mid[split], pieces[1, split]])
        pieces = pieces[:, ~split]
    return IntegralResult(value, err + mass + rounding, status, evaluations)


def integrate_log_line(reduced: Callable, rate: float, order: float, decay: float,
                       tol: float, steepness: float = 0.0) -> IntegralResult:
    """int_{-inf}^0 e^{rate v} reduced(v) dv on Gauss pieces in v.

    The first pass takes the pieces [-2**-J, 0], with the Gauss-Jacobi
    weight (-v)**order below order 40; [-2**(k+1), -2**k] for -J <= k < K,
    Gauss-Legendre; and the head (-inf, v_L], v_L = -2**K, Gauss-Laguerre
    in x = rate (v_L - v), all in one evaluation of ``reduced``.  2**-J
    is the largest power of two up to 1 with max(rate, steepness) 2**-J
    <= 40, so that across that piece e^{rate v} falls by at most e^-40 and
    ``reduced``, which varies like e^{steepness v} near v = 0, by no more;
    2**K is the first power of two from max(2**-J, 40 / max(rate, decay))
    on, so the head either carries at most e^-40 of the integral or sees
    ``reduced`` within e^-40 of its limit.  ``_bisected`` sums the pieces
    and bisects those that do not settle, as for ``integrate_unit_cube``.
    Divergent, with no evaluation, when rate <= 0 or order <= -1.
    ``tol`` must lie in [1e-14, 1e-2], as for ``integrate_unit_cube``.
    """
    _check_tol(tol)
    if not (rate > 0.0 and order > -1.0):
        return _divergent()
    first = _first_depth(max(rate, steepness))
    depth = math.ceil(math.log2(max(2.0 ** -first, _HEAD_DECAY / max(rate, decay))))
    edges = -np.exp2(np.arange(-first, depth + 1.0))

    def values(v):
        return np.exp(rate * v) * np.asarray(reduced(v.ravel()), dtype=float).reshape(v.shape)

    return _bisected(values, edges, np.append(0.0, edges[:-1]), order, tol,
                     head=(float(edges[-1]), rate))


def integrate_unit_cube(integrand: Callable, n: int, tol: float,
                        endpoint_exponents=None, *,
                        breakpoints=None,
                        detect_growth: bool = True,
                        reflected: Optional[Callable] = None,
                        budget: int = DEFAULT_BUDGET) -> IntegralResult:
    """int_0^1 integrand(t) dt as int g(v) dv, g(v) = integrand(e^v) e^v,
    on adaptive Gauss pieces in v = ln t.

    The first pass covers [ln(smallest normal float), 0], whatever the
    breakpoints, cut at the dyadic edges -2**k of ``integrate_log_line``
    (the piece at 0 no wider than 40 / (at0 + 1)) and at ln t of every
    breakpoint; ``_bisected`` takes it from there, with the weight
    (-v)**at1 at 0.  Nodes with v > -ln 2 go through ``reflected`` at
    u = -expm1(v) when it is given, otherwise through ``integrand`` at e^v
    kept below 1.  Below the cover lies the unresolved mass
    |g(floor)| / (at0 + 1), the tail of a pure power at the floor, and
    none where at0 = inf.

    Parameters
    ----------
    integrand : callable
        Vectorized evaluator of a 1-d array of abscissas.
    n : int
        The dimension, which must be 1: every kernel integral of the
        package is one-dimensional (``min_reduction``).
    tol : float
        Relative tolerance in [1e-14, 1e-2].
    endpoint_exponents : (at0, at1), or a sequence holding that one pair
        Declared singularity orders: the integrand behaves like t**at0
        near t = 0 and (1-t)**at1 near t = 1.  ``math.inf`` declares that
        the integrand vanishes identically near that end (at t = 0: no
        mass below the smallest normal float is counted).  A declared
        exponent <= -1 (-inf included) returns ``Divergent`` immediately.
    breakpoints : sequence of floats
        Known kinks/jumps; they become piece edges.
    detect_growth : bool
        Numeric divergence fallback for callback kernels: divergent when
        |g| at the floor is not below |g| halfway to it in v.
    reflected : callable, optional
        Companion evaluator g(u) = integrand(1 - u), exact near t = 1.
    budget : int
        Total evaluation-point budget; exceeding it yields ``Inconclusive``.
    """
    if n != 1:
        raise ValueError(f"n must be 1, got {n}")
    _check_tol(tol)
    at0, at1 = _endpoint_pair(endpoint_exponents)
    if at0 <= -1.0 or at1 <= -1.0:
        return _divergent()
    points = [float(b) for b in (() if breakpoints is None else breakpoints) if 0.0 < b < 1.0]
    vanishing = at0 == math.inf
    first = 0 if vanishing else _first_depth(at0 + 1.0)
    edges = np.concatenate([-np.exp2(np.arange(-first, 10.0)), np.log(points), [0.0]])
    edges = np.unique(np.append(edges[edges > _LOG_TINY], _LOG_TINY))

    def g(v):
        t = np.exp(v)
        f = np.empty(v.shape)
        near = v > -LN2 if reflected is not None else np.zeros(v.shape, dtype=bool)
        for part, call, x in ((near, reflected, -np.expm1(v)),
                              (~near, integrand, np.minimum(t, 1.0 - 2.0 * _EPS))):
            if np.any(part):
                f[part] = call(x[part])
        return f * t

    evaluations, mass = 0, 0.0
    if not vanishing:
        with np.errstate(all="ignore"):
            floor, half = np.abs(g(np.array([_LOG_TINY, 0.5 * _LOG_TINY]))).tolist()
        if detect_growth and floor > 0.0 and floor >= half:
            return _divergent(2)
        evaluations, mass = 2, floor / (at0 + 1.0)
    return _bisected(g, edges[:-1], edges[1:], at1, tol, mass=mass,
                     evaluations=evaluations, budget=budget)


def beta_closed_form(a: float, e: float) -> IntegralResult:
    """Analytic value of int_0^1 t**a (1-t)**e dt = B(a+1, e+1).

    Divergent unless a > -1 and e > -1.  The value is exp(betaln), whose
    log-Gamma terms cancel: its error is 4 eps (1 + |lnG(a+1)| + |lnG(e+1)|
    + |lnG(a+e+2)|) of the value (about 1.7e3 at B(201, 1.3), where the
    value is 2.5e-13 off), plus the smallest subnormal for a value that
    leaves the normal range.  betaln is NaN where x = a + 1 and y = e + 1
    are both huge (x + y overflows, or log-Gamma does: both beyond about
    1e77, one beyond 1e305); B(x, y) <= 1/(z (z + 1)), z the larger, lies
    below the smallest subnormal there, and the value is 0.
    """
    if a <= -1.0 or e <= -1.0:
        return _divergent()
    x, y = a + 1.0, e + 1.0
    log_beta = betaln(x, y)
    if math.isnan(log_beta) and not math.isnan(x + y):
        log_beta = -math.inf
    value = float(math.exp(log_beta))
    # math.lgamma overflows from about 2.5e305 on, and a bound from 1e300
    # on is no bound anyway
    magnitude = 1.0 + fsum(abs(math.lgamma(min(z, 1e300))) for z in (x, y, x + y))
    err = 4.0 * _EPS * magnitude * value if value != 0.0 else 0.0
    return IntegralResult(value, err + _EPS * _TINY, IntegralStatus.CONVERGED, 0)


def beta_tail(c: float, e: float, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """int_t^1 x**c (1-x)**e dx for c, e > -1, elementwise, given t and
    u = 1 - t.

    The regularized incomplete Beta is taken from the side where its
    argument is exact: in u above t = 1/2, where t rounds, and as
    1 - I_t(c+1, e+1) below, where u rounds.
    """
    upper = t > 0.5
    tail = np.empty(t.shape)
    tail[upper] = betainc(e + 1.0, c + 1.0, u[upper])
    tail[~upper] = 1.0 - betainc(c + 1.0, e + 1.0, t[~upper])
    return beta_closed_form(c, e).value * tail


def log_beta_tail(c: float, e: float, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """int_t^1 log(2/x) x**c (1-x)**e dx for c, e > -1, elementwise, given
    t and u = 1 - t, as ``beta_tail`` takes them.

    The complete integral is B(c+1, e+1) (ln 2 + psi(c+e+2) - psi(c+1))
    (DLMF 5.12).  Up to t = 1/2 the binomial series of (1-x)**e gives the
    part int_0^t to subtract, sum_k (-e)_k/k! t**s/s (log(2/t) + 1/s) with
    s = c + k + 1; above, the integral is summed in u, sum_k (a_k ln 2 -
    b_k) u**(e+k+1)/(e+k+1), a_k the binomial coefficients of (1-y)**c and
    b_k = da_k/dc.  Every element sums the same number of terms.  Where a
    bound on their rounding exceeds _SERIES_RTOL of the value (exponents of
    about 10 and more, whose terms cancel), the element is NaN, so that an
    integral over it comes back inconclusive.
    """
    if not (c > -1.0 and e > -1.0):
        raise ValueError(f"log_beta_tail needs c, e > -1, got {c}, {e}")
    lower, upper = digamma(c + 1.0), digamma(c + e + 2.0)
    beta = beta_closed_form(c, e).value
    complete = beta * (LN2 + (upper - lower))
    # terms shrink by at least about 1/2 from k = max(c, e) on
    count = 64 + math.ceil(3.0 * max(c, e, 0.0))
    low, high = (t > 0.0) & (t <= 0.5), t > 0.5
    x, y = t[low], u[high]
    log_term = LN2 - np.log(x)
    pow_x, pow_y = x ** (c + 1.0), y ** (e + 1.0)
    sum_x, mass_x = np.zeros(x.shape), np.zeros(x.shape)
    sum_y, mass_y = np.zeros(y.shape), np.zeros(y.shape)
    coef, a, b = 1.0, 1.0, 0.0
    for k in range(count):
        s = c + k + 1.0
        term = coef * pow_x * (log_term + 1.0 / s) / s
        sum_x, mass_x = sum_x + term, mass_x + np.abs(term)
        s = e + k + 1.0
        term = (LN2 * a - b) * pow_y / s
        sum_y, mass_y = sum_y + term, mass_y + np.abs(term)
        pow_x, pow_y = pow_x * x, pow_y * y
        coef *= (k - e) / (k + 1.0)
        a, b = a * (k - c) / (k + 1.0), (b * (k - c) - a) / (k + 1.0)
    out = np.full(t.shape, complete)
    err = np.full(t.shape, 4.0 * _EPS * beta * (LN2 + abs(upper) + abs(lower)))
    out[low] = complete - sum_x
    err[low] += _EPS * count * mass_x
    out[high] = sum_y
    err[high] = _EPS * count * mass_y
    out[~(err <= _SERIES_RTOL * np.abs(out))] = math.nan
    return out


# Terms of a series in _binomial_series beyond which tail_power_beta
# integrates numerically instead; 2000 terms serve e up to about 150 and
# a down to about -560.
_MAX_TERMS = 2000
# Most terms x elements that _binomial_series sums as one table.  The table
# costs a few dozen array operations where the loop costs about 25 a term,
# but numpy's cumulative sums and products take a few ns an element: on the
# calls of a t31_sampled round (2-core x86-64, numpy 2.4) it took 0.26 ms
# against 1.13 at 1,100 cells and 1.26 against 1.95 at 23,560, and the loop
# was as fast from about 30,000 on (2.42 and 2.46 ms at 31,500).
_SERIES_CELLS = 24_000
# Largest error bound, relative to the value, accepted from the series.
_SERIES_RTOL = 1e-10
# Bound, relative to the value, above which an incomplete Beta value (a
# difference in beta_pieces, or a lifted piece) is taken again by the
# series.
_CANCELLATION = 1e-13
_LOG2_EPS = math.log2(_EPS)


def _split(e: float) -> float:
    """Split point h of the binomial series: on [t, h] the series of
    (1-t)**e cancels by at most ((1+h)/(1-h))**e <= 2**8; h = 1/2 for
    e <= 5."""
    return 0.5 if e <= 0.0 else min(0.5, math.tanh(4.0 * LN2 / e))


@functools.lru_cache(maxsize=256)
def _term_count(p: float, q: float, hi: float) -> Optional[int]:
    """Terms K after which the series of _binomial_series has a remainder
    below eps/4 of its value for every upper limit up to hi < 1, with
    p + K + 1 > 0.

    Consecutive terms shrink at least by r_k = hi |k - q| / (k + 1), and
    the value is at least (1 - hi)**max(q, 0) times the first term; the
    bound is kept in log2.  None when more than _MAX_TERMS terms would be
    needed.
    """
    log_bound = -max(q, 0.0) * math.log2(1.0 - hi)    # log2 of |term k| / value, at most
    for k in range(_MAX_TERMS):
        # from k >= q on, rho bounds every later r_j
        rho = hi * max(1.0, abs(k - q) / (k + 1.0))
        if k >= q and rho < 1.0 and log_bound + math.log2(rho / (1.0 - rho)) <= _LOG2_EPS - 2.0:
            count = max(k + 1, math.floor(-p))
            return count if count <= _MAX_TERMS else None
        step = hi * abs(k - q) / (k + 1.0)
        log_bound += math.log2(step) if step > 0.0 else -math.inf
    return None


def _binomial_series(p, q, lo, hi, count, logs):
    """int_lo^hi t**p (1-t)**q dt for 0 <= lo <= hi < 1, divided by
    ref**(p+1), with an error bound, given ``logs`` = (ln lo, ln hi,
    ln ref): the powers are taken from the logarithms, so limits below the
    float range (where lo and hi round to 0, or ln lo = -inf) keep their
    place.  ``p``, ``q`` and ``count`` are numbers, or arrays that
    broadcast with the limits.

    The binomial series of (1-t)**q integrated term by term,

        sum_k (-q)_k / k! * int_lo^hi t**(p+k) dt,

    which is the Gauss series of 2F1(-q, p+1; p+2; .) (DLMF 15.2.1)
    between the two limits.  A power p + k = -1 contributes log(hi/lo),
    so integer p needs no special case.  ``lo`` and ``hi`` broadcast;
    every element sums its ``count`` terms, so its value does not depend on
    the array it arrives in.  Up to _SERIES_CELLS terms x elements, the
    terms are one table, the recursions of coefficient and powers its
    cumulative products and the sums its cumulative sums down each column;
    wider calls take the terms one at a time.  Both add in the same order,
    so they give the same bits.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    log_lo, log_hi, log_ref = logs
    span = np.where(log_hi > log_lo, log_hi - log_lo, 0.0)
    pow_lo = np.exp((p + 1.0) * (log_lo - log_ref))
    pow_hi = np.exp((p + 1.0) * (log_hi - log_ref))
    finite_span = np.where(np.isfinite(span), span, 0.0)
    # per-term relative error, in eps: 3 roundings per step of the
    # coefficient recursion and 1 of the power recursion, 10 for the term
    # itself, and the rounding of s = p + k + 1 magnified by the logarithms
    # it multiplies
    magnify_lo = np.abs(log_lo) + finite_span
    magnify_hi = np.abs(log_hi) + finite_span
    terms = int(np.max(count))
    if (terms + 1) * lo.size <= _SERIES_CELLS:
        # row k holds term k (and the coefficient and power that start it);
        # row count - 1 of a cumulative sum is an element's sum, plus 0.0
        # as the loop's sums start from it (which turns -0.0 into 0.0)
        k = np.arange(terms + 1.0).reshape((-1,) + (1,) * lo.ndim)
        factor = (k[:-1] - q) / (k[:-1] + 1.0)
        coef = np.cumprod(np.concatenate([np.ones_like(factor[:1]), factor]), axis=0)
        powers = np.cumprod(np.concatenate([pow_hi[None],
                                            np.broadcast_to(hi, (terms,) + hi.shape)]), axis=0)
        s = p + k[:-1] + 1.0
        term = coef[:-1] * powers[:-1] * (-np.expm1(-s * span) / s)
        magnify = magnify_hi
        # s grows down the rows: only the leading ones hold some s <= 0
        mixed = int(np.count_nonzero(np.any(~(s > 0.0), axis=tuple(range(1, s.ndim)))))
        if mixed:
            low = np.cumprod(np.concatenate([np.broadcast_to(pow_lo, lo.shape)[None],
                                             np.broadcast_to(lo, (mixed - 1,) + lo.shape)]), axis=0)
            s_, c_ = s[:mixed], coef[:mixed]
            term[:mixed] = np.where(s_ > 0.0, term[:mixed],
                                    np.where(s_ < 0.0, c_ * low * (-np.expm1(s_ * span) / -s_),
                                             c_ * span * low))
            magnify = np.where(s > 0.0, magnify_hi, magnify_lo)
        size = np.abs(term)
        rows = np.broadcast_to(count, lo.shape)[None] - 1

        def at(table, shift=0):
            table = np.broadcast_to(table, table.shape[:1] + lo.shape)
            return np.take_along_axis(table, rows + shift, axis=0)[0]

        value, mass, err = (at(np.cumsum(x, axis=0)) + 0.0 for x in (
            term, size, size * (4.0 * k[:-1] + 10.0 + np.abs(s) * magnify)))
        coef, pow_hi = at(coef, 1), at(powers, 1)
    else:
        value = mass = err = 0.0
        coef = 1.0
        # with a count of each element: the counts at which elements stop,
        # and the coefficient and power at each element's stop
        stops = set(np.unique(count).tolist()) if np.ndim(count) else set()
        stop_coef, stop_pow = np.zeros(lo.shape), np.zeros(lo.shape)
        for k in range(terms):
            s = p + k + 1.0
            if (s > 0.0) if isinstance(s, float) else np.all(s > 0.0):
                term = coef * pow_hi * (-np.expm1(-s * span) / s)
                magnify = magnify_hi
            else:
                term = np.where(s > 0.0, coef * pow_hi * (-np.expm1(-s * span) / s),
                                np.where(s < 0.0, coef * pow_lo * (-np.expm1(s * span) / -s),
                                         coef * span * pow_lo))
                magnify = np.where(s > 0.0, magnify_hi, magnify_lo)
            if stops and k >= min(stops):
                term = np.where(k < count, term, 0.0)
            size = np.abs(term)
            value = value + term
            mass = mass + size
            err = err + size * (4.0 * k + 10.0 + abs(s) * magnify)
            pow_lo, pow_hi = pow_lo * lo, pow_hi * hi
            coef *= (k - q) / (k + 1.0)
            if k + 1 in stops:
                stop = k + 1 == count
                stop_coef = np.where(stop, coef, stop_coef)
                stop_pow = np.where(stop, pow_hi, stop_pow)
        if stops:
            coef, pow_hi = stop_coef, stop_pow
    # the terms left out, from the first one on, shrink geometrically by at
    # most rho (count >= q, and s > 0 from count >= -p - 1 on)
    rho = hi * np.maximum(1.0, (count - q) / (count + 1.0))
    s = p + count + 1.0
    rest = np.abs(coef) * pow_hi * (-np.expm1(-s * span) / s) / (1.0 - rho)
    return value, _EPS * (err + count * mass) + rest


def _unwrap(x):
    return float(x) if np.ndim(x) == 0 else x


def tail_power_beta(a: float, e: float, t0, scaled: bool = False) -> IntegralResult:
    """int_{t0}^{1} t**a (1-t)**e dt for t0 in [0, 1].

    ``t0`` may be an array; value and abs_error then are arrays of its
    shape, and each element equals the scalar call on it bit for bit.

    - t0 = 0 is the complete Beta function; t0 > 0 with a > -1 uses the
      regularized incomplete Beta, from the t = 1 side (in 1 - t0) above
      t0 = 1/2.
    - a <= -1 with 0 < t0 < 1 is the piece [ln t0, 0] of ``beta_pieces``:
      the lift by parts at level 0, or the series relative to t0**(a+1),
      which is multiplied by that power.  With ``scaled``, value and
      abs_error are multiplied by t0**-(a+1): the series are taken as they
      come and the lift is multiplied by that power, so the value stays
      finite where t0**(a+1) overflows.  Where the unscaled value
      overflows, the element is inf with an infinite abs_error, and the
      result is inconclusive.
    - Where the piece's bound exceeds _SERIES_RTOL of a finite value (the
      series would need more than _MAX_TERMS terms: e above about 150, a
      below about -560), that element is integrated numerically instead,
      on the finite line int_{ln t0}^0 e^{(a+1) v} (-expm1 v)**e dv
      (``_finite_line``), and the result is inconclusive if one of those
      elements is.
    - Divergent when e <= -1, or a <= -1 and t0 = 0.
    """
    t = np.clip(np.asarray(t0, dtype=float), 0.0, 1.0)
    inside = t < 1.0
    diverges = inside & ((e <= -1.0) | ((a <= -1.0) & (t == 0.0)))
    if np.any(diverges):
        return IntegralResult(_unwrap(np.where(diverges, math.inf, 0.0)), math.inf,
                              IntegralStatus.DIVERGENT, 0)
    if not np.any(inside):
        return IntegralResult(_unwrap(np.zeros(t.shape)), 0.0, IntegralStatus.CONVERGED, 0)
    if a > -1.0:
        # above t0 = 1/2 the regularized tail is taken from the t = 1 side,
        # where 1 - t0 is exact, instead of as a difference that cancels
        value = beta_tail(a, e, t, 1.0 - t)
        return IntegralResult(_unwrap(value), 16.0 * _EPS * beta_closed_form(a, e).value,
                              IntegralStatus.CONVERGED, 0)

    value, err = np.zeros(t.shape), np.zeros(t.shape)
    live = np.flatnonzero(inside)
    x = t.flat[live]
    with np.errstate(all="ignore"):
        piece, bound, level = beta_pieces(a, e, np.log(x), 0.0)
        settled = np.isfinite(piece) & (bound <= _SERIES_RTOL * np.abs(piece))
        # t0**(a+1) for an unscaled series, t0**-(a+1) for a scaled lift;
        # each of pow and the product rounds by at most an ulp
        power = x ** ((a + 1.0) * ((level != 0.0) - float(scaled)))
        value.flat[live] = piece * power
        err.flat[live] = bound * power + 2.0 * _EPS * value.flat[live]
    status, evaluations = IntegralStatus.CONVERGED, 0
    overflows = live[settled & ~np.isfinite(value.flat[live])]
    if overflows.size:
        value.flat[overflows], err.flat[overflows] = math.inf, math.inf
        status = IntegralStatus.INCONCLUSIVE
    numeric = live[~settled]
    if numeric.size:
        value.flat[numeric], err.flat[numeric], converged, evaluations = _finite_line(
            a, e, t.flat[numeric], scaled)
        if not np.all(converged):
            status = IntegralStatus.INCONCLUSIVE
    return IntegralResult(_unwrap(value), _unwrap(err), status, evaluations)


def _by_parts(a, e: float, t, u, y, w):
    """int_t^y x**a (1-x)**e dx for -2 < a < -1, e > -1 and 0 < t <= y <= 1,
    elementwise, given arrays a, t and u = 1 - t, and y and w = 1 - y (a
    tail is the piece y = 1), with an error bound, by one integration by
    parts (DLMF 8.17(iv)): with d = -(a+1) and
    F(x) = x**(a+1) (1-x)**(e+1) / d,

        J(a) = F(t) - F(y) - (a+e+2) / d * J(a+1),

    and J(a+1) = B(a+2, e+1) (C_t - C_y), C_x = 1 - I_x(a+2, e+1) taken
    from the side where x is exact: I_{1-x}(e+1, a+2) above x = 1/2, and
    below it 1 - I_x, which loses the digits of I_x as I_x nears 1 (the
    subtraction magnifies that), so from I_x = 1/8 on the complement
    betaincc (about 7 times slower) keeps them.  The bound counts, in eps
    of the magnitude each multiplies: 2 + d |ln t| for the power of t (its
    pow, and an ulp of its exponent magnified by the logarithm, as the
    series count it); e + 5 for (1-t)**(e+1), where 1 - t rounds, the
    division by d and the subtraction; e + 9 + d (|ln y| + |ln t|) for
    F(y) likewise; 2 for the product with the coefficient and the
    subtraction; (|a| + |e| + 2) / d of J(a+1) for the rounding of the
    coefficient; and the coefficient times 16 eps B(a+2, e+1), the
    allowance of ``beta_tail``, of 1 for each end up to 1/2 and of C_x for
    each end above.  All in magnitudes: a + e + 2 may have either sign.
    """
    d = -(a + 1.0)      # exact for -2 < a < -1
    coef = (a + e + 2.0) / d
    beta = np.exp(betaln(a + 2.0, e + 1.0))

    def complement(x, ux):
        """C_x, the mass its bound counts, and I_x up to x = 1/2 (else 0)."""
        upper = x > 0.5
        lower = ~upper
        below = np.zeros(x.shape)
        below[lower] = betainc(a[lower] + 2.0, e + 1.0, x[lower])
        rest = 1.0 - below
        near = lower & (below > 0.125)
        rest[near] = betaincc(a[near] + 2.0, e + 1.0, x[near])
        rest[upper] = betainc(e + 1.0, a[upper] + 2.0, ux[upper])
        return rest, np.where(upper, rest, 1.0), below

    rest, mass, below = complement(t, u)
    bottom = bottom_err = 0.0       # F(y) and its rounding: none for a tail
    if np.any(w > 0.0):
        rest_y, mass_y, below_y = complement(y, w)
        # up to 1/2, I_y - I_t keeps the digits that 1 - I loses
        inside = y <= 0.5
        rest = np.where(inside, below_y - below, rest - rest_y)
        mass = np.where(inside, below + below_y, mass + mass_y)
        bottom = w ** (e + 1.0) / d * y ** (a + 1.0)
        bottom_err = e + 9.0 + d * (np.abs(np.log(y)) + np.abs(np.log(t)))
    tail = beta * rest
    tail_err = 16.0 * _EPS * beta * mass
    top = u ** (e + 1.0) / d * t ** (a + 1.0)
    second = coef * tail
    value = top - bottom - second
    err = abs(coef) * tail_err + _EPS * (
        (e + 5.0) * np.abs(top) + 2.0 * np.abs(second) + (abs(a) + abs(e) + 2.0) / d * np.abs(tail)
        + (2.0 + d * np.abs(np.log(t))) * np.abs(top))
    return value, err + _EPS * bottom_err * np.abs(bottom)


def beta_pieces(a, e: float, lo, hi):
    """int t**a (1-t)**e dt over t = exp(v), v from lo to hi, elementwise,
    as value * 2**level with an error bound on value: arrays a and
    -inf <= lo <= hi <= 0 in v = ln t, so that pieces where t is below the
    float range keep their place; lo > -inf where a <= -1, and hi < 0
    where e <= -1.

    - a > -1 and e > -1, where exp(lo) (unless lo = -inf) and exp(hi) are
      normal floats and exp(hi)**(a+1) is at least 2**-_FAR: level 0, and
      B(a+1, e+1) times a difference of regularized incomplete Beta
      functions, each end taken from the side where its argument is exact,
      as in ``beta_tail``: I_t(a+1, e+1) up to t = 1/2, and
      1 - I_{1-t}(e+1, a+1) above.  The bound is 16 eps of every value the
      difference takes, so a difference that cancels shows in it.
    - -2 < a < -1 and e > -1, where exp(lo) and exp(hi) are normal floats
      and exp(lo)**(a+1) is at most 2**_FAR: level 0, one integration by
      parts onto the incomplete Beta of a + 1 (``_by_parts``).
    - otherwise the binomial series of ``_binomial_series``, in t up to
      h = ``_split(e)`` and in 1 - t above (``_series_pieces``; the a <= -1
      tails of ``tail_power_beta`` are the pieces [ln t0, 0]),
      every element with the terms ``_term_count`` asks for at -ceil(-a),
      so that its value does not depend on the array it arrives in.  It is
      taken relative to ref**(a+1), ref = exp(lo) for a < -1 and exp(hi)
      otherwise, the end where the integrand is largest, so level =
      (a+1) lo / ln 2 or (a+1) hi / ln 2 (rounded; the bound does not
      count that rounding) and the value stays near 1 where the integral
      itself leaves the float range.  NaN, with an infinite bound, where
      that is more than _MAX_TERMS terms.  The series also takes the
      elements with lo > -inf whose incomplete Beta difference or lift
      cancels beyond _CANCELLATION of its value (a near -1 or -2, or a
      narrow piece), where its own bound is the smaller one.
    """
    a, lo, hi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, lo, hi)))
    value, err = np.full(a.shape, math.nan), np.full(a.shape, math.inf)
    level = np.zeros(a.shape)
    with np.errstate(all="ignore"):
        closed = (hi >= _LOG_TINY) & (e > -1.0)
        incomplete = closed & (a > -1.0) & ((lo == -np.inf) | (lo >= _LOG_TINY)) & (
            (a + 1.0) * hi >= -_FAR * LN2)
        lift = closed & (-2.0 < a) & (a < -1.0) & (lo >= _LOG_TINY) & (
            (a + 1.0) * lo <= _FAR * LN2)
        for done, method in ((incomplete, _incomplete_pieces), (lift, _by_parts)):
            if np.any(done):
                # -expm1(0) is -0.0
                ends = [f(x[done]) for x in (lo, hi)
                        for f in (np.exp, lambda v: np.abs(np.expm1(v)))]
                value[done], err[done] = method(a[done], e, *ends)
        done = incomplete | lift
        part = ~done | ((lo > -np.inf) & ~(err <= _CANCELLATION * np.abs(value)))
        if np.any(part):
            series, bound, scale = _series_pieces(a[part], e, lo[part], hi[part])
            better = ~done[part] | ~(err[part] <= bound * np.exp2(scale))
            value[part] = np.where(better, series, value[part])
            err[part] = np.where(better, bound, err[part])
            level[part] = np.where(better, scale, 0.0)
    return value, err, level


# Pieces where t**(a+1) may fall below 2**-_FAR go to the series of
# beta_pieces, which takes that power out.
_FAR = 512.0
_LOG_TINY = math.log(_TINY)


def _incomplete_pieces(a, e, lo, lo_c, hi, hi_c):
    """The a > -1 elements of ``beta_pieces``."""
    x, y = a + 1.0, e + 1.0
    log_beta = betaln(x, y)
    below = np.zeros((4,) + a.shape)     # I_lo, I'_lo, I_hi, I'_hi, I' = I_{1-t}(y, x)
    for row, ends, t, side in ((0, lo <= 0.5, lo, False), (1, lo > 0.5, lo_c, True),
                               (2, hi <= 0.5, hi, False), (3, hi > 0.5, hi_c, True)):
        take = ends & (t > 0.0)
        below[row, take] = betainc(y, x[take], t[take]) if side else betainc(x[take], y, t[take])
    left, right = lo <= 0.5, hi <= 0.5
    diff = np.where(right, below[2] - below[0],
                    np.where(left, (1.0 - below[3]) - below[0], below[1] - below[3]))
    mass = below.sum(axis=0) + (left & ~right)
    beta = np.exp(log_beta)
    return beta * diff, beta * _EPS * (16.0 * mass + 4.0 * (1.0 + np.abs(log_beta)) * np.abs(diff))


def _series_pieces(a, e, lo, hi):
    """The series elements of ``beta_pieces``, as (value, bound, level):
    the part below h in t, relative to ref**(a+1), and the part above h in
    y = 1 - t, in one ``_binomial_series`` call for the parts that are not
    empty (a part outside the piece is 0).  The parts meet at one point:
    the part in t ends at exp(ln h) and the part in y starts at
    -expm1(ln h), ln h as it rounds.  The ends of the part in y are
    |expm1 v| and their logarithms, each rounded by an ulp, so the bound
    adds eps (1 + |ln y|) times the integrand in ln y at each end (on a
    narrow piece, 1/span of its value)."""
    h = _split(e)
    cut = math.log(h)
    key = np.ceil(-a)
    count = np.zeros(a.shape, dtype=int)
    for j in np.unique(key).tolist():
        terms = _term_count(-j, e, h), _term_count(e, -j, 1.0 - h)
        count[key == j] = -1 if None in terms else max(terms)
    ok = count > 0
    a, lo, hi, count = (x[ok] for x in (a, lo, hi, count))
    ref = np.where(a < -1.0, lo, hi)
    # the lower part in ln t, the upper in y = 1 - t
    below_lo, below_hi = np.minimum(lo, cut), np.minimum(hi, cut)
    top = np.minimum(np.abs(np.expm1(lo)), -math.expm1(cut))
    bottom = np.minimum(np.abs(np.expm1(hi)), top)
    lows = np.concatenate([below_lo, np.log(bottom)])
    highs = np.concatenate([below_hi, np.log(top)])
    live = highs > lows
    sums, bounds = np.zeros(lows.size), np.zeros(lows.size)
    if np.any(live):
        sums[live], bounds[live] = _binomial_series(
            *(x[live] for x in (np.concatenate([a, np.full(a.size, e)]),
                                np.concatenate([np.full(a.size, e), a]),
                                np.concatenate([np.exp(below_lo), bottom]),
                                np.concatenate([np.exp(below_hi), top]),
                                np.concatenate([count, count]))),
            logs=(lows[live], highs[live], np.concatenate([ref, np.zeros(a.size)])[live]))
    # the upper part is empty unless hi > ln h, where ref**-(a+1) is finite
    upper = hi > cut
    up = np.where(upper, np.exp(-(a + 1.0) * ref), 0.0)
    # the integrand in ln y over ref**(a+1), y**(e+1) t**a / ref**(a+1), at
    # each end of the upper part
    ends = sum(np.where(upper & (y > 0.0), _EPS * (1.0 + np.abs(w)) * np.exp(
        (e + 1.0) * w + a * v - (a + 1.0) * ref), 0.0)
               for v, y, w in ((np.maximum(lo, cut), top, highs[a.size:]),
                               (np.maximum(hi, cut), bottom, lows[a.size:])))
    value, err = np.full(ok.shape, math.nan), np.full(ok.shape, math.inf)
    level = np.zeros(ok.shape)
    value[ok] = sums[:a.size] + up * sums[a.size:]
    err[ok] = bounds[:a.size] + up * bounds[a.size:] + ends + _EPS * np.abs(value[ok])
    level[ok] = (a + 1.0) * ref / LN2
    return value, err, level


_MAX_PIECES = 2 ** 12    # most Gauss pieces of one integral


def _finite_line(a: float, e: float, t0: np.ndarray, scaled: bool):
    """int_{t0}^1 t**a (1-t)**e dt for a <= -1, e > -1 and each t0 in
    (0, 1) (with ``scaled``, times t0**-(a+1)), as the finite line
    int_{ln t0}^0 e^{(a+1) v} (-expm1 v)**e dv in one ``piece_sums`` call:
    the arrays (value, abs_error, converged) of ``_line_verdicts`` and the
    number of evaluations.

    Equal pieces no wider than 1 or than 20 / max(|a+1|, e t0 / (1 - t0)),
    the fastest fall of the integrand away from ln t0; an element that
    needs more than _MAX_PIECES is inconclusive.  The piece at 0 takes the
    Gauss-Jacobi weight (-v)**e where e < 1 (its mass 2**(e+1)/(e+1)
    overflows from e of about 1023 on), else cuts at 2**-j of its width up
    to j = 52/(e+1).  A piece's bound adds 2 eps (|a+1| |ln t0| + |e|) of
    its value, for the rounding of a node and of the exponents, and
    ``_line_verdicts`` gives each element's result at tol 1e-10.
    """
    rows = []
    for x in t0.tolist():
        start = math.log(x)
        count = math.ceil(-start * max(20.0, -(a + 1.0), e * x / (1.0 - x)) / 20.0)
        if count > _MAX_PIECES:     # one NaN piece, which makes the element inconclusive
            start, count = math.nan, 1
        edges = start * (1.0 - np.arange(count + 1.0) / count)
        if e >= 1.0:
            cuts = edges[-2] * np.exp2(-np.arange(1.0, math.ceil(-_LOG2_EPS / (e + 1.0)) + 1.0))
            edges = np.concatenate([edges[:-1], cuts, [0.0]])
        rows.append(edges)
    sizes = [r.size - 1 for r in rows]
    lo, hi = np.concatenate([r[:-1] for r in rows]), np.concatenate([r[1:] for r in rows])
    start = np.repeat([r[0] for r in rows], sizes)
    ref = start if scaled else 0.0

    def values(v):
        return np.exp((a + 1.0) * (v - ref)) * (-np.expm1(v)) ** e

    coarse, fine = piece_sums(values, lo, hi, (hi == 0.0) & (e < 1.0), e)
    with np.errstate(invalid="ignore"):
        bound = np.abs(fine - coarse) + 2.0 * _EPS * ((a + 1.0) * start + abs(e)) * np.abs(fine)
    return (*_line_verdicts(fine, bound, sizes, 1e-10), 3 * PIECE_RULE * lo.size)


# --------------------------------------------------------------------------
# kernel descriptors


@dataclass(frozen=True)
class PowerBeta:
    """psi(t) = scale * t**c * (1-t)**e on [0,1] (n = 1)."""

    c: float
    e: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be nonnegative, got {self.scale}")

    def values(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """psi at t, given t and u = 1 - t."""
        return self.scale * t ** self.c * u ** self.e

    def line_values(self, v: np.ndarray) -> np.ndarray:
        """psi(t) / t**c at t = exp(v), with 1 - t = -expm1(v)."""
        return self.scale * (-np.expm1(v)) ** self.e

    def line_rates(self) -> Tuple[float, float]:
        """(decay, steepness): the rate at which ``line_values`` tends to
        its limit as v -> -inf, and at which it varies near v = 0 beyond
        the factor (-v)**e that the line's Jacobi weight takes (none)."""
        return (1.0 if self.e != 0.0 else math.inf), 0.0


@dataclass(frozen=True)
class ProductPowerBeta:
    """Coordinatewise product of t_j**c_j * (1-t_j)**e_j factors, one per
    coordinate (with MinPower curves; ``min_reduction`` reduces it)."""

    factors: Tuple[Tuple[float, float], ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((float(c), float(e)) for c, e in self.factors))
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be nonnegative, got {self.scale}")


@dataclass(frozen=True)
class MinDensity:
    """Density of m = min(t_1, ..., t_n) under a ProductPowerBeta psi (n = 1).

    g(m) = scale * sum_j phi_j(m) prod_{i != j} Phi_i(m), with
    phi_j(t) = t**c_j (1-t)**e_j and Phi_i(m) = int_m^1 phi_i, so that
    int_{[0,1]^n} F(min(t)) psi(t) dt = int_0^1 F(m) g(m) dm.  A tail with
    c_i <= -1 grows like m**(c_i + 1) toward m = 0; it is taken from
    ``tail_power_beta`` divided by that power, which goes into the orders
    of the other terms (no power of m overflows): the term j has order
    o_j = c_j + sum_{i != j} min(c_i + 1, 0) at m = 0.  Some e_j <= -1
    makes the density infinite: its order at m = 1 is then -inf, which
    every integrator takes as divergent before evaluating anything.

    With ``power`` P != 1 the variable is v = m**P instead: the density is
    g(m) dm/dv at m = v**(1/P).
    """

    factors: Tuple[Tuple[float, float], ...]
    scale: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((float(c), float(e)) for c, e in self.factors))
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"power must be positive, got {self.power}")

    def _orders(self) -> list:
        """The order o_j at m = 0 of each term phi_j prod_{i != j} Phi_i."""
        grown = [min(c + 1.0, 0.0) for c, _ in self.factors]
        return [c + fsum(g for i, g in enumerate(grown) if i != j)
                for j, (c, _) in enumerate(self.factors)]

    def _parts(self, log_m: np.ndarray, m: np.ndarray, u: np.ndarray, low: float):
        """The terms phi_j(m) / m**(low + the grown tails' orders) and the
        tails Phi_i(m) / m**min(c_i + 1, 0), given log m, m and u = 1 - m."""
        phis = [np.exp((order - low) * log_m) * u ** e
                for order, (_, e) in zip(self._orders(), self.factors)]
        return phis, [self._tail(i, m, u) for i in range(len(self.factors))]

    def _tail(self, i: int, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        c, e = self.factors[i]
        if c > -1.0:
            return beta_tail(c, e, m, u)
        return tail_power_beta(c, e, np.maximum(m, _TINY), scaled=True).value

    def _density(self, log_m: np.ndarray, m: np.ndarray, u: np.ndarray,
                 low: float) -> np.ndarray:
        """g(m) / (scale * m**low), given log m, m and u = 1 - m."""
        phis, tails = self._parts(log_m, m, u, low)
        out = np.zeros(m.shape)
        for j, phi in enumerate(phis):
            for i, tail in enumerate(tails):
                if i != j:
                    phi = phi * tail
            out = out + phi
        return out

    def values(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The density at v, given v and w = 1 - v (see ``beta_tail``)."""
        m, u, jacobian = v, w, 1.0
        if self.power != 1.0:
            m = v ** (1.0 / self.power)
            u = 1.0 - m
            # 1 - m from w where w is the exact one
            near = v > 0.5
            u[near] = -np.expm1(np.log1p(-w[near]) / self.power)
            jacobian = m / (self.power * v)
        return self.scale * jacobian * self._density(np.log(m), m, u, 0.0)

    def line_values(self, v: np.ndarray) -> np.ndarray:
        """The density over x**a0 at x = exp(v), a0 its order at 0 (see
        ``endpoint_exponents``): scale / power * sum_j m**(o_j - o_min)
        (1-m)**e_j prod_{i != j} Phi_i(m) (each tail over its grown power),
        at m = exp(v / power), with 1 - m = -expm1(v / power)."""
        log_m = v / self.power
        m, u = np.exp(log_m), -np.expm1(log_m)
        return self.scale / self.power * self._density(log_m, m, u, min(self._orders()))

    def line_rates(self) -> Tuple[float, float]:
        """(decay, steepness) of ``line_values``: a rate at which it tends
        to its limit as v -> -inf, at most the slowest one (the tails
        approach theirs like m**|c_i + 1|, the other terms vanish like
        m**(o_j - o_min), and (1-m)**e_j tends to 1 like m), and the rate
        at which it varies near v = 0 (like m**c_i and m**(o_j - o_min))."""
        orders = self._orders()
        low = min(orders)
        rates = [abs(c + 1.0) for c, _ in self.factors] + [o - low for o in orders if o > low]
        steep = [c for c, _ in self.factors] + [o - low for o in orders]
        return min(rates + [1.0]) / self.power, max(steep) / self.power

    def endpoint_exponents(self) -> Tuple[float, float]:
        """Orders of the density at v = 0 and at v = 1 (-inf where it is
        infinite)."""
        at1 = fsum(e + 1.0 for _, e in self.factors) - 1.0
        if any(e <= -1.0 for _, e in self.factors):
            at1 = -math.inf
        return (min(self._orders()) + 1.0) / self.power - 1.0, at1


@dataclass(frozen=True)
class LogMinDensity(MinDensity):
    """The MinDensity of psi(t) log(2/t_1), the XiaoLog integrand (n = 1):
    phi_1(m) carries log(2/m) and Phi_1 is Psi_1(m) = int_m^1 log(2/t)
    phi_1(t) dt (``log_beta_tail``).  The log leaves the orders as they
    are.  Psi_1 needs c_1 > -1; otherwise the order at m = 0 is at most
    c_1 <= -1, and against XiaoLog's decreasing curve power the integral
    is divergent before any evaluation.
    """

    def _parts(self, log_m: np.ndarray, m: np.ndarray, u: np.ndarray, low: float):
        phis, tails = super()._parts(log_m, m, u, low)
        phis[0] = phis[0] * (LN2 - log_m)
        return phis, tails

    def _tail(self, i: int, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        return log_beta_tail(*self.factors[0], m, u) if i == 0 else super()._tail(i, m, u)


@dataclass(frozen=True, eq=False)
class PsiCallback:
    """Opaque psi evaluator on [0, 1] (n = 1) with user-declared endpoint
    exponents.

    ``endpoint_exponents`` is the (at0, at1) pair of its orders at t = 0
    and t = 1 (or a sequence holding that pair); the declared orders are
    probed against the evaluator when the owning :class:`KernelSpec` is
    constructed.
    """

    evaluate: Callable
    endpoint_exponents: Tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "endpoint_exponents", _endpoint_pair(self.endpoint_exponents))


@dataclass(frozen=True)
class PowerCurve:
    """s(t) = t**b (n = 1)."""

    b: float


@dataclass(frozen=True)
class MinPower:
    """s(t) = min(t_1, ..., t_n)**beta (``min_reduction`` makes it a power
    curve)."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"MinPower beta must be positive, got {self.beta}")


@dataclass(frozen=True, eq=False)
class CurveCallback:
    """Opaque curve on [0, 1] (n = 1) with a declared lower growth exponent
    near the origin."""

    evaluate: Callable
    growth_exponent: float


def _exponents_agree(measured: float, declared: float) -> bool:
    if abs(measured) <= 0.25 and abs(declared) <= 0.25:
        return True
    if measured * declared <= 0:
        return False
    ratio = measured / declared
    return 0.5 <= ratio <= 2.0


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """The kernel data (psi, s_1..s_m) of one operator instance.

    Kernels with n = 2 or 3 have a ProductPowerBeta psi and MinPower
    curves, which ``min_reduction`` turns into n = 1 kernels; every other
    descriptor is n = 1, and the evaluation methods below take n = 1
    kernels as ``min_reduction`` leaves them.  Construction self-tests
    callback descriptors: declared endpoint exponents must match probed
    local behavior within a factor of two, and curves must be nonzero at
    sampled interior points.
    """

    # annotations only: a module-level typing.Union of these classes would
    # sit in typing's cache and keep every imported copy of this module alive
    n: int
    psi: PowerBeta | ProductPowerBeta | MinDensity | PsiCallback
    curves: Tuple[PowerCurve | MinPower | CurveCallback, ...]

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2, or 3, got {self.n}")
        object.__setattr__(self, "curves", tuple(self.curves))
        if not self.curves:
            raise ValueError("kernel needs at least one curve")
        if self.n != 1 and not (isinstance(self.psi, ProductPowerBeta)
                                and all(isinstance(s, MinPower) for s in self.curves)):
            raise ValueError(f"n = {self.n} needs a ProductPowerBeta psi and MinPower curves")
        if isinstance(self.psi, ProductPowerBeta) and len(self.psi.factors) != self.n:
            raise ValueError(f"ProductPowerBeta needs {self.n} factors")
        self._self_test()

    @property
    def m(self) -> int:
        return len(self.curves)

    def has_callback(self) -> bool:
        return isinstance(self.psi, PsiCallback) or any(
            isinstance(s, CurveCallback) for s in self.curves)

    def is_power_closed(self) -> bool:
        """True when the kernel admits the closed Beta-function path."""
        return (isinstance(self.psi, PowerBeta)
                and all(isinstance(s, PowerCurve) for s in self.curves))

    def supports_reflection(self) -> bool:
        """psi can be evaluated stably in u = 1 - t coordinates."""
        return isinstance(self.psi, (PowerBeta, MinDensity))

    # -- evaluation ---------------------------------------------------------

    def psi_values(self, t: np.ndarray) -> np.ndarray:
        if self.supports_reflection():
            return self.psi.values(t, 1.0 - t)
        return np.asarray(self.psi.evaluate(t), dtype=float)

    def psi_values_reflected(self, u: np.ndarray) -> np.ndarray:
        """psi(1-u) with the near-1 factor computed from u exactly."""
        if not self.supports_reflection():
            raise ValueError("reflected psi evaluation needs a PowerBeta or MinDensity descriptor")
        return self.psi.values(1.0 - u, u)

    def curve_values(self, i: int, t: np.ndarray) -> np.ndarray:
        s = self.curves[i]
        if isinstance(s, PowerCurve):
            return t ** s.b
        return np.asarray(s.evaluate(t), dtype=float)

    # -- declared endpoint behavior ----------------------------------------

    def psi_endpoint_exponents(self) -> Tuple[float, float]:
        if isinstance(self.psi, PowerBeta):
            return self.psi.c, self.psi.e
        if isinstance(self.psi, MinDensity):
            return self.psi.endpoint_exponents()
        return self.psi.endpoint_exponents

    def curve_zero_exponent(self, i: int) -> float:
        """Growth order of |s_i(t)| as t -> 0."""
        s = self.curves[i]
        return s.b if isinstance(s, PowerCurve) else s.growth_exponent

    def curve_tends_to_one(self, i: int) -> bool:
        """Whether |s_i(t)| -> 1 as t -> 1 (provably, from the descriptor)."""
        return isinstance(self.curves[i], PowerCurve)

    # -- construction self-tests --------------------------------------------

    def _self_test(self):
        if isinstance(self.psi, PsiCallback):
            at0, at1 = self.psi.endpoint_exponents
            _probe_order(self.psi.evaluate, at0, lambda d: d, "psi: endpoint exponent at t=0")
            _probe_order(self.psi.evaluate, at1, lambda d: 1.0 - d,
                         "psi: endpoint exponent at t=1")
        for i, s in enumerate(self.curves):
            if isinstance(s, CurveCallback):
                t = np.random.default_rng(0).uniform(1e-6, 1.0, size=64)
                if np.any(np.asarray(s.evaluate(t), dtype=float) == 0.0):
                    raise ValueError(f"curve {i} vanished at a sampled interior point")
                if s.growth_exponent != 0:
                    _probe_order(s.evaluate, s.growth_exponent, lambda d: d,
                                 f"curve {i}: growth exponent")


def _probe_order(evaluate: Callable, declared: float, at: Callable, what: str) -> None:
    """Raise ValueError unless |evaluate| scales like d**declared between
    the points at(1e-3) and at(1e-6), within a factor of two; an infinite
    order or a vanishing probe carries no slope information."""
    if not math.isfinite(declared):
        return
    d1, d2 = 1e-3, 1e-6
    f1, f2 = (abs(float(np.asarray(evaluate(np.array([at(d)])), dtype=float).ravel()[0]))
              for d in (d1, d2))
    if f1 > 0 and f2 > 0:
        measured = math.log(f2 / f1) / math.log(d2 / d1)
        if not _exponents_agree(measured, declared):
            raise ValueError(f"{what}: declared {declared} does not match probed behavior "
                             f"{measured:.3g}")


def min_reduction(kernel: KernelSpec) -> KernelSpec:
    """The n = 1 kernel, with a PowerBeta, MinDensity or callback psi and
    power or callback curves, that has the same power integrals as
    ``kernel``; ``kernel`` itself where it is one already.

    With n >= 2, psi = prod_j phi_j(t_j) (ProductPowerBeta) and only
    MinPower curves, every curve, and so every integrand built from the
    curves, depends on t through m = min(t) alone; then the cube integral
    of F(m) psi is int_0^1 F(m) g(m) dm with g the MinDensity of psi, and
    each curve min(t)**beta becomes the power curve m**beta.  Where some
    beta exceeds 1 the variable is v = m**P with P the largest beta, so
    that no curve v**(beta/P) falls below the smallest graded node (m**beta
    would underflow there).  At n = 1, min(t)**beta is t**beta and a
    one-factor ProductPowerBeta is the PowerBeta of its factor.
    """
    psi, curves = kernel.psi, kernel.curves
    if kernel.n != 1:
        power = max(1.0, max(s.beta for s in curves))
        return KernelSpec(1, MinDensity(psi.factors, psi.scale, power),
                          tuple(PowerCurve(s.beta / power) for s in curves))
    if not (isinstance(psi, ProductPowerBeta) or any(isinstance(s, MinPower) for s in curves)):
        return kernel
    if isinstance(psi, ProductPowerBeta):
        (c, e), = psi.factors
        psi = PowerBeta(c, e, psi.scale)
    return KernelSpec(1, psi, tuple(PowerCurve(s.beta) if isinstance(s, MinPower) else s
                                    for s in curves))


def power_law_integrand(kernel: KernelSpec, exponents: Sequence[float],
                        factor: Optional[KernelFactor] = None):
    """Evaluators and declared endpoint orders for prod |s_i|**e_i * psi,
    times ``factor`` when one is given, for an n = 1 kernel as
    ``min_reduction`` leaves it.

    Returns ``(integrand, reflected, (at0, at1))`` ready for
    :func:`integrate_unit_cube`; ``reflected`` is None when the kernel
    cannot be evaluated stably in reflected coordinates.
    """
    e = [float(x) for x in exponents]
    if len(e) != kernel.m:
        raise ValueError(f"expected {kernel.m} exponents, got {len(e)}")

    def curve_factor(t):
        out = None
        for i, ei in enumerate(e):
            if ei != 0.0:
                s = np.abs(kernel.curve_values(i, t))
                smallest = s.min()
                if smallest < _TINY and isinstance(kernel.curves[i], PowerCurve):
                    # t**b leaves the normal floats at deep graded nodes
                    # (b > 1); there t**(b e) is still representable
                    with np.errstate(divide="ignore", over="ignore"):
                        factor = np.where(s < _TINY, t ** (kernel.curves[i].b * ei), s ** ei)
                elif smallest == 0.0:
                    raise ValueError("curve vanished at a quadrature node")
                else:
                    factor = s ** ei
                out = factor if out is None else out * factor
        return out

    def integrand(t):
        out = kernel.psi_values(t)
        cf = curve_factor(t)
        out = out if cf is None else out * cf
        return out if factor is None else out * factor.at_t(t)

    reflected = None
    if kernel.supports_reflection():
        def reflected(u):
            out = kernel.psi_values_reflected(u)
            cf = curve_factor(1.0 - u)
            out = out if cf is None else out * cf
            return out if factor is None else out * factor.at_u(u)

    at0, at1 = kernel.psi_endpoint_exponents()
    at0 += fsum(e[i] * kernel.curve_zero_exponent(i) for i in range(kernel.m))
    if factor is not None:
        at0, at1 = at0 + factor.shift[0], at1 + factor.shift[1]
    return integrand, reflected, (at0, at1)


class KernelFactor(NamedTuple):
    """An extra factor of a kernel power integral of an n = 1 kernel, at
    the points of each integrator: ``at_t(t)`` at t, ``at_u(u)`` at
    t = 1 - u (the reflected evaluation), and ``at_v(v)`` at t = exp(v) on
    the line of ``integrate_log_line``.  ``shift`` is the (at0, at1) pair
    that the factor adds to the endpoint orders.  On the line the factor
    must tend to a limit, or grow like a polynomial in v, as v -> -inf, so
    that it adds nothing at t = 0.
    """

    at_t: Callable
    at_u: Callable
    at_v: Callable
    shift: Tuple[float, float]


def _line_integral(kernel: KernelSpec, orders: Tuple[float, float], tol: float,
                   factor: Optional[KernelFactor]) -> Optional[IntegralResult]:
    """The integral of ``kernel_power_integral`` on the piecewise line in
    v = ln t, given its endpoint orders, or None where the line does not
    apply: it needs a PowerBeta or MinDensity psi and curves t**b with
    b > 0.  Its verdict is final: the line bisects what does not settle.

    On the line the psi's ``line_values`` (times the factor) is the
    reduced integrand; the curves' powers t**(b e) are exp(b e v) and go to
    the rate.  A commutator gap 1 - t**b tends to 1 like e^{b v}, so every
    b counts as a decay rate.
    """
    psi = kernel.psi
    if not (isinstance(psi, (PowerBeta, MinDensity))
            and all(isinstance(s, PowerCurve) and s.b > 0.0 for s in kernel.curves)):
        return None
    reduced = psi.line_values
    if factor is not None:
        def reduced(v):
            return psi.line_values(v) * factor.at_v(v)

    decay, steepness = psi.line_rates()
    decay = min([decay] + [s.b for s in kernel.curves])
    return integrate_log_line(reduced, orders[0] + 1.0, orders[1], decay, tol, steepness)


def kernel_power_integral(kernel: KernelSpec, exponents: Sequence[float],
                          tol: float = 1e-10,
                          factor: Optional[KernelFactor] = None) -> IntegralResult:
    """int over [0,1]^n of prod_i |s_i(t)|**e_i * psi(t) dt, times
    ``factor`` when one is given.

    The kernel is first reduced to n = 1 (``min_reduction``); a factor is
    a function on the reduced kernel's [0, 1], so a caller with a factor
    reduces first and builds it from the reduced curves, as
    ``constants.kernel_constant`` does.  Power-shaped kernels (PowerBeta
    psi with PowerCurve curves) with no factor give the Beta function
    B(c + sum e_i b_i + 1, e + 1).  Everything else is taken on the
    piecewise line in v = ln t where it applies (``_line_integral``),
    whatever its verdict, and a kernel the line does not take goes to the
    graded numeric integrator with endpoint orders derived from the
    descriptors.
    """
    e = [float(x) for x in exponents]
    if len(e) != kernel.m:
        raise ValueError(f"expected {kernel.m} exponents, got {len(e)}")
    kernel = min_reduction(kernel)
    if factor is None and kernel.is_power_closed():
        a = kernel.psi.c + fsum(ei * s.b for ei, s in zip(e, kernel.curves))
        res = beta_closed_form(a, kernel.psi.e)
        if res.status is IntegralStatus.CONVERGED:
            res = IntegralResult(kernel.psi.scale * res.value,
                                 kernel.psi.scale * res.abs_error,
                                 res.status, res.evaluations)
        return res
    integrand, reflected, orders = power_law_integrand(kernel, e, factor)
    line = _line_integral(kernel, orders, tol, factor)
    if line is not None:
        return line
    return integrate_unit_cube(integrand, 1, tol, orders,
                               detect_growth=kernel.has_callback(), reflected=reflected)
