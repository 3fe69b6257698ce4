"""Singularity-aware quadrature on the unit cube and kernel descriptors.

Two integrators live here.  The piecewise line (``integrate_log_line``)
takes n = 1 kernel integrals with a PowerBeta or MinDensity psi and power
curves t**b, b > 0, in v = ln t: fixed Gauss-Jacobi, Gauss-Legendre and
Gauss-Laguerre pieces at two orders, one integrand evaluation per
integral.  ``kernel_power_integral`` is the one entry point for kernel
integrals: a Beta closed form where there is one, else the line, the
reduced min-power kernels included.  The line and the operators'
piecewise path sum their pieces with ``piece_sums`` and take their results
from ``_line_verdicts``; the Gauss-Jacobi and Gauss-Laguerre rules come
from their three-term recurrences (``_golub_welsch``, no eigenvectors), so
a rule of a new order costs well under a millisecond.  What the line does
not take, or does not settle, goes to the graded integrator below.

The graded integrator uses composite 12-point Gauss-Legendre rules on
meshes that are geometrically graded (ratio 1/4) toward the cube faces,
so algebraic endpoint singularities t**a with a > -1 converge
geometrically under refinement.  Refinement doubles the grading depth and also halves the
maximum interior cell width, so interior kinks of piecewise-smooth
integrands are resolved too.  The reported error adds to the refinement
differences the rule's own error on the graded cells of a singular face,
which is the same on every cell and so never shows in those differences.

Kernels with a ProductPowerBeta psi and only MinPower curves (every n >= 2
kernel the CLI builds) never reach the tensor mesh: their integrands
depend on t through m = min(t) alone, so ``min_reduction`` turns them into
n = 1 kernels whose psi is the density of m (``MinDensity``).  The tensor
mesh serves the rest of n >= 2: callback kernels, and the XiaoLog
constant, whose log(2/t_1) factor is not a function of m.

Floating point cannot place mesh points closer to t = 1 than about 1e-13,
which caps the achievable accuracy for singularities at that face.  For
n == 1 the integrator therefore accepts an optional ``reflected``
companion evaluator g(u) = f(1 - u): the right half of the axis is then
meshed in u-coordinates, where grading toward the singularity is exact.
All descriptor-built integrands in this package supply the companion; raw
callback integrands without one get an honest accuracy floor (reported as
``Inconclusive`` when the requested tolerance lies below it).

Divergence is decided structurally whenever the endpoint behavior is
known: a declared endpoint exponent <= -1 in some coordinate yields
``Divergent`` without any function evaluation.  Numeric growth detection
(refinement differences increasing monotonically over six levels) is the
fallback for opaque callback kernels.

Integrands are evaluated in vectorized form: for n == 1 they receive a
1-d ndarray of abscissas and for n > 1 an (npoints, n) array, returning
an array of matching length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc, betaln

GAUSS_POINTS_PER_CELL = 12
GRADING_RATIO = 0.25
DEFAULT_BUDGET = 2 ** 22
_GROWTH_STEPS = 6
_GROWTH_FACTOR = 1.25
_MAX_ONE_DEPTH = 21     # float resolution limit toward t = 1 and interior anchors
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)   # smallest normal float
ROUNDING = 64.0 * _EPS    # rounding allowance relative to the sum of |terms|


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
    weight (-v)**order, which its values are divided by.  ``head = (end,
    rate)`` appends the piece (-inf, end], integrated with the
    Gauss-Laguerre columns in x = rate (end - v), for values that decay
    like e^{rate v}.  ``values(v)`` gives the integrand at the nodes v, one
    column per piece and the head last.  A piece's sums add its column in
    a fixed order, whatever the other pieces.
    """
    (lx, lw), (jx, jw) = _legendre_pair(), _jacobi_pair(order)
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


_GX, _GW = gauss_legendre(GAUSS_POINTS_PER_CELL)
# smallest Gauss node and weight of a cell [0, w], in units of w
_CELL_FLOOR = min(0.5 * (1.0 + float(_GX[0])), 0.5 * float(_GW[0]))


def _zero_depth(half: float) -> int:
    """Deepest grading toward t = 0 of a panel of half-width ``half``.

    At depth d the innermost cell is half * GRADING_RATIO**d wide; beyond
    this depth its smallest node or weight falls below the smallest normal
    float, where nodes go subnormal and then to 0.0 (inf * 0 = NaN for
    integrands like t**a, a < 0).
    """
    return max(0, int(math.log2(half * _CELL_FLOOR / _TINY) / -math.log2(GRADING_RATIO)))


_MAX_ZERO_DEPTH = _zero_depth(0.25)   # the half axis [0, 1/2] of n = 1


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


def _cell_error(a: float) -> float:
    """Relative error of the cell rule on t**a over a graded cell [w/4, w].

    Every graded cell toward a face is such a cell at its own scale, so
    this relative error is the same on all of them and deepening the
    grading never removes it: 1e-12 to 5e-12 for a in (-1, -0.6], below
    2e-13 from a = -0.3 on.  Zero for a face that is not singular (a >= 0,
    where it stays below 2e-14, or a vanishing face).
    """
    if not -1.0 < a < 0.0:
        return 0.0
    x = 0.625 + 0.375 * _GX
    approx = 0.375 * fsum(_GW * x ** a)
    exact = -math.expm1(-(a + 1.0) * math.log(4.0)) / (a + 1.0)
    return abs(approx - exact) / exact


def _check_tol(tol: float) -> None:
    if not (1e-14 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-14, 1e-2], got {tol}")


def _divergent(evaluations: int = 0) -> IntegralResult:
    return IntegralResult(math.inf, math.inf, IntegralStatus.DIVERGENT, evaluations)


# --------------------------------------------------------------------------
# mesh construction


def _panel(lo: float, hi: float, depth_lo: int, depth_hi: int,
           max_width: float) -> np.ndarray:
    """Breakpoints of [lo, hi] graded toward both ends, width-capped inside."""
    h = 0.5 * (hi - lo)
    left = lo + h * GRADING_RATIO ** np.arange(depth_lo, 0, -1)
    right = hi - h * GRADING_RATIO ** np.arange(1, depth_hi + 1)
    pts = np.unique(np.concatenate([[lo], left, [lo + h], right[::-1], [hi]]))
    out = [pts[0]]
    for x in pts[1:]:
        w = x - out[-1]
        if w > max_width:
            extra = int(math.ceil(w / max_width))
            base = out[-1]
            out.extend(base + w * j / extra for j in range(1, extra))
        out.append(float(x))
    return np.asarray(out)


def _compose_axis(anchors: Sequence[float], depth: int, max_width: float,
                  lo: float, hi: float, deep_lo: bool) -> np.ndarray:
    """Panels between consecutive anchors; only the lo end may grade deeply."""
    pts = [lo] + [a for a in sorted(anchors) if lo < a < hi] + [hi]
    pieces = []
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        dlo = min(depth, _zero_depth(0.5 * (b - a))) if (deep_lo and i == 0) \
            else min(depth, _MAX_ONE_DEPTH)
        dhi = min(depth, _MAX_ONE_DEPTH)
        seg = _panel(a, b, dlo, dhi, max_width)
        pieces.append(seg if i == 0 else seg[1:])
    return np.concatenate(pieces)


def _axis_nodes(breaks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    lo, hi = breaks[:-1], breaks[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GX).ravel()
    weights = (half[:, None] * _GW).ravel()
    return nodes, weights


def _looks_divergent(values: Sequence[float]) -> bool:
    diffs = np.diff(np.asarray(values[-(_GROWTH_STEPS + 1):]))
    if diffs.size < _GROWTH_STEPS or np.any(diffs == 0.0) or np.any(~np.isfinite(diffs)):
        return False
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        return False
    mags = np.abs(diffs)
    return bool(np.all(mags[1:] >= _GROWTH_FACTOR * mags[:-1]))


def _normalize_exponents(endpoint_exponents, n: int):
    if endpoint_exponents is None:
        return [(0.0, 0.0)] * n
    pairs = list(endpoint_exponents)
    if n == 1 and len(pairs) == 2 and all(np.isscalar(p) for p in pairs):
        pairs = [tuple(pairs)]
    if len(pairs) != n:
        raise ValueError(f"expected {n} endpoint exponent pairs, got {len(pairs)}")
    return [(float(a), float(b)) for a, b in pairs]


def _unresolved_mass(width: float, exponent: float) -> float:
    """Relative mass still hidden in the innermost cell at a graded endpoint."""
    if math.isfinite(exponent) and -1.0 < exponent < 0.0 and width > 0.0:
        return width ** (exponent + 1.0)
    return 0.0


def _overflow_verdict(values, evaluations, detect_growth) -> IntegralResult:
    """Level value left the finite range: divergent if it was heading there."""
    finite = [v for v in values if math.isfinite(v)]
    diffs = np.diff(finite)
    growing = (diffs.size >= 3
               and (np.all(diffs > 0) or np.all(diffs < 0))
               and np.all(np.abs(diffs[1:]) >= np.abs(diffs[:-1])))
    if detect_growth and growing:
        return _divergent(evaluations)
    return IntegralResult(values[-1], math.inf, IntegralStatus.INCONCLUSIVE,
                          evaluations)


# --------------------------------------------------------------------------
# integration
#
# Each case supplies a per-level mesh builder, level(depth) ->
# (npts, miss, value): the level's point count (checked against the budget
# before anything is evaluated), the unresolved endpoint mass of its
# innermost cells, and a thunk that evaluates the level sum and the sum of
# its absolute terms.


def _line_mesh(integrand, reflected, exps, anchors):
    """n = 1: the halves [0, 1/2] in t and, mirrored, [0, 1/2] in u = 1 - t.

    The right half goes through ``reflected`` when given (exact grading
    toward t = 1); otherwise through ``integrand`` at 1 - u, kept below 1.
    """
    at0, at1 = exps
    left_anchors = [a for a in anchors if 0.0 < a < 0.5]
    right_anchors = [1.0 - a for a in anchors if 0.5 < a < 1.0]

    graded_right = reflected is not None
    if reflected is None:
        def reflected(u):
            return integrand(np.minimum(1.0 - u, 1.0 - 2.0 * _EPS))

    def level(depth):
        maxw = 4.0 / depth
        lb = _compose_axis(left_anchors, depth, maxw, 0.0, 0.5, deep_lo=True)
        rb = _compose_axis(right_anchors, depth, maxw, 0.0, 0.5, deep_lo=graded_right)
        xl, wl = _axis_nodes(lb)
        xu, wu = _axis_nodes(rb)
        miss = max(_unresolved_mass(float(lb[1] - lb[0]), at0),
                   _unresolved_mass(float(rb[1] - rb[0]), at1))

        def value():
            fl = np.asarray(integrand(xl), dtype=float)
            fu = np.asarray(reflected(xu), dtype=float)
            return (float(np.dot(wl, fl)) + float(np.dot(wu, fu)),
                    float(np.dot(wl, np.abs(fl))) + float(np.dot(wu, np.abs(fu))))

        return xl.size + xu.size, miss, value

    return level


def _cube_mesh(integrand, exps, brks):
    """n >= 2: tensor product of per-axis meshes graded toward t_j = 0."""
    def level(depth):
        maxw = 4.0 / depth
        breaks = [_compose_axis(b, depth, maxw, 0.0, 1.0, deep_lo=True) for b in brks]
        axes = [_axis_nodes(b) for b in breaks]
        miss = max(max(_unresolved_mass(float(b[1] - b[0]), at0),
                       _unresolved_mass(float(b[-1] - b[-2]), at1))
                   for b, (at0, at1) in zip(breaks, exps))

        def value():
            grids = np.meshgrid(*[np.minimum(x, 1.0 - 2.0 * _EPS) for x, _ in axes],
                                indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=-1)
            w = axes[0][1]
            for _, wj in axes[1:]:
                w = np.multiply.outer(w, wj)
            f = np.asarray(integrand(pts), dtype=float)
            w = w.ravel()
            return float(np.dot(w, f)), float(np.dot(w, np.abs(f)))

        return math.prod(x.size for x, _ in axes), miss, value

    return level


def _refine(level, depth, tol, detect_growth, budget, rule_error) -> IntegralResult:
    """Double the grading depth until two successive level differences and
    the unresolved endpoint mass are all within tolerance.

    ``abs_error`` is the largest of the last two level differences and the
    unresolved mass (times max(1, |value|)), plus, in proportion to the
    sum of the absolute terms, the cell rule's error on the graded cells
    (``rule_error``, which no level difference shows) and a rounding
    allowance.
    """
    values: list = []
    diffs: list = []
    evaluations = 0
    miss = math.inf
    while True:
        npts, level_miss, level_value = level(depth)
        if evaluations + npts > budget:
            break
        v, mass = level_value()
        floor = (rule_error + ROUNDING) * mass
        evaluations += npts
        values.append(v)
        if not math.isfinite(v):
            return _overflow_verdict(values, evaluations, detect_growth)
        miss = level_miss
        if len(values) >= 2:
            diffs.append(abs(values[-1] - values[-2]))
            scale = max(1.0, abs(v))
            # two consecutive small diffs guard against meshes that share
            # unresolved interior structure
            settled = len(diffs) >= 2 and diffs[-2] <= tol * scale
            if diffs[-1] <= tol * scale and settled and miss <= tol:
                return IntegralResult(v, max(*diffs[-2:], miss * scale) + floor,
                                      IntegralStatus.CONVERGED, evaluations)
            if detect_growth and len(values) >= _GROWTH_STEPS + 1 and _looks_divergent(values):
                return _divergent(evaluations)
        if depth >= 4 * _MAX_ZERO_DEPTH:
            break  # grading saturated: no further refinement can help
        depth *= 2

    if not values:
        return IntegralResult(math.nan, math.inf, IntegralStatus.INCONCLUSIVE, evaluations)
    scale = max(1.0, abs(values[-1]))
    abs_error = max(max(diffs[-2:], default=math.inf), miss * scale) + floor
    return IntegralResult(values[-1], abs_error, IntegralStatus.INCONCLUSIVE, evaluations)


def integrate_unit_cube(integrand: Callable, n: int, tol: float,
                        endpoint_exponents=None, *,
                        breakpoints=None,
                        detect_growth: bool = True,
                        reflected: Optional[Callable] = None,
                        budget: int = DEFAULT_BUDGET) -> IntegralResult:
    """Integrate ``integrand`` over [0,1]^n with endpoint grading.

    Parameters
    ----------
    integrand : callable
        Vectorized evaluator (module docstring has the array convention).
    n : int
        Cube dimension, 1 to 3.
    tol : float
        Relative tolerance in [1e-14, 1e-2]; convergence is declared when
        two successive refinement levels agree within tol * max(1, |value|).
    endpoint_exponents : sequence of (at0, at1) pairs, one per coordinate
        Declared singularity orders: the integrand behaves like t_j**at0
        near t_j = 0 and (1-t_j)**at1 near t_j = 1.  ``math.inf`` declares
        that the integrand vanishes identically near that face.  A finite
        declared exponent <= -1 returns ``Divergent`` immediately.
    breakpoints : interior anchor points (n == 1: flat sequence)
        Known kinks/jumps; they become cell boundaries.
    detect_growth : bool
        Numeric divergence fallback for callback kernels.
    reflected : callable, optional (n == 1 only)
        Companion evaluator g(u) = integrand(1 - u), enabling exact
        grading toward t = 1.
    budget : int
        Total evaluation-point budget; exceeding it yields ``Inconclusive``.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2, or 3, got {n}")
    _check_tol(tol)
    exps = _normalize_exponents(endpoint_exponents, n)
    for a0, a1 in exps:
        if (math.isfinite(a0) and a0 <= -1.0) or (math.isfinite(a1) and a1 <= -1.0):
            return _divergent()

    if breakpoints is None:
        brks = [()] * n
    elif n == 1 and breakpoints and np.isscalar(breakpoints[0]):
        brks = [tuple(breakpoints)]
    else:
        brks = [tuple(b) for b in breakpoints]
        if len(brks) != n:
            raise ValueError(f"expected {n} breakpoint sequences, got {len(brks)}")

    rule_error = fsum(_cell_error(a) for pair in exps for a in pair)
    if n == 1:
        return _refine(_line_mesh(integrand, reflected, exps[0], brks[0]), 8, tol,
                       detect_growth, budget, rule_error)
    if reflected is not None:
        raise ValueError("reflected evaluators are only supported for n == 1")
    return _refine(_cube_mesh(integrand, exps, brks), 4, tol, detect_growth, budget,
                   rule_error)


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


def _line_verdicts(coarse: np.ndarray, fine: np.ndarray, sizes: Sequence[int],
                   tol: float) -> list:
    """One result per row of pieces from their (coarse, fine) rule sums
    (``piece_sums``), the rows taking ``sizes`` consecutive pieces each:
    the value is the fsum of the row's finer sums, and abs_error the fsum
    of its pieces' differences plus the rounding allowance on |value| (the
    integrands keep one sign).  Converged under the test of ``_refine``,
    |error| <= tol * max(1, |value|); inconclusive otherwise.  Every piece
    costs 3 * PIECE_RULE evaluations."""
    fine, diff = fine.tolist(), np.abs(fine - coarse).tolist()
    out, a = [], 0
    for size in sizes:
        value = fsum(fine[a:a + size])
        err = fsum(diff[a:a + size]) + ROUNDING * abs(value)
        converged = math.isfinite(err) and err <= tol * max(1.0, abs(value))
        out.append(IntegralResult(value, err, IntegralStatus.CONVERGED if converged
                                  else IntegralStatus.INCONCLUSIVE, 3 * PIECE_RULE * size))
        a += size
    return out


def integrate_log_line(reduced: Callable, rate: float, order: float, decay: float,
                       tol: float) -> IntegralResult:
    """int_{-inf}^0 e^{rate v} reduced(v) dv in one evaluation of ``reduced``.

    The pieces are [-2**-J, 0], with the Gauss-Jacobi weight (-v)**order;
    [-2**(k+1), -2**k] for -J <= k < K, Gauss-Legendre; and the head
    (-inf, v_L], v_L = -2**K, Gauss-Laguerre in x = rate (v_L - v).  2**-J
    is the largest power of two up to 1 with rate 2**-J <= 40, so that
    e^{rate v} falls by at most e^-40 across that piece; 2**K is the first
    power of two from max(2**-J, 40 / max(rate, decay)) on, so the head
    either carries at most e^-40 of the integral or sees ``reduced`` within
    e^-40 of its limit.  Each piece is summed at PIECE_RULE and 2 * PIECE_RULE
    points, and ``_line_verdicts`` gives the result.  Divergent, with no
    evaluation, when rate <= 0 or order <= -1.  ``tol`` must lie in
    [1e-14, 1e-2], as for ``integrate_unit_cube``.
    """
    _check_tol(tol)
    if not (rate > 0.0 and order > -1.0):
        return _divergent()
    # no narrower than the smallest normal float, also for rate = inf
    first = math.ceil(math.log2(max(1.0, min(rate / _RATE_SPAN, 1.0 / _TINY))))
    depth = math.ceil(math.log2(max(2.0 ** -first, _HEAD_DECAY / max(rate, decay))))
    edges = -np.exp2(np.arange(-first, depth + 1.0))

    def values(v):
        return np.exp(rate * v) * np.asarray(reduced(v.ravel()), dtype=float).reshape(v.shape)

    coarse, fine = piece_sums(values, edges, np.append(0.0, edges[:-1]), edges == edges[0],
                              order, head=(float(edges[-1]), rate))
    return _line_verdicts(coarse, fine, [fine.size], tol)[0]


def beta_closed_form(a: float, e: float) -> IntegralResult:
    """Analytic value of int_0^1 t**a (1-t)**e dt = B(a+1, e+1).

    Divergent unless a > -1 and e > -1.  The reported error is an
    ulp-scale bound on the log-Gamma evaluation.
    """
    if a <= -1.0 or e <= -1.0:
        return _divergent()
    value = float(math.exp(betaln(a + 1.0, e + 1.0)))
    return IntegralResult(value, 4.0 * _EPS * value, IntegralStatus.CONVERGED, 0)


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

    def line_values(self, v: np.ndarray) -> np.ndarray:
        """psi(t) / t**c at t = exp(v), with 1 - t = -expm1(v)."""
        return self.scale * (-np.expm1(v)) ** self.e

    def line_decay(self) -> float:
        """Rate at which ``line_values`` tends to its limit as v -> -inf."""
        return 1.0 if self.e != 0.0 else math.inf


@dataclass(frozen=True)
class ProductPowerBeta:
    """Coordinatewise product of t_j**c_j * (1-t_j)**e_j factors (n > 1)."""

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
    int_{[0,1]^n} F(min(t)) psi(t) dt = int_0^1 F(m) g(m) dm.  Every c_j
    and e_j must exceed -1, which keeps the Phi_i finite.

    With ``power`` P != 1 the variable is v = m**P instead: the density is
    g(m) dm/dv at m = v**(1/P).
    """

    factors: Tuple[Tuple[float, float], ...]
    scale: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((float(c), float(e)) for c, e in self.factors))
        if not all(c > -1.0 and e > -1.0 for c, e in self.factors):
            raise ValueError(f"MinDensity needs every c_j, e_j > -1, got {self.factors}")
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"power must be positive, got {self.power}")

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
        return self.scale * jacobian * self._mix([m ** c * u ** e for c, e in self.factors],
                                                 m, u)

    def line_values(self, v: np.ndarray) -> np.ndarray:
        """The density over x**a0 at x = exp(v), a0 its order at 0 (see
        ``endpoint_exponents``): scale / power * sum_j m**(c_j - c_min)
        (1-m)**e_j prod_{i != j} Phi_i(m), at m = exp(v / power), with
        1 - m = -expm1(v / power)."""
        log_m = v / self.power
        m, u = np.exp(log_m), -np.expm1(log_m)
        low = min(c for c, _ in self.factors)
        phis = [np.exp((c - low) * log_m) * u ** e for c, e in self.factors]
        return self.scale / self.power * self._mix(phis, m, u)

    def line_decay(self) -> float:
        """A rate at which ``line_values`` tends to its limit as v -> -inf,
        at most the slowest one: the Phi_i approach theirs like
        m**(c_i + 1), the other phi_j vanish like m**(c_j - c_min), and
        (1-m)**e_j tends to 1 like m."""
        low = min(c for c, _ in self.factors)
        rates = [c + 1.0 for c, _ in self.factors] + [c - low for c, _ in self.factors
                                                     if c > low]
        return min(rates + [1.0]) / self.power

    def _mix(self, phis, m, u) -> np.ndarray:
        """sum_j phis[j] prod_{i != j} Phi_i(m), given m and u = 1 - m."""
        tails = [beta_tail(c, e, m, u) for c, e in self.factors]
        out = np.zeros(m.shape)
        for j, phi in enumerate(phis):
            for i, tail in enumerate(tails):
                if i != j:
                    phi = phi * tail
            out = out + phi
        return out

    def endpoint_exponents(self) -> Tuple[float, float]:
        """Orders of the density at v = 0 and at v = 1."""
        return ((min(c for c, _ in self.factors) + 1.0) / self.power - 1.0,
                fsum(e + 1.0 for _, e in self.factors) - 1.0)


@dataclass(frozen=True, eq=False)
class PsiCallback:
    """Opaque psi evaluator with user-declared endpoint exponents.

    ``endpoint_exponents`` holds one (at0, at1) pair per coordinate; the
    declared orders are probed against the evaluator when the owning
    :class:`KernelSpec` is constructed.
    """

    evaluate: Callable
    endpoint_exponents: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "endpoint_exponents",
                           tuple((float(a), float(b)) for a, b in self.endpoint_exponents))


@dataclass(frozen=True)
class PowerCurve:
    """s(t) = t**b (n = 1)."""

    b: float


@dataclass(frozen=True)
class MinPower:
    """s(t) = min(t_1, ..., t_n)**beta."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"MinPower beta must be positive, got {self.beta}")


@dataclass(frozen=True, eq=False)
class CurveCallback:
    """Opaque curve with a declared lower growth exponent near the origin."""

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

    Construction self-tests callback descriptors: declared endpoint
    exponents must match probed local behavior within a factor of two,
    and curves must be nonzero at sampled interior points.
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
        if isinstance(self.psi, (PowerBeta, MinDensity)) and self.n != 1:
            raise ValueError(f"{type(self.psi).__name__} psi requires n == 1")
        if isinstance(self.psi, ProductPowerBeta) and len(self.psi.factors) != self.n:
            raise ValueError(f"ProductPowerBeta needs {self.n} factors")
        if isinstance(self.psi, PsiCallback) and len(self.psi.endpoint_exponents) != self.n:
            raise ValueError(f"PsiCallback needs {self.n} endpoint exponent pairs")
        for s in self.curves:
            if isinstance(s, PowerCurve) and self.n != 1:
                raise ValueError("PowerCurve requires n == 1")
        self._self_test()

    @property
    def m(self) -> int:
        return len(self.curves)

    def has_callback(self) -> bool:
        return isinstance(self.psi, PsiCallback) or any(
            isinstance(s, CurveCallback) for s in self.curves)

    def is_power_closed(self) -> bool:
        """True when the kernel admits the closed Beta-function path."""
        return (self.n == 1 and isinstance(self.psi, PowerBeta)
                and all(isinstance(s, PowerCurve) for s in self.curves))

    def supports_reflection(self) -> bool:
        """psi can be evaluated stably in u = 1 - t coordinates."""
        return self.n == 1 and isinstance(self.psi, (PowerBeta, MinDensity))

    # -- evaluation ---------------------------------------------------------

    def psi_values(self, t: np.ndarray) -> np.ndarray:
        if isinstance(self.psi, PowerBeta):
            return self.psi.scale * t ** self.psi.c * (1.0 - t) ** self.psi.e
        if isinstance(self.psi, MinDensity):
            return self.psi.values(t, 1.0 - t)
        if isinstance(self.psi, ProductPowerBeta):
            out = np.full(t.shape[0], self.psi.scale)
            for j, (c, e) in enumerate(self.psi.factors):
                out = out * t[:, j] ** c * (1.0 - t[:, j]) ** e
            return out
        return np.asarray(self.psi.evaluate(t), dtype=float)

    def psi_values_reflected(self, u: np.ndarray) -> np.ndarray:
        """psi(1-u) with the near-1 factor computed from u exactly."""
        if isinstance(self.psi, MinDensity):
            return self.psi.values(1.0 - u, u)
        if not isinstance(self.psi, PowerBeta):
            raise ValueError("reflected psi evaluation needs a PowerBeta or MinDensity descriptor")
        return self.psi.scale * (1.0 - u) ** self.psi.c * u ** self.psi.e

    def curve_values(self, i: int, t: np.ndarray) -> np.ndarray:
        s = self.curves[i]
        if isinstance(s, PowerCurve):
            return t ** s.b
        if isinstance(s, MinPower):
            tt = t if t.ndim > 1 else t[:, None]
            return np.min(tt, axis=1) ** s.beta
        return np.asarray(s.evaluate(t), dtype=float)

    # -- declared endpoint behavior ----------------------------------------

    def psi_endpoint_exponents(self) -> list:
        if isinstance(self.psi, PowerBeta):
            return [(self.psi.c, self.psi.e)]
        if isinstance(self.psi, ProductPowerBeta):
            return [(c, e) for c, e in self.psi.factors]
        if isinstance(self.psi, MinDensity):
            return [self.psi.endpoint_exponents()]
        return list(self.psi.endpoint_exponents)

    def curve_zero_exponents(self, i: int) -> list:
        """Growth order of |s_i| as t_j -> 0, per coordinate j."""
        s = self.curves[i]
        if isinstance(s, PowerCurve):
            return [s.b]
        if isinstance(s, MinPower):
            return [s.beta] * self.n
        return [s.growth_exponent] * self.n

    def curve_tends_to_one_at_face(self, i: int, j: int) -> bool:
        """Whether |s_i(t)| -> 1 as t_j -> 1 (provably, from the descriptor)."""
        s = self.curves[i]
        if isinstance(s, PowerCurve):
            return True
        if isinstance(s, MinPower):
            return self.n == 1
        return False

    # -- construction self-tests --------------------------------------------

    def _probe_point(self, j: int, tj: float) -> np.ndarray:
        if self.n == 1:
            return np.array([tj])
        base = np.full((1, self.n), 0.5)
        base[0, j] = tj
        return base

    def _self_test(self):
        if isinstance(self.psi, PsiCallback):
            for j, (a0, a1) in enumerate(self.psi.endpoint_exponents):
                self._probe_exponent(j, a0, near_zero=True)
                self._probe_exponent(j, a1, near_zero=False)
        rng = np.random.default_rng(0)
        samples = rng.uniform(1e-6, 1.0, size=(64, self.n))
        t = samples[:, 0] if self.n == 1 else samples
        for i, s in enumerate(self.curves):
            if isinstance(s, CurveCallback):
                vals = np.abs(np.asarray(s.evaluate(t), dtype=float))
                if np.any(vals == 0.0):
                    raise ValueError(f"curve {i} vanished at a sampled interior point")
                d1, d2 = 1e-3, 1e-6
                v1 = float(np.abs(np.asarray(s.evaluate(self._probe_curve_arg(d1)),
                                             dtype=float)).ravel()[0])
                v2 = float(np.abs(np.asarray(s.evaluate(self._probe_curve_arg(d2)),
                                             dtype=float)).ravel()[0])
                if v1 > 0 and v2 > 0 and s.growth_exponent != 0:
                    measured = math.log(v2 / v1) / math.log(d2 / d1)
                    if not _exponents_agree(measured, s.growth_exponent):
                        raise ValueError(
                            f"curve {i}: declared growth exponent {s.growth_exponent} "
                            f"does not match probed behavior {measured:.3g}")

    def _probe_curve_arg(self, delta: float) -> np.ndarray:
        if self.n == 1:
            return np.array([delta])
        return np.full((1, self.n), delta)

    def _probe_exponent(self, j: int, declared: float, near_zero: bool):
        if not math.isfinite(declared):
            return
        d1, d2 = 1e-3, 1e-6
        if near_zero:
            p1, p2 = self._probe_point(j, d1), self._probe_point(j, d2)
        else:
            p1, p2 = self._probe_point(j, 1.0 - d1), self._probe_point(j, 1.0 - d2)
        f1 = float(np.asarray(self.psi.evaluate(p1), dtype=float).ravel()[0])
        f2 = float(np.asarray(self.psi.evaluate(p2), dtype=float).ravel()[0])
        if f1 <= 0 or f2 <= 0:
            return  # vanishing probes carry no slope information
        measured = math.log(f2 / f1) / math.log(d2 / d1)
        if not _exponents_agree(measured, declared):
            side = "0" if near_zero else "1"
            raise ValueError(
                f"psi: declared endpoint exponent {declared} at t_{j}={side} "
                f"does not match probed behavior {measured:.3g}")


def min_reduction(kernel: KernelSpec) -> KernelSpec:
    """The n = 1 kernel with the same power integrals as ``kernel``, or
    ``kernel`` itself where the reduction does not apply.

    With psi = prod_j phi_j(t_j) (ProductPowerBeta) and only MinPower
    curves, every curve, and so every integrand built from the curves,
    depends on t through m = min(t) alone; then the cube integral of
    F(m) psi is int_0^1 F(m) g(m) dm with g the MinDensity of psi, and
    each curve min(t)**beta becomes the power curve m**beta.  Where some
    beta exceeds 1 the variable is v = m**P with P the largest beta, so
    that no curve v**(beta/P) falls below the smallest graded node (m**beta
    would underflow there).  Kernels with some c_j or e_j <= -1 keep the
    cube path, which gives their verdict.
    """
    psi = kernel.psi
    if not (kernel.n >= 2 and isinstance(psi, ProductPowerBeta)
            and all(isinstance(s, MinPower) for s in kernel.curves)
            and all(c > -1.0 and e > -1.0 for c, e in psi.factors)):
        return kernel
    power = max(1.0, max(s.beta for s in kernel.curves))
    return KernelSpec(1, MinDensity(psi.factors, psi.scale, power),
                      tuple(PowerCurve(s.beta / power) for s in kernel.curves))


def power_law_integrand(kernel: KernelSpec, exponents: Sequence[float]):
    """Evaluators and declared endpoint orders for prod |s_i|**e_i * psi.

    Returns ``(integrand, reflected, endpoint_exponents)`` ready for
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
        return out if cf is None else out * cf

    reflected = None
    if kernel.supports_reflection():
        def reflected(u):
            out = kernel.psi_values_reflected(u)
            cf = curve_factor(1.0 - u)
            return out if cf is None else out * cf

    pe = kernel.psi_endpoint_exponents()
    endexp = []
    for j in range(kernel.n):
        at0 = pe[j][0] + fsum(e[i] * kernel.curve_zero_exponents(i)[j]
                              for i in range(kernel.m))
        endexp.append((at0, pe[j][1]))
    return integrand, reflected, endexp


class KernelFactor(NamedTuple):
    """An extra factor of a kernel power integral, at the points of each
    integrator: ``at_t(t)`` at t (an (npoints,) or (npoints, n) array),
    ``at_u(u)`` at t = 1 - u (the reflected evaluation of n = 1), and
    ``at_v(v)`` at t = exp(v) on the line of ``integrate_log_line``.
    ``shift`` holds one (at0, at1) pair per coordinate that the factor adds
    to the endpoint orders.  On the line the factor must tend to a limit,
    or grow like a polynomial in v, as v -> -inf, so that it adds nothing
    at t = 0.
    """

    at_t: Callable
    at_u: Callable
    at_v: Callable
    shift: Sequence[Tuple[float, float]]


def _line_integral(kernel: KernelSpec, orders: Tuple[float, float], tol: float,
                   factor: Optional[KernelFactor]) -> Optional[IntegralResult]:
    """The integral of ``kernel_power_integral`` on the piecewise line in
    v = ln t, given its endpoint orders, or None where the line does not
    apply: it needs n = 1, a PowerBeta or MinDensity psi and curves t**b
    with b > 0.

    On the line the psi's ``line_values`` (times the factor) is the
    reduced integrand; the curves' powers t**(b e) are exp(b e v) and go to
    the rate.  A commutator gap 1 - t**b tends to 1 like e^{b v}, so every
    b counts as a decay rate.
    """
    psi = kernel.psi
    if not (kernel.n == 1 and isinstance(psi, (PowerBeta, MinDensity))
            and all(isinstance(s, PowerCurve) and s.b > 0.0 for s in kernel.curves)):
        return None
    reduced = psi.line_values
    if factor is not None:
        def reduced(v):
            return psi.line_values(v) * factor.at_v(v)

    decay = min([psi.line_decay()] + [s.b for s in kernel.curves])
    return integrate_log_line(reduced, orders[0] + 1.0, orders[1], decay, tol)


def kernel_power_integral(kernel: KernelSpec, exponents: Sequence[float],
                          tol: float = 1e-10,
                          factor: Optional[KernelFactor] = None) -> IntegralResult:
    """int over [0,1]^n of prod_i |s_i(t)|**e_i * psi(t) dt, times
    ``factor`` when one is given.

    Without a factor, min-power kernels are reduced to n = 1
    (``min_reduction``), and power-shaped kernels (PowerBeta psi with
    PowerCurve curves, n = 1) then give the Beta function B(c + sum e_i b_i
    + 1, e + 1); a factor is a function on the kernel's own cube, so with
    one the kernel is taken as it is.  Everything else is taken on the
    piecewise line in v = ln t where it applies (``_line_integral``), and
    a line value that is inconclusive, or a kernel the line does not take,
    goes to the graded numeric integrator with endpoint orders derived from
    the descriptors; the evaluations of both add up.
    """
    e = [float(x) for x in exponents]
    if len(e) != kernel.m:
        raise ValueError(f"expected {kernel.m} exponents, got {len(e)}")
    if factor is None:
        kernel = min_reduction(kernel)
        if kernel.is_power_closed():
            a = kernel.psi.c + fsum(ei * s.b for ei, s in zip(e, kernel.curves))
            res = beta_closed_form(a, kernel.psi.e)
            if res.status is IntegralStatus.CONVERGED:
                res = IntegralResult(kernel.psi.scale * res.value,
                                     kernel.psi.scale * res.abs_error,
                                     res.status, res.evaluations)
            return res
    integrand, reflected, endexp = power_law_integrand(kernel, e)
    if factor is not None:
        endexp = [(at0 + s0, at1 + s1) for (at0, at1), (s0, s1) in zip(endexp, factor.shift)]
        plain, plain_reflected = integrand, reflected

        def integrand(t):
            return plain(t) * factor.at_t(t)

        if plain_reflected is not None:
            def reflected(u):
                return plain_reflected(u) * factor.at_u(u)

    line = _line_integral(kernel, endexp[0], tol, factor)
    if line is not None and line.status is not IntegralStatus.INCONCLUSIVE:
        return line
    res = integrate_unit_cube(integrand, kernel.n, tol, endexp,
                              detect_growth=kernel.has_callback(),
                              reflected=reflected)
    if line is None:
        return res
    return IntegralResult(res.value, res.abs_error, res.status,
                          res.evaluations + line.evaluations)
