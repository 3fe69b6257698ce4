"""Small numerically-stable helpers shared across modules."""

import math

import numpy as np

LN2 = math.log(2.0)


def pow2m1_over(x: float) -> float:
    """(2**x - 1) / x, continuously extended to log(2) at x = 0."""
    if x == 0.0:
        return LN2
    return math.expm1(x * LN2) / x


def one_minus_pow2_over(x: float) -> float:
    """(1 - 2**(-x)) / x, continuously extended to log(2) at x = 0."""
    if x == 0.0:
        return LN2
    return -math.expm1(-x * LN2) / x


def pow2m1(x: float) -> float:
    """2**x - 1 computed without cancellation for small x."""
    return math.expm1(x * LN2)


def exp2_integrals(top, c, width):
    """int over an interval of length ``width`` of 2**(c y) ln 2 dy, scaled
    so that 2**top is its larger end, on arrays: 2**top width ln 2 (1 -
    e**-m) / m with m = |c| width ln 2, so that neither factor overflows or
    underflows before the product (inf where top >= 1024)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.abs(c) * width * LN2
        return np.exp2(top) * width * LN2 * np.where(m > 0.0, -np.expm1(-m) / m, 1.0)
