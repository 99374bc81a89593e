"""Numeric kernels: tie-averaged ranks and tail probabilities for test statistics.

The tail functions are implemented from the classical series / continued
fraction expansions so that results are bit-reproducible and the package has
no numerics dependency.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Sequence

_EPS = 1e-16
_MAX_ITER = 600
_FPMIN = 1e-300


def average_ranks(values: Sequence[float]) -> list[float]:
    """Return 1-based ranks of ``values``; tied entries share their mean rank.

    The ranks of n values always sum to n(n+1)/2, which keeps rank statistics
    well behaved in the presence of ties.
    """
    if not values:
        raise ValueError("average_ranks: empty input")
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        shared = start + (len(run) + 1) / 2  # mean of the 1-based positions start+1 .. start+len(run)
        for k in run:
            ranks[k] = shared
        start += len(run)
    return ranks


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series; needs x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lentz_step(an: float, bn: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz step of a continued fraction b0 + a1/(b1 + a2/(b2 + ...)):
    the next c and d, each kept away from zero, and the factor delta that
    takes the convergent to the next one."""
    d = an * d + bn
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = bn + an / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    d = 1.0 / d
    return c, d, d * c


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_upper_tail(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("chi_square_upper_tail: df must be >= 1")
    if x < 0:
        raise ValueError("chi_square_upper_tail: x must be >= 0")
    a = df / 2.0
    z = x / 2.0
    if z == 0.0:
        return 1.0
    if z < a + 1.0:
        q = 1.0 - _lower_gamma_series(a, z)
    else:
        q = _upper_gamma_cf(a, z)
    return min(1.0, max(0.0, q))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        # an even term, then an odd one; convergence is tested on the odd step only
        c, d, delta = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student t variable with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("student_t_two_sided: df must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = _incomplete_beta(df / 2.0, 0.5, x)
    return min(1.0, max(0.0, p))
