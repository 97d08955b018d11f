"""Curvature-parametrized trigonometric kernels.

A single real parameter kappa selects the geometry: positive for the
sphere, zero for Euclidean space, negative for hyperbolic space.  The
kernels cos_k, sin_k, tan_k interpolate between circular and hyperbolic
functions and reduce smoothly to (1, x, x) at kappa = 0.  Near kappa = 0
the closed forms lose digits to cancellation, so a truncated series in
kappa is used instead; the switch is exact to double precision.  At
kappa = 0 itself the series is always taken, so a non-finite x gives a
non-finite result where the closed form would divide by sqrt(-0.0).
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "DomainSingularity",
    "EPS_DOM",
    "SMALL_KAPPA_X2",
    "cos_k",
    "sin_k",
    "sin_cos_k",
    "tan_k",
    "d_cos_k",
    "d_sin_k",
    "d_tan_k",
    "arcsin_k",
    "arctan_k",
]

# Guard on |cos_k| below which tan_k is treated as singular.
EPS_DOM = 1e-10

# Series branch threshold on |kappa| * x^2.
SMALL_KAPPA_X2 = 1e-6


class DomainSingularity(ValueError):
    """Raised when an evaluation point sits on a genuine singularity."""


# The kernels' formulas, shared by cos_k, sin_k and sin_cos_k.  In the
# series branch u = kappa * x^2; the next terms, u^3/720 and x u^3/5040,
# are below roundoff there.

def _cos_series(u: float) -> float:
    return 1.0 - u / 2.0 + u * u / 24.0


def _sin_series(u: float, x: float) -> float:
    return x * (1.0 - u / 6.0 + u * u / 120.0)


def _closed(kap: float) -> tuple[float, Callable, Callable]:
    """sqrt(|kappa|) and the circular or hyperbolic sine and cosine of a
    nonzero kappa: sin_k(x) = sin(rk x) / rk and cos_k(x) = cos(rk x)."""
    if kap > 0.0:
        return math.sqrt(kap), math.sin, math.cos
    return math.sqrt(-kap), math.sinh, math.cosh


def cos_k(kappa, x: float) -> float:
    """cos(sqrt(kappa) x), continued through kappa <= 0."""
    kap = float(kappa)
    u = kap * x * x
    if kap == 0.0 or abs(u) < SMALL_KAPPA_X2:
        return _cos_series(u)
    rk, _, cos = _closed(kap)
    return cos(rk * x)


def sin_k(kappa, x: float) -> float:
    """sin(sqrt(kappa) x)/sqrt(kappa), continued through kappa <= 0."""
    kap = float(kappa)
    u = kap * x * x
    if kap == 0.0 or abs(u) < SMALL_KAPPA_X2:
        return _sin_series(u, x)
    rk, sin, _ = _closed(kap)
    return sin(rk * x) / rk


def sin_cos_k(kappa) -> Callable[[float], tuple[float, float]]:
    """sc(x) = (sin_k(kappa, x), cos_k(kappa, x)), bit for bit, with kappa
    bound once: sqrt(|kappa|), the circular or hyperbolic functions and,
    at kappa = 0, the series branch are resolved here instead of on every
    call.  A non-finite x gives what sin_k and cos_k give, or raises what
    sin_k raises."""
    kap = float(kappa)

    def series(x: float) -> tuple[float, float]:
        u = kap * x * x
        return _sin_series(u, x), _cos_series(u)

    if kap == 0.0:
        return series
    rk, sin, cos = _closed(kap)

    def sc(x: float) -> tuple[float, float]:
        u = kap * x * x
        if abs(u) < SMALL_KAPPA_X2:
            return _sin_series(u, x), _cos_series(u)
        a = rk * x
        return sin(a) / rk, cos(a)

    return sc


def tan_k(kappa, x: float) -> float:
    """sin_k / cos_k, singular where |cos_k| < EPS_DOM."""
    c = cos_k(kappa, x)
    if abs(c) < EPS_DOM:
        raise DomainSingularity(f"tan_k singular: |cos_k({float(kappa)}, {x})| < {EPS_DOM}")
    return sin_k(kappa, x) / c


def d_sin_k(kappa, x: float) -> float:
    """Derivative of sin_k in x, equal to cos_k."""
    return cos_k(kappa, x)


def d_cos_k(kappa, x: float) -> float:
    """Derivative of cos_k in x, equal to -kappa sin_k."""
    return -float(kappa) * sin_k(kappa, x)


def d_tan_k(kappa, x: float) -> float:
    """Derivative of tan_k in x, equal to 1/cos_k^2."""
    c = cos_k(kappa, x)
    if abs(c) < EPS_DOM:
        raise DomainSingularity(f"d_tan_k singular: |cos_k({float(kappa)}, {x})| < {EPS_DOM}")
    return 1.0 / (c * c)


def arcsin_k(kappa, y: float) -> float:
    """Inverse of sin_k on the principal branch."""
    kap = float(kappa)
    u = kap * y * y
    if kap == 0.0 or abs(u) < SMALL_KAPPA_X2:
        return y * (1.0 + u / 6.0 + 3.0 * u * u / 40.0)
    if kap > 0.0:
        rk = math.sqrt(kap)
        arg = rk * y
        if abs(arg) > 1.0:
            raise DomainSingularity(f"arcsin_k out of range: |sqrt(kappa) y| = {abs(arg)} > 1")
        return math.asin(arg) / rk
    rk = math.sqrt(-kap)
    return math.asinh(rk * y) / rk


def arctan_k(kappa, y: float) -> float:
    """Inverse of tan_k on the principal branch."""
    kap = float(kappa)
    u = kap * y * y
    if kap == 0.0 or abs(u) < SMALL_KAPPA_X2:
        return y * (1.0 - u / 3.0 + u * u / 5.0)
    if kap > 0.0:
        rk = math.sqrt(kap)
        return math.atan(rk * y) / rk
    rk = math.sqrt(-kap)
    arg = rk * y
    if abs(arg) >= 1.0:
        raise DomainSingularity(f"arctan_k out of range: |sqrt(-kappa) y| = {abs(arg)} >= 1")
    return math.atanh(arg) / rk
