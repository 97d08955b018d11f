"""Curvature-parametrized trigonometric kernels.

A single real parameter kappa selects the geometry: positive for the
sphere, zero for Euclidean space, negative for hyperbolic space.  The
kernels cos_k, sin_k, tan_k interpolate between circular and hyperbolic
functions and reduce smoothly to (1, x, x) at kappa = 0.  Near kappa = 0
the closed forms lose digits to cancellation, so a truncated series in
kappa is used instead; the switch is exact to double precision.  At
kappa = 0 itself the series is always taken, so a non-finite x gives a
non-finite result where the closed form would divide by sqrt(-0.0).

sin_cos_k is the one implementation of sin_k and cos_k: it binds kappa
once and returns x -> (sin_k, cos_k).  The other kernels read one call
of it.  A kappa that is not finite raises ValueError when it is bound.
"""

from __future__ import annotations

import math
from functools import partial
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


def _finite(value, name: str = "kappa") -> float:
    """value as a float; ValueError("<name> must be finite, got nan") if it is not finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _series(kap: float, x: float) -> tuple[float, float]:
    """(sin_k, cos_k) by their series in u = kappa x^2.  The next terms,
    x u^3/5040 and u^3/720, are below roundoff where it is taken."""
    u = kap * x * x
    return x * (1.0 - u / 6.0 + u * u / 120.0), 1.0 - u / 2.0 + u * u / 24.0


def sin_cos_k(kappa) -> Callable[[float], tuple[float, float]]:
    """sc(x) = (sin_k(kappa, x), cos_k(kappa, x)) with kappa bound once:
    sin_k(x) = sin(sqrt(kappa) x)/sqrt(kappa) and cos_k(x) = cos(sqrt(kappa) x),
    continued through kappa <= 0, and their series where |kappa| x^2 is
    below SMALL_KAPPA_X2 or kappa is zero.  A non-finite x gives a
    non-finite result or raises what math.sin or math.sinh raises."""
    kap = _finite(kappa)
    if kap == 0.0:
        return partial(_series, kap)
    if kap > 0.0:
        rk, sin, cos = math.sqrt(kap), math.sin, math.cos
    else:
        rk, sin, cos = math.sqrt(-kap), math.sinh, math.cosh

    def sc(x: float) -> tuple[float, float]:
        if abs(kap * x * x) < SMALL_KAPPA_X2:
            return _series(kap, x)
        a = rk * x
        return sin(a) / rk, cos(a)

    return sc


def sin_k(kappa, x: float) -> float:
    """sin(sqrt(kappa) x)/sqrt(kappa), continued through kappa <= 0."""
    return sin_cos_k(kappa)(x)[0]


def cos_k(kappa, x: float) -> float:
    """cos(sqrt(kappa) x), continued through kappa <= 0."""
    return sin_cos_k(kappa)(x)[1]


def tan_k(kappa, x: float) -> float:
    """sin_k / cos_k, singular where |cos_k| < EPS_DOM."""
    s, c = sin_cos_k(kappa)(x)
    if abs(c) < EPS_DOM:
        raise DomainSingularity(f"tan_k singular: |cos_k({float(kappa)}, {x})| < {EPS_DOM}")
    return s / c


def d_sin_k(kappa, x: float) -> float:
    """Derivative of sin_k in x, equal to cos_k."""
    return sin_cos_k(kappa)(x)[1]


def d_cos_k(kappa, x: float) -> float:
    """Derivative of cos_k in x, equal to -kappa sin_k."""
    return -float(kappa) * sin_cos_k(kappa)(x)[0]


def d_tan_k(kappa, x: float) -> float:
    """Derivative of tan_k in x, equal to 1/cos_k^2."""
    c = sin_cos_k(kappa)(x)[1]
    if abs(c) < EPS_DOM:
        raise DomainSingularity(f"d_tan_k singular: |cos_k({float(kappa)}, {x})| < {EPS_DOM}")
    return 1.0 / (c * c)


def arcsin_k(kappa, y: float) -> float:
    """Inverse of sin_k on the principal branch."""
    kap = _finite(kappa)
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
    kap = _finite(kappa)
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
