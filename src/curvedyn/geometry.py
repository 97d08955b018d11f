"""Riemannian structure in geodesic polar coordinates (r, theta, phi).

Covers the Noether momenta P_i and angular momenta J_i with their
analytic 6-gradients, and two alternative radial charts (rho = sin_k(r)
and R = tan_k(r)) with their canonical momentum transforms.  Free motion
is described once, in the Hamiltonian picture: its equations are the
observables module's geodesic Hamilton flow.

The momenta define the six Killing vector fields: a momentum <p, X> is
linear in p, so the Killing field X_i (Y_i) is the momentum part of the
gradient of P_i (J_i), which is where the tests read the fields off.  The
observables module builds its integrals on these momenta, which read
sin_k(r), cos_k(r) and the angle sines and cosines from one tuple t; _trig
is the one code that builds it, once per state, for whoever holds the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .kappa_core import (EPS_DOM, EPS_SING, DomainSingularity, _finite, arcsin_k, arctan_k,
                         cos_k, sin_cos_k)

__all__ = [
    "ConfigPoint",
    "PhaseState",
    "to_rho_chart",
    "from_rho_chart",
    "to_R_chart",
    "from_R_chart",
    "rho_chart_kinetic",
    "R_chart_kinetic",
]


@dataclass(frozen=True)
class ConfigPoint:
    """Configuration point: geodesic distance r and angles (theta, phi)."""

    r: float
    theta: float
    phi: float


@dataclass(frozen=True)
class PhaseState:
    """Configuration point plus canonical momenta."""

    q: ConfigPoint
    p_r: float
    p_theta: float
    p_phi: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.q.r, self.q.theta, self.q.phi, self.p_r, self.p_theta, self.p_phi]
        )

    @classmethod
    def from_array(cls, y) -> "PhaseState":
        r, th, ph, pr, pth, pph = (float(v) for v in y)
        return cls(ConfigPoint(r, th, ph), pr, pth, pph)


# ---------------------------------------------------------------------------
# Momenta.  Each returns (value, gradient) on a 6-tuple state, the gradient
# a tuple of six floats, or (value, None) when called with grad false.

_VG = tuple[float, tuple | None]
_ZERO = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _scale(c: float, g) -> tuple:
    """c g entry by entry."""
    return c * g[0], c * g[1], c * g[2], c * g[3], c * g[4], c * g[5]


def _lin(a: float, g, b: float, h) -> tuple:
    """a g + b h entry by entry.  A longer sum chains it, _lin(1.0, sum, c, k),
    as 1.0 x is x: with each coefficient formed before it meets an entry and
    each sum taken left to right, every entry is the float numpy's array
    arithmetic gives for the same expression."""
    return (a * g[0] + b * h[0], a * g[1] + b * h[1], a * g[2] + b * h[2],
            a * g[3] + b * h[3], a * g[4] + b * h[4], a * g[5] + b * h[5])


def _quot(c: float, g, d: float) -> tuple:
    """c g / d entry by entry: the product, then a division (which a product
    with 1/d is not)."""
    return c * g[0] / d, c * g[1] / d, c * g[2] / d, c * g[3] / d, c * g[4] / d, c * g[5] / d


def _trig(sc, y) -> tuple:
    """The tuple every piece reads, t = (sin_k r, cos_k r, sin theta, cos theta,
    sin phi, cos phi) at y = (r, theta, phi, ...); sc None leaves sin_k, cos_k None."""
    sk, ck = (None, None) if sc is None else sc(y[0])
    return sk, ck, sin(y[1]), cos(y[1]), sin(y[2]), cos(y[2])


# For i = 1, 2 the momenta read the planar pair (a, b) straight from t:
# (cos phi, sin phi) = (t[5], t[4]) for the x axis and, as the y axis is
# the x axis turned by pi/2, (sin phi, -cos phi) for the y axis.

def _p_vg(i: int, t, y, grad: bool = True) -> _VG:
    """Noether momentum P_i of the translation-like isometries."""
    _, _, _, pr, pth, pph = y
    sk, ck, sth, cth, _, _ = t
    if abs(sk) < EPS_SING:
        raise DomainSingularity("sin_k(r) vanishes")
    ct = ck / sk
    if i == 3:
        val = cth * pr - ct * sth * pth
        if not grad:
            return val, None
        dct = -1.0 / (sk * sk)
        return val, (-dct * sth * pth, -sth * pr - ct * cth * pth, 0.0, cth, -ct * sth, 0.0)
    if abs(sth) < EPS_SING:
        raise DomainSingularity("sin(theta) vanishes")
    if i == 1:
        a, b = t[5], t[4]
    else:
        a, b = t[4], -t[5]
    ang = cth * a * pth - (b / sth) * pph
    val = sth * a * pr + ct * ang
    if not grad:
        return val, None
    dct = -1.0 / (sk * sk)
    return val, (dct * ang,
                 cth * a * pr + ct * (-sth * a * pth + (cth / (sth * sth)) * b * pph),
                 -sth * b * pr + ct * (-cth * b * pth - (a / sth) * pph),
                 sth * a, ct * cth * a, -ct * b / sth)


def _j_vg(i: int, t, y, grad: bool = True) -> _VG:
    """Angular momentum J_i of the rotations; J_3 reads nothing of t."""
    pth, pph = y[4], y[5]
    if i == 3:
        return pph, ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0) if grad else None)
    sth, cth = t[2], t[3]
    if abs(sth) < EPS_SING:
        raise DomainSingularity("sin(theta) vanishes")
    cot = cth / sth
    if i == 1:
        a, b = t[5], t[4]
    else:
        a, b = t[4], -t[5]
    val = -(b * pth + cot * a * pph)
    if not grad:
        return val, None
    return val, (0.0, a * pph / (sth * sth), -a * pth + cot * b * pph, 0.0, -b, -cot * a)


def _cos_guard(c: float) -> float:
    # The radial charts use the principal branch cos_k(r) > 0, which a NaN
    # fails too; for kappa > 0 it is the hemisphere r < pi/(2 sqrt(kappa)).
    if not c >= EPS_DOM:
        raise DomainSingularity("chart transform requires cos_k(r) > 0")
    return c


def to_rho_chart(kappa, s: PhaseState) -> PhaseState:
    """Radial chart rho = sin_k(r) with canonical p_rho = p_r / cos_k(r)."""
    rho, c = sin_cos_k(kappa)(s.q.r)
    _cos_guard(c)
    return PhaseState(ConfigPoint(rho, s.q.theta, s.q.phi), s.p_r / c, s.p_theta, s.p_phi)


def from_rho_chart(kappa, s: PhaseState) -> PhaseState:
    """Inverse of to_rho_chart on the principal branch cos_k(r) > 0."""
    r = arcsin_k(kappa, s.q.r)
    c = _cos_guard(cos_k(kappa, r))
    return PhaseState(ConfigPoint(r, s.q.theta, s.q.phi), s.p_r * c, s.p_theta, s.p_phi)


def to_R_chart(kappa, s: PhaseState) -> PhaseState:
    """Radial chart R = tan_k(r) with canonical p_R = p_r cos_k^2(r)."""
    sk, c = sin_cos_k(kappa)(s.q.r)
    big_r = sk / _cos_guard(c)
    return PhaseState(ConfigPoint(big_r, s.q.theta, s.q.phi), s.p_r * c * c, s.p_theta, s.p_phi)


def from_R_chart(kappa, s: PhaseState) -> PhaseState:
    """Inverse of to_R_chart on the principal branch."""
    r = arctan_k(kappa, s.q.r)
    c = _cos_guard(cos_k(kappa, r))
    return PhaseState(ConfigPoint(r, s.q.theta, s.q.phi), s.p_r / (c * c), s.p_theta, s.p_phi)


def rho_chart_kinetic(kappa, s: PhaseState) -> float:
    """Kinetic energy in the rho chart: (1 - kappa rho^2) p_rho^2/2 + angular part."""
    kap = _finite(kappa)
    rho, th = s.q.r, s.q.theta
    sth = math.sin(th)
    if abs(rho) < EPS_SING or abs(sth) < EPS_SING:
        raise DomainSingularity("rho chart kinetic singular")
    q = s.p_phi / sth
    ang = s.p_theta * s.p_theta + q * q
    return 0.5 * ((1.0 - kap * rho * rho) * (s.p_r * s.p_r) + ang / (rho * rho))


def R_chart_kinetic(kappa, s: PhaseState) -> float:
    """Kinetic energy in the R chart: (1 + kappa R^2)^2 p_R^2/2 + angular part."""
    kap = _finite(kappa)
    big_r, th = s.q.r, s.q.theta
    sth = math.sin(th)
    if abs(big_r) < EPS_SING or abs(sth) < EPS_SING:
        raise DomainSingularity("R chart kinetic singular")
    lam = 1.0 + kap * big_r * big_r
    q = s.p_phi / sth
    ang = s.p_theta * s.p_theta + q * q
    return 0.5 * (lam * lam * (s.p_r * s.p_r) + lam * ang / (big_r * big_r))
