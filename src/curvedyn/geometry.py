"""Riemannian structure in geodesic polar coordinates (r, theta, phi).

Covers the metric and volume density, the Noether momenta P_i and
angular momenta J_i with their analytic 6-gradients, the six Killing
vector fields with numeric Lie brackets, and two alternative radial
charts (rho = sin_k(r) and R = tan_k(r)) with their canonical momentum
transforms.  Free motion is described once, in the Hamiltonian picture:
its equations are the observables module's geodesic Hamilton flow.

The momenta live here because they define the fields: a momentum
<p, X> is linear in p, so the Killing field X_i (Y_i) is the momentum
part of the gradient of P_i (J_i).  The observables module builds its
integrals on these momenta, which read sin_k(r), cos_k(r) and the angle
sines and cosines from one tuple t; _trig is the one code that builds it,
once per state, for whoever holds the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .kappa_core import DomainSingularity, _finite, arcsin_k, arctan_k, cos_k, sin_cos_k

__all__ = [
    "ConfigPoint",
    "PhaseState",
    "TangentVector",
    "KILLING_IDS",
    "metric_coeffs",
    "volume_density",
    "killing_field",
    "lie_bracket_numeric",
    "lie_derivative_metric",
    "volume_divergence",
    "to_rho_chart",
    "from_rho_chart",
    "to_R_chart",
    "from_R_chart",
    "rho_chart_kinetic",
    "R_chart_kinetic",
]

# Below this, 1/sin(theta), 1/sin_k(r) and the like are treated as singular.
_EPS = 1e-12
# Central-difference step of the numeric Lie brackets and derivatives.
FD_STEP = 1e-5

KILLING_IDS = ("X1", "X2", "X3", "Y1", "Y2", "Y3")


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


@dataclass(frozen=True)
class TangentVector:
    """Vector components (a_r, a_theta, a_phi) at a configuration point."""

    a_r: float
    a_theta: float
    a_phi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a_r, self.a_theta, self.a_phi])


def metric_coeffs(kappa, q: ConfigPoint) -> tuple[float, float, float]:
    """Diagonal metric coefficients (g_rr, g_thth, g_phph)."""
    return _metric(sin_cos_k(kappa), (q.r, q.theta))


def _metric(sc, x) -> tuple[float, float, float]:
    """metric_coeffs at x = (r, theta, ...) from the bound kernels sc."""
    s = sc(x[0])[0]
    sth = math.sin(x[1])
    return 1.0, s * s, s * s * sth * sth


def volume_density(kappa, q: ConfigPoint) -> float:
    """Riemannian volume density sin_k^2(r) sin(theta)."""
    return _volume(sin_cos_k(kappa), (q.r, q.theta))


def _volume(sc, x) -> float:
    """volume_density at x = (r, theta, ...) from the bound kernels sc."""
    s = sc(x[0])[0]
    return s * s * math.sin(x[1])


# ---------------------------------------------------------------------------
# Momenta.  Each returns (value, 6-gradient) on a 6-tuple state, or
# (value, None) when called with grad false.

_VG = tuple[float, np.ndarray | None]


def _sin_guard(x: float, what: str) -> None:
    if abs(x) < _EPS:
        raise DomainSingularity(f"{what} vanishes")


def _trig(sc, y) -> tuple:
    """The tuple every piece reads, t = (sin_k r, cos_k r, sin theta, cos theta,
    sin phi, cos phi) at y = (r, theta, phi, ...); sc None leaves sin_k, cos_k None."""
    sk, ck = (None, None) if sc is None else sc(y[0])
    return sk, ck, sin(y[1]), cos(y[1]), sin(y[2]), cos(y[2])


def _planar_axis(axis: int, t) -> tuple[float, float]:
    """(a, b) = (cos phi, sin phi) for the x axis (axis 0) and, as the y
    axis is the x axis turned by pi/2, (sin phi, -cos phi) for the y axis."""
    sph, cph = t[4], t[5]
    if axis == 0:
        return cph, sph
    if axis == 1:
        return sph, -cph
    raise ValueError(f"axis must be 0..2, got {axis}")


def _p_vg(i: int, t, y, grad: bool = True) -> _VG:
    """Noether momentum P_i of the translation-like isometries."""
    _, _, _, pr, pth, pph = y
    sk, ck, sth, cth, _, _ = t
    _sin_guard(sk, "sin_k(r)")
    ct = ck / sk
    dct = -1.0 / (sk * sk)
    if i == 3:
        val = cth * pr - ct * sth * pth
        if not grad:
            return val, None
        g = np.zeros(6)
        g[0] = -dct * sth * pth
        g[1] = -sth * pr - ct * cth * pth
        g[3] = cth
        g[4] = -ct * sth
        return val, g
    _sin_guard(sth, "sin(theta)")
    a, b = _planar_axis(i - 1, t)
    ang = cth * a * pth - (b / sth) * pph
    val = sth * a * pr + ct * ang
    if not grad:
        return val, None
    g = np.zeros(6)
    g[0] = dct * ang
    g[1] = cth * a * pr + ct * (-sth * a * pth + (cth / (sth * sth)) * b * pph)
    g[2] = -sth * b * pr + ct * (-cth * b * pth - (a / sth) * pph)
    g[3] = sth * a
    g[4] = ct * cth * a
    g[5] = -ct * b / sth
    return val, g


def _j_vg(i: int, t, y, grad: bool = True) -> _VG:
    """Angular momentum J_i of the rotations; J_3 reads nothing of t."""
    pth, pph = y[4], y[5]
    if i == 3:
        if not grad:
            return pph, None
        g = np.zeros(6)
        g[5] = 1.0
        return pph, g
    sth, cth = t[2], t[3]
    _sin_guard(sth, "sin(theta)")
    cot = cth / sth
    a, b = _planar_axis(i - 1, t)
    val = -(b * pth + cot * a * pph)
    if not grad:
        return val, None
    g = np.zeros(6)
    g[1] = a * pph / (sth * sth)
    g[2] = -a * pth + cot * b * pph
    g[4] = -b
    g[5] = -cot * a
    return val, g


# ---------------------------------------------------------------------------
# Killing fields.

def killing_field(fid: str, kappa, q: ConfigPoint) -> TangentVector:
    """One of the six Killing vector fields X1..X3, Y1..Y3 at q.

    X_i (Y_i) is the momentum part of the gradient of P_i (J_i).
    """
    x = (q.r, q.theta, q.phi)
    return TangentVector(*_killing_components(fid, sin_cos_k(kappa), x).tolist())


def _killing_components(fid: str, sc, x) -> np.ndarray:
    if fid not in KILLING_IDS:
        raise ValueError(f"unknown Killing field id {fid!r}")
    # The momentum part of the gradient of <p, X> is X whatever p is.
    y = (*x, 0.0, 0.0, 0.0)
    i, t = int(fid[1]), _trig(sc, y)
    g = _p_vg(i, t, y)[1] if fid[0] == "X" else _j_vg(i, t, y)[1]
    return g[3:]


def _central_difference(fn, x, h: float) -> np.ndarray:
    """Rows (fn(x + h e_j) - fn(x - h e_j)) / 2h, one per coordinate j of x."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        rows.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(rows)


def lie_bracket_numeric(fid_a: str, fid_b: str, kappa, q: ConfigPoint) -> TangentVector:
    """Commutator [A, B]^i = A^j d_j B^i - B^j d_j A^i by central differences."""
    sc = sin_cos_k(kappa)
    x0 = (q.r, q.theta, q.phi)
    a0 = _killing_components(fid_a, sc, x0)
    b0 = _killing_components(fid_b, sc, x0)
    da = _central_difference(lambda x: _killing_components(fid_a, sc, x), x0, FD_STEP)
    db = _central_difference(lambda x: _killing_components(fid_b, sc, x), x0, FD_STEP)
    return TangentVector(*sum(a0[j] * db[j] - b0[j] * da[j] for j in range(3)))


def lie_derivative_metric(fid: str, kappa, q: ConfigPoint) -> np.ndarray:
    """Lie derivative of the metric along a Killing field, by central differences.

    Returns the symmetric 3x3 matrix X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c,
    which vanishes exactly for isometry generators.  The kernels are bound once.
    """
    sc = sin_cos_k(kappa)
    x0 = (q.r, q.theta, q.phi)

    def g_at(x):
        return np.diag(_metric(sc, x))

    g0 = g_at(x0)
    x_field = _killing_components(fid, sc, x0)
    dg = _central_difference(g_at, x0, FD_STEP)
    dx = _central_difference(lambda x: _killing_components(fid, sc, x), x0, FD_STEP)
    out = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            term = sum(x_field[c] * dg[c, a, b] for c in range(3))
            term += sum(g0[c, b] * dx[a, c] for c in range(3))
            term += sum(g0[a, c] * dx[b, c] for c in range(3))
            out[a, b] = term
    return out


def volume_divergence(fid: str, kappa, q: ConfigPoint) -> float:
    """Divergence of a Killing field with respect to the volume density,
    with the kernels bound once."""
    sc = sin_cos_k(kappa)

    def flux(x):
        return _volume(sc, x) * _killing_components(fid, sc, x)

    x0 = (q.r, q.theta, q.phi)
    d = _central_difference(flux, x0, FD_STEP)
    return sum(d[j, j] for j in range(3)) / _volume(sc, x0)


def _cos_guard(c: float) -> float:
    # The radial charts use the principal branch cos_k(r) > 0, which a NaN
    # fails too; for kappa > 0 it is the hemisphere r < pi/(2 sqrt(kappa)).
    if not c >= 1e-10:
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
    if abs(rho) < _EPS or abs(sth) < _EPS:
        raise DomainSingularity("rho chart kinetic singular")
    ang = s.p_theta**2 + (s.p_phi / sth) ** 2
    return 0.5 * ((1.0 - kap * rho * rho) * s.p_r**2 + ang / (rho * rho))


def R_chart_kinetic(kappa, s: PhaseState) -> float:
    """Kinetic energy in the R chart: (1 + kappa R^2)^2 p_R^2/2 + angular part."""
    kap = _finite(kappa)
    big_r, th = s.q.r, s.q.theta
    sth = math.sin(th)
    if abs(big_r) < _EPS or abs(sth) < _EPS:
        raise DomainSingularity("R chart kinetic singular")
    lam = 1.0 + kap * big_r * big_r
    ang = s.p_theta**2 + (s.p_phi / sth) ** 2
    return 0.5 * (lam * lam * s.p_r**2 + lam * ang / (big_r * big_r))
