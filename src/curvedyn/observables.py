"""Named phase-space functions with values and analytic 6-gradients.

Every conserved quantity handled by the library is an observable here:
Noether momenta, angular momenta, curvature-scaled Cartesian
coordinates, the symmetric quadratic tensor of the isotropic oscillator,
angular-momentum and Runge-Lenz style integrals of the coupled systems,
and the complex combinations whose moduli are conserved.  Each
observable carries a hand-derived closed-form gradient with respect to
(r, theta, phi, p_r, p_theta, p_phi); composites assemble primitive
gradients through explicit product, quotient, and chain rules.  The
formulas of the momenta P_i and J_i live in the geometry module, beside
the Killing fields that are their momentum gradients.  A finite
difference cross-check of every gradient lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .geometry import _VG, ConfigPoint, PhaseState, _j_vg, _p_vg, _sin_guard
from .kappa_core import DomainSingularity, EPS_DOM, cos_k, sin_k

__all__ = [
    "Observable",
    "ComplexObservable",
    "FradkinMatrix",
    "UnsupportedEntry",
    "NegativeCoupling",
    "noether_P",
    "angular_J",
    "angular_J_squared",
    "kappa_cartesian",
    "coordinate",
    "direction_cosine",
    "kinetic",
    "fradkin_K",
    "fradkin_matrix",
    "complex_M",
    "sw_KJ",
    "osc112_observables",
    "kepler_RL",
    "k123_R",
    "k123_S",
    "k123_N",
    "k123_KR",
    "scaled_sum",
    "square",
]

class UnsupportedEntry(ValueError):
    """Off-diagonal quadratic-tensor entries exist only without couplings."""


class NegativeCoupling(ValueError):
    """Complex pairings need nonnegative couplings under the square root."""


def _as6(s) -> tuple[float, float, float, float, float, float]:
    if isinstance(s, PhaseState):
        return (s.q.r, s.q.theta, s.q.phi, s.p_r, s.p_theta, s.p_phi)
    return (float(s[0]), float(s[1]), float(s[2]), float(s[3]), float(s[4]), float(s[5]))


@dataclass(frozen=True)
class Observable:
    """Real phase-space function with value and analytic gradient.

    ``_vg(y, grad=True)`` maps a 6-tuple to ``(value, gradient)``.  With
    ``grad`` false it computes the same value and runs the same domain
    guards, but returns ``(value, None)`` without assembling the gradient.
    A linear combination built by ``scaled_sum`` also lists its
    ``(c, observable)`` terms, so that a caller holding the terms'
    gradients can assemble its gradient from them.
    """

    name: str
    _vg: Callable = field(repr=False, compare=False)
    terms: tuple = field(default=(), repr=False, compare=False)

    def value(self, s) -> float:
        return self._vg(_as6(s), False)[0]

    def gradient(self, s) -> np.ndarray:
        return self._vg(_as6(s))[1]

    def value_and_gradient(self, s) -> tuple[float, np.ndarray]:
        return self._vg(_as6(s))


@dataclass(frozen=True)
class ComplexObservable:
    """Complex function exposed as a pair of real observables."""

    name: str
    re: Observable
    im: Observable

    def value(self, s) -> complex:
        return complex(self.re.value(s), self.im.value(s))


# ---------------------------------------------------------------------------
# Primitive value-and-gradient pieces.  Each returns (value, 6-gradient),
# or (value, None) when called with grad false.  The momenta P_i and J_i
# are geometry._p_vg and geometry._j_vg.

def _jsq_vg(y, grad: bool = True) -> _VG:
    _, th, _, _, pth, pph = y
    sth, cth = math.sin(th), math.cos(th)
    _sin_guard(sth, "sin(theta)")
    val = pth * pth + (pph / sth) ** 2
    if not grad:
        return val, None
    g = np.zeros(6)
    g[1] = -2.0 * pph * pph * cth / sth**3
    g[4] = 2.0 * pth
    g[5] = 2.0 * pph / (sth * sth)
    return val, g


def _dir_vg(axis: int, y, grad: bool = True) -> _VG:
    _, th, ph = y[0], y[1], y[2]
    sth, cth = math.sin(th), math.cos(th)
    if axis == 2:
        if not grad:
            return cth, None
        g = np.zeros(6)
        g[1] = -sth
        return cth, g
    sph, cph = math.sin(ph), math.cos(ph)
    # The y axis is the x axis turned by pi/2: (a, b) -> (sin, -cos).
    if axis == 0:
        a, b = cph, sph
    elif axis == 1:
        a, b = sph, -cph
    else:
        raise ValueError(f"axis must be 0..2, got {axis}")
    if not grad:
        return sth * a, None
    g = np.zeros(6)
    g[1] = cth * a
    g[2] = -sth * b
    return sth * a, g


def _coord_vg(axis: int, kap: float, y, grad: bool = True) -> _VG:
    r = y[0]
    sk = sin_k(kap, r)
    d, gd = _dir_vg(axis, y, grad)
    if not grad:
        return sk * d, None
    g = sk * gd
    g[0] = cos_k(kap, r) * d
    return sk * d, g


def _hamilton_flow(kap: float, terms: Callable | None = None) -> Callable:
    """Hamilton equations dy/dt = f(t, y) of T + V on a state array.

    terms(sin_k r, cos_k r, sin theta, cos theta, phi) gives
    (V, V_r, V_theta, V_phi), and f subtracts that force; with terms None
    f is geodesic motion, so (-f[3], -f[4], 0, f[0], f[1], f[2]) is the
    gradient of T.
    """

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r, th, ph, pr, pth, pph = y.tolist()
        sk = sin_k(kap, r)
        if abs(sk) < 1e-12:
            raise DomainSingularity("sin_k(r) vanishes along trajectory")
        sth = math.sin(th)
        if abs(sth) < 1e-12:
            raise DomainSingularity("sin(theta) vanishes along trajectory")
        ck = cos_k(kap, r)
        cth = math.cos(th)
        sk2 = sk * sk
        sth2 = sth * sth
        ang = pth * pth + pph * pph / sth2
        dpr = ck * ang / (sk2 * sk)
        dpth = cth * pph * pph / (sk2 * sth2 * sth)
        dpph = 0.0
        if terms is not None:
            _, vr, vth, vph = terms(sk, ck, sth, cth, ph)
            dpr -= vr
            dpth -= vth
            dpph -= vph
        return np.array((pr, pth / sk2, pph / (sk2 * sth2), dpr, dpth, dpph))

    return rhs


def _az_vg(kap: float, y, grad: bool = True) -> _VG:
    r, th = y[0], y[1]
    ck = cos_k(kap, r)
    if abs(ck) < EPS_DOM:
        raise DomainSingularity("axial anisotropy factor singular at cos_k(r) = 0")
    sk = sin_k(kap, r)
    tk = sk / ck
    cth = math.cos(th)
    u = tk * cth
    den = 1.0 - kap * u * u
    _sin_guard(den, "axial anisotropy factor denominator")
    if not grad:
        return u / den, None
    dadu = (1.0 + kap * u * u) / (den * den)
    g = np.zeros(6)
    g[0] = dadu * cth / (ck * ck)
    g[1] = -dadu * tk * math.sin(th)
    return u / den, g


def _tan_dir_vg(axis: int, kap: float, y, grad: bool = True) -> _VG:
    """tan_k(r) times a direction cosine, with gradient."""
    r = y[0]
    ck = cos_k(kap, r)
    if abs(ck) < EPS_DOM:
        raise DomainSingularity("tan_k(r) singular at cos_k(r) = 0")
    tk = sin_k(kap, r) / ck
    d, gd = _dir_vg(axis, y, grad)
    if not grad:
        return tk * d, None
    g = tk * gd
    g[0] = d / (ck * ck)
    return tk * d, g


# ---------------------------------------------------------------------------
# Observable constructors.

def noether_P(i: int, kappa) -> Observable:
    """Noether momentum P_i generated by the curvature-dependent isometries."""
    kap = float(kappa)
    return Observable(f"P{i}", partial(_p_vg, i, kap))


def angular_J(i: int) -> Observable:
    """Angular momentum component J_i (curvature independent)."""
    return Observable(f"J{i}", partial(_j_vg, i))


def angular_J_squared() -> Observable:
    """Total squared angular momentum J1^2 + J2^2 + J3^2."""
    return Observable("Jsq", _jsq_vg)


def coordinate(axis: int, kappa) -> Observable:
    """Curvature-scaled Cartesian coordinate sin_k(r) times a direction cosine."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1..3, got {axis}")
    kap = float(kappa)
    name = ("xk", "yk", "zk")[axis - 1]
    return Observable(name, partial(_coord_vg, axis - 1, kap))


def direction_cosine(axis: int) -> Observable:
    """Unit-vector component of the configuration ray."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1..3, got {axis}")
    name = ("dx", "dy", "dz")[axis - 1]
    return Observable(name, partial(_dir_vg, axis - 1))


def kappa_cartesian(kappa, q) -> tuple[float, float, float]:
    """Values (x_k, y_k, z_k) of the curvature-scaled Cartesian coordinates.

    q is a ConfigPoint or a phase-space state (PhaseState or 6-vector).
    """
    kap = float(kappa)
    r, th, ph = (q.r, q.theta, q.phi) if isinstance(q, ConfigPoint) else _as6(q)[:3]
    sk = sin_k(kap, r)
    sth, cth = math.sin(th), math.cos(th)
    sph, cph = math.sin(ph), math.cos(ph)
    return sk * sth * cph, sk * sth * sph, sk * cth


def kinetic(kappa) -> Observable:
    """Kinetic energy of the canonical momenta under the metric.

    Its gradient is read off the geodesic Hamilton equations.
    """
    kap = float(kappa)
    flow = _hamilton_flow(kap)

    def vg(y, grad=True):
        r, th, _, pr, pth, pph = y
        sk = sin_k(kap, r)
        _sin_guard(sk, "sin_k(r)")
        sth = math.sin(th)
        _sin_guard(sth, "sin(theta)")
        val = 0.5 * (pr * pr + (pth * pth + (pph / sth) ** 2) / (sk * sk))
        if not grad:
            return val, None
        f = flow(0.0, np.asarray(y)).tolist()
        return val, np.array((-f[3], -f[4], 0.0, f[0], f[1], f[2]))

    return Observable("T", vg)


def fradkin_K(i: int, j: int, kappa, alpha, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Quadratic-tensor entry K_ij of the oscillator family.

    Diagonal entries optionally carry the 2 k_i / (tan_k(r) dir_i)^2
    coupling terms; off-diagonal entries are defined only when all
    couplings vanish.
    """
    kap = float(kappa)
    al = float(alpha)
    ks = (float(k1), float(k2), float(k3))
    if i != j and any(ks):
        raise UnsupportedEntry("off-diagonal entries require k1 = k2 = k3 = 0")
    ia, ja = i - 1, j - 1
    ki = ks[ia]

    def vg(y, grad=True):
        pi, gpi = _p_vg(i, kap, y, grad)
        wi, gwi = _tan_dir_vg(ia, kap, y, grad)
        if i == j:
            val = pi * pi + (al * wi) ** 2
            if ki != 0.0:
                _sin_guard(wi, "tan_k(r) dir_i")
                val += 2.0 * ki / (wi * wi)
            if not grad:
                return val, None
            g = 2.0 * pi * gpi + 2.0 * al * al * wi * gwi
            if ki != 0.0:
                g += (-4.0 * ki / wi**3) * gwi
            return val, g
        pj, gpj = _p_vg(j, kap, y, grad)
        wj, gwj = _tan_dir_vg(ja, kap, y, grad)
        val = pi * pj + al * al * wi * wj
        if not grad:
            return val, None
        return val, pi * gpj + pj * gpi + al * al * (wi * gwj + wj * gwi)

    return Observable(f"K{i}{j}", vg)


@dataclass(frozen=True)
class FradkinMatrix:
    """Symmetric 3x3 matrix of oscillator quadratic-tensor entries at a state."""

    entries: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.array(self.entries)


def fradkin_matrix(kappa, alpha, s) -> FradkinMatrix:
    """Evaluate all six K_ij entries of the pure oscillator at a state."""
    m = np.empty((3, 3))
    for i in range(1, 4):
        m[i - 1, i - 1] = fradkin_K(i, i, kappa, alpha).value(s)
    for i, j in ((1, 2), (2, 3), (3, 1)):
        v = fradkin_K(i, j, kappa, alpha).value(s)
        m[i - 1, j - 1] = v
        m[j - 1, i - 1] = v
    return FradkinMatrix(m)


def complex_M(j: int, kappa, alpha) -> ComplexObservable:
    """Complex pairing P_j + i alpha tan_k(r) dir_j of the oscillator."""
    kap = float(kappa)
    al = float(alpha)
    re = noether_P(j, kap)

    def im_vg(y, grad=True):
        v, g = _tan_dir_vg(j - 1, kap, y, grad)
        return al * v, (al * g if grad else None)

    im = Observable(f"ImM{j}", im_vg)
    return ComplexObservable(f"M{j}", re, im)


_KJ_TERMS = {
    # KJ_i pairs (coupling index, numerator axis, denominator axis)
    1: ((2, 2, 1), (3, 1, 2)),
    2: ((1, 2, 0), (3, 0, 2)),
    3: ((1, 1, 0), (2, 0, 1)),
}


def sw_KJ(i: int, kappa, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Angular-momentum related integral J_i^2 plus two coupling ratios."""
    kap = float(kappa)
    ks = (float(k1), float(k2), float(k3))
    ratios = [
        (ks[kidx - 1], num, den) for kidx, num, den in _KJ_TERMS[i] if ks[kidx - 1] != 0.0
    ]

    def vg(y, grad=True):
        ji, gji = _j_vg(i, y, grad)
        val = ji * ji
        g = 2.0 * ji * gji if grad else None
        for kc, num_ax, den_ax in ratios:
            a, ga = _coord_vg(num_ax, kap, y, grad)
            b, gb = _coord_vg(den_ax, kap, y, grad)
            _sin_guard(b, "coordinate in coupling ratio")
            q = a / b
            val += 2.0 * kc * q * q
            if grad:
                gq = (ga * b - a * gb) / (b * b)
                g = g + 4.0 * kc * q * gq
        return val, g

    return Observable(f"KJ{i}", vg)


def _osc112_az(kappa) -> Observable:
    kap = float(kappa)
    return Observable("Az", partial(_az_vg, kap))


def _osc112_k3(kappa, alpha) -> Observable:
    kap, al = float(kappa), float(alpha)

    def vg(y, grad=True):
        p3, gp3 = _p_vg(3, kap, y, grad)
        a, ga = _az_vg(kap, y, grad)
        val = p3 * p3 + 4.0 * al * al * a * a
        if not grad:
            return val, None
        return val, 2.0 * p3 * gp3 + 8.0 * al * al * a * ga

    return Observable("K3", vg)


def _osc112_k12(kappa, alpha, k1, k2) -> Observable:
    kap, al = float(kappa), float(alpha)

    def vg(y, grad=True):
        p1, gp1 = _p_vg(1, kap, y, grad)
        p2, gp2 = _p_vg(2, kap, y, grad)
        j1, gj1 = _j_vg(1, y, grad)
        j2, gj2 = _j_vg(2, y, grad)
        x, gx = _coord_vg(0, kap, y, grad)
        yy, gy = _coord_vg(1, kap, y, grad)
        a, ga = _az_vg(kap, y, grad)
        w = x * x + yy * yy
        den = 1.0 - kap * w
        _sin_guard(den, "planar anisotropy denominator")
        t = w / den
        coef = 1.0 + 4.0 * kap * a * a
        val = (p1 * p1 + kap * j1 * j1) + (p2 * p2 + kap * j2 * j2) + al * al * coef * t
        g = None
        if grad:
            gt = (2.0 * x * gx + 2.0 * yy * gy) / (den * den)
            g = (
                2.0 * p1 * gp1
                + 2.0 * p2 * gp2
                + 2.0 * kap * (j1 * gj1 + j2 * gj2)
                + al * al * (8.0 * kap * a * t * ga + coef * gt)
            )
        # 2 k (1 - kappa o^2) / c^2 for the coordinate c under the coupling
        # and the other one o, the k2 term first.
        for kc, c, gc, o, go, what in ((k2, yy, gy, x, gx, "y_k"), (k1, x, gx, yy, gy, "x_k")):
            if kc == 0.0:
                continue
            _sin_guard(c, what)
            val += 2.0 * kc * (1.0 - kap * o * o) / (c * c)
            if grad:
                g = g + 2.0 * kc * (
                    -2.0 * kap * o * go / (c * c) - 2.0 * (1.0 - kap * o * o) * gc / c**3
                )
        return val, g

    return Observable("K12", vg)


def _osc112_krl(which: int, kappa, alpha, kc) -> Observable:
    """Runge-Lenz style integral of the 1:1:2 oscillator, which in {1, 2}.

    The anisotropy term is written as alpha^2 A G coord with
    G = tan_k(r) sin(theta) trig(phi) / (cos_k(r) den) and
    den = 1 - kappa (tan_k(r) cos(theta))^2, which stays regular on the
    equatorial plane where the naive tan(theta) factoring does not.
    """
    kap, al = float(kappa), float(alpha)

    def vg(y, grad=True):
        r, th, ph = y[0], y[1], y[2]
        sth, cth = math.sin(th), math.cos(th)
        sph, cph = math.sin(ph), math.cos(ph)
        ck = cos_k(kap, r)
        if abs(ck) < EPS_DOM:
            raise DomainSingularity("cos_k(r) vanishes")
        sk = sin_k(kap, r)
        tk = sk / ck
        u = tk * cth
        den = 1.0 - kap * u * u
        _sin_guard(den, "axial anisotropy denominator")
        a, ga = _az_vg(kap, y, grad)
        z, gz = _coord_vg(2, kap, y, grad)
        if which == 1:
            p, gp = _p_vg(1, kap, y, grad)
            j, gj = _j_vg(2, y, grad)
            c, gc = _coord_vg(0, kap, y, grad)
            trig, dtrig_ph = cph, -sph
            sign = -1.0
        else:
            p, gp = _p_vg(2, kap, y, grad)
            j, gj = _j_vg(1, y, grad)
            c, gc = _coord_vg(1, kap, y, grad)
            trig, dtrig_ph = sph, cph
            sign = 1.0
        q = tk / ck
        fac = q * sth * trig / den
        val = sign * p * j + al * al * a * fac * c
        if kc != 0.0:
            _sin_guard(c, "coordinate under coupling")
            val -= 2.0 * kc * ck * z / (c * c)
        if not grad:
            return val, None
        dqdr = (ck * ck + 2.0 * kap * sk * sk) / ck**3
        gfac = np.zeros(6)
        gfac[0] = sth * trig * (
            dqdr / den + 2.0 * kap * u * q * cth / (ck * ck * den * den)
        )
        gfac[1] = q * trig * (cth / den - 2.0 * kap * u * tk * sth * sth / (den * den))
        gfac[2] = q * sth * dtrig_ph / den
        g = sign * (j * gp + p * gj)
        g = g + al * al * (fac * c * ga + a * c * gfac + a * fac * gc)
        if kc != 0.0:
            coup = ck * (gz / (c * c) - 2.0 * z * gc / c**3)
            coup[0] += -kap * sk * z / (c * c)
            g = g - 2.0 * kc * coup
        return val, g

    return Observable(f"KRL{which}", vg)


def osc112_observables(kappa, alpha, k1=0.0, k2=0.0) -> dict:
    """Named observables of the 1:1:2 oscillator with planar couplings."""
    k1, k2 = float(k1), float(k2)
    return {
        "Az": _osc112_az(kappa),
        "K3": _osc112_k3(kappa, alpha),
        "KJ3": sw_KJ(3, kappa, k1=k1, k2=k2),
        "K12": _osc112_k12(kappa, alpha, k1, k2),
        "KRL1": _osc112_krl(1, kappa, alpha, k1),
        "KRL2": _osc112_krl(2, kappa, alpha, k2),
    }


_CYCLE = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def kepler_RL(i: int, kappa, k) -> Observable:
    """Runge-Lenz component P_j J_l - P_l J_j + k dir_i of the Kepler system."""
    kap, kc = float(kappa), float(k)
    j, l = _CYCLE[i]

    def vg(y, grad=True):
        pj, gpj = _p_vg(j, kap, y, grad)
        pl, gpl = _p_vg(l, kap, y, grad)
        jj, gjj = _j_vg(j, y, grad)
        jl, gjl = _j_vg(l, y, grad)
        d, gd = _dir_vg(i - 1, y, grad)
        val = pj * jl - pl * jj + kc * d
        if not grad:
            return val, None
        g = jl * gpj + pj * gjl - jj * gpl - pl * gjj + kc * gd
        return val, g

    return Observable(f"KRL{i}", vg)


def _coupling_terms(ks, sk, ck, sth, cth, ph) -> tuple[float, float, float, float]:
    """U = sum k_i / coord_i^2 over the nonzero couplings and its partials
    (U, U_r, U_theta, U_phi) in plain floats, from sin_k r, cos_k r,
    sin theta, cos theta and phi."""
    u = ur = uth = uph = 0.0
    k1, k2, k3 = ks
    if k1 != 0.0 or k2 != 0.0:
        sph, cph = math.sin(ph), math.cos(ph)
    if k1 != 0.0:
        x = sk * sth * cph
        if abs(x) < 1e-12:
            raise DomainSingularity("x coordinate vanishes under coupling")
        c = -2.0 * k1 / (x * x * x)
        u += k1 / (x * x)
        ur += c * ck * sth * cph
        uth += c * sk * cth * cph
        uph += c * (-sk * sth * sph)
    if k2 != 0.0:
        yy = sk * sth * sph
        if abs(yy) < 1e-12:
            raise DomainSingularity("y coordinate vanishes under coupling")
        c = -2.0 * k2 / (yy * yy * yy)
        u += k2 / (yy * yy)
        ur += c * ck * sth * sph
        uth += c * sk * cth * sph
        uph += c * sk * sth * cph
    if k3 != 0.0:
        z = sk * cth
        if abs(z) < 1e-12:
            raise DomainSingularity("z coordinate vanishes under coupling")
        c = -2.0 * k3 / (z * z * z)
        u += k3 / (z * z)
        ur += c * ck * cth
        uth += c * (-sk * sth)
    return u, ur, uth, uph


def k123_R(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Runge-Lenz component corrected by the inverse-square couplings."""
    kap = float(kappa)
    ks = (float(k1), float(k2), float(k3))
    base = kepler_RL(i, kappa, k)

    def vg(y, grad=True):
        val, g = base._vg(y, grad)
        if any(ks):
            sk, ck = sin_k(kap, y[0]), cos_k(kap, y[0])
            u, ur, uth, uph = _coupling_terms(ks, sk, ck, math.sin(y[1]), math.cos(y[1]), y[2])
            cs = ck * sk
            d, gd = _dir_vg(i - 1, y, grad)
            val += 2.0 * cs * d * u
            if grad:
                gu = np.array((ur, uth, uph, 0.0, 0.0, 0.0))
                g = g + 2.0 * (cs * u * gd + cs * d * gu)
                g[0] += 2.0 * (ck * ck - kap * sk * sk) * d * u
        return val, g

    return Observable(f"R{i}", vg)


def k123_S(i: int, kappa) -> Observable:
    """Scaled radial momentum p_r sin_k(r) divided by the i-th coordinate.

    That is p_r over the i-th direction cosine, so kappa drops out; the
    argument keeps the signature of the other kepler123 constructors.
    """

    def vg(y, grad=True):
        pr = y[3]
        d, gd = _dir_vg(i - 1, y, grad)
        _sin_guard(d, "direction cosine")
        val = pr / d
        if not grad:
            return val, None
        g = -pr * gd / (d * d)
        g[3] += 1.0 / d
        return val, g

    return Observable(f"S{i}", vg)


def k123_N(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> ComplexObservable:
    """Complex pairing R_i + i sqrt(2 k_i) p_r sin_k(r)/coord_i."""
    ks = (float(k1), float(k2), float(k3))
    ki = ks[i - 1]
    if ki < 0.0:
        raise NegativeCoupling(f"k{i} must be nonnegative for the complex pairing")
    re = k123_R(i, kappa, k, *ks)
    root = math.sqrt(2.0 * ki)
    s_obs = k123_S(i, kappa)

    def im_vg(y, grad=True):
        v, g = s_obs._vg(y, grad)
        return root * v, (root * g if grad else None)

    im = Observable(f"ImN{i}", im_vg)
    return ComplexObservable(f"N{i}", re, im)


def k123_KR(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Quartic integral R_i^2 + 2 k_i (p_r sin_k(r)/coord_i)^2."""
    ks = (float(k1), float(k2), float(k3))
    ki = ks[i - 1]
    if ki < 0.0:
        raise NegativeCoupling(f"k{i} must be nonnegative for the quartic integral")
    r_obs = k123_R(i, kappa, k, *ks)
    s_obs = k123_S(i, kappa)

    def vg(y, grad=True):
        rv, rg = r_obs._vg(y, grad)
        sv, sg = s_obs._vg(y, grad)
        val = rv * rv + 2.0 * ki * sv * sv
        if not grad:
            return val, None
        return val, 2.0 * rv * rg + 4.0 * ki * sv * sg

    return Observable(f"KR{i}", vg)


# ---------------------------------------------------------------------------
# Small assembly helpers for sums and squares of cataloged observables.

def scaled_sum(name: str, terms: list[tuple[float, Observable]]) -> Observable:
    """Linear combination sum_j c_j f_j with the matching gradient."""

    def vg(y, grad=True):
        val = 0.0
        g = np.zeros(6) if grad else None
        for c, obs in terms:
            v, gv = obs._vg(y, grad)
            val += c * v
            if grad:
                g = g + c * gv
        return val, g

    return Observable(name, vg, tuple(terms))


def square(obs: Observable, name: str | None = None) -> Observable:
    """Pointwise square f^2 with gradient 2 f grad f."""

    def vg(y, grad=True):
        v, g = obs._vg(y, grad)
        return v * v, (2.0 * v * g if grad else None)

    return Observable(name or f"{obs.name}^2", vg)
