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
the Killing fields that are their momentum gradients.  An observable is
one piece with the kappa whose kernels it reads, so an evaluation, of a
sum or square too, takes one trigonometry pass: one tuple of sin_k(r),
cos_k(r) and the angle sines and cosines (geometry._trig), which all of
its pieces read.  Code that holds many states builds that tuple once
per state and calls each piece on it.  A constructor given a kappa,
alpha, k or k_i that is not finite raises ValueError.  A finite
difference cross-check of every gradient lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .geometry import _VG, _ZERO, _j_vg, _lin, _p_vg, _quot, _scale, _trig
from .kappa_core import DomainSingularity, EPS_DOM, EPS_SING, _finite, sin_cos_k

__all__ = [
    "Observable",
    "ComplexObservable",
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


_F64 = np.dtype(np.float64)


def _as6(s) -> Sequence[float]:
    """A state as six floats, from six numbers in any container; any other
    length or shape raises ValueError.  A float64 array gives its tolist,
    anything else a tuple (indexing beats iterating on a list or tuple)."""
    if type(s) is np.ndarray:
        if s.dtype is _F64 and s.ndim == 1:
            y = s.tolist()
            if len(y) == 6:
                return y
        if s.shape != (6,):
            raise ValueError(f"a state must be a 6-vector, got shape {s.shape}")
    elif len(s) != 6:
        raise ValueError(f"a state must be a 6-vector, got {len(s)} values")
    return (float(s[0]), float(s[1]), float(s[2]), float(s[3]), float(s[4]), float(s[5]))


@dataclass(frozen=True)
class Observable:
    """Real phase-space function with value and analytic gradient.

    ``piece(t, y, grad=True)`` maps a 6-tuple ``y`` to ``(value, gradient)``,
    the gradient a tuple of six floats, or ``(value, None)`` with ``grad``
    false, which runs the same formulas and domain guards.  It reads
    ``sin_k r`` and ``cos_k r`` of ``kappa`` (None: neither) and the angle
    sines and cosines from the tuple ``t = geometry._trig(_sc, y)``, ``_sc``
    being the kernels bound once, at construction.  A piece of one's own may
    return any six-entry sequence, a numpy array too: composites index it.
    ``gradient`` and ``value_and_gradient`` return a new float64 array.
    """

    name: str
    piece: Callable = field(repr=False, compare=False)
    kappa: float | None = field(default=None, repr=False, compare=False)
    _sc: Callable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sc", None if self.kappa is None else sin_cos_k(self.kappa))

    def value(self, s) -> float:
        y = _as6(s)
        return self.piece(_trig(self._sc, y), y, False)[0]

    def gradient(self, s) -> np.ndarray:
        y = _as6(s)
        return np.array(self.piece(_trig(self._sc, y), y, True)[1], float)

    def value_and_gradient(self, s) -> tuple[float, np.ndarray]:
        y = _as6(s)
        v, g = self.piece(_trig(self._sc, y), y, True)
        return v, np.array(g, float)


@dataclass(frozen=True)
class ComplexObservable:
    """Complex function exposed as a pair of real observables."""

    name: str
    re: Observable
    im: Observable

    def value(self, s) -> complex:
        return complex(self.re.value(s), self.im.value(s))


# ---------------------------------------------------------------------------
# Value-and-gradient pieces.  Each returns (value, gradient), the gradient
# a tuple of six floats that geometry._scale, _lin and _quot combine, or
# (value, None) when called with grad false.  The momenta P_i and J_i are
# geometry._p_vg and geometry._j_vg.  Every piece reads sin_k(r), cos_k(r)
# and the angle sines and cosines from one tuple t (geometry._trig).

def _jsq_vg(t, y, grad: bool = True) -> _VG:
    pth, pph = y[4], y[5]
    sth, cth = t[2], t[3]
    if abs(sth) < EPS_SING:
        raise DomainSingularity("sin(theta) vanishes")
    q = pph / sth
    val = pth * pth + q * q
    if not grad:
        return val, None
    return val, (0.0, -2.0 * pph * pph * cth / sth**3, 0.0, 0.0,
                 2.0 * pth, 2.0 * pph / (sth * sth))


def _dir_vg(axis: int, t, y, grad: bool = True) -> _VG:
    """Direction cosine sin(theta) a, with the planar pair (a, b) of the
    momenta (geometry._p_vg), for the x and y axes; cos(theta) for z."""
    sth, cth = t[2], t[3]
    if axis == 2:
        return cth, ((0.0, -sth, 0.0, 0.0, 0.0, 0.0) if grad else None)
    if axis == 0:
        a, b = t[5], t[4]
    else:
        a, b = t[4], -t[5]
    return sth * a, ((0.0, cth * a, -sth * b, 0.0, 0.0, 0.0) if grad else None)


def _coord_vg(axis: int, t, y, grad: bool = True) -> _VG:
    sk = t[0]
    if not grad:
        # sk times _dir_vg's value, read straight from t.
        if axis == 2:
            return sk * t[3], None
        return sk * (t[2] * (t[5] if axis == 0 else t[4])), None
    d, gd = _dir_vg(axis, t, y)
    return sk * d, (t[1] * d, sk * gd[1], sk * gd[2], sk * gd[3], sk * gd[4], sk * gd[5])


def _hamilton_flow(sc, terms: Callable | None = None) -> Callable:
    """Hamilton equations dy/dt = f(t, y) of T + V on six floats.

    f takes any sequence of six numbers and returns a tuple of six floats;
    integrate steps on it as it is.  terms(sin_k r, cos_k r, sin theta,
    cos theta, phi) gives (V, V_r, V_theta, V_phi), and f subtracts that
    force; with terms None f is geodesic motion, so (-f[3], -f[4], 0, f[0],
    f[1], f[2]) is the gradient of T.  sin_k r and cos_k r come from one
    call of sc, the kernels bound to kappa, and the names f reads are bound
    once too: on a six-vector their lookups cost about a tenth of an
    evaluation.  A y of another length, or a math domain error at a
    non-finite state, raises as _stop_if_non_finite says.
    """
    sin, cos, eps = math.sin, math.cos, EPS_SING

    def flow(t: float, y) -> tuple:
        try:
            r, th, ph, pr, pth, pph = y
            sk, ck = sc(r)
            if abs(sk) < eps:
                raise DomainSingularity("sin_k(r) vanishes along trajectory")
            sth = sin(th)
            if abs(sth) < eps:
                raise DomainSingularity("sin(theta) vanishes along trajectory")
            cth = cos(th)
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
        except ValueError as exc:
            _stop_if_non_finite(exc, y)
            raise
        return (pr, pth / sk2, pph / (sk2 * sth2), dpr, dpth, dpph)

    return flow


def _stop_if_non_finite(exc: ValueError, y) -> None:
    """For an rhs that caught exc at state y: a y that is not six numbers
    raises ValueError naming its length, and at a y with a non-finite entry
    anything but a DomainSingularity (math.sin raises ValueError on an
    infinite argument) becomes OverflowError, on which a run stops.
    Otherwise this returns, for the caller to re-raise."""
    if len(y) != 6:
        raise ValueError(f"a state must be a 6-vector, got {len(y)} values") from None
    if not isinstance(exc, DomainSingularity) and not all(map(math.isfinite, y)):
        raise OverflowError(f"non-finite state {tuple(y)}") from None


def _az_parts(kap: float, t) -> tuple[float, float, float]:
    """(tan_k r, u, den) of A = u/den, u = tan_k(r) cos(theta), den = 1 - kappa u^2."""
    sk, ck = t[0], t[1]
    if abs(ck) < EPS_DOM:
        raise DomainSingularity("axial anisotropy factor singular at cos_k(r) = 0")
    tk = sk / ck
    u = tk * t[3]
    den = 1.0 - kap * u * u
    if abs(den) < EPS_SING:
        raise DomainSingularity("axial anisotropy factor denominator vanishes")
    return tk, u, den


def _az_vg(kap: float, t, y, grad: bool = True) -> _VG:
    tk, u, den = _az_parts(kap, t)
    if not grad:
        return u / den, None
    dadu = (1.0 + kap * u * u) / (den * den)
    return u / den, (dadu * t[3] / (t[1] * t[1]), -dadu * tk * t[2], 0.0, 0.0, 0.0, 0.0)


def _tan_dir_vg(axis: int, t, y, grad: bool = True) -> _VG:
    """tan_k(r) times a direction cosine, with gradient."""
    sk, ck = t[0], t[1]
    if abs(ck) < EPS_DOM:
        raise DomainSingularity("tan_k(r) singular at cos_k(r) = 0")
    tk = sk / ck
    if not grad:
        # tk times _dir_vg's value, read straight from t.
        if axis == 2:
            return tk * t[3], None
        return tk * (t[2] * (t[5] if axis == 0 else t[4])), None
    d, gd = _dir_vg(axis, t, y)
    return tk * d, (d / (ck * ck), tk * gd[1], tk * gd[2], tk * gd[3], tk * gd[4], tk * gd[5])


# ---------------------------------------------------------------------------
# Observable constructors.  The pieces read an index as given, so each
# constructor checks it first.

def _index(i: int, what: str = "index") -> int:
    """i if it is 1, 2 or 3; anything else raises ValueError."""
    if i not in (1, 2, 3):
        raise ValueError(f"{what} must be 1..3, got {i}")
    return i


def noether_P(i: int, kappa) -> Observable:
    """Noether momentum P_i generated by the curvature-dependent isometries."""
    return Observable(f"P{_index(i)}", partial(_p_vg, i), kappa)


def angular_J(i: int) -> Observable:
    """Angular momentum component J_i (curvature independent)."""
    return Observable(f"J{_index(i)}", partial(_j_vg, i))


def angular_J_squared() -> Observable:
    """Total squared angular momentum J1^2 + J2^2 + J3^2."""
    return Observable("Jsq", _jsq_vg)


def coordinate(axis: int, kappa) -> Observable:
    """Curvature-scaled Cartesian coordinate sin_k(r) times a direction cosine."""
    name = ("xk", "yk", "zk")[_index(axis, "axis") - 1]
    return Observable(name, partial(_coord_vg, axis - 1), kappa)


def direction_cosine(axis: int) -> Observable:
    """Unit-vector component of the configuration ray."""
    name = ("dx", "dy", "dz")[_index(axis, "axis") - 1]
    return Observable(name, partial(_dir_vg, axis - 1))


def kappa_cartesian(kappa, s) -> tuple[float, float, float]:
    """Values (x_k, y_k, z_k) of the curvature-scaled Cartesian coordinates
    at a 6-vector state."""
    return _cartesian(_trig(sin_cos_k(kappa), _as6(s)))


def _cartesian(t) -> tuple[float, float, float]:
    """kappa_cartesian from the tuple t of a state."""
    sk, _, sth, cth, sph, cph = t
    return sk * sth * cph, sk * sth * sph, sk * cth


def kinetic(kappa) -> Observable:
    """Kinetic energy (p_r^2 + J^2 / sin_k(r)^2) / 2, J^2 as Jsq gives it,
    whose gradient is read off the geodesic Hamilton equations at the state."""
    flow = _hamilton_flow(sin_cos_k(kappa))

    def vg(t, y, grad=True):
        sk, pr = t[0], y[3]
        if abs(sk) < EPS_SING:
            raise DomainSingularity("sin_k(r) vanishes")
        val = 0.5 * (pr * pr + _jsq_vg(t, y, False)[0] / (sk * sk))
        if not grad:
            return val, None
        f = flow(0.0, y)
        return val, (-f[3], -f[4], 0.0, f[0], f[1], f[2])

    return Observable("T", vg, kappa)


def _fradkin_vg(i: int, j: int, al: float, ki: float, t, y, grad: bool = True) -> _VG:
    """K_ij = P_i P_j + alpha^2 w_i w_j, w_i = tan_k(r) dir_i, plus 2 ki / w_i^2 if i = j."""
    pi, gpi = _p_vg(i, t, y, grad)
    wi, gwi = _tan_dir_vg(i - 1, t, y, grad)
    if i == j:
        try:
            val = pi * pi + (al * wi) ** 2
        except OverflowError:
            # make_system admits any alpha whose square fits; this one's
            # product with w_i does not.
            raise OverflowError(f"alpha = {al!r} is too large: (alpha w_{i})**2 "
                                f"overflows in K_{i}{i}") from None
        if ki != 0.0:
            if abs(wi) < EPS_SING:
                raise DomainSingularity("tan_k(r) dir_i vanishes")
            val += 2.0 * ki / (wi * wi)
        if not grad:
            return val, None
        g = _lin(2.0 * pi, gpi, 2.0 * al * al * wi, gwi)
        if ki != 0.0:
            g = _lin(1.0, g, -4.0 * ki / wi**3, gwi)
        return val, g
    pj, gpj = _p_vg(j, t, y, grad)
    wj, gwj = _tan_dir_vg(j - 1, t, y, grad)
    val = pi * pj + al * al * wi * wj
    if not grad:
        return val, None
    return val, _lin(1.0, _lin(pi, gpj, pj, gpi), al * al, _lin(wi, gwj, wj, gwi))


def fradkin_K(i: int, j: int, kappa, alpha, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Quadratic-tensor entry K_ij of the oscillator family, whose diagonal
    entries carry the couplings; off-diagonal ones need k1 = k2 = k3 = 0."""
    i, j = _index(i), _index(j)
    al = _finite(alpha, "alpha")
    ks = _couplings(k1, k2, k3)
    if i != j and any(ks):
        raise UnsupportedEntry("off-diagonal entries require k1 = k2 = k3 = 0")
    return Observable(f"K{i}{j}", partial(_fradkin_vg, i, j, al, ks[i - 1]), kappa)


def fradkin_matrix(kappa, alpha, s) -> np.ndarray:
    """The symmetric 3x3 matrix of the six K_ij entries of the pure
    oscillator at a state."""
    al, sc, y = _finite(alpha, "alpha"), sin_cos_k(kappa), _as6(s)
    return _fradkin_m(al, _trig(sc, y), y)


def _fradkin_m(al: float, t, y) -> np.ndarray:
    """fradkin_matrix read off the tuple t of the state y."""
    m = np.empty((3, 3))
    for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)):
        m[i - 1, j - 1] = m[j - 1, i - 1] = _fradkin_vg(i, j, al, 0.0, t, y, False)[0]
    return m


def complex_M(j: int, kappa, alpha) -> ComplexObservable:
    """Complex pairing P_j + i alpha tan_k(r) dir_j of the oscillator."""
    al = _finite(alpha, "alpha")
    re = noether_P(j, kappa)

    def im_vg(t, y, grad=True):
        v, g = _tan_dir_vg(j - 1, t, y, grad)
        return al * v, (_scale(al, g) if grad else None)

    im = Observable(f"ImM{j}", im_vg, kappa)
    return ComplexObservable(f"M{j}", re, im)


_KJ_TERMS = {
    # KJ_i pairs (coupling index, numerator axis, denominator axis)
    1: ((2, 2, 1), (3, 1, 2)),
    2: ((1, 2, 0), (3, 0, 2)),
    3: ((1, 1, 0), (2, 0, 1)),
}


def sw_KJ(i: int, kappa, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Angular-momentum related integral J_i^2 plus two coupling ratios."""
    kap, ks = _finite(kappa), _couplings(k1, k2, k3)
    ratios = [
        (ks[kidx - 1], num, den) for kidx, num, den in _KJ_TERMS[_index(i)] if ks[kidx - 1] != 0.0
    ]

    def vg(t, y, grad=True):
        ji, gji = _j_vg(i, t, y, grad)
        val = ji * ji
        g = _scale(2.0 * ji, gji) if grad else None
        for kc, num_ax, den_ax in ratios:
            a, ga = _coord_vg(num_ax, t, y, grad)
            b, gb = _coord_vg(den_ax, t, y, grad)
            if abs(b) < EPS_SING:
                raise DomainSingularity("coordinate in coupling ratio vanishes")
            q = a / b
            val += 2.0 * kc * q * q
            if grad:
                gq = _quot(1.0, _lin(b, ga, -a, gb), b * b)
                g = _lin(1.0, g, 4.0 * kc * q, gq)
        return val, g

    return Observable(f"KJ{i}", vg, kap if ratios else None)


def _couplings(*ks) -> tuple:
    """The couplings k1, k2, ... as floats; a non-finite one raises ValueError."""
    return tuple(_finite(k, f"k{n}") for n, k in enumerate(ks, 1))


def _osc112_k3(kappa, alpha) -> Observable:
    kap, al = float(kappa), float(alpha)

    def vg(t, y, grad=True):
        p3, gp3 = _p_vg(3, t, y, grad)
        a, ga = _az_vg(kap, t, y, grad)
        val = p3 * p3 + 4.0 * al * al * a * a
        if not grad:
            return val, None
        return val, _lin(2.0 * p3, gp3, 8.0 * al * al * a, ga)

    return Observable("K3", vg, kappa)


def _osc112_k12(kappa, alpha, k1, k2) -> Observable:
    kap, al = float(kappa), float(alpha)

    def vg(t, y, grad=True):
        p1, gp1 = _p_vg(1, t, y, grad)
        p2, gp2 = _p_vg(2, t, y, grad)
        j1, gj1 = _j_vg(1, t, y, grad)
        j2, gj2 = _j_vg(2, t, y, grad)
        x, gx = _coord_vg(0, t, y, grad)
        yy, gy = _coord_vg(1, t, y, grad)
        a, ga = _az_vg(kap, t, y, grad)
        w = x * x + yy * yy
        den = 1.0 - kap * w
        if abs(den) < EPS_SING:
            raise DomainSingularity("planar anisotropy denominator vanishes")
        t = w / den
        coef = 1.0 + 4.0 * kap * a * a
        val = (p1 * p1 + kap * j1 * j1) + (p2 * p2 + kap * j2 * j2) + al * al * coef * t
        g = None
        if grad:
            gt = _quot(1.0, _lin(2.0 * x, gx, 2.0 * yy, gy), den * den)
            g = _lin(2.0 * p1, gp1, 2.0 * p2, gp2)
            g = _lin(1.0, g, 2.0 * kap, _lin(j1, gj1, j2, gj2))
            g = _lin(1.0, g, al * al, _lin(8.0 * kap * a * t, ga, coef, gt))
        # 2 k (1 - kappa o^2) / c^2 for the coordinate c under the coupling
        # and the other one o, the k2 term first.
        for kc, c, gc, o, go, what in ((k2, yy, gy, x, gx, "y_k"), (k1, x, gx, yy, gy, "x_k")):
            if kc == 0.0:
                continue
            if abs(c) < EPS_SING:
                raise DomainSingularity(f"{what} vanishes")
            val += 2.0 * kc * (1.0 - kap * o * o) / (c * c)
            if grad:
                dc = _lin(1.0, _quot(-2.0 * kap * o, go, c * c),
                          -1.0, _quot(2.0 * (1.0 - kap * o * o), gc, c**3))
                g = _lin(1.0, g, 2.0 * kc, dc)
        return val, g

    return Observable("K12", vg, kappa)


def _osc112_krl(which: int, kappa, alpha, kc) -> Observable:
    """Runge-Lenz style integral of the 1:1:2 oscillator, which in {1, 2}.

    The anisotropy term is written as alpha^2 A G coord with
    G = tan_k(r) sin(theta) trig(phi) / (cos_k(r) den) and
    den = 1 - kappa (tan_k(r) cos(theta))^2, which stays regular on the
    equatorial plane where the naive tan(theta) factoring does not.
    """
    kap, al = float(kappa), float(alpha)

    def vg(t, y, grad=True):
        sk, ck, sth, cth, sph, cph = t
        tk, u, den = _az_parts(kap, t)
        a, ga = _az_vg(kap, t, y, grad)
        z, gz = _coord_vg(2, t, y, grad)
        if which == 1:
            p, gp = _p_vg(1, t, y, grad)
            j, gj = _j_vg(2, t, y, grad)
            c, gc = _coord_vg(0, t, y, grad)
            trig, dtrig_ph = cph, -sph
            sign = -1.0
        else:
            p, gp = _p_vg(2, t, y, grad)
            j, gj = _j_vg(1, t, y, grad)
            c, gc = _coord_vg(1, t, y, grad)
            trig, dtrig_ph = sph, cph
            sign = 1.0
        q = tk / ck
        fac = q * sth * trig / den
        val = sign * p * j + al * al * a * fac * c
        if kc != 0.0:
            if abs(c) < EPS_SING:
                raise DomainSingularity("coordinate under coupling vanishes")
            val -= 2.0 * kc * ck * z / (c * c)
        if not grad:
            return val, None
        dqdr = (ck * ck + 2.0 * kap * sk * sk) / ck**3
        gfac = (sth * trig * (dqdr / den + 2.0 * kap * u * q * cth / (ck * ck * den * den)),
                q * trig * (cth / den - 2.0 * kap * u * tk * sth * sth / (den * den)),
                q * sth * dtrig_ph / den, 0.0, 0.0, 0.0)
        g = _scale(sign, _lin(j, gp, p, gj))
        g = _lin(1.0, g, al * al, _lin(1.0, _lin(fac * c, ga, a * c, gfac), a * fac, gc))
        if kc != 0.0:
            coup = _scale(ck, _lin(1.0, _quot(1.0, gz, c * c), -1.0, _quot(2.0 * z, gc, c**3)))
            coup = (coup[0] - kap * sk * z / (c * c),) + coup[1:]
            g = _lin(1.0, g, -2.0 * kc, coup)
        return val, g

    return Observable(f"KRL{which}", vg, kappa)


def osc112_observables(kappa, alpha, k1=0.0, k2=0.0) -> dict:
    """Named observables of the 1:1:2 oscillator with planar couplings."""
    alpha, (k1, k2) = _finite(alpha, "alpha"), _couplings(k1, k2)
    return {
        "Az": Observable("Az", partial(_az_vg, float(kappa)), kappa),
        "K3": _osc112_k3(kappa, alpha),
        "KJ3": sw_KJ(3, kappa, k1=k1, k2=k2),
        "K12": _osc112_k12(kappa, alpha, k1, k2),
        "KRL1": _osc112_krl(1, kappa, alpha, k1),
        "KRL2": _osc112_krl(2, kappa, alpha, k2),
    }


_CYCLE = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def _kepler_rl_piece(i: int, k) -> Callable:
    (j, l), kc = _CYCLE[_index(i)], _finite(k, "k")

    def vg(t, y, grad=True):
        pj, gpj = _p_vg(j, t, y, grad)
        pl, gpl = _p_vg(l, t, y, grad)
        jj, gjj = _j_vg(j, t, y, grad)
        jl, gjl = _j_vg(l, t, y, grad)
        d, gd = _dir_vg(i - 1, t, y, grad)
        val = pj * jl - pl * jj + kc * d
        if not grad:
            return val, None
        g = _lin(1.0, _lin(jl, gpj, pj, gjl), -jj, gpl)
        return val, _lin(1.0, _lin(1.0, g, -pl, gjj), kc, gd)

    return vg


def kepler_RL(i: int, kappa, k) -> Observable:
    """Runge-Lenz component P_j J_l - P_l J_j + k dir_i of the Kepler system."""
    return Observable(f"KRL{i}", _kepler_rl_piece(i, k), kappa)


def _coupling_terms(ks, sk, ck, sth, cth, ph, grad=True):
    """U = sum k_i / coord_i^2 over the nonzero couplings and its partials
    (U, U_r, U_theta, U_phi) in plain floats, or U alone with grad false,
    from sin_k r, cos_k r, sin theta, cos theta and phi."""
    u = ur = uth = uph = 0.0
    k1, k2, k3 = ks
    if k1 != 0.0 or k2 != 0.0:
        sph, cph = math.sin(ph), math.cos(ph)
    if k1 != 0.0:
        x = sk * sth * cph
        if abs(x) < EPS_SING:
            raise DomainSingularity("x coordinate vanishes under coupling")
        u += k1 / (x * x)
        if grad:
            c = -2.0 * k1 / (x * x * x)
            ur += c * ck * sth * cph
            uth += c * sk * cth * cph
            uph += c * (-sk * sth * sph)
    if k2 != 0.0:
        yy = sk * sth * sph
        if abs(yy) < EPS_SING:
            raise DomainSingularity("y coordinate vanishes under coupling")
        u += k2 / (yy * yy)
        if grad:
            c = -2.0 * k2 / (yy * yy * yy)
            ur += c * ck * sth * sph
            uth += c * sk * cth * sph
            uph += c * sk * sth * cph
    if k3 != 0.0:
        z = sk * cth
        if abs(z) < EPS_SING:
            raise DomainSingularity("z coordinate vanishes under coupling")
        u += k3 / (z * z)
        if grad:
            c = -2.0 * k3 / (z * z * z)
            ur += c * ck * cth
            uth += c * (-sk * sth)
    return (u, ur, uth, uph) if grad else u


def _k123_r_piece(i: int, kappa, k, ks) -> Callable:
    kap, base = float(kappa), _kepler_rl_piece(i, k)

    def vg(t, y, grad=True):
        val, g = base(t, y, grad)
        if any(ks):
            sk, ck, sth, cth, _, _ = t
            u = _coupling_terms(ks, sk, ck, sth, cth, y[2], grad)
            if grad:
                u, ur, uth, uph = u
            cs = ck * sk
            d, gd = _dir_vg(i - 1, t, y, grad)
            val += 2.0 * cs * d * u
            if grad:
                g = _lin(1.0, g, 2.0, _lin(cs * u, gd, cs * d, (ur, uth, uph, 0.0, 0.0, 0.0)))
                g = (g[0] + 2.0 * (ck * ck - kap * sk * sk) * d * u,) + g[1:]
        return val, g

    return vg


def k123_R(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Runge-Lenz component corrected by the inverse-square couplings."""
    return Observable(f"R{i}", _k123_r_piece(i, kappa, k, _couplings(k1, k2, k3)), kappa)


def _k123_s_vg(i: int, t, y, grad: bool = True) -> _VG:
    pr = y[3]
    d, gd = _dir_vg(i - 1, t, y, grad)
    if abs(d) < EPS_SING:
        raise DomainSingularity("direction cosine vanishes")
    val = pr / d
    if not grad:
        return val, None
    g = _quot(-pr, gd, d * d)
    return val, (g[0], g[1], g[2], g[3] + 1.0 / d, g[4], g[5])


def k123_S(i: int, kappa) -> Observable:
    """Scaled radial momentum p_r sin_k(r) divided by the i-th coordinate.

    That is p_r over the i-th direction cosine, so kappa drops out; the
    argument keeps the signature of the other kepler123 constructors.
    """
    return Observable(f"S{_index(i)}", partial(_k123_s_vg, i))


def k123_N(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> ComplexObservable:
    """Complex pairing R_i + i sqrt(2 k_i) p_r sin_k(r)/coord_i."""
    ks = _couplings(k1, k2, k3)
    ki = ks[i - 1]
    if ki < 0.0:
        raise NegativeCoupling(f"k{i} must be nonnegative for the complex pairing")
    re = k123_R(i, kappa, k, *ks)
    root = math.sqrt(2.0 * ki)

    def im_vg(t, y, grad=True):
        v, g = _k123_s_vg(i, t, y, grad)
        return root * v, (_scale(root, g) if grad else None)

    im = Observable(f"ImN{i}", im_vg)
    return ComplexObservable(f"N{i}", re, im)


def k123_KR(i: int, kappa, k, k1=0.0, k2=0.0, k3=0.0) -> Observable:
    """Quartic integral R_i^2 + 2 k_i (p_r sin_k(r)/coord_i)^2."""
    ks = _couplings(k1, k2, k3)
    ki = ks[i - 1]
    if ki < 0.0:
        raise NegativeCoupling(f"k{i} must be nonnegative for the quartic integral")
    r_vg = _k123_r_piece(i, kappa, k, ks)

    def vg(t, y, grad=True):
        rv, rg = r_vg(t, y, grad)
        sv, sg = _k123_s_vg(i, t, y, grad)
        val = rv * rv + 2.0 * ki * sv * sv
        if not grad:
            return val, None
        return val, _lin(2.0 * rv, rg, 4.0 * ki * sv, sg)

    return Observable(f"KR{i}", vg, kappa)


# ---------------------------------------------------------------------------
# Small assembly helpers for sums and squares of cataloged observables.

def scaled_sum(name: str, terms: list[tuple[float, Observable]]) -> Observable:
    """Linear combination sum_j c_j f_j with the matching gradient.  Its
    piece runs the terms' pieces on one tuple and sums their values and
    gradients in order; terms of different kappa raise ValueError."""
    kappas = {obs.kappa for _, obs in terms} - {None}
    if len(kappas) > 1:
        raise ValueError(f"scaled_sum {name!r} mixes terms of kappa {sorted(kappas)}")
    pieces = [(c, obs.piece) for c, obs in terms]

    def vg(t, y, grad=True):
        val, g = 0.0, _ZERO
        for c, piece in pieces:
            v, gv = piece(t, y, grad)
            val += c * v
            if grad:
                g = _lin(1.0, g, c, gv)
        return val, (g if grad else None)

    return Observable(name, vg, kappas.pop() if kappas else None)


def square(obs: Observable, name: str | None = None) -> Observable:
    """Pointwise square f^2 with gradient 2 f grad f."""
    piece = obs.piece

    def vg(t, y, grad=True):
        v, g = piece(t, y, grad)
        return v * v, (_scale(2.0 * v, g) if grad else None)

    return Observable(name or f"{obs.name}^2", vg, obs.kappa)
