"""System definitions: potentials, Hamiltonians, equations of motion, catalogs.

Six curvature-parametrized natural Hamiltonian systems on the spherical,
Euclidean, and hyperbolic 3-spaces share the kinetic term
(p_r^2 + p_theta^2/sin_k^2 r + p_phi^2/(sin_k^2 r sin^2 theta))/2 and
differ in the potential:

  free        V = 0
  oscillator  V = alpha^2 tan_k^2(r) / 2
  sw          oscillator plus k_i / coord_i^2 couplings on all three axes
  osc112      2:2:4 frequency-ratio oscillator with two planar couplings
  kepler      V = k / tan_k(r)
  kepler123   kepler plus k_i / coord_i^2 couplings on all three axes

Each system is one entry of a private registry, _SYSTEMS, and everything
that depends on which system it is reads that entry.  H = T + V is
written once: each potential is one terms function that gives V and its
partials together, from which the value and gradient of V, the force in
hamilton_rhs and the radial-chart forms are all read, and the gradient
of T is read off the geodesic Hamilton equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .geometry import ConfigPoint, PhaseState, R_chart_kinetic, _trig, rho_chart_kinetic
from .kappa_core import DomainSingularity, EPS_DOM, sin_cos_k
from .observables import (
    _CYCLE,
    Observable,
    _cartesian,
    _coupling_terms,
    _hamilton_flow,
    _sin_guard,
    angular_J,
    angular_J_squared,
    complex_M,
    coordinate,
    fradkin_K,
    k123_KR,
    k123_N,
    k123_R,
    k123_S,
    kepler_RL,
    kinetic,
    noether_P,
    osc112_observables,
    scaled_sum,
    square,
    sw_KJ,
)

__all__ = [
    "SYSTEM_IDS",
    "RADIAL_SYSTEMS",
    "SystemSpec",
    "Catalog",
    "Identity",
    "make_system",
    "system_summaries",
    "potential_observable",
    "potential_value",
    "hamiltonian",
    "hamilton_rhs",
    "potential_profile",
    "catalog",
    "chart_potential",
    "rho_chart_hamiltonian_value",
    "R_chart_hamiltonian_value",
    "rho_chart_rhs",
]


@dataclass(frozen=True)
class SystemSpec:
    """A system identifier, curvature, and its parameter values."""

    system_id: str
    kappa: float
    alpha: float = 1.0
    k: float = -1.0
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    @property
    def params(self) -> dict:
        return {name: getattr(self, name) for name in _system(self.system_id).defaults}


@dataclass(frozen=True)
class _System:
    """Everything that distinguishes one system.

    potential(spec) gives the terms function of V (see Potentials),
    None for the free system; catalog(spec, h) builds the Catalog around
    the Hamiltonian h; radial marks a potential of r alone, which the
    radial charts take; axial marks the factor u/(1 - kappa u^2),
    u = tan_k(r) cos(theta): sampled states keep its denominator and
    z = 0 clear.
    """

    summary: str
    defaults: dict
    catalog: Callable
    potential: Optional[Callable] = None
    radial: bool = False
    axial: bool = False


def _system(system_id) -> _System:
    """Registry entry of a system; ValueError for an unknown identifier."""
    if system_id in SYSTEM_IDS:
        return _SYSTEMS[system_id]
    raise ValueError(f"unknown system {system_id!r}; choose from {SYSTEM_IDS}")


def make_system(system_id: str, kappa, **params) -> SystemSpec:
    """Build a validated system specification; an unknown system or
    parameter, or a non-finite kappa or parameter, raises ValueError."""
    allowed = _system(system_id).defaults
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(
            f"system {system_id!r} does not accept parameters {sorted(unknown)}"
        )
    filled = {"kappa": float(kappa), **allowed, **{k: float(v) for k, v in params.items()}}
    bad = {k: v for k, v in filled.items() if not math.isfinite(v)}
    if bad:
        raise ValueError(f"kappa and the system parameters must be finite, got {bad}")
    return SystemSpec(system_id=system_id, **filled)


def system_summaries() -> dict:
    """One-line description of each system, keyed by identifier."""
    return {sid: entry.summary for sid, entry in _SYSTEMS.items()}


# ---------------------------------------------------------------------------
# Potentials.  Each factory maps a spec to one function,
# terms(sin_k r, cos_k r, sin theta, cos theta, phi, grad=True), that gives
# (V, V_r, V_theta, V_phi) in plain floats, or V alone with grad false, and
# carries the potential's domain guards either way.  hamilton_rhs
# subtracts its force, potential_observable reads V and its gradient from
# it, and the radial charts evaluate it at the sin_k and cos_k of their
# radius.

def _oscillator(spec: SystemSpec) -> Callable:
    half_al2, al2 = 0.5 * spec.alpha * spec.alpha, spec.alpha**2

    def terms(sk, ck, sth, cth, ph, grad=True):
        if abs(ck) < EPS_DOM:
            raise DomainSingularity("oscillator potential singular at cos_k(r) = 0")
        tk = sk / ck
        if not grad:
            return half_al2 * tk * tk
        return half_al2 * tk * tk, al2 * sk / (ck * ck * ck), 0.0, 0.0

    return terms


def _kepler(spec: SystemSpec) -> Callable:
    kc = spec.k

    def terms(sk, ck, sth, cth, ph, grad=True):
        if abs(sk) < 1e-12:
            raise DomainSingularity("Kepler potential singular at sin_k(r) = 0")
        if not grad:
            return kc * ck / sk
        return kc * ck / sk, -kc / (sk * sk), 0.0, 0.0

    return terms


def _with_couplings(radial: Callable) -> Callable:
    """Factory of a radial potential plus sum k_i / coord_i^2 on all three axes."""

    def potential(spec: SystemSpec) -> Callable:
        base = radial(spec)
        ks = (spec.k1, spec.k2, spec.k3)

        def terms(sk, ck, sth, cth, ph, grad=True):
            if not grad:
                return base(sk, ck, sth, cth, ph, False) + _coupling_terms(
                    ks, sk, ck, sth, cth, ph, False)
            v, vr, _, _ = base(sk, ck, sth, cth, ph)
            u, ur, uth, uph = _coupling_terms(ks, sk, ck, sth, cth, ph)
            return v + u, ur + vr, uth, uph

        return terms

    return potential


def _osc112(spec: SystemSpec) -> Callable:
    # The planar part uses w = sin_k^2 sin^2 theta, the axial part the
    # factor A = u/(1 - kappa u^2) with u = tan_k cos theta.
    kap, al2 = spec.kappa, spec.alpha**2
    ks = (spec.k1, spec.k2, 0.0)

    def terms(sk, ck, sth, cth, ph, grad=True):
        if abs(ck) < EPS_DOM:
            raise DomainSingularity("cos_k(r) vanishes along trajectory")
        w = sk * sk * sth * sth
        den = 1.0 - kap * w
        if abs(den) < 1e-12:
            raise DomainSingularity("planar anisotropy denominator vanishes")
        tk = sk / ck
        u = tk * cth
        uden = 1.0 - kap * u * u
        if abs(uden) < 1e-12:
            raise DomainSingularity("axial anisotropy denominator vanishes")
        a = u / uden
        n = w + 4.0 * a * a
        if not grad:
            return 0.5 * al2 * n / den + _coupling_terms(ks, sk, ck, sth, cth, ph, False)
        dadu = (1.0 + kap * u * u) / (uden * uden)
        w_r = 2.0 * sk * ck * sth * sth
        w_th = 2.0 * sk * sk * sth * cth
        u_r = cth / (ck * ck)
        u_th = -tk * sth
        n_r = w_r + 8.0 * a * dadu * u_r
        n_th = w_th + 8.0 * a * dadu * u_th
        d2 = den * den
        vr = 0.5 * al2 * (n_r * den + kap * n * w_r) / d2
        vth = 0.5 * al2 * (n_th * den + kap * n * w_th) / d2
        c, cr, cth_f, cph_f = _coupling_terms(ks, sk, ck, sth, cth, ph)
        return 0.5 * al2 * n / den + c, vr + cr, vth + cth_f, cph_f

    return terms


def potential_observable(spec: SystemSpec) -> Optional[Observable]:
    """Potential of a system as an observable; None for the free system.

    The value and the gradient (V_r, V_theta, V_phi, 0, 0, 0) both come
    from the potential's terms, whose force hamilton_rhs subtracts; a
    value alone does not compute the force.  A radial potential's terms
    ignore the angle sines and cosines of the tuple they read.
    """
    entry = _system(spec.system_id)
    if entry.potential is None:
        return None
    terms = entry.potential(spec)

    def vg(t, y, grad=True):
        if not grad:
            return terms(t[0], t[1], t[2], t[3], y[2], False), None
        val, vr, vth, vph = terms(t[0], t[1], t[2], t[3], y[2])
        return val, np.array((vr, vth, vph, 0.0, 0.0, 0.0))

    return Observable("V", vg, spec.kappa)


def potential_value(spec: SystemSpec, q: ConfigPoint) -> float:
    """Potential energy at a configuration point."""
    v = potential_observable(spec)
    if v is None:
        return 0.0
    return v.value(np.array([q.r, q.theta, q.phi, 0.0, 0.0, 0.0]))


def hamiltonian(spec: SystemSpec) -> Observable:
    """Hamiltonian observable H = T + V of a system."""
    t = kinetic(spec.kappa)
    v = potential_observable(spec)
    if v is None:
        return replace(t, name="H")
    return scaled_sum("H", [(1.0, t), (1.0, v)])


# ---------------------------------------------------------------------------
# Equations of motion.

def hamilton_rhs(spec: SystemSpec) -> Callable[[float, np.ndarray], np.ndarray]:
    """Closed-form Hamilton equations dy/dt = f(t, y) for a system."""
    potential = _system(spec.system_id).potential
    return _hamilton_flow(sin_cos_k(spec.kappa), None if potential is None else potential(spec))


def potential_profile(
    spec: SystemSpec,
    r_values,
    theta: float = math.pi / 2.0,
    phi: float = math.pi / 4.0,
) -> np.ndarray:
    """Potential sampled along a fixed ray; singular radii yield NaN rows.

    r_values that are not a 1-D sequence, or a radius, theta or phi that
    is not finite, raise ValueError.  The angle sines and cosines are
    taken once per ray and the kernels once per radius.
    """
    v = potential_observable(spec)
    rs = np.asarray(r_values, dtype=float)
    if rs.ndim != 1:
        raise ValueError(f"potential_profile needs a 1-D sequence of radii, got shape {rs.shape}")
    bad = rs[~np.isfinite(rs)]
    if bad.size:
        raise ValueError(f"potential_profile needs finite radii, got {float(bad[0])!r}")
    for name, angle in (("theta", theta), ("phi", phi)):
        if not math.isfinite(angle):
            raise ValueError(f"potential_profile needs a finite {name}, got {angle!r}")
    if v is None:
        return np.column_stack((rs, np.zeros_like(rs)))
    piece, sc = v.piece, v._sc
    ray = _trig(None, (0.0, theta, phi))[2:]
    vals = []
    for r in rs.tolist():
        try:
            vals.append(piece(sc(r) + ray, (r, theta, phi, 0.0, 0.0, 0.0), False)[0])
        except DomainSingularity:
            vals.append(math.nan)
    return np.column_stack((rs, vals))


# ---------------------------------------------------------------------------
# Integral catalogs.

@dataclass(frozen=True)
class Identity:
    """One bracket or algebraic identity that a system displays.

    A bracket identity lists (f, g, expect) triples, each stating
    {f, g} = expect(at), with expect None for zero; the audit measures
    each triple relative to its gradient scale and joins several, such
    as the real and imaginary parts of {M_j, H}, with hypot.  An
    algebraic identity gives residual(at) instead, normalized by its own
    terms.  Both read the audit's state as at.y, its tuple (geometry._trig)
    as at.t and an observable's value there as at.value(obs), which the
    audit evaluates once per state beside the gradient.  An identity that
    holds for every coefficient vector c declares n_coeffs, and its
    brackets is then a function of c that returns the triples.
    """

    name: str
    brackets: object = ()
    residual: Optional[Callable] = None
    n_coeffs: int = 0


@dataclass(frozen=True)
class Catalog:
    """First integrals, companion observables and displayed identities."""

    integrals: dict
    aux: dict
    complexes: dict
    involution_sets: dict
    independence_sets: dict
    identities: tuple = ()

    @property
    def observables(self) -> dict:
        merged = dict(self.integrals)
        merged.update(self.aux)
        return merged

    def get(self, name: str) -> Observable:
        try:
            return self.observables[name]
        except KeyError:
            raise KeyError(
                f"no observable named {name!r}; available: "
                f"{sorted(self.observables)}"
            ) from None


def _bracket(name: str, f: Observable, g: Observable, expect=None) -> Identity:
    return Identity(name, ((f, g, expect),))


def _complex_value(at, m) -> complex:
    """m.value(at.y) of a ComplexObservable, from the values at holds."""
    return complex(at.value(m.re), at.value(m.im))


def _axis_blocks(kap, diag, extra):
    """Complementary blocks W_i = diag_j + diag_l + kappa (extra_j + extra_l)."""
    blocks = {}
    for i, (j, l) in _CYCLE.items():
        blocks[f"W{i}"] = scaled_sum(
            f"W{i}",
            [(1.0, diag[j]), (1.0, diag[l]), (kap, extra[j]), (kap, extra[l])],
        )
    return blocks


def _block_identities(diag, extra, label, blocks) -> list:
    """{c1 K_ii + c2 X_i, W_i} = 0 for every (c1, c2), X = extra."""

    def row(i):
        def brackets(c):
            combo = scaled_sum("combo", [(c[0], diag[i]), (c[1], extra[i])])
            return ((combo, blocks[f"W{i}"], None),)

        return Identity(f"{{c1*K{i}{i}+c2*{label}{i},W{i}}}", brackets, n_coeffs=2)

    return [row(i) for i in (1, 2, 3)]


def _rotation_identities(j, vec, label) -> list:
    """{J_i, c.V} = c_a V_b - c_b V_a for every c, (a, b) cyclic after i."""

    def row(i):
        a, b = _CYCLE[i]

        def brackets(c):
            combo = scaled_sum(f"c.{label}", [(c[m - 1], vec[m]) for m in (1, 2, 3)])
            expect = lambda at: c[a - 1] * at.value(vec[b]) - c[b - 1] * at.value(vec[a])
            return ((j[i], combo, expect),)

        return Identity(f"{{J{i},c.{label}}}-rotation", brackets, n_coeffs=3)

    return [row(i) for i in (1, 2, 3)]


def _pair_sums(kjs) -> tuple:
    """Sums KJ_bc = KJ_b + KJ_c over cyclic (a, b, c) and the involution
    sets (H, KJ_a, KJ_bc).  The audit's involution rows hold the displayed
    identities {KJ_a, KJ_bc} = 0."""
    sums, invol = {}, {}
    for a, (b, c) in _CYCLE.items():
        name = f"KJ{b}{c}"
        sums[name] = scaled_sum(name, [(1.0, kjs[b]), (1.0, kjs[c])])
        invol[f"H_KJ{a}"] = ("H", f"KJ{a}", name)
    return sums, invol


def _free_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    jsq = angular_J_squared()
    p = {i: noether_P(i, kap) for i in (1, 2, 3)}
    j = {i: angular_J(i) for i in (1, 2, 3)}
    x = {i: coordinate(i, kap) for i in (1, 2, 3)}
    integrals = {f"P{i}": p[i] for i in (1, 2, 3)}
    integrals.update({f"J{i}": j[i] for i in (1, 2, 3)})
    aux = {"H": h, "Jsq": jsq}
    invol = {"H_J2_J3": ("H", "Jsq", "J3")}
    indep = {"primary": ("P1", "P2", "P3", "J1", "J2")}

    def radial(at):
        total = sum(at.value(x[i]) * at.value(p[i]) for i in (1, 2, 3))
        expect = at.y[3] * at.t[0]
        return (total - expect) / max(1.0, abs(expect))

    ids = [Identity("alg:x.P-p_r*sin_k", residual=radial)]
    for a, (b, c) in _CYCLE.items():
        ids.append(_bracket(f"{{P{a},P{b}}}-kappa*J{c}", p[a], p[b],
                            lambda at, c=c: kap * at.value(j[c])))
        ids.append(_bracket(f"{{J{a},J{b}}}-J{c}", j[a], j[b], lambda at, c=c: at.value(j[c])))
    ids += _rotation_identities(j, p, "P")
    ids += [
        _bracket(f"{{{x[i].name},P{i}}}-cos_k", x[i], p[i], lambda at: at.t[1])
        for i in (1, 2, 3)
    ]
    return Catalog(integrals, aux, {}, invol, indep, tuple(ids))


def _oscillator_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    jsq = angular_J_squared()
    al = spec.alpha
    integrals = {f"J{i}": angular_J(i) for i in (1, 2, 3)}
    for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)):
        integrals[f"K{i}{j}"] = fradkin_K(i, j, kap, al)
    diag = {i: integrals[f"K{i}{i}"] for i in (1, 2, 3)}
    js = {i: integrals[f"J{i}"] for i in (1, 2, 3)}
    jsqs = {i: square(js[i], f"J{i}sq") for i in (1, 2, 3)}
    aux = {"H": h, "Jsq": jsq}
    aux.update(_axis_blocks(kap, diag, jsqs))
    complexes = {f"M{j}": complex_M(j, kap, al) for j in (1, 2, 3)}
    invol = {
        "H_J2_J3": ("H", "Jsq", "J3"),
        "axis1": ("K11", "J1", "W1"),
        "axis2": ("K22", "J2", "W2"),
        "axis3": ("K33", "J3", "W3"),
    }
    # Any 5-set containing a diagonal pair K_ii, K_jj together with
    # K_ij and J_l is dependent through the published minor identity
    # K_ii K_jj - K_ij^2 = alpha^2 J_l^2, so the designated set mixes
    # the three angular momenta with two diagonal entries instead.
    indep = {"primary": ("J1", "J2", "J3", "K11", "K22")}

    def trace(at):
        tr = sum(at.value(diag[i]) for i in (1, 2, 3))
        expect = 2.0 * at.value(h)
        return (tr + kap * at.value(jsq) - expect) / max(1.0, abs(tr), abs(expect))

    def product(a, b, c):
        ma, mb, kab = complexes[f"M{a}"], complexes[f"M{b}"], integrals[f"K{a}{b}"]

        def residual(at):
            lhs = _complex_value(at, ma) * _complex_value(at, mb).conjugate()
            rhs = at.value(kab) + 1j * al * at.value(js[c])
            return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        return Identity(f"alg:M{a}*conj(M{b})-(K{a}{b}+i*alpha*J{c})", residual=residual)

    def modulus(i):
        def residual(at):
            lhs = abs(_complex_value(at, complexes[f"M{i}"])) ** 2
            rhs = at.value(diag[i])
            return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        return Identity(f"alg:|M{i}|^2-K{i}{i}", residual=residual)

    def phase(i):
        m = complexes[f"M{i}"]
        lam = lambda at: 1.0 / at.t[1] ** 2
        return Identity(f"{{M{i},H}}-i*lambda*alpha*M{i}", (
            (m.re, h, lambda at: -lam(at) * al * at.value(m.im)),
            (m.im, h, lambda at: lam(at) * al * at.value(m.re)),
        ))

    ids = [Identity("alg:trace(K)+kappa*Jsq-2H", residual=trace)]
    ids += [product(a, b, c) for a, (b, c) in _CYCLE.items()]
    ids += [modulus(i) for i in (1, 2, 3)]
    ids += [phase(i) for i in (1, 2, 3)]
    ids += _block_identities(diag, js, "J", aux)
    return Catalog(integrals, aux, complexes, invol, indep, tuple(ids))


def _sw_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    al = spec.alpha
    ks = (spec.k1, spec.k2, spec.k3)
    integrals = {
        f"K{i}{i}": fradkin_K(i, i, kap, al, *ks) for i in (1, 2, 3)
    }
    integrals.update({f"KJ{i}": sw_KJ(i, kap, *ks) for i in (1, 2, 3)})
    diag = {i: integrals[f"K{i}{i}"] for i in (1, 2, 3)}
    kjs = {i: integrals[f"KJ{i}"] for i in (1, 2, 3)}
    sums, invol = _pair_sums(kjs)
    aux = {"H": h}
    aux.update(_axis_blocks(kap, diag, kjs))
    aux.update(sums)
    invol.update({f"axis{i}": (f"K{i}{i}", f"KJ{i}", f"W{i}") for i in (1, 2, 3)})
    indep = {"primary": ("KJ1", "KJ2", "KJ3", "K11", "K22")}
    ksum = spec.k1 + spec.k2 + spec.k3

    def trace(at):
        tr = sum(at.value(diag[i]) for i in (1, 2, 3))
        kj = sum(at.value(kjs[i]) for i in (1, 2, 3))
        hv = at.value(h)
        lhs = 0.5 * (tr + kap * kj) + kap * ksum
        return (hv - lhs) / max(1.0, abs(hv), abs(lhs))

    ids = [Identity("alg:H-(trace(K)+kappa*trace(KJ))/2-kappa*(k1+k2+k3)", residual=trace)]
    ids += _block_identities(diag, kjs, "KJ", aux)
    return Catalog(integrals, aux, {}, invol, indep, tuple(ids))


def _osc112_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    fam = osc112_observables(kap, spec.alpha, spec.k1, spec.k2)
    integrals = {n: fam[n] for n in ("K3", "KJ3", "K12", "KRL1", "KRL2")}
    aux = {"H": h, "Az": fam["Az"], "V112": potential_observable(spec)}
    invol = {"K3_KJ3_K12": ("K3", "KJ3", "K12")}
    indep = {"primary": ("K3", "KJ3", "K12", "KRL1", "KRL2")}

    def recompose(at):
        hv = at.value(h)
        lhs = 0.5 * (at.value(fam["K3"]) + at.value(fam["K12"]) + kap * at.value(fam["KJ3"]))
        return (hv - lhs) / max(1.0, abs(hv), abs(lhs))

    ids = (Identity("alg:H-(K3+K12+kappa*KJ3)/2", residual=recompose),)
    return Catalog(integrals, aux, {}, invol, indep, ids)


def _kepler_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    jsq = angular_J_squared()
    j = {i: angular_J(i) for i in (1, 2, 3)}
    krl = {i: kepler_RL(i, kap, spec.k) for i in (1, 2, 3)}
    integrals = {f"J{i}": j[i] for i in (1, 2, 3)}
    integrals.update({f"KRL{i}": krl[i] for i in (1, 2, 3)})
    aux = {"H": h, "Jsq": jsq}
    invol = {"H_J2_J3": ("H", "Jsq", "J3")}
    indep = {"primary": ("J1", "J2", "J3", "KRL1", "KRL2")}
    ids = [
        _bracket(f"{{KRL{a},KRL{b}}}+2J{c}(H-kappa*Jsq)", krl[a], krl[b],
                 lambda at, c=c: -2.0 * at.value(j[c]) * (at.value(h) - kap * at.value(jsq)))
        for a, (b, c) in _CYCLE.items()
    ]
    ids += _rotation_identities(j, krl, "KRL")
    return Catalog(integrals, aux, {}, invol, indep, tuple(ids))


def _kepler123_catalog(spec: SystemSpec, h: Observable) -> Catalog:
    kap = spec.kappa
    ks = (spec.k1, spec.k2, spec.k3)
    integrals = {f"KJ{i}": sw_KJ(i, kap, *ks) for i in (1, 2, 3)}
    complexes = {}
    # R_i and S_i are conserved only in pairs through the quartic
    # combination KR_i = R_i^2 + 2 k_i S_i^2, so they live in aux.
    aux = {"H": h}
    for i in (1, 2, 3):
        aux[f"R{i}"] = k123_R(i, kap, spec.k, *ks)
        aux[f"S{i}"] = k123_S(i, kap)
        if ks[i - 1] >= 0.0:
            integrals[f"KR{i}"] = k123_KR(i, kap, spec.k, *ks)
            complexes[f"N{i}"] = k123_N(i, kap, spec.k, *ks)
    sums, invol = _pair_sums({i: integrals[f"KJ{i}"] for i in (1, 2, 3)})
    aux.update(sums)
    primary = tuple(
        ["KJ1", "KJ2", "KJ3"]
        + [n for n in ("KR1", "KR2", "KR3") if n in integrals][:2]
    )
    if len(primary) < 5:
        primary = primary + ("H",)[: 5 - len(primary)]

    def coupled(i):
        # {R_i, H} = -2 k_i lambda_i S_i and {S_i, H} = lambda_i R_i
        # with lambda_i = 1 / coord_i^2.
        r, s, ki = aux[f"R{i}"], aux[f"S{i}"], ks[i - 1]

        def lam(at):
            x = _cartesian(at.t)[i - 1]
            _sin_guard(x, "coordinate in coupling factor")
            return 1.0 / (x * x)

        return [
            _bracket(f"{{R{i},H}}+2k{i}*lambda{i}*S{i}", r, h,
                     lambda at: -2.0 * ki * lam(at) * at.value(s)),
            _bracket(f"{{S{i},H}}-lambda{i}*R{i}", s, h, lambda at: lam(at) * at.value(r)),
        ]

    ids = tuple(row for i in (1, 2, 3) for row in coupled(i))
    return Catalog(integrals, aux, complexes, invol, {"primary": primary}, ids)


def catalog(spec: SystemSpec) -> Catalog:
    """Build the named integral catalog of a system and its identities."""
    return _system(spec.system_id).catalog(spec, hamiltonian(spec))


# ---------------------------------------------------------------------------
# Radial charts.  rho = sin_k(r) and R = tan_k(r) give two alternative
# coordinates for the systems whose potential depends on r only.

def _chart_terms(spec: SystemSpec, chart: str) -> Callable:
    """Map of a chart radius to the potential's terms and cos_k(r).

    The terms are taken at sin_k(r) = rho, cos_k(r) = sqrt(1 - kappa rho^2)
    on the rho chart and at cos_k(r) = 1/sqrt(1 + kappa R^2),
    sin_k(r) = R cos_k(r) on the R chart; a radius outside its chart
    raises DomainSingularity.  A potential that is not radial, or an
    unknown chart, raises ValueError.
    """
    entry = _system(spec.system_id)
    if not entry.radial:
        raise ValueError(
            f"chart forms require a radial potential; {spec.system_id!r} has "
            "angle-dependent terms"
        )
    if chart not in ("rho", "R"):
        raise ValueError(f"chart must be 'rho' or 'R', got {chart!r}")
    kap = spec.kappa
    terms = entry.potential(spec) if entry.potential else lambda *q: (0.0, 0.0, 0.0, 0.0)
    rho = chart == "rho"

    def at(x):
        d = 1.0 - kap * x * x if rho else 1.0 + kap * x * x
        if not d > 0.0:
            raise DomainSingularity(f"{chart} = {x!r} lies outside the {chart} chart "
                                    f"at kappa = {kap!r}")
        ck = math.sqrt(d) if rho else 1.0 / math.sqrt(d)
        return terms(x if rho else x * ck, ck, 1.0, 0.0, 0.0), ck

    return at


def chart_potential(spec: SystemSpec, chart: str) -> Callable[[float], float]:
    """Potential as a function of the chart radius rho or R."""
    at = _chart_terms(spec, chart)
    return lambda x: at(x)[0][0]


def rho_chart_hamiltonian_value(spec: SystemSpec, s: PhaseState) -> float:
    """Hamiltonian evaluated on a rho-chart state."""
    v = chart_potential(spec, "rho")
    return rho_chart_kinetic(spec.kappa, s) + v(s.q.r)


def R_chart_hamiltonian_value(spec: SystemSpec, s: PhaseState) -> float:
    """Hamiltonian evaluated on an R-chart state."""
    v = chart_potential(spec, "R")
    return R_chart_kinetic(spec.kappa, s) + v(s.q.r)


def rho_chart_rhs(spec: SystemSpec) -> Callable[[float, np.ndarray], np.ndarray]:
    """Hamilton equations in the rho chart for radial systems.

    dV/drho is V_r / cos_k(r) from the potential's terms.
    """
    at = _chart_terms(spec, "rho")
    kap = spec.kappa

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho, th, _, prho, pth, pph = y.tolist()
        if abs(rho) < 1e-12:
            raise DomainSingularity("rho vanishes along trajectory")
        sth = math.sin(th)
        if abs(sth) < 1e-12:
            raise DomainSingularity("sin(theta) vanishes along trajectory")
        rho2 = rho * rho
        if kap > 0.0 and 1.0 - kap * rho2 < 1e-12:
            raise DomainSingularity("rho chart boundary reached")
        sth2 = sth * sth
        ang = pth * pth + pph * pph / sth2
        (_, vr, _, _), ck = at(rho)
        return np.array((
            (1.0 - kap * rho2) * prho,
            pth / rho2,
            pph / (rho2 * sth2),
            kap * rho * prho * prho + ang / (rho2 * rho) - vr / ck,
            math.cos(th) * pph * pph / (rho2 * sth2 * sth),
            0.0,
        ))

    return rhs


# ---------------------------------------------------------------------------
# The registry: one entry per system, in the order the systems are listed.

_SYSTEMS = {
    "free": _System("geodesic motion, V = 0", {}, _free_catalog, radial=True),
    "oscillator": _System(
        "isotropic oscillator, V = alpha^2 tan_k^2(r)/2", {"alpha": 1.0},
        _oscillator_catalog, _oscillator, radial=True,
    ),
    "sw": _System(
        "oscillator with three inverse-square axis couplings",
        {"alpha": 1.0, "k1": 0.0, "k2": 0.0, "k3": 0.0},
        _sw_catalog, _with_couplings(_oscillator),
    ),
    "osc112": _System(
        "1:1:2 anisotropic oscillator with two planar couplings",
        {"alpha": 1.0, "k1": 0.0, "k2": 0.0},
        _osc112_catalog, _osc112,
        axial=True,
    ),
    "kepler": _System(
        "curved Kepler problem, V = k/tan_k(r)", {"k": -1.0},
        _kepler_catalog, _kepler, radial=True,
    ),
    "kepler123": _System(
        "Kepler with three inverse-square axis couplings",
        {"k": -1.0, "k1": 0.0, "k2": 0.0, "k3": 0.0},
        _kepler123_catalog, _with_couplings(_kepler),
    ),
}

SYSTEM_IDS = tuple(_SYSTEMS)

# Systems whose potential depends on r alone admit the two radial charts.
RADIAL_SYSTEMS = tuple(sid for sid, entry in _SYSTEMS.items() if entry.radial)
