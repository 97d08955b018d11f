"""Metric, Killing fields, radial charts, and free motion.

The Killing fields are read off the library's momenta, X_i (Y_i) as the
momentum part of the gradient of P_i (J_i), and checked by central
differences against the oracles' metric, its volume and the Lie algebra.

Free motion is checked against the oracles' Lagrangian picture: their
Legendre map and geodesic equations are written apart from the library,
which describes free motion only through the Hamilton equations of the
free system.  The oracles' own consistency and their independence of the
library are checked here too.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from curvedyn.dynamics import integrate
from curvedyn.geometry import (
    ConfigPoint,
    PhaseState,
    from_R_chart,
    from_rho_chart,
    R_chart_kinetic,
    rho_chart_kinetic,
    to_R_chart,
    to_rho_chart,
)
from curvedyn.kappa_core import DomainSingularity
from curvedyn.observables import angular_J, kinetic, noether_P
from curvedyn.systems import (
    R_chart_hamiltonian_value,
    SystemSpec,
    hamilton_rhs,
    make_system,
    rho_chart_hamiltonian_value,
)

KAPPAS = (1.0, 0.7, -0.3, -1.0)


def rand_point(rng, kap):
    rmax = 0.45 * math.pi / math.sqrt(kap) if kap > 0 else 1.5
    return ConfigPoint(
        rng.uniform(0.3, rmax),
        rng.uniform(0.4, math.pi - 0.4),
        rng.uniform(0.3, 2 * math.pi - 0.3),
    )


def rand_state(rng, kap):
    q = rand_point(rng, kap)
    return PhaseState(q, *rng.uniform(-1.0, 1.0, 3))


FD_STEP = 1e-5  # central-difference step of the field checks


def killing_fields(kap):
    """The six fields at kap, each a function of x = (r, theta, phi): the
    momentum part of the gradient of P_i (X_i) or J_i (Y_i) at p = 0."""
    momenta = {**{f"X{i}": noether_P(i, kap) for i in (1, 2, 3)},
               **{f"Y{i}": angular_J(i) for i in (1, 2, 3)}}
    return {fid: (lambda x, m=m: m.gradient((*x, 0.0, 0.0, 0.0))[3:].tolist())
            for fid, m in momenta.items()}


def volume(kap, x):
    """Volume density sqrt(det g) of oracles.metric at x = (r, theta, ...)."""
    g1, g2, g3 = oracles.metric(kap, x[0], x[1])
    return math.sqrt(g1 * g2 * g3)


def lie_derivative_metric(field, kap, x):
    """X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c of the diagonal oracles.metric."""
    g, v = oracles.metric(kap, x[0], x[1]), field(x)
    dg = oracles.central_difference(lambda z: oracles.metric(kap, z[0], z[1]), x, FD_STEP)
    dv = oracles.central_difference(field, x, FD_STEP)
    return [[(a == b) * sum(v[c] * dg[c][a] for c in range(3)) + g[b] * dv[a][b] + g[a] * dv[b][a]
             for b in range(3)] for a in range(3)]


def volume_divergence(field, kap, x):
    """d_j (vol X^j) / vol, vol the volume density."""
    d = oracles.central_difference(lambda z: [volume(kap, z) * c for c in field(z)], x, FD_STEP)
    return sum(d[j][j] for j in range(3)) / volume(kap, x)


def lie_bracket(field_a, field_b, x):
    """Commutator [A, B]^i = A^j d_j B^i - B^j d_j A^i."""
    a, b = field_a(x), field_b(x)
    da, db = (oracles.central_difference(f, x, FD_STEP) for f in (field_a, field_b))
    return [sum(a[j] * db[j][i] - b[j] * da[j][i] for j in range(3)) for i in range(3)]


def test_metric_and_volume():
    """The library's metric where it uses it, in T: the momentum part of
    the gradient of T is p / g.  The volume density is sin_k^2(r) sin(theta)."""
    rng = np.random.default_rng(1)
    for kap in KAPPAS + (0.0,):
        q = rand_point(rng, kap)
        s = oracles.sk(kap, q.r)
        p = (0.3, -0.2, 0.5)
        got = kinetic(kap).gradient((q.r, q.theta, q.phi, *p))[3:]
        for v, pi, gi in zip(got, p, oracles.metric(kap, q.r, q.theta)):
            assert v == pytest.approx(pi / gi, rel=1e-14)
        assert volume(kap, (q.r, q.theta)) == pytest.approx(s * s * math.sin(q.theta), rel=1e-14)


def test_killing_fields_preserve_metric():
    """Lie derivative of the metric along each field vanishes."""
    rng = np.random.default_rng(2)
    for kap in KAPPAS:
        fields = killing_fields(kap)
        for _ in range(50):
            q = rand_point(rng, kap)
            for fid, field in fields.items():
                ld = lie_derivative_metric(field, kap, (q.r, q.theta, q.phi))
                assert np.max(np.abs(ld)) < 1e-8, (fid, kap)


def test_killing_fields_preserve_volume():
    rng = np.random.default_rng(3)
    for kap in KAPPAS:
        fields = killing_fields(kap)
        for _ in range(20):
            q = rand_point(rng, kap)
            for fid, field in fields.items():
                div = volume_divergence(field, kap, (q.r, q.theta, q.phi))
                assert abs(div) < 1e-8, (fid, kap)


# The 15 distinct field commutators.  The momentum-side table has the
# opposite sign throughout (tested separately in test_dynamics).
LIE_TABLE = [
    ("X1", "X2", lambda kap: [(-kap, "Y3")]),
    ("X2", "X3", lambda kap: [(-kap, "Y1")]),
    ("X3", "X1", lambda kap: [(-kap, "Y2")]),
    ("Y1", "Y2", lambda kap: [(-1.0, "Y3")]),
    ("Y2", "Y3", lambda kap: [(-1.0, "Y1")]),
    ("Y3", "Y1", lambda kap: [(-1.0, "Y2")]),
    ("Y1", "X2", lambda kap: [(-1.0, "X3")]),
    ("Y2", "X3", lambda kap: [(-1.0, "X1")]),
    ("Y3", "X1", lambda kap: [(-1.0, "X2")]),
    ("Y1", "X3", lambda kap: [(1.0, "X2")]),
    ("Y2", "X1", lambda kap: [(1.0, "X3")]),
    ("Y3", "X2", lambda kap: [(1.0, "X1")]),
    ("Y1", "X1", lambda kap: []),
    ("Y2", "X2", lambda kap: []),
    ("Y3", "X3", lambda kap: []),
]


def test_lie_algebra_table():
    rng = np.random.default_rng(4)
    for kap in KAPPAS:
        fields = killing_fields(kap)
        for _ in range(5):
            q = rand_point(rng, kap)
            x = (q.r, q.theta, q.phi)
            for fa, fb, expect in LIE_TABLE:
                got = np.array(lie_bracket(fields[fa], fields[fb], x))
                want = np.zeros(3)
                for coef, fid in expect(kap):
                    want += coef * np.array(fields[fid](x))
                assert np.max(np.abs(got - want)) < 1e-6, (fa, fb, kap)


def test_killing_contractions_give_momenta():
    """p . X_i equals the Noether momenta, p . Y_i the angular ones."""
    rng = np.random.default_rng(5)
    for kap in KAPPAS:
        s = rand_state(rng, kap)
        p = np.array([s.p_r, s.p_theta, s.p_phi])
        tup = tuple(s.as_array())
        fields = killing_fields(kap)
        for i in (1, 2, 3):
            x = fields[f"X{i}"](tup[:3])
            y = fields[f"Y{i}"](tup[:3])
            assert p @ x == pytest.approx(oracles.noether(i, kap, tup), rel=1e-12, abs=1e-12)
            assert p @ y == pytest.approx(oracles.angular(i, tup), rel=1e-12, abs=1e-12)


def test_legendre_round_trip():
    """Oracle self-check: the Legendre map and its inverse undo each other."""
    rng = np.random.default_rng(6)
    for kap in KAPPAS + (0.0,):
        for _ in range(100):
            q = rand_point(rng, kap)
            v = (q.r, q.theta, q.phi, *rng.uniform(-1.0, 1.0, 3))
            back = oracles.legendre_inv(kap, oracles.legendre(kap, v))
            assert np.max(np.abs(np.subtract(back, v))) < 1e-13


def test_legendre_energy_consistency():
    """Oracle self-check: the kinetic energy of v equals the momentum form
    at legendre(v)."""
    rng = np.random.default_rng(7)
    for kap in KAPPAS:
        q = rand_point(rng, kap)
        v = (q.r, q.theta, q.phi, 0.3, -0.2, 0.5)
        s = oracles.legendre(kap, v)
        assert oracles.kinetic_velocity(kap, v) == pytest.approx(oracles.kinetic(kap, s), rel=1e-13)


def test_geodesic_motion_conserves_energy_and_momenta():
    """The oracles' second-order geodesic flow keeps T and all six momenta
    flat, and through their Legendre map it is the library's Hamiltonian
    flow of the free system: the two runs agree at every whole time."""
    rng = np.random.default_rng(8)
    for kap in (1.0, -1.0):
        q = rand_point(rng, kap)
        # Slow start in the hyperbolic case so the escaping orbit stays at
        # moderate r and accumulated step error stays well below the bar.
        scale = 1.0 if kap > 0 else 0.35
        v0 = (q.r, q.theta, q.phi, 0.2 * scale, 0.3 * scale, -0.25 * scale)
        lagrange = lambda t, v: np.array(oracles.geodesic_rhs(kap, v))
        hamilton = hamilton_rhs(make_system("free", kap))
        t0 = oracles.kinetic_velocity(kap, v0)
        first = oracles.legendre(kap, v0)
        v, y = np.array(v0), np.array(first)
        # Runs restarted at each whole time share those times as samples.
        for t_a in range(10):
            span = (float(t_a), t_a + 1.0)
            lag = integrate(lagrange, v, span, method="rk45_adaptive", tol=1e-12)
            ham = integrate(hamilton, y, span, method="rk45_adaptive", tol=1e-12)
            assert not (lag.truncated or ham.truncated)
            v, y = lag.final_state, ham.final_state
            assert np.max(np.abs(np.subtract(oracles.legendre(kap, v), y))) < 2e-11, (kap, span)
            for u in lag.states[:: max(1, len(lag.states) // 5)]:
                assert abs(oracles.kinetic_velocity(kap, u) - t0) / max(1.0, abs(t0)) < 1e-9
                s = oracles.legendre(kap, u)
                for i in (1, 2, 3):
                    assert abs(oracles.noether(i, kap, s) - oracles.noether(i, kap, first)) < 1e-9
                    assert abs(oracles.angular(i, s) - oracles.angular(i, first)) < 1e-9


def test_exact_geodesic_oracle_self_check():
    """Oracle self-check: the exact geodesic starts at its state and keeps
    T and all six momenta, at every kappa, for t up to 2.  Far out on the
    hyperbolic side polar momenta lose digits to cancellation (at kappa =
    -1, about 3e-11 by t = 2 and 4e-5 by t = 4), so longer times would
    test the chart rather than the orbit."""
    rng = np.random.default_rng(12)
    for kap in KAPPAS + (0.0,):
        for _ in range(5):
            s = tuple(rand_state(rng, kap).as_array())
            start = oracles.geodesic_exact(kap, s, 0.0)
            assert oracles.state_gap(start, s) < 1e-13
            t0 = oracles.kinetic(kap, s)
            for t in (0.3, 1.0, 2.0):
                e = oracles.geodesic_exact(kap, s, t)
                assert oracles.kinetic(kap, e) == pytest.approx(t0, rel=1e-10)
                for i in (1, 2, 3):
                    assert oracles.noether(i, kap, e) == pytest.approx(
                        oracles.noether(i, kap, s), rel=1e-9, abs=1e-9)
                    assert oracles.angular(i, e) == pytest.approx(
                        oracles.angular(i, s), rel=1e-9, abs=1e-9)


def test_oracles_import_nothing_but_math():
    """tests/oracles.py stays a transcription apart from the library: it
    imports math and nothing else, neither curvedyn nor numpy."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math"}


def test_rho_chart_round_trip_and_example():
    rng = np.random.default_rng(9)
    for kap in KAPPAS + (0.0,):
        s = rand_state(rng, kap)
        back = from_rho_chart(kap, to_rho_chart(kap, s))
        assert np.max(np.abs(back.as_array() - s.as_array())) < 1e-12
    # kappa=1, r=pi/4, p_r=1 maps to rho=sqrt(2)/2, p_rho=sqrt(2)
    s = PhaseState(ConfigPoint(math.pi / 4, 1.0, 1.0), 1.0, 0.0, 0.0)
    c = to_rho_chart(1.0, s)
    assert c.q.r == pytest.approx(math.sqrt(2) / 2, rel=1e-14)
    assert c.p_r == pytest.approx(math.sqrt(2), rel=1e-14)


def test_R_chart_round_trip():
    rng = np.random.default_rng(10)
    for kap in KAPPAS + (0.0,):
        s = rand_state(rng, kap)
        back = from_R_chart(kap, to_R_chart(kap, s))
        assert np.max(np.abs(back.as_array() - s.as_array())) < 1e-12


def test_charts_are_identity_when_flat():
    s = PhaseState(ConfigPoint(0.8, 1.1, 2.0), 0.4, -0.1, 0.2)
    for conv in (to_rho_chart, to_R_chart):
        c = conv(0.0, s)
        assert np.max(np.abs(c.as_array() - s.as_array())) == 0.0


def test_chart_kinetic_agreement():
    rng = np.random.default_rng(11)
    for kap in KAPPAS + (0.0,):
        for _ in range(25):
            s = rand_state(rng, kap)
            t0 = oracles.kinetic(kap, tuple(s.as_array()))
            t_rho = rho_chart_kinetic(kap, to_rho_chart(kap, s))
            t_big = R_chart_kinetic(kap, to_R_chart(kap, s))
            assert t_rho == pytest.approx(t0, rel=1e-12)
            assert t_big == pytest.approx(t0, rel=1e-12)


def test_charts_reject_far_hemisphere():
    """For kappa > 0 the radial charts cover only cos_k(r) > 0."""
    s = PhaseState(ConfigPoint(0.75 * math.pi, 1.0, 1.0), 0.1, 0.1, 0.1)
    with pytest.raises(DomainSingularity):
        to_rho_chart(1.0, s)
    with pytest.raises(DomainSingularity):
        to_R_chart(1.0, s)


@pytest.mark.parametrize("kap", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("chart_map", [to_rho_chart, to_R_chart, from_rho_chart, from_R_chart])
def test_chart_maps_reject_a_nan_radius(chart_map, kap):
    """The chart maps returned a NaN state for a NaN radius, where an
    off-chart radius raises: the cos_k(r) > 0 guard let NaN through."""
    s = PhaseState(ConfigPoint(math.nan, 1.0, 1.0), 0.1, 0.1, 0.1)
    with pytest.raises(DomainSingularity, match="cos_k"):
        chart_map(kap, s)


def test_killing_fields_reject_axis():
    """X_1 is read off the gradient of P_1, which raises on the axis."""
    with pytest.raises(DomainSingularity):
        noether_P(1, 1.0).gradient((0.5, 1e-14, 0.3, 0.0, 0.0, 0.0))


def test_chart_kinetics_reject_a_non_finite_kappa():
    """rho_chart_kinetic(nan, s) used to return nan and R_chart_kinetic(inf,
    s) inf; they raise as the kernels do, and so do the chart Hamiltonians
    of a hand-built spec, which make_system would have refused."""
    s = PhaseState(ConfigPoint(0.5, 1.0, 0.3), 0.2, 0.3, 0.4)
    for bad in (math.nan, math.inf, -math.inf):
        for kinetic in (rho_chart_kinetic, R_chart_kinetic):
            with pytest.raises(ValueError, match="kappa must be finite"):
                kinetic(bad, s)
        for sid in ("oscillator", "kepler"):
            spec = SystemSpec(sid, bad)
            for hamiltonian in (rho_chart_hamiltonian_value, R_chart_hamiltonian_value):
                with pytest.raises(ValueError, match="kappa must be finite"):
                    hamiltonian(spec, s)
