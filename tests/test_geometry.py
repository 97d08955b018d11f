"""Metric, Killing fields, Legendre maps, geodesics, and radial charts."""
import math

import numpy as np
import pytest

import oracles
from curvedyn.dynamics import integrate
from curvedyn.geometry import (
    KILLING_IDS,
    ConfigPoint,
    PhaseState,
    VelocityState,
    from_R_chart,
    from_rho_chart,
    geodesic_rhs,
    killing_field,
    kinetic_energy,
    legendre,
    legendre_inv,
    lie_bracket_numeric,
    lie_derivative_metric,
    metric_coeffs,
    R_chart_kinetic,
    rho_chart_kinetic,
    to_R_chart,
    to_rho_chart,
    volume_density,
    volume_divergence,
)
from curvedyn.kappa_core import DomainSingularity, cos_k, sin_k
from curvedyn.systems import R_chart_hamiltonian_value, SystemSpec, rho_chart_hamiltonian_value

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


def test_metric_and_volume():
    rng = np.random.default_rng(1)
    for kap in KAPPAS + (0.0,):
        q = rand_point(rng, kap)
        s = oracles.sk(kap, q.r)
        g1, g2, g3 = metric_coeffs(kap, q)
        assert g1 == 1.0
        assert g2 == pytest.approx(s * s, rel=1e-14)
        assert g3 == pytest.approx(s * s * math.sin(q.theta) ** 2, rel=1e-14)
        assert volume_density(kap, q) == pytest.approx(s * s * math.sin(q.theta), rel=1e-14)


def test_killing_fields_preserve_metric():
    """Lie derivative of the metric along each field vanishes."""
    rng = np.random.default_rng(2)
    for kap in KAPPAS:
        for _ in range(50):
            q = rand_point(rng, kap)
            for fid in KILLING_IDS:
                ld = lie_derivative_metric(fid, kap, q)
                assert np.max(np.abs(ld)) < 1e-8, (fid, kap)


def test_killing_fields_preserve_volume():
    rng = np.random.default_rng(3)
    for kap in KAPPAS:
        for _ in range(20):
            q = rand_point(rng, kap)
            for fid in KILLING_IDS:
                assert abs(volume_divergence(fid, kap, q)) < 1e-8, (fid, kap)


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
        for _ in range(5):
            q = rand_point(rng, kap)
            for fa, fb, expect in LIE_TABLE:
                got = lie_bracket_numeric(fa, fb, kap, q).as_array()
                want = np.zeros(3)
                for coef, fid in expect(kap):
                    want += coef * killing_field(fid, kap, q).as_array()
                assert np.max(np.abs(got - want)) < 1e-6, (fa, fb, kap)


def test_killing_contractions_give_momenta():
    """p . X_i equals the Noether momenta, p . Y_i the angular ones."""
    rng = np.random.default_rng(5)
    for kap in KAPPAS:
        s = rand_state(rng, kap)
        p = np.array([s.p_r, s.p_theta, s.p_phi])
        tup = tuple(s.as_array())
        for i in (1, 2, 3):
            x = killing_field(f"X{i}", kap, s.q).as_array()
            y = killing_field(f"Y{i}", kap, s.q).as_array()
            assert p @ x == pytest.approx(oracles.noether(i, kap, tup), rel=1e-12, abs=1e-12)
            assert p @ y == pytest.approx(oracles.angular(i, tup), rel=1e-12, abs=1e-12)


def test_legendre_round_trip():
    rng = np.random.default_rng(6)
    for kap in KAPPAS + (0.0,):
        for _ in range(100):
            q = rand_point(rng, kap)
            v = VelocityState(q, *rng.uniform(-1.0, 1.0, 3))
            back = legendre_inv(kap, legendre(kap, v))
            assert np.max(np.abs(back.as_array() - v.as_array())) < 1e-13


def test_legendre_energy_consistency():
    """Kinetic energy of v equals the momentum form at legendre(v)."""
    rng = np.random.default_rng(7)
    for kap in KAPPAS:
        q = rand_point(rng, kap)
        v = VelocityState(q, 0.3, -0.2, 0.5)
        s = legendre(kap, v)
        tup = tuple(s.as_array())
        assert kinetic_energy(kap, v) == pytest.approx(oracles.kinetic(kap, tup), rel=1e-13)


def test_geodesic_motion_conserves_energy_and_momenta():
    """Second-order geodesic flow keeps T and all six momenta flat."""
    rng = np.random.default_rng(8)
    for kap in (1.0, -1.0):
        q = rand_point(rng, kap)
        # Slow start in the hyperbolic case so the escaping orbit stays at
        # moderate r and accumulated step error stays well below the bar.
        scale = 1.0 if kap > 0 else 0.35
        v0 = VelocityState(q, 0.2 * scale, 0.3 * scale, -0.25 * scale)
        traj = integrate(
            lambda t, y: geodesic_rhs(kap, y),
            v0.as_array(),
            (0.0, 10.0),
            method="rk45_adaptive",
            tol=1e-12,
        )
        t0 = kinetic_energy(kap, v0)
        first = legendre(kap, v0).as_array()
        for y in traj.states[:: max(1, len(traj.states) // 50)]:
            v = VelocityState.from_array(y)
            assert abs(kinetic_energy(kap, v) - t0) / max(1.0, abs(t0)) < 1e-9
            s = tuple(legendre(kap, v).as_array())
            for i in (1, 2, 3):
                p0 = oracles.noether(i, kap, tuple(first))
                j0 = oracles.angular(i, tuple(first))
                assert abs(oracles.noether(i, kap, s) - p0) < 1e-9
                assert abs(oracles.angular(i, s) - j0) < 1e-9


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


def test_killing_fields_reject_axis():
    with pytest.raises(DomainSingularity):
        killing_field("X1", 1.0, ConfigPoint(0.5, 1e-14, 0.3))
    with pytest.raises(ValueError):
        killing_field("Z9", 1.0, ConfigPoint(0.5, 1.0, 0.3))


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
