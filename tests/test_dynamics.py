"""Bracket engine, integrators, sampling, audits, and orbit detection."""
import itertools
import math
import re
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvedyn import dynamics
from curvedyn.dynamics import (
    Trajectory,
    bracket_table_audit,
    closed_orbit_check,
    conservation_report,
    fradkin_audit,
    independence_rank,
    integrate,
    poisson_bracket,
    sample_state,
)
from curvedyn.kappa_core import DomainSingularity, cos_k, sin_cos_k
from curvedyn.observables import (
    Observable,
    angular_J,
    coordinate,
    fradkin_K,
    kinetic,
    noether_P,
    scaled_sum,
    square,
)
from curvedyn.systems import (
    SYSTEM_IDS,
    catalog,
    hamilton_rhs,
    hamiltonian,
    make_system,
    rho_chart_rhs,
)

KAPPAS = (1.0, -1.0, 0.7, -0.3)
ADAPTIVE = ("dop853", "rk45_adaptive")

# Flat Kepler circular orbit: r = 1, p_phi = 1 balances -1/r^2 against
# the centrifugal term, so the period is exactly 2 pi.
CIRC_SPEC = dict(system_id="kepler", kappa=0.0, k=-1.0)
CIRC_Y0 = np.array([1.0, math.pi / 2.0, 0.0, 0.0, 0.0, 1.0])

# Along the circular orbit only phi advances, linearly, so every
# Runge-Kutta method reproduces it exactly and no truncation error can
# be measured there.  Order measurements use this eccentric orbit and a
# tight-tolerance reference endpoint instead.
ECC_Y0 = np.array([1.0, math.pi / 2.0, 0.0, 0.0, 0.0, 1.2])


def circ_rhs():
    return hamilton_rhs(make_system(**CIRC_SPEC))


def ecc_reference(rhs, t_end):
    return integrate(rhs, ECC_Y0, (0.0, t_end), method="rk45_adaptive", tol=1e-13).final_state


# ---------------------------------------------------------------------------
# Bracket engine.

FD_STEP = 1e-6  # central-difference step of bracket_fd


def bracket_fd(f, g, s):
    """{f, g} of two functions of the state by central differences."""
    y = tuple(map(float, s))
    df, dg = (oracles.central_difference(lambda x, fn=fn: (fn(x),), y, FD_STEP) for fn in (f, g))
    return sum(df[j][0] * dg[j + 3][0] - df[j + 3][0] * dg[j][0] for j in range(3))


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(10)
    kap = 0.7
    spec = make_system("oscillator", kappa=kap, alpha=1.3)
    h = hamiltonian(spec)
    fs = [noether_P(1, kap), angular_J(2), fradkin_K(1, 2, kap, 1.3), h]
    for _ in range(20):
        s = sample_state(spec, rng, margin=0.1)
        for f in fs:
            assert poisson_bracket(f, f, s) == 0.0
            for g in fs:
                a = poisson_bracket(f, g, s)
                b = poisson_bracket(g, f, s)
                assert abs(a + b) < 1e-9
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        combo = scaled_sum("combo", [(c1, fs[0]), (c2, fs[1])])
        lhs = poisson_bracket(combo, h, s)
        rhs = c1 * poisson_bracket(fs[0], h, s) + c2 * poisson_bracket(fs[1], h, s)
        assert abs(lhs - rhs) < 1e-9


def test_bracket_leibniz_rule():
    """{f^2, g} = 2 f {f, g} for squared observables."""
    rng = np.random.default_rng(11)
    kap = -0.3
    spec = make_system("oscillator", kappa=kap, alpha=1.3)
    h = hamiltonian(spec)
    for f in (noether_P(2, kap), angular_J(1)):
        fsq = square(f)
        for _ in range(20):
            s = sample_state(spec, rng, margin=0.1)
            lhs = poisson_bracket(fsq, h, s)
            rhs = 2.0 * f.value(s) * poisson_bracket(f, h, s)
            assert abs(lhs - rhs) < 1e-9


def test_momentum_bracket_tables():
    """{P_i,P_j} = kappa J_k, {J_i,J_j} = J_k, {J_i,P_j} = P_k cyclically."""
    rng = np.random.default_rng(12)
    for kap in KAPPAS + (0.0,):
        spec = make_system("free", kappa=kap)
        p = {i: noether_P(i, kap) for i in (1, 2, 3)}
        j = {i: angular_J(i) for i in (1, 2, 3)}
        for _ in range(10):
            s = sample_state(spec, rng, margin=0.1)
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                assert abs(poisson_bracket(p[a], p[b], s) - kap * j[c].value(s)) < 1e-12
                assert abs(poisson_bracket(j[a], j[b], s) - j[c].value(s)) < 1e-12
                assert abs(poisson_bracket(j[a], p[b], s) - p[c].value(s)) < 1e-12
                assert abs(poisson_bracket(j[a], p[a], s)) < 1e-12


def test_central_systems_conserve_j3():
    rng = np.random.default_rng(13)
    j3 = angular_J(3)
    for sid in ("free", "oscillator", "kepler"):
        for kap in KAPPAS:
            spec = make_system(sid, kappa=kap)
            h = hamiltonian(spec)
            for _ in range(10):
                s = sample_state(spec, rng, margin=0.1)
                assert abs(poisson_bracket(j3, h, s)) < 1e-11, (sid, kap)


def test_jacobi_identity_spot_checks():
    """Sum of cyclic double brackets vanishes; outer bracket taken by FD."""

    def jacobi(f, g, h, y):
        def inner(a, b):
            return lambda z: poisson_bracket(a, b, z)

        return (
            bracket_fd(f.value, inner(g, h), y)
            + bracket_fd(g.value, inner(h, f), y)
            + bracket_fd(h.value, inner(f, g), y)
        )

    for kap in KAPPAS:
        spec = make_system("kepler", kappa=kap, k=-1.0)
        cat = catalog(spec)
        rng = np.random.default_rng(7)
        p1, p2, j3 = noether_P(1, kap), noether_P(2, kap), angular_J(3)
        kr1, kr2 = cat.get("KRL1"), cat.get("KRL2")
        for _ in range(10):
            s = sample_state(spec, rng, margin=0.12)
            assert abs(jacobi(p1, p2, j3, s)) < 1e-8
            assert abs(jacobi(kr1, kr2, j3, s)) < 1e-8


def test_fd_bracket_agreement():
    rng = np.random.default_rng(14)
    for kap in KAPPAS:
        spec = make_system("oscillator", kappa=kap, alpha=1.3)
        h = hamiltonian(spec)
        obs = [noether_P(1, kap), angular_J(3), fradkin_K(1, 1, kap, 1.3), h]
        for _ in range(25):
            s = sample_state(spec, rng, margin=0.1)
            for f in obs:
                a = poisson_bracket(f, h, s)
                b = bracket_fd(f.value, h.value, s)
                assert abs(a - b) < 1e-6, (kap, f.name)
            assert abs(bracket_fd(angular_J(3).value, angular_J(3).value, s)) < 1e-10


def test_fd_bracket_coordinate_momentum():
    """{x_kappa, P_1} equals cos_k(r) on the whole state space."""
    rng = np.random.default_rng(15)
    for kap in KAPPAS:
        spec = make_system("free", kappa=kap)
        x1 = coordinate(1, kap)
        p1 = noether_P(1, kap)
        for _ in range(20):
            s = sample_state(spec, rng, margin=0.1)
            want = cos_k(kap, s[0])
            assert abs(bracket_fd(x1.value, p1.value, s) - want) < 1e-6
            assert abs(poisson_bracket(x1, p1, s) - want) < 1e-12


# ---------------------------------------------------------------------------
# Integrators.

def test_integrate_validation():
    """Bad input raises at once instead of spinning or returning one sample."""
    rhs = circ_rhs()
    with pytest.raises(ValueError):
        integrate(rhs, CIRC_Y0, (0.0, 1.0), method="euler")
    with pytest.raises(ValueError):
        integrate(rhs, CIRC_Y0, (1.0, 0.0))
    with pytest.raises(ValueError):
        integrate(rhs, CIRC_Y0, (0.0, 1.0), method="rk4_fixed")
    bad = [
        (np.where(np.arange(6) == 3, math.nan, CIRC_Y0), (0.0, 1.0), {}),
        (np.where(np.arange(6) == 5, math.inf, CIRC_Y0), (0.0, 1.0), {}),
        (np.tile(CIRC_Y0, (2, 1)), (0.0, 1.0), {}),
        (np.empty(0), (0.0, 1.0), {}),
        (CIRC_Y0, (0.0, math.inf), {}),
        (CIRC_Y0, (0.0, math.nan), {}),
        (CIRC_Y0, (-math.inf, 1.0), {}),
        (CIRC_Y0, (0.0, 1.0), {"method": "rk4_fixed", "dt": 0.0}),
        (CIRC_Y0, (0.0, 1.0), {"method": "rk4_fixed", "dt": -0.1}),
        (CIRC_Y0, (0.0, 1.0), {"dt": math.nan}),
        (CIRC_Y0, (0.0, 1.0), {"tol": 0.0}),
        (CIRC_Y0, (0.0, 1.0), {"tol": -1e-10}),
        (CIRC_Y0, (0.0, 1.0), {"tol": math.nan}),
        (CIRC_Y0, (0.0, 1.0), {"tol": math.inf}),
        (CIRC_Y0, (0.0, 1.0), {"max_steps": 0}),
        (CIRC_Y0, (0.0, 1.0), {"max_steps": -5}),
        (CIRC_Y0, (0.0, 1.0), {"method": "rk4_fixed", "dt": 0.1, "max_steps": 0}),
        (CIRC_Y0, (0.0, 1.0), {"max_steps": 2.5}),
        (CIRC_Y0, (0.0, 1.0), {"max_steps": np.float64(3)}),
        (CIRC_Y0, (0.0, 1.0), {"max_steps": True}),
    ]
    for y0, t_span, kwargs in bad:
        counted = CountingRhs(rhs)
        with pytest.raises(ValueError, match="^(y0|t_span|dt|tol|max_steps) must"):
            integrate(counted, y0, t_span, **kwargs)
        assert counted.calls == [], kwargs


def nan_past_rhs(t, y):
    """Unit drift in r that turns NaN once r reaches 1.5."""
    out = np.zeros(6)
    out[0] = 1.0 if y[0] < 1.5 else math.nan
    return out


def wall_rhs(t, y):
    """Unit drift in r behind a domain wall at r = 1.5."""
    if y[0] > 1.5:
        raise DomainSingularity("test wall")
    out = np.zeros(6)
    out[0] = 1.0
    return out


NAN_PAST_Y0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_adaptive_truncates_on_nonfinite_state():
    """A NaN stage ends the run at once, even at the default max_steps."""
    start = time.perf_counter()
    traj = integrate(nan_past_rhs, NAN_PAST_Y0, (0.0, 2.0), method="rk45_adaptive")
    assert time.perf_counter() - start < 1.0
    assert traj.truncated
    assert traj.diagnostics["reason"] == "non-finite state"
    assert np.isfinite(traj.states).all()
    assert traj.times[-1] <= 0.5 + 1e-12


@pytest.mark.parametrize("method", ["rk4_fixed", "implicit_midpoint"])
def test_fixed_step_honours_max_steps(method):
    """A fixed-step run stops after max_steps steps with the adaptive
    methods' reason, on the steps of the uncapped run; a subnormal dt,
    whose step count overflows the floats, truncates too."""
    rhs = circ_rhs()
    full = integrate(rhs, ECC_Y0, (0.0, 1.0), method=method, dt=0.1)
    capped = integrate(rhs, ECC_Y0, (0.0, 1.0), method=method, dt=0.1, max_steps=3)
    assert not full.truncated and full.diagnostics["n_steps"] == 10
    assert capped.truncated and capped.diagnostics["reason"] == "max_steps exceeded"
    assert capped.diagnostics["n_steps"] == 3
    assert np.array_equal(capped.times, full.times[:4])
    assert np.array_equal(capped.states, full.states[:4])
    exact = integrate(rhs, ECC_Y0, (0.0, 1.0), method=method, dt=0.1, max_steps=10)
    assert not exact.truncated and np.array_equal(exact.states, full.states)
    tiny = integrate(rhs, ECC_Y0, (0.0, 1.0), method=method, dt=5e-324, max_steps=5)
    assert tiny.truncated and tiny.diagnostics["reason"] == "max_steps exceeded"
    assert len(tiny.times) == 6


def test_fixed_step_truncates_on_nonfinite_state():
    """rk4_fixed stops at the last finite state instead of storing NaN rows."""
    traj = integrate(nan_past_rhs, NAN_PAST_Y0, (0.0, 2.0), method="rk4_fixed", dt=0.01)
    assert traj.truncated
    assert traj.diagnostics["reason"] == "non-finite state"
    assert np.isfinite(traj.states).all()
    assert len(traj.times) == len(traj.states) == traj.diagnostics["n_steps"] + 1
    # The step from r = 1.49 probes r > 1.5 and is the first to go NaN.
    assert traj.times[-1] == pytest.approx(0.49)


def test_adaptive_counts_pinned_on_readme_orbit():
    """Step, rejection and evaluation counts of the README oscillator orbit.

    On a run with no domain-singularity retries every attempt costs six
    evaluations and the first step one more: the first stage depends on
    the state alone, so a rejected attempt keeps it.
    """
    rhs = hamilton_rhs(make_system("oscillator", kappa=1.0))
    y0 = np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35])
    for tol, steps, rejected, evals in ((1e-10, 1740, 2, 10453), (1e-12, 4381, 2, 26299)):
        traj = integrate(rhs, y0, (0.0, 20.0), method="rk45_adaptive", tol=tol)
        d = traj.diagnostics
        assert not traj.truncated
        assert (d["n_steps"], d["n_rejected"], d["n_rhs_evals"]) == (steps, rejected, evals)
        assert d["n_rhs_evals"] == 6 * (d["n_steps"] + d["n_rejected"]) + 1
        assert len(traj.times) == len(traj.states) == d["n_steps"] + 1
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 20.0
        assert np.array_equal(traj.states[0], y0)


class CountingRhs:
    """Wraps an rhs and records (t, state) of every call that returned."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = []

    def __call__(self, t, y):
        out = self.rhs(t, y)
        self.calls.append((t, tuple(y)))
        return out


def test_rhs_eval_counts_match_a_call_counter():
    """Each method's reported counts account for the rhs calls it made."""
    osc = hamilton_rhs(make_system("oscillator", kappa=1.0))
    readme_y0 = np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35])

    def walled(t, y):
        if y[0] > 0.805:
            raise DomainSingularity("test wall")
        return osc(t, y)

    # The first stage at a stored state is evaluated once, also when an
    # attempt from it is rejected (README orbit) or raises (wall run).  A
    # state may still see two calls where the last two stages (both at
    # c = 1) share a point: always under the constant drift of
    # nan_past_rhs, and in the wall run once dt drops below the
    # resolution of the state.  There a third call comes from DOP853's
    # stage at c = 1/4 in an attempt that raised, since the retry takes
    # a quarter of its step.
    adaptive = (
        (osc, readme_y0, False, {"dop853": 1, "rk45_adaptive": 1}),
        (nan_past_rhs, NAN_PAST_Y0, True, None),
        # Stages past the wall raise, and the step is retried down to dt_min.
        (walled, readme_y0, True, {"dop853": 3, "rk45_adaptive": 2}),
    )
    for method, (rhs, y0, truncated, max_calls) in itertools.product(ADAPTIVE, adaptive):
        counted = CountingRhs(rhs)
        traj = integrate(counted, y0, (0.0, 20.0), method=method, tol=1e-10)
        d = traj.diagnostics
        assert traj.truncated == truncated
        assert d["n_rhs_evals"] == len(counted.calls)
        assert d["n_steps"] == len(traj.times) - 1
        if max_calls is None:
            continue
        if not truncated:
            # Each attempt costs a stage per row of A but the first.
            per_attempt = len(dynamics._TABLEAUX[method][0][0]) - 1
            assert d["n_rhs_evals"] == per_attempt * (d["n_steps"] + d["n_rejected"]) + 1
        assert d["n_rejected"] > 0, method
        calls = Counter(counted.calls)
        for t, y in zip(traj.times.tolist(), traj.states.tolist()):
            assert 1 <= calls[t, tuple(y)] <= max_calls[method], method

    # rk4_fixed calls the rhs four times a step; implicit_midpoint adds a
    # call per fixed-point iteration to its RK4 warm start.  The wall runs
    # end on a call that raised, the dt = 0.9 run on an iteration that did
    # not converge.
    runs = (
        ("rk4_fixed", osc, readme_y0, 0.01, 1.0, None),
        ("rk4_fixed", nan_past_rhs, NAN_PAST_Y0, 0.01, 2.0, "non-finite state"),
        ("rk4_fixed", wall_rhs, NAN_PAST_Y0, 0.01, 2.0, "domain singularity: test wall"),
        ("rk4_fixed", wall_rhs, np.array([1.6, 1.0, 1.0, 0.0, 0.0, 0.0]), 0.01, 2.0,
         "domain singularity: test wall"),
        ("implicit_midpoint", osc, readme_y0, 0.01, 1.0, None),
        ("implicit_midpoint", osc, readme_y0, 0.9, 2.0,
         "implicit solve did not converge at t = 0.0"),
        ("implicit_midpoint", nan_past_rhs, NAN_PAST_Y0, 0.01, 2.0, "non-finite state"),
        ("implicit_midpoint", wall_rhs, NAN_PAST_Y0, 0.01, 2.0, "domain singularity: test wall"),
    )
    for method, rhs, y0, dt, t1, reason in runs:
        counted = CountingRhs(rhs)
        traj = integrate(counted, y0, (0.0, t1), method=method, dt=dt)
        d = traj.diagnostics
        assert d.get("reason") == reason and traj.truncated == (reason is not None), (method, d)
        assert d["n_rhs_evals"] == len(counted.calls), (method, d)
        assert d["n_steps"] == len(traj.times) - 1 == len(traj.states) - 1, (method, d)
        assert d["n_rejected"] == 0
        if method == "rk4_fixed":
            # Four per step, with those of a last step that failed.
            failed = 4 if reason is not None else 0
            assert 4 * d["n_steps"] <= d["n_rhs_evals"] <= 4 * d["n_steps"] + failed, d
        else:
            # At least one iteration per accepted step.
            assert d["n_rhs_evals"] >= 5 * d["n_steps"], d
        if reason is None:
            assert d["n_steps"] == 100
            assert set(d) == {"method", "tol", "dt", "n_steps", "n_rejected", "n_rhs_evals"}
    # Every method reports the same diagnostics keys.
    keys = {method: set(integrate(osc, readme_y0, (0.0, 1.0), method=method, dt=0.01).diagnostics)
            for method in dynamics.METHODS}
    assert len(set(map(frozenset, keys.values()))) == 1, keys


def test_runge_kutta_tableaux_order_conditions():
    """Row sums of A equal the nodes c, and the weights b (the last row of
    A) meet sum b_i c_i^(k-1) = 1/k up to the order of the method; the
    embedded Dormand-Prince 5(4) weights b - e meet it up to order 4 only,
    and the 8(5,3) weights b, b - E5 and b - E3 up to orders 8, 5 and 3."""
    tableaux = ((dynamics._RK4, 4, False), (dynamics._DP54_TABLEAU, 5, True),
                (dynamics._DOP853_TABLEAU, 8, True))
    for (c, A), order, fsal in tableaux:
        c = np.array(c)
        n = len(c)
        assert A.shape == (n + (not fsal),) * 2
        assert np.array_equal(A, np.tril(A, -1))
        assert np.allclose(A.sum(axis=1)[:n], c, rtol=0.0, atol=1e-15)
        b = A[-1]
        assert b[n:].size == int(not fsal) and not b[n:].any()
        for k in range(1, order + 1):
            assert abs(b[:n] @ c ** (k - 1) - 1.0 / k) < 1e-15, k
    c, A = dynamics._DP54_TABLEAU
    assert c[-1] == 1.0  # the weights row is the FSAL stage, at t + dt
    embedded = A[-1] - dynamics._DP_E
    for k in range(1, 5):
        assert abs(embedded @ np.array(c) ** (k - 1) - 1.0 / k) < 1e-15, k
    assert abs(embedded @ np.array(c) ** 4 - 1.0 / 5.0) > 1e-4
    c, A = dynamics._DOP853_TABLEAU
    c = np.array(c)
    assert c[-1] == 1.0
    e5, e3 = dynamics._DOP853_E
    for weights, order in ((A[-1], 8), (A[-1] - e5, 5), (A[-1] - e3, 3)):
        for k in range(1, order + 1):
            assert abs(weights @ c ** (k - 1) - 1.0 / k) < 1e-15, (order, k)
        assert abs(weights @ c**order - 1.0 / (order + 1)) > 1e-5, order


def test_stage_evals_count_the_calls_that_returned():
    """An rhs that raises mid-step leaves evals at the calls before it.
    RK4's step evaluates its first stage too; an embedded pair's attempt
    is handed it."""
    f = circ_rhs()
    y0 = tuple(ECC_Y0.tolist())
    for method, (tableau, _) in dynamics._TABLEAUX.items():
        fsal = len(tableau[0]) == len(tableau[1])
        stage_function = dynamics._stage_function(method, 6)

        def step(rhs, counts):
            if fsal:
                return stage_function(rhs, counts, 0.0, y0, 0.1, f(0.0, y0))
            return stage_function(rhs, counts, 0.0, y0, 0.1)

        n_calls = len(tableau[0]) - fsal
        for fail_at in range(1, n_calls + 1):
            calls = []

            def failing(t, y):
                if len(calls) + 1 == fail_at:
                    raise DomainSingularity("test stage")
                calls.append(t)
                return f(t, y)

            counts = dynamics._Counts()
            with pytest.raises(DomainSingularity, match="test stage"):
                step(failing, counts)
            assert counts.evals == len(calls) == fail_at - 1
            step(f, counts)
            assert counts.evals == fail_at - 1 + n_calls


def test_dop853_eighth_order_convergence():
    """Fixed Dormand-Prince 8(5,3) steps: the endpoint error falls as dt^8."""
    f = circ_rhs()
    attempt = dynamics._stage_function("dop853", 6)
    counts = dynamics._Counts()

    def endpoint(n):
        y = tuple(ECC_Y0.tolist())
        for i in range(n):
            t = 3.0 * i / n
            y = attempt(f, counts, t, y, 3.0 / n, f(t, y))[0]
        return np.array(y)

    ref = endpoint(200)
    ns = (8, 12, 16)
    errs = [float(np.max(np.abs(endpoint(n) - ref))) for n in ns]
    for (n0, e0), (n1, e1) in zip(zip(ns, errs), zip(ns[1:], errs[1:])):
        assert abs(math.log(e0 / e1) / math.log(n1 / n0) - 8.0) < 0.5, errs


_PARAMS = {"kepler": {"k": -1.0}, "kepler123": {"k": -1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3},
           "sw": {"k1": 0.1, "k2": 0.2, "k3": 0.3}, "osc112": {"k1": 0.1, "k2": 0.2}}


@st.composite
def integrate_calls(draw):
    """(method, y0, t_span, dt, tol, max_steps) of one integrate call, all
    valid or with one of them out of its domain.  y0 may sit on a pole:
    r = 0, or theta = 0 or pi."""
    method = draw(st.sampled_from(dynamics.METHODS))
    y0 = [draw(st.floats(0.0, 3.0) | st.just(0.0)),
          draw(st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi])),
          draw(st.floats(-4.0, 4.0)), *draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))]
    t0 = draw(st.floats(-1.0, 1.0))
    t_span = (t0, t0 + draw(st.floats(1e-3, 0.2)))
    dt = None if method in ADAPTIVE and draw(st.booleans()) else draw(st.floats(1e-3, 0.5))
    tol = draw(st.floats(1e-12, 1e-2))
    bad = draw(st.sampled_from(["", "", "", "method", "y0", "t_span", "dt", "tol"]))
    if bad == "method":
        method = "euler"
    elif bad == "y0":
        y0[draw(st.integers(0, 5))] = draw(st.sampled_from([math.nan, math.inf]))
    elif bad == "t_span":
        t_span = (t0, draw(st.sampled_from([t0, t0 - 0.1, math.nan, math.inf])))
    elif bad == "dt":
        dt = draw(st.sampled_from([None, 0.0, -0.1, math.nan, math.inf]))
    elif bad == "tol":
        tol = draw(st.sampled_from([0.0, -1.0, math.nan, math.inf]))
    return method, y0, t_span, dt, tol, draw(st.integers(1, 200))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sid=st.sampled_from(SYSTEM_IDS), kap=st.sampled_from([-1.0, 0.0, 1.0]), call=integrate_calls())
def test_integrate_finishes_or_rejects_input(sid, kap, call):
    """integrate either raises ValueError before any rhs call or returns
    finite samples, n_steps of them past the first, with a reason exactly
    when the run was truncated; it never raises mid-run."""
    method, y0, t_span, dt, tol, max_steps = call
    counted = CountingRhs(hamilton_rhs(make_system(sid, kap, **_PARAMS.get(sid, {}))))
    try:
        traj = integrate(counted, y0, t_span, method=method, dt=dt, tol=tol, max_steps=max_steps)
    except ValueError:
        assert counted.calls == []
        return
    d = traj.diagnostics
    assert np.isfinite(traj.times).all() and np.isfinite(traj.states).all()
    assert traj.states.shape == (len(traj.times), 6)
    assert d["n_steps"] == len(traj.times) - 1
    assert traj.truncated == ("reason" in d)
    assert d["n_steps"] + d.get("n_rejected", 0) <= max_steps


def test_rk4_fourth_order_convergence():
    """Halving dt divides the endpoint error by about 16."""
    rhs = circ_rhs()
    ref = ecc_reference(rhs, 3.0)

    def endpoint_error(n):
        traj = integrate(rhs, ECC_Y0, (0.0, 3.0), method="rk4_fixed", dt=3.0 / n)
        return float(np.max(np.abs(traj.final_state - ref)))

    errs = [endpoint_error(n) for n in (100, 200, 400)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 12.0 < e0 / e1 < 20.0, errs


def test_implicit_midpoint_second_order_convergence():
    rhs = circ_rhs()
    ref = ecc_reference(rhs, 3.0)

    def endpoint_error(n):
        traj = integrate(
            rhs, ECC_Y0, (0.0, 3.0), method="implicit_midpoint", dt=3.0 / n
        )
        return float(np.max(np.abs(traj.final_state - ref)))

    errs = [endpoint_error(n) for n in (200, 400, 800)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.5 < e0 / e1 < 4.5, errs


def test_adaptive_tolerance_adherence():
    rhs = circ_rhs()
    ref = ecc_reference(rhs, 3.0)
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate(rhs, ECC_Y0, (0.0, 3.0), method="rk45_adaptive", tol=tol)
        errs.append(float(np.max(np.abs(traj.final_state - ref))))
        assert traj.diagnostics["n_steps"] == len(traj.times) - 1
        assert not traj.truncated
    assert errs[0] < 1e-4 and errs[1] < 1e-7 and errs[2] < 1e-10
    assert errs[2] < errs[1] < errs[0]


def test_flat_radial_launch_is_linear():
    """Flat free motion with p_theta = p_phi = 0 keeps r(t) = r0 + p_r t."""
    spec = make_system("free", kappa=0.0)
    rhs = hamilton_rhs(spec)
    y0 = np.array([1.0, math.pi / 2.0, 0.3, 0.4, 0.0, 0.0])
    traj = integrate(rhs, y0, (0.0, 5.0), method="rk45_adaptive", tol=1e-12)
    expect = y0[0] + y0[3] * traj.times
    assert float(np.max(np.abs(traj.states[:, 0] - expect))) < 1e-10
    assert float(np.max(np.abs(traj.states[:, 1:] - y0[1:]))) < 1e-10


# Worst gap to the exact geodesic measured with these states (the largest
# is a momentum in every case), and the bound, about ten times that.
EXACT_FREE_MOTION = (
    ("dop853", {"tol": 1e-12}, 1e-10),  # 6.8e-12
    ("rk45_adaptive", {"tol": 1e-12}, 2e-10),  # 1.4e-11
    ("rk4_fixed", {"dt": 1e-3}, 3e-9),  # 3.2e-10
    ("implicit_midpoint", {"dt": 1e-3}, 5e-4),  # 6.9e-5, second order
)


@pytest.mark.parametrize("method, opts, bound", EXACT_FREE_MOTION,
                         ids=[row[0] for row in EXACT_FREE_MOTION])
def test_free_motion_matches_exact_geodesic(method, opts, bound):
    """Every method follows free motion to the exact state of the oracles'
    ambient-coordinate geodesic, at every stored time of t in [0, 2], on
    three states for each kappa of the acceptance suite."""
    for kap in (-1.0, -0.3, 0.0, 0.7, 1.0):
        spec = make_system("free", kap)
        rng = np.random.default_rng(2024)
        for _ in range(3):
            y0 = sample_state(spec, rng, min_angular=0.3)
            traj = integrate(hamilton_rhs(spec), y0, (0.0, 2.0), method=method, **opts)
            assert not traj.truncated
            start = y0.tolist()
            worst = max(oracles.state_gap(y, oracles.geodesic_exact(kap, start, t))
                        for t, y in zip(traj.times.tolist(), traj.states.tolist()))
            assert worst < bound, (method, kap, worst)


def test_flat_kepler_circular_period():
    spec = make_system(**CIRC_SPEC)
    result = closed_orbit_check(spec, CIRC_Y0, 10.0)
    assert result.found
    assert abs(result.period - 2.0 * math.pi) < 1e-6
    assert result.distance < 1e-6


def test_implicit_midpoint_energy_bounded():
    """Long oscillator run keeps |dH/H| below 1e-6 with no secular growth."""
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    rhs = hamilton_rhs(spec)
    h = hamiltonian(spec)
    y0 = np.array([0.7, 1.1, 0.5, 0.2, 0.3, 0.4])
    traj = integrate(rhs, y0, (0.0, 100.0), method="implicit_midpoint", dt=1e-3)
    assert not traj.truncated
    sub = traj.thin(4000)
    h_vals = np.array([h.value(y) for y in sub.states])
    rel = np.abs(h_vals - h_vals[0]) / abs(h_vals[0])
    assert float(np.max(rel)) < 1e-6
    # No secular growth: the last quarter drifts no worse than the bound.
    quarter = len(rel) // 4
    assert float(np.max(rel[-quarter:])) < 1e-6


def test_closed_orbit_rejects_bad_return_tol(monkeypatch):
    """A return_tol that is not positive and finite raises before the run."""
    monkeypatch.setattr(dynamics, "integrate", None)
    spec = make_system("free", kappa=1.0)
    for return_tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="return_tol must be positive and finite"):
            closed_orbit_check(spec, ECC_Y0, 10.0, return_tol=return_tol)


def test_closed_orbit_rejects_bad_state(monkeypatch):
    """A y0 that is not a finite 6-vector raises, naming the function, and
    a t_max that is not positive and finite raises, naming t_max (not the
    t_span of the run it would start), both before the rhs is built or
    the run starts."""
    monkeypatch.setattr(dynamics, "integrate", None)
    monkeypatch.setattr(dynamics, "hamilton_rhs", None)
    spec = make_system("free", kappa=1.0)
    for y0 in (ECC_Y0[:5], np.tile(ECC_Y0, (2, 1)), np.where(np.arange(6) == 2, math.nan, ECC_Y0),
               np.where(np.arange(6) == 4, math.inf, ECC_Y0)):
        with pytest.raises(ValueError, match="closed_orbit_check needs a finite 6-vector y0"):
            closed_orbit_check(spec, y0, 10.0)
    for t_max in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="^t_max must be positive and finite, got"):
            closed_orbit_check(spec, ECC_Y0, t_max)


def test_implicit_midpoint_nonconvergence(monkeypatch):
    """An unattainable fixed-point tolerance truncates instead of looping."""
    monkeypatch.setattr(dynamics, "FP_TOL", 0.0)
    rhs = circ_rhs()
    traj = integrate(rhs, ECC_Y0, (0.0, 1.0), method="implicit_midpoint", dt=0.1)
    assert traj.truncated
    assert traj.diagnostics["reason"] == "implicit solve did not converge at t = 0.0"
    assert len(traj.times) == 1 and traj.diagnostics["n_steps"] == 0
    assert np.array_equal(traj.states, [ECC_Y0])


def test_implicit_midpoint_nan_truncates_at_once():
    """A NaN fixed-point iterate ends the step as a non-finite state,
    without spending the iteration budget on NaN, whichever components
    are NaN (a NaN past the first does not reach a max of magnitudes)."""
    for nan_at in (slice(None), 0, 3, 5):
        def rhs(t, y):
            out = np.ones(6)
            if y[0] > 1.5:
                out[nan_at] = math.nan
            return out

        counted = CountingRhs(rhs)
        traj = integrate(counted, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0], (0.0, 1.0),
                         method="implicit_midpoint", dt=0.01)
        assert traj.truncated and traj.diagnostics["reason"] == "non-finite state", nan_at
        assert 0.49 < traj.times[-1] < 0.52
    # Five calls per accepted step (four warm-start stages, one iterate).
    assert len(counted.calls) <= 5 * len(traj.times) + 10


def test_truncation_on_domain_singularity():
    """A zero-angular-momentum Kepler infall is cut at the collision."""
    rhs = circ_rhs()
    y0 = np.array([1.0, math.pi / 2.0, 0.0, 0.0, 0.0, 0.0])
    traj = integrate(rhs, y0, (0.0, 3.0), method="rk45_adaptive", tol=1e-10)
    assert traj.truncated
    assert "reason" in traj.diagnostics
    # Free fall from rest at r = 1 in the -1/r well collides at pi/(2 sqrt 2).
    t_collision = math.pi / (2.0 * math.sqrt(2.0))
    assert abs(traj.times[-1] - t_collision) < 1e-6
    assert not np.any(np.isnan(traj.states))


def test_adaptive_truncates_when_first_stage_fails():
    """A domain singularity at the initial state truncates without retries,
    at the default method and under Dormand-Prince 5(4)."""
    for kwargs in ({}, {"method": "rk45_adaptive"}):
        counted = CountingRhs(hamilton_rhs(make_system("free", kappa=1.0)))
        traj = integrate(counted, [1.0, 0.0, 0.3, 0.1, 0.2, 0.3], (0.0, 1.0), **kwargs)
        d = traj.diagnostics
        assert traj.truncated
        assert d["reason"].startswith("domain singularity: sin(theta)")
        assert (d["n_steps"], d["n_rejected"], d["n_rhs_evals"]) == (0, 0, 0)
        assert counted.calls == [] and len(traj.times) == 1


def test_truncation_fixed_grid():
    """The fixed-step integrators also truncate on a domain violation."""
    traj = integrate(wall_rhs, NAN_PAST_Y0, (0.0, 2.0), method="rk4_fixed", dt=0.01)
    assert traj.truncated
    assert "test wall" in traj.diagnostics["reason"]
    assert abs(traj.times[-1] - 0.5) < 0.02


def test_rhs_overflow_truncates_or_is_retried():
    """math.sinh overflows on a runaway radius at kappa < 0: the fixed-step
    methods truncate with reason "non-finite state", and the adaptive ones
    retry the step with a smaller dt, as for a domain singularity."""
    rhs = hamilton_rhs(make_system("free", kappa=-1.0))
    y0 = [0.0625, 1.0, 0.0, 0.0, 0.0, 1.0]
    for method in ("rk4_fixed", "implicit_midpoint"):
        traj = integrate(rhs, y0, (0.0, 0.125), method=method, dt=0.5)
        assert traj.truncated and traj.diagnostics["reason"] == "non-finite state"
        assert len(traj.times) == 1
    overflows = []

    def noted(t, y):
        try:
            return rhs(t, y)
        except OverflowError:
            overflows.append(t)
            raise

    for method, t1 in (("rk45_adaptive", 0.125), ("dop853", 0.5)):
        overflows.clear()
        traj = integrate(noted, y0, (0.0, t1), method=method, dt=t1)
        assert overflows and not traj.truncated, method


@pytest.mark.parametrize("method", dynamics.METHODS)
def test_infinite_coordinate_truncates_as_non_finite_state(method):
    """A finite y0 whose stages reach an infinite radius made math.sin
    raise ValueError (math domain error) inside the library's Hamilton
    equations, which escaped integrate; now the run truncates with reason
    "non-finite state".  The rhs at this y0 is itself infinite (dp_r/dt),
    which no smaller step can mend, so the adaptive methods stop at their
    first failed attempt (they retried down to DT_MIN: 17 rejections, 19
    rhs calls).  A caller's own rhs that raises ValueError, the same math
    domain error included, still gets it back."""
    y0 = [0.8, 1.2, 0.4, 0.15, 1e200, 0.35]
    traj = integrate(hamilton_rhs(make_system("free", kappa=1.0)), y0, (0.0, 1.0),
                     method=method, dt=0.01)
    d = traj.diagnostics
    assert traj.truncated and d["reason"] == "non-finite state"
    assert np.isfinite(traj.states).all() and d["n_steps"] == len(traj.times) - 1
    if method in ADAPTIVE:
        assert d["n_rejected"] == 0 and d["n_rhs_evals"] <= 2

    def own(t, y):
        return np.full(6, math.sin(math.inf if y[0] > 1.5 else y[0]))

    with pytest.raises(ValueError, match="math domain error"):
        integrate(own, [2.0, 1.0, 1.0, 0.0, 0.0, 0.0], (0.0, 1.0), method=method, dt=0.01)


def test_library_rhs_rejects_y0_of_another_length():
    """The library's Hamilton equations take 6-vectors: a y0 of another
    length raises ValueError at their first call, naming its length,
    instead of "not enough values to unpack"."""
    spec = make_system("oscillator", kappa=1.0)
    for rhs in (hamilton_rhs(spec), rho_chart_rhs(spec)):
        for n in (5, 7):
            for method in dynamics.METHODS:
                with pytest.raises(ValueError, match=f"^a state must be a 6-vector, got {n} values$"):
                    integrate(rhs, np.full(n, 0.5), (0.0, 1.0), method=method, dt=0.1)


def test_array_wrapper_of_library_rhs_steps_bit_identically():
    """integrate calls every rhs on tuples of floats, the library's too, and
    reads any sequence back: a plain pass-through wrapper of hamilton_rhs
    (as a tracer wraps it) and a wrapper that returns an ndarray give the
    bare rhs's times, states and counts bit for bit on every method, on a
    full run and on one that truncates."""
    rhs = hamilton_rhs(make_system("oscillator", kappa=1.0))
    seen = set()

    def passed(t, y):
        seen.add(type(y))
        return rhs(t, y)

    def as_array(t, y):
        seen.add(type(y))
        return np.array(rhs(t, y))

    for y0 in ([0.8, 1.2, 0.4, 0.15, 0.3, 0.35], [0.8, 1.2, 0.4, 0.15, 1e200, 0.35]):
        for method in dynamics.METHODS:
            a = integrate(rhs, y0, (0.0, 2.0), method=method, dt=0.01, tol=1e-12)
            for wrapped in (passed, as_array):
                # numpy scalars warn where floats overflow to inf silently.
                with np.errstate(over="ignore"):
                    b = integrate(wrapped, y0, (0.0, 2.0), method=method, dt=0.01, tol=1e-12)
                assert a.times.tobytes() == b.times.tobytes(), (method, wrapped)
                assert a.states.tobytes() == b.states.tobytes(), (method, wrapped)
                assert a.diagnostics == b.diagnostics, (method, wrapped)
                assert a.truncated == b.truncated, (method, wrapped)
    assert seen == {tuple}


def test_trajectory_thin():
    times = np.linspace(0.0, 1.0, 1001)
    states = np.tile(np.arange(6.0), (1001, 1)) + times[:, None]
    traj = Trajectory(times, states)
    sub = traj.thin(100)
    assert len(sub.times) == 100
    assert sub.times[0] == times[0] and sub.times[-1] == times[-1]
    assert np.array_equal(sub.states[-1], states[-1])
    assert traj.thin(5000) is traj
    assert len(traj.thin(np.int64(3)).times) == 3
    # thin(2.5) and thin(np.float64(3)) used to raise numpy's TypeError:
    # max_points passes integrate's check of max_steps.
    for bad in (1, 2.5, np.float64(3), True, "3"):
        with pytest.raises(ValueError, match="max_points must be an integer >= 2"):
            traj.thin(bad)


# ---------------------------------------------------------------------------
# Sampling and reports.

# System, parameters, the coordinate planes x, y, z = 0 the sampler must
# keep clear, and whether it must keep 1 - kappa u^2 clear as well.
SAMPLER_RULES = (
    ("sw", {"k1": 0.1, "k2": 0.2, "k3": 0.3}, (True, True, True), False),
    ("sw", {"k1": 0.1, "k2": 0.0, "k3": 0.3}, (True, False, True), False),
    ("osc112", {"k1": 0.1, "k2": 0.2}, (True, True, True), True),
    ("kepler123", {"k1": 0.1, "k2": 0.2, "k3": 0.3}, (True, True, True), False),
    ("oscillator", {}, (False, False, False), False),
)


def test_sample_state_rejection_rules():
    rng = np.random.default_rng(16)
    margin = 0.1
    for sid, params, planes, axial in SAMPLER_RULES:
        spec = make_system(sid, kappa=1.0, **params)
        near = [False, False, False]
        for _ in range(300):
            y = sample_state(spec, rng, min_angular=0.25, margin=margin)
            r, th, ph = y[:3]
            sth = math.sin(th)
            sk = math.sin(r)
            ck = math.cos(r)
            assert sth >= margin and sk >= margin and abs(ck) >= margin
            dirs = (sth * math.cos(ph), sth * math.sin(ph), math.cos(th))
            for i, (keep, d) in enumerate(zip(planes, dirs)):
                assert not keep or abs(sk * d) >= margin, (sid, params, i)
                near[i] |= abs(sk * d) < margin
            if axial:
                u = (sk / ck) * math.cos(th)
                assert abs(1.0 - u * u) >= margin
            assert abs(y[5]) >= 0.25
        # A plane the rules leave open is visited by some draw.
        assert all(keep or hit for keep, hit in zip(planes, near)), (sid, params)


def test_sample_state_rejects_kappa_beyond_radius_range():
    """The radius range [0.15, pi/sqrt(kappa) - 0.15] must not be empty."""
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match=r"kappa < 109\.662, got kappa = 200\.0"):
        sample_state(make_system("free", kappa=200.0), rng)
    # Above kappa = (arccos(0.05) / 0.15)^2 = 102.79 no radius in the range
    # has |cos_k(r)| >= 0.05, and above (sin(arccos(0.2)) / 0.2)^2 = 24 none
    # has sin_k(r) and |cos_k(r)| >= 0.2: rejected at once, not after
    # 100,000 draws.
    for kappa in (103.0, 105.0, 109.0):
        with pytest.raises(ValueError, match=r"kappa < 102\.789 at margin = 0\.05"):
            sample_state(make_system("free", kappa=kappa), rng)
    with pytest.raises(ValueError, match=r"kappa < 24 at margin = 0\.2"):
        sample_state(make_system("free", kappa=30.0), rng, margin=0.2)
    for margin in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="0 <= margin < 1"):
            sample_state(make_system("free", kappa=-1.0), rng, margin=margin)
    # |p_phi| <= 1 <= min_angular: no draw could pass.
    for min_angular in (1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="min_angular < 1"):
            sample_state(make_system("free", kappa=1.0), rng, min_angular=min_angular)
    r = sample_state(make_system("free", kappa=100.0), rng)[0]
    assert 0.15 <= r <= math.pi / 10.0 - 0.15


def test_conservation_report_examples():
    spec = make_system("oscillator", kappa=0.7, alpha=1.0)
    rhs = hamilton_rhs(spec)
    rng = np.random.default_rng(17)
    y0 = sample_state(spec, rng, min_angular=0.3, margin=0.12)
    traj = integrate(rhs, y0, (0.0, 10.0), method="rk45_adaptive", tol=1e-12)
    rep = conservation_report(
        {"H": hamiltonian(spec), "J3": angular_J(3)}, traj.thin(500)
    )
    assert set(rep["H"]) == {"initial", "max_drift", "rel_drift"}
    assert rep["H"]["rel_drift"] < 1e-8
    assert rep["J3"]["rel_drift"] < 1e-9
    assert rep["H"]["initial"] == pytest.approx(hamiltonian(spec).value(y0))

    spec = make_system("kepler123", kappa=0.7, k=-1.0, k1=0.1, k2=0.2, k3=0.3)
    rhs = hamilton_rhs(spec)
    y0 = sample_state(spec, rng, min_angular=0.3, margin=0.12)
    traj = integrate(rhs, y0, (0.0, 10.0), method="rk45_adaptive", tol=1e-12)
    kr1 = catalog(spec).get("KR1")
    rep = conservation_report({"KR1": kr1}, traj.thin(500))
    assert rep["KR1"]["rel_drift"] < 1e-7


def test_conservation_report_reads_each_observable_at_its_own_kappa():
    """Observables of several kappas, and of none, in one report: each
    entry equals the drift of that observable's own values bit for bit."""
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    traj = integrate(hamilton_rhs(spec), ECC_Y0, (0.0, 2.0))
    mixed = {"P1": noether_P(1, 1.0), "P1 at -0.5": noether_P(1, -0.5),
             "z at 0": coordinate(3, 0.0), "J3": angular_J(3), "T at -0.5": kinetic(-0.5),
             "H": hamiltonian(spec)}
    for watch in ({"J3": angular_J(3), "J1": angular_J(1)}, mixed):
        rep = conservation_report(watch, traj)
        assert list(rep) == list(watch)
        for name, obs in watch.items():
            values = np.array([obs.value(y) for y in traj.states])
            drift = float(np.max(np.abs(values - values[0])))
            want = {"initial": float(values[0]), "max_drift": drift,
                    "rel_drift": drift / max(1.0, abs(values[0]))}
            assert rep[name] == want, name
    assert rep["P1"] != rep["P1 at -0.5"]


def test_conservation_report_computes_no_coupling_partials(monkeypatch):
    """conservation_report takes values alone, so on kepler123, whose R_i,
    KR_i and H carry the couplings U = sum k_i / coord_i^2, each value
    computes U once and no piece asks _coupling_terms for its partials."""
    from curvedyn import observables, systems

    spec = make_system("kepler123", kappa=0.7, k=-1.0, k1=0.1, k2=0.2, k3=0.3)
    y0 = sample_state(spec, np.random.default_rng(31), min_angular=0.3, margin=0.12)
    traj = integrate(hamilton_rhs(spec), y0, (0.0, 0.5))
    cat = catalog(spec)
    watch = {name: cat.get(name) for name in ("H", "R1", "R2", "R3", "KR1", "KR2", "KR3")}
    calls = Counter()
    real = observables._coupling_terms

    def counted(ks, sk, ck, sth, cth, ph, grad=True):
        calls[grad] += 1
        return real(ks, sk, ck, sth, cth, ph, grad)

    monkeypatch.setattr(observables, "_coupling_terms", counted)
    monkeypatch.setattr(systems, "_coupling_terms", counted)
    conservation_report(watch, traj)
    assert calls[False] == len(watch) * len(traj.times), calls
    assert not calls[True], calls


def test_conservation_report_rejects_states_that_are_not_6_vectors():
    for states in (np.ones((3, 5)), np.ones((3, 7)), np.ones(6)):
        traj = Trajectory(np.arange(len(states), dtype=float), states)
        with pytest.raises(ValueError, match="^conservation_report needs states of 6 columns"):
            conservation_report({"J3": angular_J(3)}, traj)


def test_one_trig_tuple_per_state(monkeypatch):
    """Whoever holds the states builds one tuple per state: one _trig and
    one kernel call per state (per distinct kappa) in conservation_report
    and in bracket_table_audit, whose identities read the audit's tuple,
    and in potential_profile one _trig call per ray for the angle sines and
    cosines and one kernel call per radius (none for the free system).
    fradkin_audit and fradkin_matrix take one kernel bind, one _trig and
    one kernel call per call and build no Observable."""
    from curvedyn import geometry, kappa_core, observables, systems

    kernel, trig, binds, built = [0], [0], [0], [0]
    bind, build = kappa_core.sin_cos_k, geometry._trig
    post_init = observables.Observable.__post_init__

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    def counting_bind(kappa):
        binds[0] += 1
        sc = bind(kappa)

        def counted(x):
            kernel[0] += 1
            return sc(x)

        return counted

    def counting_trig(sc, y):
        trig[0] += 1
        return build(sc, y)

    for mod in (kappa_core, geometry, observables, systems, dynamics):
        monkeypatch.setattr(mod, "sin_cos_k", counting_bind)
    for mod in (observables, systems, dynamics):
        monkeypatch.setattr(mod, "_trig", counting_trig)
    monkeypatch.setattr(observables.Observable, "__post_init__", counting_post_init)

    def counts(run):
        kernel[0] = trig[0] = binds[0] = built[0] = 0
        run()
        return kernel[0], trig[0]

    rng = np.random.default_rng(31)
    rs = np.linspace(0.1, 3.0, 17)
    for sid, (params, *_) in AUDIT_TABLES.items():
        spec = make_system(sid, kappa=0.7, **params)
        states = [sample_state(spec, rng, margin=0.12) for _ in range(3)]
        # The gradient of T (in H) takes a second kernel call per state,
        # inside the geodesic Hamilton equations it is read from.
        assert counts(lambda: bracket_table_audit(spec, states)) == (6, 3), sid
        cat = catalog(spec)
        traj = Trajectory(np.arange(3.0), np.array(states))
        assert counts(lambda: conservation_report(cat.observables, traj)) == (3, 3), sid
        watch = {**cat.observables, "P1 at -1": noether_P(1, -1.0)}
        assert counts(lambda: conservation_report(watch, traj)) == (6, 6), sid
        want = (0, 0) if sid == "free" else (len(rs), 1)
        assert counts(lambda: systems.potential_profile(spec, rs, 1.1, 0.4)) == want, sid
    for kap in (-1.0, 0.0, 0.7):
        spec = make_system("oscillator", kappa=kap, alpha=1.3)
        y = sample_state(spec, rng, margin=0.12)
        for run in (fradkin_audit, observables.fradkin_matrix):
            assert counts(lambda: run(kap, 1.3, y)) == (1, 1), (run, kap)
            assert (binds[0], built[0]) == (1, 0), (run, kap)


def test_independence_rank_cases():
    rng = np.random.default_rng(18)
    kap = 0.7
    spec = make_system("oscillator", kappa=kap, alpha=1.3)
    cat = catalog(spec)
    five = [cat.get(n) for n in cat.independence_sets["primary"]]
    dup = [cat.get(n) for n in ("J3", "J3", "K11", "K22", "K33")]
    # The minor identity K11 K22 - K12^2 = alpha^2 J3^2 ties these five
    # gradients together, so this quintet can never reach full rank.
    minor_tied = [cat.get(n) for n in ("K11", "K22", "K33", "J3", "K12")]
    six = [cat.get(n) for n in ("K11", "K22", "K33", "K12", "K23", "K31")]
    full = 0
    for _ in range(30):
        s = sample_state(spec, rng, min_angular=0.2, margin=0.1)
        full += independence_rank(five, s) == 5
        assert independence_rank(dup, s) <= 4
        assert independence_rank(minor_tied, s) <= 4
        # det[K] = 0 makes the six Fradkin entries dependent everywhere.
        assert independence_rank(six, s) == 5
    assert full >= 29


def test_fradkin_audit_residuals():
    rng = np.random.default_rng(19)
    for kap in KAPPAS + (0.0,):
        spec = make_system("oscillator", kappa=kap, alpha=1.3)
        for _ in range(20):
            s = sample_state(spec, rng, margin=0.1)
            res = fradkin_audit(kap, 1.3, s)
            assert set(res) == {
                "trace", "det", "kernel",
                "quad1", "quad2", "quad3",
                "minor1", "minor2", "minor3",
                "xx", "xp", "pp",
            }
            worst = max(res.values())
            assert worst < 1e-10, (kap, res)


def test_fradkin_audit_special_states():
    # At p = 0 the angular momentum vanishes and K J = 0 holds trivially.
    s = np.array([0.8, 1.1, 0.4, 0.0, 0.0, 0.0])
    res = fradkin_audit(0.7, 1.3, s)
    assert res["kernel"] == 0.0
    # Minors and quadratic forms are cancelling differences of products
    # near 1e3 here; measured against those terms they hold to rounding.
    s = np.array([
        0.15064038694810825, 3.077629652929851, 0.45039238938187504,
        0.43998870339100926, 0.8013263466793128, 0.5935706999962527,
    ])
    res = fradkin_audit(0.7, 1.3, s)
    assert max(res.values()) < 1e-10, res
    # At alpha = 0 the pp contraction reduces to (sum P^2)^2.
    rng = np.random.default_rng(20)
    spec = make_system("oscillator", kappa=0.7, alpha=1.0)
    for _ in range(10):
        s = sample_state(spec, rng, margin=0.1)
        res = fradkin_audit(0.7, 0.0, s)
        assert res["pp"] < 1e-12


# Per system at the criterion-03 parameters: parameters, identity count,
# and a name fragment with the number of rows that carry it.
AUDIT_TABLES = {
    "free": ({}, 22, "c.P}-rotation", 3),
    "oscillator": ({"alpha": 1.0}, 34, "i*lambda*alpha*M", 3),
    "sw": ({"alpha": 1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3}, 28, "{c1*K", 3),
    "osc112": ({"alpha": 1.0, "k1": 0.1, "k2": 0.2}, 9, "alg:", 1),
    "kepler": ({"k": -1.0}, 15, "c.KRL}-rotation", 3),
    "kepler123": ({"k": -1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3}, 21, "lambda", 6),
}


def test_bracket_table_audit_structure():
    """Identity counts, unique names and the generic rows at kappa = 0.7."""
    rng = np.random.default_rng(21)
    for sid, (params, count, fragment, n_fragment) in AUDIT_TABLES.items():
        spec = make_system(sid, kappa=0.7, **params)
        states = [sample_state(spec, rng, margin=0.12) for _ in range(20)]
        rows = bracket_table_audit(spec, states)
        names = [r.name for r in rows]
        assert len(rows) == count, sid
        assert len(set(names)) == count, sid
        cat = catalog(spec)
        for set_name, group in cat.involution_sets.items():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    assert f"invol:{set_name}:{{{a},{b}}}" in names, sid
        for name in cat.integrals:
            assert f"conserve:{{{name},H}}" in names, sid
        assert sum(fragment in n for n in names) == n_fragment, sid
        assert all(r.residual < 1e-8 for r in rows), sid


def test_bracket_table_audit_rejects_nonfinite_states():
    """A NaN state raises, whatever its place, instead of skewing the max;
    so does an empty state list."""
    rng = np.random.default_rng(22)
    spec = make_system("oscillator", kappa=0.7, alpha=1.0)
    good = sample_state(spec, rng, margin=0.12)
    bad = good.copy()
    bad[3] = math.nan
    for states in ([good, bad], [bad, good], [good, good[:5]], [np.full(6, math.inf)]):
        with pytest.raises(ValueError, match="finite 6-vectors"):
            bracket_table_audit(spec, states)
    # An empty list used to end in "max() arg is an empty sequence".
    with pytest.raises(ValueError, match="at least one state"):
        bracket_table_audit(spec, [])


def test_bracket_table_audit_keeps_a_nan_residual_wherever_its_state_falls():
    """A state whose momenta overflow gives NaN rows; the maximum over the
    states keeps them also after a good state (the builtin max dropped a
    NaN that did not come first, so [good, big] passed)."""
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    good = sample_state(spec, np.random.default_rng(24), margin=0.12)
    big = good.copy()
    big[3:] = 1e140
    with np.errstate(all="ignore"):
        rows = {order: [r.residual for r in bracket_table_audit(spec, states)]
                for order, states in (("big", [big]), ("good,big", [good, big]),
                                      ("big,good", [big, good]))}
    nan_rows = [math.isnan(v) for v in rows["big"]]
    assert any(nan_rows)
    for order in ("good,big", "big,good"):
        assert [math.isnan(v) for v in rows[order]] == nan_rows, order


def test_independence_rank_rejects_bad_input():
    """A NaN state used to give rank 1, an empty list a numpy AxisError."""
    spec = make_system("oscillator", kappa=0.7, alpha=1.3)
    five = [catalog(spec).get(n) for n in catalog(spec).independence_sets["primary"]]
    good = sample_state(spec, np.random.default_rng(23), margin=0.12)
    bad = good.copy()
    bad[1] = math.nan
    for state in (bad, good[:3], np.full(6, math.inf)):
        with pytest.raises(ValueError, match="finite 6-vectors"):
            independence_rank(five, state)
    with pytest.raises(ValueError, match="at least one observable"):
        independence_rank([], good)
    # A threshold of -1 used to give full rank, NaN rank 0.
    for threshold in (-1.0, 0.0, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="0 < threshold < 1"):
            independence_rank(five, good, threshold=threshold)


# Parameters with every coupling on, as the benchmark audits them.
RANK_PARAMS = {
    "free": {},
    "oscillator": {"alpha": 1.0},
    "sw": {"alpha": 1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3},
    "osc112": {"alpha": 1.0, "k1": 0.1, "k2": 0.2},
    "kepler": {"k": -1.0},
    "kepler123": {"k": -1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3},
}


def numpy_rank(observables, y, threshold=1e-6):
    """independence_rank written in numpy: row norms, rows scaled to unit
    norm (a zero row left alone), SVD, singular values above the cut."""
    g = np.array([o.gradient(y) for o in observables])
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    g = g / np.where(norms > 0.0, norms, 1.0)
    sv = np.linalg.svd(g, compute_uv=False)
    return (0 if sv[0] == 0.0 else int(np.sum(sv > threshold * sv[0]))), sv


def test_independence_rank_matches_the_numpy_reference():
    """On every system and curvature, and every independence set, the rank
    is numpy_rank's, at the default threshold and at thresholds on the
    reference's own singular-value ratios, where a singular value that
    moved in its last bits could change the count."""
    rng = np.random.default_rng(57)
    checked = 0
    for sid in SYSTEM_IDS:
        for kap in (-1.0, -0.3, 0.0, 0.7, 1.0):
            spec = make_system(sid, kap, **RANK_PARAMS[sid])
            cat = catalog(spec)
            for _ in range(3):
                y = sample_state(spec, rng, margin=0.12)
                for names in cat.independence_sets.values():
                    obs = [cat.get(n) for n in names]
                    want, sv = numpy_rank(obs, y)
                    assert independence_rank(obs, y) == want, (sid, kap, names)
                    for ratio in (sv[1:] / sv[0]).tolist():
                        if 0.0 < ratio < 1.0:
                            assert (independence_rank(obs, y, threshold=ratio)
                                    == numpy_rank(obs, y, threshold=ratio)[0]), (sid, kap, ratio)
                    checked += 1
    assert checked >= 90


def test_independence_rank_of_a_zero_gradient():
    """A zero gradient row is left as it is: alone it has rank 0, beside
    J3 rank 1.  A nonzero gradient whose squares underflow to a zero sum
    is scaled to unit norm like any other (it was left unscaled, so
    beside J3 it read rank 1)."""
    def const_grad(name, g):
        return Observable(name, lambda t, y, grad=True: (0.0, g if grad else None))

    zero = const_grad("zero", (0.0,) * 6)
    tiny = const_grad("tiny", (1e-170,) * 6)
    y = [0.8, 1.2, 0.4, 0.15, 0.3, 0.35]
    assert independence_rank([zero], y) == 0
    assert independence_rank([zero, angular_J(3)], y) == 1
    assert independence_rank([zero, angular_J(3)], y) == numpy_rank([zero, angular_J(3)], y)[0]
    assert independence_rank([tiny], y) == 1
    assert independence_rank([tiny, angular_J(3)], y) == 2


def test_independence_rank_at_huge_momenta():
    """Where a gradient's sum of squares overflowed, its row used to be
    divided by an infinite norm: the free system's rank at momenta 1e155
    read 0, and the oscillator's (at 1e155) and kepler123's (at 1e100)
    ended in "SVD did not converge", with numpy warning of overflow.  A
    row of finite entries is now scaled to unit norm by math.hypot, and
    one with an entry that overflowed raises OverflowError naming its
    observable; numpy warns of nothing."""
    def at(p):
        return [0.8, 1.2, 0.4, p, p, p]

    def primary(sid):
        cat = catalog(make_system(sid, 1.0))
        return [cat.get(n) for n in cat.independence_sets["primary"]]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        free = primary("free")
        assert independence_rank(free, at(1e155)) == independence_rank(free, at(1e100)) == 3
        for sid, p in (("oscillator", 1e155), ("kepler123", 1e100)):
            obs = primary(sid)
            with pytest.raises(OverflowError, match=r"^the gradient of (\w+) is not finite") as exc:
                independence_rank(obs, at(p))
            named = re.match(r"the gradient of (\w+)", str(exc.value)).group(1)
            assert named in [o.name for o in obs], (sid, named)


def test_conservation_report_keeps_nan():
    """A NaN value at any state makes that observable's drift NaN, not the
    largest finite deviation: here the middle state's p_r is NaN, which H
    reads and J3 does not."""
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    states = np.array([[0.8, 1.2, 0.4, 0.15, 0.3, 0.35],
                       [0.8, 1.2, 0.4, math.nan, 0.3, 0.35],
                       [0.81, 1.2, 0.4, 0.15, 0.3, 0.35]])
    rep = conservation_report({"H": hamiltonian(spec), "J3": angular_J(3)},
                              Trajectory(np.arange(3.0), states))
    assert math.isnan(rep["H"]["max_drift"]) and math.isnan(rep["H"]["rel_drift"])
    assert rep["H"]["initial"] == hamiltonian(spec).value(states[0])
    assert rep["J3"] == {"initial": 0.35, "max_drift": 0.0, "rel_drift": 0.0}


def test_fradkin_audit_rejects_bad_input():
    """A NaN state used to give NaN residuals, a 3-vector an IndexError."""
    good = sample_state(make_system("oscillator", kappa=0.7, alpha=1.3),
                        np.random.default_rng(24), margin=0.12)
    bad = good.copy()
    bad[4] = math.nan
    for state in (bad, good[:3]):
        with pytest.raises(ValueError, match="finite 6-vectors"):
            fradkin_audit(0.7, 1.3, state)


def test_fradkin_audit_names_an_overflow_of_k_products():
    """At this state (the CLI's seed-1 draw) every K_ii fits at alpha =
    1e154, but the determinant, kernel and minors multiply entries near
    1e308: the audit returned NaN residuals with numpy RuntimeWarnings,
    where at a state with a larger w_i the same alpha raised OverflowError
    naming it.  Both raise it now, with no warning, and momenta that make
    K overflow are named instead; a tame alpha there stays finite."""
    y = [2.845675299817211, 0.9796473987943792, 2.659838524324996,
         0.6554051876408835, -0.18160172726167745, 0.09918737534611899]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e154, 1e100):
            with pytest.raises(OverflowError, match=rf"^alpha = {re.escape(repr(alpha))} is too large: .*K's"):
                fradkin_audit(1.0, alpha, y)
        with pytest.raises(OverflowError, match=r"^momenta \[1e\+150, 1e\+150, 0\.3\] are too large"):
            fradkin_audit(1.0, 1.0, [1.2, 1.5, 0.1, 1e150, 1e150, 0.3])
        res = fradkin_audit(1.0, 1e50, y)
    assert all(math.isfinite(v) for v in res.values()), res


@pytest.mark.parametrize("kap", [math.nan, math.inf, -math.inf])
def test_non_finite_kappa_raises_where_it_is_bound(kap):
    """A non-finite kappa used to give NaN values and residuals: it now
    raises when an observable is built and when fradkin_audit starts."""
    y = sample_state(make_system("oscillator", kappa=0.7), np.random.default_rng(5), margin=0.12)
    for build in (lambda: noether_P(1, kap), lambda: kinetic(kap),
                  lambda: fradkin_audit(kap, 1.0, y)):
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {kap}$"):
            build()


def test_momentum_constructors_reject_a_bad_index():
    for build in (lambda: noether_P(4, 1.0), lambda: noether_P(0, 1.0), lambda: angular_J(4)):
        with pytest.raises(ValueError, match="^index must be 1..3, got"):
            build()


def test_indexed_constructors_reject_a_bad_index():
    """The pieces read an axis straight from the state's tuple, so every
    constructor with an index checks it: fradkin_K(0, 1) and k123_S(0) used
    to build, and then raise only when evaluated ("axis must be 0..2, got
    -1"); sw_KJ(4) and kepler_RL(4) raised KeyError."""
    from curvedyn import observables as ob

    builds = {
        "fradkin_K(0, 1)": lambda: ob.fradkin_K(0, 1, 1.0, 1.0),
        "fradkin_K(1, 4)": lambda: ob.fradkin_K(1, 4, 1.0, 1.0),
        "sw_KJ(4)": lambda: ob.sw_KJ(4, 1.0),
        "kepler_RL(0)": lambda: ob.kepler_RL(0, 1.0, -1.0),
        "k123_R(4)": lambda: ob.k123_R(4, 1.0, -1.0),
        "k123_S(0)": lambda: ob.k123_S(0, 1.0),
        "k123_KR(0)": lambda: ob.k123_KR(0, 1.0, -1.0),
        "complex_M(4)": lambda: ob.complex_M(4, 1.0, 1.0),
    }
    for name, build in builds.items():
        try:
            build()
        except ValueError as exc:
            assert str(exc).startswith("index must be 1..3, got"), (name, exc)
        else:
            pytest.fail(f"{name} built")
    for build in (lambda: coordinate(0, 1.0), lambda: ob.direction_cosine(4)):
        with pytest.raises(ValueError, match="^axis must be 1..3, got"):
            build()


def audit_states(sid, params, n, seed):
    spec = make_system(sid, kappa=0.7, **params)
    rng = np.random.default_rng(seed)
    return spec, [sample_state(spec, rng, margin=0.12) for _ in range(n)]


def test_bracket_table_audit_one_gradient_per_observable_per_state(monkeypatch):
    """Per state, each distinct observable's piece runs once with its
    gradient, and never without it: the audit takes each value with its
    gradient, so it neither calls a piece with grad false nor value,
    gradient or value_and_gradient of an Observable.  A linear combination
    (H = T + V, a row's random combination) runs its terms' pieces inside
    its own; only the audit's own calls are counted."""
    from curvedyn.observables import Observable

    calls = Counter()
    alone = Counter()
    post_init = Observable.__post_init__
    depth = [0]

    def counting_post_init(obs):
        post_init(obs)
        piece = obs.piece

        def counted(t, y, grad=True):
            # Only the audit's own calls count, not those of a square's
            # piece to the piece of the observable it squares.
            if not depth[0]:
                (calls if grad else alone)[(id(obs), tuple(y))] += 1
            depth[0] += 1
            try:
                return piece(t, y, grad)
            finally:
                depth[0] -= 1

        object.__setattr__(obs, "piece", counted)

    monkeypatch.setattr(Observable, "__post_init__", counting_post_init)
    for name in ("value", "gradient", "value_and_gradient"):
        def counted_call(obs, s, name=name, method=getattr(Observable, name)):
            alone[name] += 1
            return method(obs, s)

        monkeypatch.setattr(Observable, name, counted_call)
    for sid, (params, *_) in AUDIT_TABLES.items():
        calls.clear()
        spec, states = audit_states(sid, params, 3, 25)
        bracket_table_audit(spec, states)
        assert calls, sid
        assert max(calls.values()) == 1, (sid, max(calls.values()))
        assert {y for _, y in calls} == {tuple(y.tolist()) for y in states}, sid
        assert not alone, (sid, alone)


def test_bracket_table_audit_splits_over_states():
    """Auditing [y1, y2] gives the max of auditing [y1] and [y2] exactly.

    Each call draws its coefficients from a generator with the same
    seed, so the random-coefficient rows see the same vectors too.
    """
    for sid, (params, *_) in AUDIT_TABLES.items():
        spec, (y1, y2) = audit_states(sid, params, 2, 26)
        both, one, two = (
            bracket_table_audit(spec, states, np.random.default_rng(27))
            for states in ([y1, y2], [y1], [y2])
        )
        for row, r1, r2 in zip(both, one, two):
            assert row.name == r1.name == r2.name
            assert row.residual == max(r1.residual, r2.residual), (sid, row.name)


def test_gradient_cache_entries_are_the_observables_own():
    """The audit's cached value and gradient of every catalog observable,
    complex parts and linear combinations (nested ones too) included,
    are obs.value(y) and obs.gradient(y) bit for bit, and its cached
    gradient norm is math.hypot of that gradient."""
    from curvedyn.dynamics import _GradientCache

    rng = np.random.default_rng(28)
    for sid, (params, *_) in AUDIT_TABLES.items():
        spec, states = audit_states(sid, params, 4, 29)
        cat = catalog(spec)
        obs = [*cat.observables.values()]
        obs += [part for c in cat.complexes.values() for part in (c.re, c.im)]
        c = rng.uniform(-1.0, 1.0, 3)
        combo = scaled_sum("combo", [(c[0], obs[0]), (c[1], obs[1])])
        obs += [combo, scaled_sum("nested", [(c[2], combo), (c[0], cat.observables["H"])])]
        for y in states:
            cache = _GradientCache(y.tolist(), sin_cos_k(spec.kappa))
            for o in obs:
                _, g, norm, v = cache.entry(o)
                want = o.gradient(y)
                assert np.array(g, float).tobytes() == want.tobytes(), (sid, o.name)
                assert np.float64(v).tobytes() == np.float64(o.value(y)).tobytes(), (sid, o.name)
                assert norm == math.hypot(*want.tolist()), (sid, o.name)


def test_bracket_rows_contract_as_poisson_bracket():
    """A bracket row with no expected side, an involution pair or an
    integral against H, audited at one state reads |poisson_bracket(f, g,
    y)| over max(1, |grad f| |grad g|) bit for bit: both contract the same
    gradients with one expression."""
    rows = 0
    for sid, (params, *_) in AUDIT_TABLES.items():
        spec, states = audit_states(sid, params, 2, 30)
        obs = catalog(spec).observables
        for y in states:
            for row in bracket_table_audit(spec, [y]):
                if not row.name.startswith(("invol:", "conserve:")):
                    continue
                f, g = (obs[n] for n in row.name.rsplit(":", 1)[1][1:-1].split(","))
                scale = math.hypot(*f.gradient(y).tolist()) * math.hypot(*g.gradient(y).tolist())
                want = abs(poisson_bracket(f, g, y)) / max(1.0, scale)
                assert row.residual == want, (sid, row.name)
                rows += 1
    assert rows > 100


# ---------------------------------------------------------------------------
# Closed orbits.

def test_closed_orbit_oscillator_sphere():
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    y0 = np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35])
    result = closed_orbit_check(spec, y0, 40.0)
    assert result.found
    assert result.distance < 1e-4


def test_closed_orbit_hyperbolic_kepler_bound_state():
    spec = make_system("kepler", kappa=-1.0, k=-1.0)
    y0 = np.array([0.9, 1.3, 0.2, 0.1, 0.25, 0.45])
    assert hamiltonian(spec).value(y0) < -1.02
    result = closed_orbit_check(spec, y0, 60.0)
    assert result.found
    assert result.distance < 1e-4


def test_closed_orbit_great_circle_period():
    """Unit-speed free motion on the unit sphere returns after 2 pi, also
    when the run ends in the step of the return."""
    spec = make_system("free", kappa=1.0)
    y0 = np.array([0.9, 1.2, 0.7, 0.3, 0.25, 0.3])
    t2 = 2.0 * kinetic(1.0).value(y0)
    y0[3:] /= math.sqrt(t2)
    for t_max in (15.0, 2.0 * math.pi, 2.0 * math.pi + 1e-3):
        result = closed_orbit_check(spec, y0, t_max)
        assert result.found, t_max
        assert abs(result.period - 2.0 * math.pi) < 1e-6


def test_closed_orbit_return_just_after_turning_point():
    """A great circle starting just after a radial turning point.

    Its second sign change of p_r falls just past the return at 2 pi, so
    a search that only looked past that change missed the return (NOT
    FOUND, distance 7.3e-4).
    """
    spec = make_system("free", kappa=1.0)
    y0 = np.array([
        2.70234406388171, 0.6211502485646658, 2.5652845826786796,
        -0.0015520474478189256, 0.24102421308853003, -0.20389967870247694,
    ])
    result = closed_orbit_check(spec, y0, 8.0)
    assert result.found
    assert abs(result.period - 2.0 * math.pi) < 1e-9
    assert result.distance < 1e-8


@pytest.mark.parametrize("kap", [0.3, 0.7, 1.0, 2.0])
def test_closed_orbit_finds_the_exact_great_circle(kap):
    """Free motion of speed v on the sphere of curvature kappa runs on a
    great circle of period 2 pi / (sqrt(kappa) v).  The search finds that
    period, and its return state is the exact geodesic's state at the
    period it reports."""
    spec = make_system("free", kap)
    for v in (0.5, 1.3):
        y0 = np.array([0.9, 1.2, 0.7, 0.3, 0.25, 0.3])
        y0[3:] *= v / math.sqrt(2.0 * oracles.kinetic(kap, y0.tolist()))
        period = 2.0 * math.pi / (math.sqrt(kap) * v)
        result = closed_orbit_check(spec, y0, 1.3 * period)
        assert result.found, (kap, v)
        # Measured: period errors up to 3.5e-11, state gaps up to 5.4e-12.
        assert abs(result.period - period) < 1e-9, (kap, v, result.period - period)
        exact = oracles.geodesic_exact(kap, y0.tolist(), result.period)
        gap = oracles.state_gap(result.diagnostics["return_state"].tolist(), exact)
        assert gap < 1e-10, (kap, v, gap)


def test_closed_orbit_period_independent_of_t_max():
    """A Kepler orbit on S^3 reports its least period, not the multiple of
    it that the sample grid happens to land closest to (5T, 10T and 20T
    when the search took the closest sample of the whole run)."""
    spec = make_system("kepler", kappa=1.0, k=-1.0)
    y0 = np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35])
    period, dphi = oracles.radial_period("kepler", 1.0, -1.0, list(y0))
    assert abs(dphi - 2.0 * math.pi) < 1e-8
    for n in (5, 10, 20):
        result = closed_orbit_check(spec, y0, n * period)
        assert result.found
        assert abs(result.period - period) < 1e-8, n


def rk4_reference(rhs, y0, t_end, dt=1e-4):
    """Classical RK4 from t = 0 to t_end in equal steps of at most dt."""
    n = math.ceil(t_end / dt)
    h = t_end / n
    y = np.array(y0, dtype=float)
    for i in range(n):
        t = i * h
        k1 = np.array(rhs(t, y))
        k2 = np.array(rhs(t + 0.5 * h, y + 0.5 * h * k1))
        k3 = np.array(rhs(t + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.array(rhs(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_closed_orbit_refined_return_state():
    """The refined return state is the trajectory's state at t_best.

    Checked against a fine RK4 run from y0 written here, and against the
    library's own adaptive run stopped at t_best, which isolates the
    refinement from the global error of the run.  The great circle's
    period is pinned to the value of the earlier RK4 re-integration
    refinement, and the README oscillator orbit's to its least period,
    1.3e-11 from the radial quadrature of tests/oracles.py.
    """
    gc = np.array([0.9, 1.2, 0.7, 0.3, 0.25, 0.3])
    gc[3:] /= math.sqrt(2.0 * kinetic(1.0).value(gc))
    cases = (
        (make_system("oscillator", kappa=1.0, alpha=1.0),
         np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35]), 40.0, 3.948972766875372),
        (make_system("free", kappa=1.0), gc, 15.0, 6.283185307176108),
    )
    for spec, y0, t_max, old_period in cases:
        result = closed_orbit_check(spec, y0, t_max)
        assert result.found
        assert abs(result.period - old_period) < 1e-9
        t_best = result.period
        y_best = result.diagnostics["return_state"]
        rhs = hamilton_rhs(spec)
        adaptive = integrate(rhs, y0, (0.0, t_best), method="rk45_adaptive", tol=1e-12).final_state
        assert float(np.max(np.abs(y_best - adaptive))) < 1e-12
        assert float(np.max(np.abs(y_best - rk4_reference(rhs, y0, t_best)))) < 1e-10


def test_normalized_distance_vectorized():
    """Stacked distances equal the one-state formula, across the phi wrap."""
    from curvedyn.dynamics import _normalized_distance

    def scalar(y, y0, scales):
        d = y - y0
        d[2] = (d[2] + math.pi) % (2.0 * math.pi) - math.pi
        return float(np.linalg.norm(d / scales) / math.sqrt(6.0))

    rng = np.random.default_rng(18)
    y0 = np.array([0.8, 1.2, math.pi - 0.01, 0.15, 0.3, 0.35])
    scales = rng.uniform(0.1, 2.0, 6)
    ys = y0 + rng.uniform(-0.5, 0.5, (200, 6))
    ys[:50, 2] = rng.uniform(-math.pi, -math.pi + 0.05, 50)  # across the wrap
    before = ys.copy()
    stacked = _normalized_distance(ys, y0, scales)
    assert np.array_equal(ys, before)
    assert stacked.shape == (200,)
    for y, d in zip(ys, stacked):
        assert d == pytest.approx(scalar(y.copy(), y0, scales), rel=1e-14, abs=0.0)
        assert _normalized_distance(y, y0, scales) == d
    # A state one full turn in phi plus 0.02 away is 0.02 away.
    y = y0.copy()
    y[2] = -math.pi + 0.01
    expect = 0.02 / scales[2] / math.sqrt(6.0)
    assert _normalized_distance(y, y0, scales) == pytest.approx(expect, rel=1e-12)
