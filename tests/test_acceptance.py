"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line with the measured worst case
and wall time, then asserts the tolerance and the runtime budget.
"""
import math
import time

import numpy as np

import oracles
from curvedyn.dynamics import (
    bracket_table_audit,
    closed_orbit_check,
    conservation_report,
    fradkin_audit,
    independence_rank,
    integrate,
    sample_state,
)
from curvedyn.geometry import PhaseState, from_rho_chart, to_R_chart, to_rho_chart
from curvedyn.kappa_core import cos_k, sin_k, tan_k
from curvedyn.observables import kinetic
from curvedyn.systems import (
    RADIAL_SYSTEMS,
    SYSTEM_IDS,
    R_chart_hamiltonian_value,
    catalog,
    hamilton_rhs,
    make_system,
    potential_profile,
    rho_chart_hamiltonian_value,
    rho_chart_rhs,
)

KAPPAS = (-1.0, -0.3, 0.0, 0.7, 1.0)
SEED = 20240601
ALPHA = 1.0
KC = -1.0
KS3 = (0.1, 0.2, 0.3)
KS2 = (0.1, 0.2)

PARAMS = {
    "free": {},
    "oscillator": {"alpha": ALPHA},
    "sw": {"alpha": ALPHA, "k1": KS3[0], "k2": KS3[1], "k3": KS3[2]},
    "osc112": {"alpha": ALPHA, "k1": KS2[0], "k2": KS2[1]},
    "kepler": {"k": KC},
    "kepler123": {"k": KC, "k1": KS3[0], "k2": KS3[1], "k3": KS3[2]},
}


def canonical(sid, kap):
    """System at the reference parameter set used throughout the checks."""
    return make_system(sid, kap, **PARAMS[sid])


def full_observable_set(spec):
    """Catalog observables plus the real and imaginary complex parts."""
    cat = catalog(spec)
    out = dict(cat.observables)
    for name, c in cat.complexes.items():
        out[f"{name}.re"] = c.re
        out[f"{name}.im"] = c.im
    return out


def report(num, label, elapsed, budget, failures, detail):
    """One pass/fail line per criterion, printed before the asserts."""
    status = "FAIL" if failures or elapsed >= budget else "PASS"
    print(f"criterion {num:02d} {label}: {status} ({detail}, {elapsed:.2f} s)")
    assert elapsed < budget, f"runtime {elapsed:.2f} s over the {budget:.0f} s budget"
    assert not failures, failures[:10]


def test_criterion_01_kernel_identities():
    """Pythagorean defect below 1e-13 and continuity across kappa = 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    for kap, x in zip(rng.uniform(-2.0, 2.0, 10000), rng.uniform(-5.0, 5.0, 10000)):
        c = cos_k(kap, x)
        s = sin_k(kap, x)
        # The two terms reach ~3e5 at kappa = -2, x = -5, so the defect
        # is measured relative to their magnitude.
        rel = abs(c * c + kap * s * s - 1.0) / max(1.0, c * c, abs(kap) * s * s)
        worst = max(worst, rel)
        if rel >= 1e-13:
            failures.append(("defect", float(kap), float(x), rel))
    cont = 0.0
    for x in np.linspace(-5.0, 5.0, 1001):
        for kap in (1e-8, -1e-8):
            cont = max(
                cont,
                abs(sin_k(kap, x) - x),
                abs(cos_k(kap, x) - 1.0),
                abs(tan_k(kap, x) - x),
            )
    if cont >= 1e-6:
        failures.append(("continuity", cont))
    elapsed = time.perf_counter() - t0
    report(1, "kernel identities", elapsed, 1.0, failures,
           f"defect {worst:.1e}, continuity {cont:.1e}")


def test_criterion_02_gradient_fidelity():
    """Analytic gradients match central differences for every observable."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    h = 1e-6
    worst = 0.0
    failures = []
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical(sid, kap)
            table = full_observable_set(spec)
            states = [sample_state(spec, rng) for _ in range(100)]
            for name, obs in table.items():
                for y in states:
                    _, g = obs.value_and_gradient(y)
                    fd = np.empty(6)
                    for i in range(6):
                        yp = y.copy()
                        ym = y.copy()
                        yp[i] += h
                        ym[i] -= h
                        fd[i] = (obs.value(yp) - obs.value(ym)) / (2.0 * h)
                    # The probe itself carries error ~ eps |f| / h, so the
                    # comparison is relative to the gradient magnitude.
                    err = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
                    worst = max(worst, err)
                    if err >= 1e-6:
                        failures.append((sid, kap, name, err))
    elapsed = time.perf_counter() - t0
    report(2, "gradient fidelity", elapsed, 30.0, failures, f"worst {worst:.1e}")


def test_criterion_03_bracket_tables():
    """Every displayed bracket identity holds at 50 random states."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    n_rows = 0
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical(sid, kap)
            srng = np.random.default_rng(SEED)
            states = [sample_state(spec, srng, margin=0.12) for _ in range(50)]
            rows = bracket_table_audit(spec, states, np.random.default_rng(SEED + 1))
            n_rows += len(rows)
            for row in rows:
                worst = max(worst, abs(row.residual))
                if not abs(row.residual) < 1e-10:
                    failures.append((sid, kap, row.name, row.residual))
    elapsed = time.perf_counter() - t0
    report(3, "bracket tables", elapsed, 60.0, failures,
           f"{n_rows} identities, worst {worst:.1e}")


def test_criterion_04_fradkin_audit():
    """Quadratic-tensor identities hold to 1e-10 relative residual."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    for kap in KAPPAS:
        spec = canonical("oscillator", kap)
        for _ in range(100):
            y = sample_state(spec, rng)
            for key, val in fradkin_audit(kap, ALPHA, y).items():
                worst = max(worst, abs(val))
                if not abs(val) < 1e-10:
                    failures.append((kap, key, val))
    elapsed = time.perf_counter() - t0
    report(4, "Fradkin audit", elapsed, 10.0, failures, f"worst {worst:.1e}")


def test_criterion_05_conservation():
    """Integral drift below 1e-8 (1e-7 for the quartics) over t in [0, 20]."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst_quad = 0.0
    worst_quartic = 0.0
    for sid in SYSTEM_IDS:
        # Positive curvature keeps every sampled orbit bounded.
        spec = canonical(sid, 1.0)
        rhs = hamilton_rhs(spec)
        cat = catalog(spec)
        watch = dict(cat.integrals)
        watch["H"] = cat.observables["H"]
        for _ in range(5):
            y0 = sample_state(spec, rng, min_angular=0.3, margin=0.12)
            traj = integrate(rhs, y0, (0.0, 20.0), tol=1e-12).thin(2000)
            if traj.truncated:
                failures.append((sid, "truncated", list(y0)))
                continue
            for name, row in conservation_report(watch, traj).items():
                drift = row["rel_drift"]
                if name in ("KR1", "KR2", "KR3"):
                    worst_quartic = max(worst_quartic, drift)
                    if drift >= 1e-7:
                        failures.append((sid, name, drift))
                else:
                    worst_quad = max(worst_quad, drift)
                    if drift >= 1e-8:
                        failures.append((sid, name, drift))
    elapsed = time.perf_counter() - t0
    report(5, "conservation", elapsed, 120.0, failures,
           f"quadratic {worst_quad:.1e}, quartic {worst_quartic:.1e}")


def test_criterion_06_independence_rank():
    """Designated five-sets have rank 5; the K family never exceeds 5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    min_frac = 1.0
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical(sid, kap)
            cat = catalog(spec)
            obs = [cat.get(n) for n in cat.independence_sets["primary"]]
            hits = sum(
                independence_rank(obs, sample_state(spec, rng, margin=0.12)) == 5
                for _ in range(100)
            )
            min_frac = min(min_frac, hits / 100.0)
            if hits < 95:
                failures.append((sid, kap, "primary", hits))
    # The six oscillator K entries share one functional relation, so the
    # family rank caps at five.
    fam_hits = 0
    for kap in KAPPAS:
        spec = canonical("oscillator", kap)
        cat = catalog(spec)
        fam = [cat.get(n) for n in ("K11", "K22", "K33", "K12", "K23", "K31")]
        for _ in range(100):
            rk = independence_rank(fam, sample_state(spec, rng, margin=0.12))
            if rk > 5:
                failures.append(("oscillator", kap, "family rank", rk))
            fam_hits += rk == 5
    if fam_hits < 475:
        failures.append(("family rank-5 fraction", fam_hits / 500.0))
    elapsed = time.perf_counter() - t0
    report(6, "independence rank", elapsed, 10.0, failures,
           f"min fraction {min_frac:.2f}, family {fam_hits}/500")


def test_criterion_07_closed_orbits():
    """Bounded oscillator and Kepler orbits close after their least period,
    which a radial quadrature gives independently; great circles take 2 pi.

    By Bertrand's property on S^3 and H^3 an oscillator orbit turns by pi
    in its plane per radial period and closes after two, a Kepler orbit
    turns by 2 pi and closes after one.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    oracle_err = 0.0
    radial_periods = {"oscillator": 2, "kepler": 1}
    # Energy caps keep the negative-curvature draws below the escape
    # energy and the spherical Kepler draws on the attracting hemisphere.
    caps = {
        ("oscillator", 1.0): None,
        ("oscillator", -1.0): 0.45,
        ("kepler", 1.0): -0.05,
        ("kepler", -1.0): -1.02,
    }
    for (sid, kap), cap in caps.items():
        spec = canonical(sid, kap)
        hobs = catalog(spec).observables["H"]
        for _ in range(3):
            for _ in range(1000):
                y0 = sample_state(spec, rng, min_angular=0.3, margin=0.12)
                if cap is None or hobs.value(y0) < cap:
                    break
            else:
                raise RuntimeError(f"no bounded draw for {sid} at kappa {kap}")
            res = closed_orbit_check(spec, y0, t_max=60.0)
            worst = max(worst, res.distance)
            if not (res.found and res.distance < 1e-4):
                failures.append((sid, kap, res.found, res.distance))
                continue
            coupling = PARAMS[sid]["alpha" if sid == "oscillator" else "k"]
            t_r, dphi = oracles.radial_period(sid, kap, coupling, list(y0))
            n = radial_periods[sid]
            err = abs(res.period - n * t_r)
            oracle_err = max(oracle_err, err)
            if err >= 1e-8 or abs(dphi / math.pi - 2.0 / n) >= 1e-8:
                failures.append((sid, kap, res.period, n * t_r, dphi / math.pi))
    free = canonical("free", 1.0)
    tkin = kinetic(1.0)
    period_err = 0.0
    for _ in range(3):
        y0 = sample_state(free, rng, min_angular=0.3, margin=0.12)
        y0[3:] /= math.sqrt(2.0 * tkin.value(y0))
        res = closed_orbit_check(free, y0, t_max=8.0)
        if not res.found:
            failures.append(("free", "not found"))
            continue
        period_err = max(period_err, abs(res.period - 2.0 * math.pi))
        if abs(res.period - 2.0 * math.pi) >= 1e-6:
            failures.append(("free", res.period))
    elapsed = time.perf_counter() - t0
    report(7, "closed orbits", elapsed, 60.0, failures,
           f"worst distance {worst:.1e}, oracle period error {oracle_err:.1e}, "
           f"great-circle period error {period_err:.1e}")


def test_criterion_08_figure_data():
    """Potential sweeps reproduce the orderings, barriers, and plateaus."""
    t0 = time.perf_counter()
    failures = []
    rs = np.linspace(0.1, 1.4, 27)
    osc = {k: potential_profile(canonical("oscillator", k), rs)[:, 1] for k in KAPPAS}
    kep = {k: potential_profile(canonical("kepler", k), rs)[:, 1] for k in KAPPAS}
    # Both families order pointwise by curvature on the common window.
    for fam, cols in (("oscillator", osc), ("kepler", kep)):
        for lo, hi in zip(KAPPAS[:-1], KAPPAS[1:]):
            if not np.all(cols[lo] < cols[hi]):
                failures.append((fam, "ordering", lo, hi))
    if not np.array_equal(osc[0.0], 0.5 * rs * rs):
        failures.append(("oscillator", "flat column"))
    if not np.array_equal(kep[0.0], -1.0 / rs):
        failures.append(("kepler", "flat column"))
    # Spherical oscillator wall just inside the singular radius.
    for kap in (0.7, 1.0):
        edge = math.pi / (2.0 * math.sqrt(kap)) - 1e-3
        v = potential_profile(canonical("oscillator", kap), [edge])[0, 1]
        if not v > 1e3:
            failures.append(("oscillator", "barrier", kap, v))
    # Hyperbolic oscillator saturates at alpha^2 / (2 |kappa|) from below.
    for kap in (-1.0, -0.3):
        plateau = 0.5 * ALPHA * ALPHA / abs(kap)
        v = potential_profile(canonical("oscillator", kap), [20.0])[0, 1]
        if not (v <= plateau and abs(v - plateau) < 1e-3):
            failures.append(("oscillator", "plateau", kap, v))
    # Kepler well at the origin, hyperbolic plateau at -1, spherical
    # decay to zero toward the equator.
    v = potential_profile(canonical("kepler", 1.0), [0.01])[0, 1]
    if not v < -99.0:
        failures.append(("kepler", "well", v))
    v = potential_profile(canonical("kepler", -1.0), [20.0])[0, 1]
    if not abs(v + 1.0) < 1e-6:
        failures.append(("kepler", "plateau", v))
    v = potential_profile(canonical("kepler", 1.0), [math.pi / 2.0 - 1e-3])[0, 1]
    if not -2e-3 < v < 0.0:
        failures.append(("kepler", "equator", v))
    elapsed = time.perf_counter() - t0
    report(8, "figure data", elapsed, 1.0, failures,
           "orderings, exact flat columns, barrier, plateaus")


def test_criterion_09_chart_equivalence():
    """The radial charts agree on H and on mapped trajectories."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst_h = 0.0
    for sid in RADIAL_SYSTEMS:
        for kap in KAPPAS:
            spec = canonical(sid, kap)
            hobs = catalog(spec).observables["H"]
            count = 0
            while count < 100:
                y = sample_state(spec, rng, margin=0.12)
                # The charts cover the hemisphere cos_k(r) > 0 only.
                if kap > 0.0 and cos_k(kap, y[0]) <= 0.12:
                    continue
                count += 1
                base = hobs.value(y)
                st = PhaseState.from_array(y)
                hr = rho_chart_hamiltonian_value(spec, to_rho_chart(kap, st))
                hb = R_chart_hamiltonian_value(spec, to_R_chart(kap, st))
                err = max(abs(hr - base), abs(hb - base)) / max(1.0, abs(base))
                worst_h = max(worst_h, err)
                if err >= 1e-12:
                    failures.append((sid, kap, "H", err))
    worst_rt = 0.0
    combos = (("free", -1.0), ("oscillator", 1.0), ("oscillator", -1.0),
              ("kepler", 1.0), ("kepler", -1.0))
    for sid, kap in combos:
        spec = canonical(sid, kap)
        hobs = catalog(spec).observables["H"]
        for _ in range(1000):
            y0 = sample_state(spec, rng, min_angular=0.3, margin=0.12)
            if kap > 0.0 and cos_k(kap, y0[0]) <= 0.12:
                continue
            # Spherical Kepler must stay on the attracting hemisphere.
            if sid == "kepler" and kap > 0.0 and hobs.value(y0) >= -0.05:
                continue
            break
        else:
            raise RuntimeError(f"no chart-compatible draw for {sid} at {kap}")
        base = integrate(hamilton_rhs(spec), y0, (0.0, 5.0),
                         method="rk4_fixed", dt=1e-4)
        z0 = to_rho_chart(kap, PhaseState.from_array(y0)).as_array()
        alt = integrate(rho_chart_rhs(spec), z0, (0.0, 5.0),
                        method="rk4_fixed", dt=1e-4)
        if base.truncated or alt.truncated:
            failures.append((sid, kap, "truncated"))
            continue
        for idx in range(0, len(base.times), 500):
            back = from_rho_chart(kap, PhaseState.from_array(alt.states[idx]))
            err = float(np.max(np.abs(back.as_array() - base.states[idx])))
            worst_rt = max(worst_rt, err)
            if err >= 1e-8:
                failures.append((sid, kap, float(base.times[idx]), err))
    elapsed = time.perf_counter() - t0
    report(9, "chart equivalence", elapsed, 30.0, failures,
           f"H {worst_h:.1e}, round trip {worst_rt:.1e}")


def oracle_table(sid, kap):
    """Observable name to straight-line oracle at the canonical parameters."""
    t = {}
    if sid == "free":
        for i in (1, 2, 3):
            t[f"P{i}"] = lambda s, i=i: oracles.noether(i, kap, s)
            t[f"J{i}"] = lambda s, i=i: oracles.angular(i, s)
        t["H"] = lambda s: oracles.h_free(kap, s)
        t["Jsq"] = oracles.jsq
    elif sid == "oscillator":
        for i in (1, 2, 3):
            t[f"J{i}"] = lambda s, i=i: oracles.angular(i, s)
            t[f"W{i}"] = lambda s, i=i: oracles.osc_w(i, kap, ALPHA, s)
            t[f"M{i}.re"] = lambda s, i=i: oracles.osc_m(i, kap, ALPHA, s).real
            t[f"M{i}.im"] = lambda s, i=i: oracles.osc_m(i, kap, ALPHA, s).imag
        for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)):
            t[f"K{i}{j}"] = lambda s, i=i, j=j: oracles.osc_k(i, j, kap, ALPHA, s)
        t["H"] = lambda s: oracles.h_oscillator(kap, ALPHA, s)
        t["Jsq"] = oracles.jsq
    elif sid == "sw":
        for i in (1, 2, 3):
            t[f"K{i}{i}"] = lambda s, i=i: oracles.sw_k(i, kap, ALPHA, KS3, s)
            t[f"KJ{i}"] = lambda s, i=i: oracles.sw_kj(i, kap, KS3, s)
            t[f"W{i}"] = lambda s, i=i: oracles.sw_w(i, kap, ALPHA, KS3, s)
        for name, (a, b) in (("KJ23", (2, 3)), ("KJ31", (3, 1)), ("KJ12", (1, 2))):
            t[name] = lambda s, a=a, b=b: (
                oracles.sw_kj(a, kap, KS3, s) + oracles.sw_kj(b, kap, KS3, s)
            )
        t["H"] = lambda s: oracles.h_sw(kap, ALPHA, KS3, s)
    elif sid == "osc112":
        t["K3"] = lambda s: oracles.osc112_k3(kap, ALPHA, s)
        t["KJ3"] = lambda s: oracles.osc112_kj3(kap, KS2[0], KS2[1], s)
        t["K12"] = lambda s: oracles.osc112_k12(kap, ALPHA, KS2[0], KS2[1], s)
        t["KRL1"] = lambda s: oracles.osc112_krl1(kap, ALPHA, KS2[0], s)
        t["KRL2"] = lambda s: oracles.osc112_krl2(kap, ALPHA, KS2[1], s)
        t["H"] = lambda s: oracles.osc112_h(kap, ALPHA, KS2[0], KS2[1], s)
        t["Az"] = lambda s: oracles.osc112_az(kap, s)
        t["V112"] = lambda s: oracles.osc112_v(kap, ALPHA, KS2[0], KS2[1], s)
    elif sid == "kepler":
        for i in (1, 2, 3):
            t[f"J{i}"] = lambda s, i=i: oracles.angular(i, s)
            t[f"KRL{i}"] = lambda s, i=i: oracles.kepler_rl(i, kap, KC, s)
        t["H"] = lambda s: oracles.h_kepler(kap, KC, s)
        t["Jsq"] = oracles.jsq
    else:
        for i in (1, 2, 3):
            t[f"KJ{i}"] = lambda s, i=i: oracles.sw_kj(i, kap, KS3, s)
            t[f"KR{i}"] = lambda s, i=i: oracles.k123_kr(i, kap, KC, KS3, s)
            t[f"R{i}"] = lambda s, i=i: oracles.k123_r(i, kap, KC, KS3, s)
            t[f"S{i}"] = lambda s, i=i: oracles.k123_s(i, kap, s)
            t[f"N{i}.re"] = lambda s, i=i: oracles.k123_n(i, kap, KC, KS3, s).real
            t[f"N{i}.im"] = lambda s, i=i: oracles.k123_n(i, kap, KC, KS3, s).imag
        for name, (a, b) in (("KJ23", (2, 3)), ("KJ31", (3, 1)), ("KJ12", (1, 2))):
            t[name] = lambda s, a=a, b=b: (
                oracles.sw_kj(a, kap, KS3, s) + oracles.sw_kj(b, kap, KS3, s)
            )
        t["H"] = lambda s: oracles.h_kepler123(kap, KC, KS3, s)
    return t


def test_criterion_10_oracle_equivalence():
    """Library evaluation matches the independent transcription."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical(sid, kap)
            table = full_observable_set(spec)
            refs = oracle_table(sid, kap)
            assert set(refs) == set(table), (sid, sorted(set(table) ^ set(refs)))
            states = [sample_state(spec, rng) for _ in range(50)]
            for name, obs in table.items():
                ref = refs[name]
                for y in states:
                    want = ref(y)
                    err = abs(obs.value(y) - want) / max(1.0, abs(want))
                    worst = max(worst, err)
                    if err >= 1e-12:
                        failures.append((sid, kap, name, err))
    elapsed = time.perf_counter() - t0
    report(10, "oracle equivalence", elapsed, 30.0, failures, f"worst {worst:.1e}")
