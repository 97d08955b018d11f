"""System catalogs, conservation brackets, potentials, and chart forms."""
import math
import re

import numpy as np
import pytest

import oracles
from curvedyn.dynamics import poisson_bracket, sample_state
from curvedyn.geometry import PhaseState, to_R_chart, to_rho_chart
from curvedyn.kappa_core import DomainSingularity
from curvedyn.observables import scaled_sum
from curvedyn.systems import (
    RADIAL_SYSTEMS,
    SYSTEM_IDS,
    R_chart_hamiltonian_value,
    catalog,
    chart_potential,
    hamilton_rhs,
    hamiltonian,
    make_system,
    potential_observable,
    potential_profile,
    potential_value,
    rho_chart_hamiltonian_value,
    rho_chart_rhs,
    system_summaries,
)

KAPPAS = (1.0, -1.0, 0.7, -0.3)


def canonical_spec(sid, kap):
    kw = {}
    if sid in ("oscillator", "sw", "osc112"):
        kw["alpha"] = 1.3
    if sid in ("kepler", "kepler123"):
        kw["k"] = -1.0
    if sid in ("sw", "kepler123"):
        kw.update(k1=0.11, k2=0.23, k3=0.37)
    if sid == "osc112":
        kw.update(k1=0.11, k2=0.23)
    return make_system(sid, kappa=kap, **kw)


def test_make_system_validation():
    assert SYSTEM_IDS == ("free", "oscillator", "sw", "osc112", "kepler", "kepler123")
    with pytest.raises(ValueError):
        make_system("harmonic", kappa=1.0)
    with pytest.raises(ValueError):
        make_system("kepler", kappa=1.0, alpha=2.0)
    with pytest.raises(ValueError):
        make_system("free", kappa=1.0, k1=0.1)
    for kappa, params in ((math.nan, {}), (math.inf, {}), (1.0, {"alpha": math.nan}),
                          (1.0, {"k1": -math.inf})):
        with pytest.raises(ValueError, match="must be finite"):
            make_system("sw", kappa=kappa, **params)
    spec = make_system("sw", kappa=0.5)
    assert spec.alpha == 1.0 and spec.k1 == 0.0
    # alpha enters the oscillators squared (alpha**2): a finite alpha whose
    # square overflows raises at once, naming it, instead of an
    # OverflowError in the first rhs call that names neither.
    for sid in ("oscillator", "sw", "osc112"):
        for alpha in (1e200, -1.4e154):
            with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r} is too large")):
                make_system(sid, kappa=1.0, alpha=alpha)
        assert make_system(sid, kappa=1.0, alpha=-1.3e154).alpha == -1.3e154
    spec = make_system("kepler123", kappa=-1.0, k=-2.0, k2=0.4)
    assert spec.k == -2.0 and spec.k2 == 0.4 and spec.k1 == 0.0
    assert set(system_summaries()) == set(SYSTEM_IDS)


def test_spec_params_property():
    spec = canonical_spec("sw", 1.0)
    p = spec.params
    assert p["alpha"] == 1.3 and p["k3"] == 0.37 and "k" not in p
    assert canonical_spec("free", 1.0).params == {}


def test_catalog_shapes():
    expected_integrals = {
        "free": {"P1", "P2", "P3", "J1", "J2", "J3"},
        "oscillator": {"J1", "J2", "J3", "K11", "K22", "K33", "K12", "K23", "K31"},
        "sw": {"K11", "K22", "K33", "KJ1", "KJ2", "KJ3"},
        "osc112": {"K3", "KJ3", "K12", "KRL1", "KRL2"},
        "kepler": {"J1", "J2", "J3", "KRL1", "KRL2", "KRL3"},
        "kepler123": {"KJ1", "KJ2", "KJ3", "KR1", "KR2", "KR3"},
    }
    for sid in SYSTEM_IDS:
        cat = catalog(canonical_spec(sid, 1.0))
        assert set(cat.integrals) == expected_integrals[sid], sid
        for name, names in cat.independence_sets.items():
            assert len(names) == 5, (sid, name)
            for n in names:
                assert n in cat.observables, (sid, n)
        for name, group in cat.involution_sets.items():
            assert len(group) >= 2, (sid, name)
    # The oscillator family carries nine integrals in total.
    assert len(catalog(canonical_spec("oscillator", 1.0)).integrals) == 9
    # The 112 ladder observables commute with H but not with each other,
    # so they are integrals yet absent from every involution set.
    cat = catalog(canonical_spec("osc112", 1.0))
    for group in cat.involution_sets.values():
        assert "KRL1" not in group and "KRL2" not in group
    # Kepler123 keeps the raising/lowering pieces as auxiliaries only.
    cat = catalog(canonical_spec("kepler123", 1.0))
    for n in ("R1", "S1", "R3", "S3"):
        assert n in cat.aux and n not in cat.integrals


def test_catalog_with_negative_coupling_drops_quartics():
    spec = make_system("kepler123", kappa=1.0, k=-1.0, k1=-0.1, k2=0.2, k3=0.3)
    cat = catalog(spec)
    assert "KR1" not in cat.integrals
    assert "KR2" in cat.integrals and "KR3" in cat.integrals
    # The Hamiltonian itself stays usable.
    rng = np.random.default_rng(0)
    h = hamiltonian(spec)
    s = sample_state(spec, rng)
    assert math.isfinite(h.value(s))


def test_all_integrals_commute_with_hamiltonian():
    """|{F, H}| stays below 1e-10 at 200 sampled states per system."""
    rng = np.random.default_rng(200)
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical_spec(sid, kap)
            cat = catalog(spec)
            h = hamiltonian(spec)
            for _ in range(50):
                s = sample_state(spec, rng, margin=0.05)
                for name, obs in cat.integrals.items():
                    res = abs(poisson_bracket(obs, h, s))
                    # The bracket is a contraction of two analytic gradients, so
                    # its roundoff floor scales with their norms; near the
                    # singular radii those norms reach ~1e3-1e6 and an absolute
                    # bar would only measure float noise.  The scale factor is
                    # 1 for tame states, keeping the bar absolute there.
                    _, gf = obs.value_and_gradient(s)
                    _, gh = h.value_and_gradient(s)
                    scale = max(1.0, float(np.linalg.norm(gf) * np.linalg.norm(gh)))
                    assert res < 1e-10 * scale, (sid, kap, name)


def test_involution_sets_commute():
    rng = np.random.default_rng(201)
    for sid in SYSTEM_IDS:
        spec = canonical_spec(sid, 0.7)
        cat = catalog(spec)
        for gname, group in cat.involution_sets.items():
            members = [cat.get(n) if isinstance(n, str) else n for n in group]
            for _ in range(10):
                s = sample_state(spec, rng, margin=0.05)
                for a in range(len(members)):
                    for b in range(a + 1, len(members)):
                        res = abs(poisson_bracket(members[a], members[b], s))
                        assert res < 1e-10, (sid, gname, a, b)


def test_oscillator_axis_relations():
    """Each diagonal K_ii commutes with the same-axis angular momentum."""
    rng = np.random.default_rng(202)
    for kap in KAPPAS:
        spec = make_system("oscillator", kappa=kap, alpha=1.3)
        cat = catalog(spec)
        for _ in range(10):
            s = sample_state(spec, rng, margin=0.1)
            for i in (1, 2, 3):
                res = poisson_bracket(cat.get(f"K{i}{i}"), cat.get(f"J{i}"), s)
                assert abs(res) < 1e-10, (kap, i)


def test_sw_c_parametrized_relations():
    """c1 K_ii + c2 KJ_i commutes with the complementary block for any c."""
    rng = np.random.default_rng(208)
    for kap in KAPPAS:
        spec = make_system("sw", kappa=kap, alpha=1.3, k1=0.11, k2=0.23, k3=0.37)
        cat = catalog(spec)
        for _ in range(5):
            s = sample_state(spec, rng, margin=0.1)
            for i in (1, 2, 3):
                w = cat.aux[f"W{i}"]
                for _ in range(5):
                    c1, c2 = rng.uniform(-2.0, 2.0, 2)
                    f = scaled_sum(
                        "f", [(c1, cat.get(f"K{i}{i}")), (c2, cat.get(f"KJ{i}"))]
                    )
                    assert abs(poisson_bracket(f, w, s)) < 1e-10, (kap, i)


def test_kepler_c_parametrized_relations():
    """{J_i, sum c_a KRL_a} rotates the KRL triple."""
    rng = np.random.default_rng(203)
    for kap in KAPPAS:
        spec = make_system("kepler", kappa=kap, k=-1.0)
        cat = catalog(spec)
        for _ in range(5):
            s = sample_state(spec, rng, margin=0.1)
            c = rng.uniform(-2.0, 2.0, 3)
            f = scaled_sum("f", [(c[a], cat.get(f"KRL{a+1}")) for a in range(3)])
            for i, (j, l) in {1: (2, 3), 2: (3, 1), 3: (1, 2)}.items():
                got = poisson_bracket(cat.get(f"J{i}"), f, s)
                want = c[j - 1] * cat.get(f"KRL{l}").value(s) - c[l - 1] * cat.get(f"KRL{j}").value(s)
                assert abs(got - want) < 1e-10


def test_hamilton_rhs_matches_gradient():
    """The closed-form equations equal the symplectic gradient of H, bit for bit."""
    rng = np.random.default_rng(204)
    for sid in SYSTEM_IDS:
        for kap in KAPPAS + (0.0,):
            spec = canonical_spec(sid, kap)
            h = hamiltonian(spec)
            rhs = hamilton_rhs(spec)
            for _ in range(10):
                s = sample_state(spec, rng, min_angular=0.1, margin=0.1)
                _, g = h.value_and_gradient(s)
                want = np.concatenate([g[3:], -g[:3]])
                assert np.array_equal(rhs(0.0, np.asarray(s)), want), (sid, kap)


def test_rhs_raises_on_axis():
    spec = make_system("free", kappa=1.0)
    rhs = hamilton_rhs(spec)
    with pytest.raises(DomainSingularity):
        rhs(0.0, np.array([0.5, 1e-14, 0.3, 0.1, 0.1, 0.1]))


def test_potential_reference_values():
    q = lambda r: (r, math.pi / 2, math.pi / 4, 0.0, 0.0, 0.0)
    # Flat oscillator: V(r) = r^2 / 2 at alpha = 1.
    spec = make_system("oscillator", kappa=0.0, alpha=1.0)
    assert potential_value(spec, q(2.0)) == 2.0
    # Spherical oscillator: barrier blows up at the equator circle.
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    assert potential_value(spec, q(math.pi / 2 - 1e-3)) > 1e3
    # Hyperbolic Kepler well flattens to k at long range.
    spec = make_system("kepler", kappa=-1.0, k=-1.0)
    assert abs(potential_value(spec, q(20.0)) + 1.0) < 1e-8
    # Flat Kepler: exactly k / r.
    spec = make_system("kepler", kappa=0.0, k=-1.0)
    r = np.linspace(0.2, 3.0, 10)
    prof = np.asarray(potential_profile(spec, r))
    assert np.array_equal(prof[:, 1], -1.0 / r)


def test_potential_profile_emits_sentinels():
    """Singular radii produce NaN rows instead of being dropped."""
    spec = make_system("oscillator", kappa=1.0, alpha=1.0)
    rr = np.array([0.5, math.pi / 2, 2.0])
    prof = np.asarray(potential_profile(spec, rr))
    assert prof.shape == (3, 2)
    assert math.isfinite(prof[0, 1]) and math.isfinite(prof[2, 1])
    assert math.isnan(prof[1, 1])


def test_potential_profile_rejects_non_finite_input():
    """A NaN radius used to give a NaN row, a NaN theta NaN values, and an
    infinite radius a bare "math domain error"."""
    spec = make_system("sw", kappa=1.0, k1=0.1)
    for r in ([0.5, math.nan], [math.inf], np.array([0.15, 1.0, -math.inf])):
        with pytest.raises(ValueError, match="finite radii"):
            potential_profile(spec, r)
    for kwargs in ({"theta": math.nan}, {"phi": math.inf}, {"theta": -math.inf}):
        with pytest.raises(ValueError, match="finite (theta|phi)"):
            potential_profile(spec, [0.5], **kwargs)
    with pytest.raises(ValueError, match="finite radii"):
        potential_profile(make_system("free", kappa=1.0), [math.nan])


def test_potential_profile_rejects_radii_that_are_not_1d():
    """A nested list used to fail with "can't multiply sequence by
    non-int of type 'float'" and a bare number with "'float' object is not
    iterable"; the free system, which reads no potential, checks too."""
    for sid in ("sw", "free"):
        spec = make_system(sid, kappa=1.0)
        for r in ([[0.5, 0.6]], 0.5, np.ones((2, 2)), np.float64(0.5)):
            with pytest.raises(ValueError, match="^potential_profile needs a 1-D sequence"):
                potential_profile(spec, r)


def test_euclidean_limit_continuity():
    """H and each integral change by < 1e-6 relative between kappa=1e-8 and 0."""
    rng = np.random.default_rng(205)
    for sid in SYSTEM_IDS:
        spec0 = canonical_spec(sid, 0.0)
        spec1 = canonical_spec(sid, 1e-8)
        cat0, cat1 = catalog(spec0), catalog(spec1)
        h0, h1 = hamiltonian(spec0), hamiltonian(spec1)
        for _ in range(20):
            s = sample_state(spec0, rng, margin=0.05)
            dh = abs(h1.value(s) - h0.value(s)) / max(1.0, abs(h0.value(s)))
            assert dh < 1e-6, sid
            for name in cat0.integrals:
                v0 = cat0.get(name).value(s)
                v1 = cat1.get(name).value(s)
                assert abs(v1 - v0) / max(1.0, abs(v0)) < 1e-6, (sid, name)


def test_hamiltonian_matches_reference():
    rng = np.random.default_rng(206)
    refs = {
        "free": lambda kap, s: oracles.h_free(kap, s),
        "oscillator": lambda kap, s: oracles.h_oscillator(kap, 1.3, s),
        "sw": lambda kap, s: oracles.h_sw(kap, 1.3, (0.11, 0.23, 0.37), s),
        "osc112": lambda kap, s: oracles.osc112_h(kap, 1.3, 0.11, 0.23, s),
        "kepler": lambda kap, s: oracles.h_kepler(kap, -1.0, s),
        "kepler123": lambda kap, s: oracles.h_kepler123(kap, -1.0, (0.11, 0.23, 0.37), s),
    }
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical_spec(sid, kap)
            h = hamiltonian(spec)
            for _ in range(10):
                s = sample_state(spec, rng, margin=0.05)
                assert h.value(s) == pytest.approx(refs[sid](kap, s), rel=1e-12)


def test_potential_gradient_is_the_rhs_force():
    """The gradient of V is, bit for bit, the force the Hamilton equations subtract."""
    rng = np.random.default_rng(208)
    for sid in SYSTEM_IDS:
        for kap in KAPPAS:
            spec = canonical_spec(sid, kap)
            v = potential_observable(spec)
            if v is None:
                assert sid == "free"
                continue
            rhs = hamilton_rhs(spec)
            kinetic_rhs = hamilton_rhs(make_system("free", kap))
            for _ in range(10):
                y = sample_state(spec, rng, margin=0.05)
                g = v.gradient(y)
                assert not g[3:].any()
                np.testing.assert_array_equal(
                    rhs(0.0, y)[3:], kinetic_rhs(0.0, y)[3:] - g[:3]
                )


def test_chart_potentials_and_hamiltonians():
    rng = np.random.default_rng(207)
    for sid in RADIAL_SYSTEMS:
        for kap in KAPPAS:
            spec = canonical_spec(sid, kap)
            h = hamiltonian(spec)
            v_rho = chart_potential(spec, "rho")
            v_big = chart_potential(spec, "R")
            for _ in range(20):
                s = sample_state(spec, rng, margin=0.12)
                if kap > 0 and oracles.ck(kap, s[0]) <= 0.12:
                    continue
                st = PhaseState.from_array(np.asarray(s))
                base = h.value(s)
                rho_state = to_rho_chart(kap, st)
                big_state = to_R_chart(kap, st)
                assert rho_chart_hamiltonian_value(spec, rho_state) == pytest.approx(
                    base, rel=1e-12, abs=1e-12
                )
                assert R_chart_hamiltonian_value(spec, big_state) == pytest.approx(
                    base, rel=1e-12, abs=1e-12
                )
                rho = rho_state.q.r
                big = big_state.q.r
                if sid == "oscillator":
                    assert v_rho(rho) == pytest.approx(
                        0.5 * 1.3**2 * rho * rho / (1.0 - kap * rho * rho), rel=1e-12
                    )
                    assert v_big(big) == pytest.approx(0.5 * 1.3**2 * big * big, rel=1e-12)
                elif sid == "kepler":
                    assert v_rho(rho) == pytest.approx(
                        -math.sqrt(1.0 - kap * rho * rho) / rho, rel=1e-12
                    )
                    assert v_big(big) == pytest.approx(-1.0 / big, rel=1e-12)


def test_chart_forms_reject_nonradial_systems():
    st = PhaseState.from_array(np.array([0.5, 1.2, 0.4, 0.1, 0.2, 0.3]))
    entry_points = (
        lambda spec: chart_potential(spec, "rho"),
        lambda spec: chart_potential(spec, "R"),
        lambda spec: rho_chart_hamiltonian_value(spec, st),
        lambda spec: R_chart_hamiltonian_value(spec, st),
        rho_chart_rhs,
    )
    for sid in ("sw", "osc112", "kepler123"):
        assert sid not in RADIAL_SYSTEMS
        for call in entry_points:
            with pytest.raises(ValueError, match="radial potential"):
                call(canonical_spec(sid, 1.0))


def test_chart_forms_reject_radii_outside_the_chart():
    """1 - kappa rho^2 <= 0 or 1 + kappa R^2 <= 0 lies outside the chart."""
    st = lambda x: PhaseState.from_array(np.array([x, 1.2, 0.4, 0.1, 0.2, 0.3]))
    for sid in ("oscillator", "kepler"):
        for chart, kap, x in (("rho", 1.0, 1.5), ("rho", 4.0, 0.5), ("R", -1.0, 1.5),
                              ("R", -4.0, 0.5), ("rho", 1.0, math.nan)):
            spec = canonical_spec(sid, kap)
            with pytest.raises(DomainSingularity, match="outside the"):
                chart_potential(spec, chart)(x)
            value = rho_chart_hamiltonian_value if chart == "rho" else R_chart_hamiltonian_value
            with pytest.raises(DomainSingularity, match="outside the"):
                value(spec, st(x))
        # Inside the chart, just short of its edge, both forms evaluate.
        assert math.isfinite(chart_potential(canonical_spec(sid, 1.0), "rho")(0.999))
        assert math.isfinite(chart_potential(canonical_spec(sid, -1.0), "R")(0.999))


def test_potential_profile_rows_and_free_system_far_out():
    """A profile row is V.value at that radius bit for bit, or NaN where V
    raises DomainSingularity, for every system at theta and phi off their
    defaults; the free system gives zeros without touching the kernels, so
    a radius where sinh overflows at kappa = -1 still reads 0."""
    rs = np.array([0.0, 0.3, 1.0, math.pi / 2.0, 2.0, math.pi, 3.5])
    nan_rows = 0
    for sid in SYSTEM_IDS:
        for kap in (-1.0, 0.0, 1.0):
            spec = canonical_spec(sid, kap)
            v = potential_observable(spec)
            prof = potential_profile(spec, rs, 1.1, 0.4)
            assert prof.shape == (len(rs), 2) and prof[:, 0].tobytes() == rs.tobytes()
            for r, got in zip(rs.tolist(), prof[:, 1].tolist()):
                try:
                    want = 0.0 if v is None else v.value((r, 1.1, 0.4, 0.0, 0.0, 0.0))
                except DomainSingularity:
                    want = math.nan
                    nan_rows += 1
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (sid, kap, r)
    assert nan_rows > 0
    far = potential_profile(canonical_spec("free", -1.0), [1.0, 1000.0])
    assert far[:, 1].tolist() == [0.0, 0.0]
