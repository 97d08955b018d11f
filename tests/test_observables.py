"""Observable values against reference formulas, analytic gradients, errors."""
import math
import warnings

import numpy as np
import pytest

import oracles
from curvedyn.observables import (
    NegativeCoupling,
    Observable,
    UnsupportedEntry,
    angular_J,
    angular_J_squared,
    complex_M,
    coordinate,
    direction_cosine,
    fradkin_K,
    fradkin_matrix,
    k123_KR,
    k123_N,
    k123_R,
    k123_S,
    kappa_cartesian,
    kepler_RL,
    kinetic,
    noether_P,
    osc112_observables,
    scaled_sum,
    square,
    sw_KJ,
)
from curvedyn.dynamics import fradkin_audit, independence_rank, poisson_bracket, sample_state
from curvedyn.geometry import ConfigPoint, PhaseState, R_chart_kinetic, _trig, rho_chart_kinetic
from curvedyn.systems import SYSTEM_IDS, catalog, make_system, potential_observable

KAPPAS = (1.0, -1.0, 0.7, -0.3, 0.0)
ALPHA, KC = 1.3, -1.0
KS = (0.11, 0.23, 0.37)


def rand_state(rng, kap):
    """State away from every coordinate plane and the equator."""
    while True:
        rmax = 0.45 * math.pi / math.sqrt(kap) if kap > 0 else 1.5
        r = rng.uniform(0.3, rmax)
        th = rng.uniform(0.4, math.pi - 0.4)
        ph = rng.uniform(0.3, 2 * math.pi - 0.3)
        s = (r, th, ph, *rng.uniform(-1.0, 1.0, 3))
        if all(abs(oracles.coord(a, kap, s)) > 0.07 for a in (1, 2, 3)) \
                and abs(math.cos(th)) > 0.07:
            return s


def library_observables(kap):
    """Name -> (Observable, reference callable) for every real observable."""
    out = {}
    for i in (1, 2, 3):
        out[f"P{i}"] = (noether_P(i, kap), lambda s, i=i: oracles.noether(i, kap, s))
        out[f"J{i}"] = (angular_J(i), lambda s, i=i: oracles.angular(i, s))
        out[f"coord{i}"] = (coordinate(i, kap), lambda s, i=i: oracles.coord(i, kap, s))
        out[f"dir{i}"] = (direction_cosine(i), lambda s, i=i: oracles.dircos(i, s))
    out["Jsq"] = (angular_J_squared(), oracles.jsq)
    out["T"] = (kinetic(kap), lambda s: oracles.kinetic(kap, s))
    for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)):
        out[f"K{i}{j}"] = (
            fradkin_K(i, j, kap, ALPHA),
            lambda s, i=i, j=j: oracles.osc_k(i, j, kap, ALPHA, s),
        )
    for i in (1, 2, 3):
        out[f"Ksw{i}"] = (
            fradkin_K(i, i, kap, ALPHA, *KS),
            lambda s, i=i: oracles.sw_k(i, kap, ALPHA, KS, s),
        )
        out[f"KJ{i}"] = (
            sw_KJ(i, kap, *KS),
            lambda s, i=i: oracles.sw_kj(i, kap, KS, s),
        )
        out[f"KRL{i}"] = (
            kepler_RL(i, kap, KC),
            lambda s, i=i: oracles.kepler_rl(i, kap, KC, s),
        )
        out[f"R{i}"] = (
            k123_R(i, kap, KC, *KS),
            lambda s, i=i: oracles.k123_r(i, kap, KC, KS, s),
        )
        out[f"S{i}"] = (
            k123_S(i, kap),
            lambda s, i=i: oracles.k123_s(i, kap, s),
        )
        out[f"KR{i}"] = (
            k123_KR(i, kap, KC, *KS),
            lambda s, i=i: oracles.k123_kr(i, kap, KC, KS, s),
        )
    o112 = osc112_observables(kap, ALPHA, KS[0], KS[1])
    o112["V112"] = potential_observable(
        make_system("osc112", kap, alpha=ALPHA, k1=KS[0], k2=KS[1])
    )
    refs = {
        "Az": lambda s: oracles.osc112_az(kap, s),
        "V112": lambda s: oracles.osc112_v(kap, ALPHA, KS[0], KS[1], s),
        "K3": lambda s: oracles.osc112_k3(kap, ALPHA, s),
        "KJ3": lambda s: oracles.osc112_kj3(kap, KS[0], KS[1], s),
        "K12": lambda s: oracles.osc112_k12(kap, ALPHA, KS[0], KS[1], s),
        "KRL1": lambda s: oracles.osc112_krl1(kap, ALPHA, KS[0], s),
        "KRL2": lambda s: oracles.osc112_krl2(kap, ALPHA, KS[1], s),
    }
    for name, obs in o112.items():
        out[f"o112:{name}"] = (obs, refs[name])
    return out


def fd_gradient(obs, s, h=1e-6):
    g = np.zeros(6)
    for i in range(6):
        sp = np.array(s)
        sm = np.array(s)
        sp[i] += h
        sm[i] -= h
        g[i] = (obs.value(tuple(sp)) - obs.value(tuple(sm))) / (2.0 * h)
    return g


def test_values_match_reference_formulas():
    """Every observable value agrees with the separate transcription."""
    rng = np.random.default_rng(100)
    for kap in KAPPAS:
        table = library_observables(kap)
        for _ in range(10):
            s = rand_state(rng, kap)
            for name, (obs, ref) in table.items():
                want = ref(s)
                got = obs.value(s)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (name, kap)


def test_complex_observables_match_reference():
    rng = np.random.default_rng(101)
    for kap in KAPPAS:
        for _ in range(10):
            s = rand_state(rng, kap)
            for j in (1, 2, 3):
                m = complex_M(j, kap, ALPHA)
                want = oracles.osc_m(j, kap, ALPHA, s)
                assert m.re.value(s) == pytest.approx(want.real, rel=1e-12, abs=1e-12)
                assert m.im.value(s) == pytest.approx(want.imag, rel=1e-12, abs=1e-12)
                n = k123_N(j, kap, KC, *KS)
                wantn = oracles.k123_n(j, kap, KC, KS, s)
                assert n.re.value(s) == pytest.approx(wantn.real, rel=1e-12, abs=1e-12)
                assert n.im.value(s) == pytest.approx(wantn.imag, rel=1e-12, abs=1e-12)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(102)
    for kap in KAPPAS:
        table = library_observables(kap)
        for _ in range(5):
            s = rand_state(rng, kap)
            for name, (obs, _) in table.items():
                v, g = obs.value_and_gradient(s)
                assert v == obs.value(s)
                fd = fd_gradient(obs, s)
                # The probe itself carries error ~ eps |f| / h + h^2 |f'''| / 6,
                # so the bar scales with the gradient magnitude.
                tol = max(1e-6, 2e-8 * float(np.max(np.abs(g))))
                assert np.max(np.abs(g - fd)) < tol, (name, kap)


CATALOG_PARAMS = {
    "free": {},
    "oscillator": {"alpha": ALPHA},
    "sw": {"alpha": ALPHA, "k1": KS[0], "k2": KS[1], "k3": KS[2]},
    "osc112": {"alpha": ALPHA, "k1": KS[0], "k2": KS[1]},
    "kepler": {"k": KC},
    "kepler123": {"k": KC, "k1": KS[0], "k2": KS[1], "k3": KS[2]},
}


def catalog_table(spec):
    """Every real observable of a catalog, complex ones split into parts."""
    cat = catalog(spec)
    table = dict(cat.observables)
    for name, c in cat.complexes.items():
        table[f"{name}.re"] = c.re
        table[f"{name}.im"] = c.im
    return table


def guarded_states(spec, y):
    """Copies of y placed on theta = 0, sin_k(r) = 0, cos_k(r) = 0 (kappa > 0)
    and, for systems with couplings, the coordinate plane phi = 0."""
    moves = [(1, 0.0), (0, 0.0)]
    if spec.kappa > 0.0:
        moves.append((0, 0.5 * math.pi / math.sqrt(spec.kappa)))
    if spec.system_id in ("sw", "osc112", "kepler123"):
        moves.append((2, 0.0))
    out = []
    for idx, val in moves:
        g = y.copy()
        g[idx] = val
        out.append(g)
    return out


def outcome(call):
    """The value a call returns, or the class of the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def test_value_path_matches_value_and_gradient():
    """value() equals value_and_gradient()[0] on every catalog entry, and
    both paths raise the same exception class on every guarded set."""
    rng = np.random.default_rng(107)
    for kap in KAPPAS:
        for sid, params in CATALOG_PARAMS.items():
            spec = make_system(sid, kap, **params)
            table = catalog_table(spec)
            states = [sample_state(spec, rng) for _ in range(5)]
            for y in states:
                for name, obs in table.items():
                    assert obs.value(y) == obs.value_and_gradient(y)[0], (sid, kap, name)
            raised = 0
            for y in guarded_states(spec, states[0]):
                for name, obs in table.items():
                    got = outcome(lambda: obs.value(y))
                    want = outcome(lambda: obs.value_and_gradient(y)[0])
                    if isinstance(want, type):
                        raised += 1
                        assert got is want, (sid, kap, name, y)
                    else:
                        assert got == want, (sid, kap, name, y)
            assert raised > 0, (sid, kap)


def test_state_must_be_a_six_vector():
    """A state of any other length or shape raises ValueError, whatever
    its container; a 5-vector used to raise IndexError and a 7-vector to
    be cut to six."""
    obs = (angular_J(1), coordinate(3, 0.7), kinetic(0.7))
    good = np.array([0.8, 1.2, 0.4, 0.15, 0.3, 0.35])
    bad = [good[:5], np.append(good, 1.0), good[None, :], np.array(0.8), good.astype(np.float32)[:5]]
    bad += [np.arange(7), np.ones((6, 2)), good[:5].tolist(), tuple(np.append(good, 1.0).tolist()), []]
    for s in bad:
        for o in obs:
            with pytest.raises(ValueError, match="6-vector"):
                o.value(s)
            with pytest.raises(ValueError, match="6-vector"):
                o.value_and_gradient(s)
    for o in obs:
        assert o.value(good) == o.value(good.tolist()) == o.value(tuple(good.tolist()))
        assert o.value(good.astype(np.float32)) == o.value(good.astype(np.float32).tolist())


def test_momentum_sum_closed_forms():
    """Sum of squared momenta and the radial contraction identities."""
    rng = np.random.default_rng(103)
    for kap in KAPPAS:
        for _ in range(20):
            s = rand_state(rng, kap)
            r, th = s[0], s[1]
            sk = oracles.sk(kap, r)
            ck = oracles.ck(kap, r)
            ang = s[4] ** 2 + s[5] ** 2 / math.sin(th) ** 2
            psq = sum(oracles.noether(i, kap, s) ** 2 for i in (1, 2, 3))
            assert psq == pytest.approx(s[3] ** 2 + (ck * ck / (sk * sk)) * ang, rel=1e-12)
            assert oracles.jsq(s) == pytest.approx(ang, rel=1e-12)
            dot = sum(
                oracles.coord(i, kap, s) * oracles.noether(i, kap, s) for i in (1, 2, 3)
            )
            assert dot == pytest.approx(s[3] * sk, rel=1e-12, abs=1e-12)
            ssq = sum(oracles.coord(i, kap, s) ** 2 for i in (1, 2, 3))
            assert ssq == pytest.approx(sk * sk, rel=1e-13)


def test_complex_factorization_identities():
    """M_a conj(M_b) recovers K_ab + i alpha J_c, and |M_j|^2 = K_jj."""
    rng = np.random.default_rng(104)
    for kap in KAPPAS:
        s = rand_state(rng, kap)
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            m = oracles.osc_m(a, kap, ALPHA, s) * oracles.osc_m(b, kap, ALPHA, s).conjugate()
            assert m.real == pytest.approx(oracles.osc_k(a, b, kap, ALPHA, s), rel=1e-12)
            assert m.imag == pytest.approx(ALPHA * oracles.angular(c, s), rel=1e-12, abs=1e-12)
        for j in (1, 2, 3):
            assert abs(oracles.osc_m(j, kap, ALPHA, s)) ** 2 == pytest.approx(
                oracles.osc_k(j, j, kap, ALPHA, s), rel=1e-12
            )


def test_fradkin_matrix_structure():
    rng = np.random.default_rng(105)
    for kap in (1.0, -0.3):
        s = rand_state(rng, kap)
        m = fradkin_matrix(kap, ALPHA, s)
        assert isinstance(m, np.ndarray) and m.shape == (3, 3)
        assert np.array_equal(m, m.T)
        for i, j in ((1, 1), (1, 2), (2, 3), (3, 3)):
            assert m[i - 1, j - 1] == pytest.approx(
                fradkin_K(i, j, kap, ALPHA).value(s), rel=1e-13
            )


def test_kappa_cartesian_matches_coordinates():
    s = (0.8, 1.1, 2.3, 0.0, 0.0, 0.0)
    for kap in KAPPAS:
        x, y, z = kappa_cartesian(kap, s)
        assert x == pytest.approx(oracles.coord(1, kap, s), rel=1e-14)
        assert y == pytest.approx(oracles.coord(2, kap, s), rel=1e-14)
        assert z == pytest.approx(oracles.coord(3, kap, s), rel=1e-14)
        assert kappa_cartesian(kap, np.array(s)) == (x, y, z)


def test_unsupported_offdiagonal_couplings():
    with pytest.raises(UnsupportedEntry):
        fradkin_K(1, 2, 1.0, ALPHA, 0.1, 0.0, 0.0)
    # Diagonal entries accept couplings.
    fradkin_K(2, 2, 1.0, ALPHA, 0.1, 0.2, 0.3)


def test_negative_couplings_rejected():
    with pytest.raises(NegativeCoupling):
        k123_KR(1, 1.0, KC, -0.1, 0.2, 0.3)
    with pytest.raises(NegativeCoupling):
        k123_N(2, 1.0, KC, 0.1, -0.2, 0.3)
    # R and S themselves carry no square root and accept any sign.
    k123_R(1, 1.0, KC, -0.1, 0.2, 0.3)
    k123_S(1, 1.0)


NAN, INF = math.nan, math.inf
NONFINITE = [
    (fradkin_K, (1, 1, 1.0, NAN), "alpha must be finite, got nan"),
    (fradkin_K, (2, 2, 1.0, ALPHA, 0.0, INF), "k2 must be finite, got inf"),
    (complex_M, (1, 1.0, NAN), "alpha must be finite, got nan"),
    (sw_KJ, (1, 1.0, 0.0, NAN), "k2 must be finite, got nan"),
    (sw_KJ, (1, NAN), "kappa must be finite, got nan"),
    (osc112_observables, (1.0, NAN), "alpha must be finite, got nan"),
    (osc112_observables, (1.0, ALPHA, 0.0, -INF), "k2 must be finite, got -inf"),
    (kepler_RL, (1, 1.0, NAN), "k must be finite, got nan"),
    (k123_R, (1, 1.0, -1, INF), "k1 must be finite, got inf"),
    (k123_R, (1, 1.0, NAN), "k must be finite, got nan"),
    (k123_N, (3, 1.0, KC, 0.0, 0.0, NAN), "k3 must be finite, got nan"),
    (k123_KR, (2, 1.0, INF), "k must be finite, got inf"),
    (noether_P, (1, NAN), "kappa must be finite, got nan"),
    (fradkin_audit, (1.0, NAN, [0.8, 1.2, 0.4, 0.15, 0.3, 0.35]), "alpha must be finite, got nan"),
]


@pytest.mark.parametrize("build, args, message", NONFINITE,
                         ids=[f"{b.__name__}-{m.split()[0]}" for b, _, m in NONFINITE])
def test_nonfinite_parameters_rejected(build, args, message):
    """A non-finite alpha, k or k_i raises at construction, as a non-finite
    kappa does, instead of an observable that evaluates to nan or inf."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


def test_scaled_sum_rejects_mixed_kappa():
    """One tuple serves every term of a sum, so terms of different kappa
    raise instead of one of them being evaluated at the wrong curvature;
    terms that read no kernel join a sum of any kappa."""
    with pytest.raises(ValueError, match="kappa"):
        scaled_sum("mixed", [(1.0, noether_P(1, 1.0)), (1.0, noether_P(2, -1.0))])
    with pytest.raises(ValueError, match="kappa"):
        scaled_sum("mixed", [(1.0, angular_J(1)), (1.0, kinetic(1.0)), (1.0, coordinate(2, -1.0))])
    mixed = scaled_sum("ok", [(1.0, angular_J(3)), (1.0, noether_P(3, 0.7))])
    assert mixed.kappa == 0.7


def test_scaled_sum_and_square():
    rng = np.random.default_rng(106)
    kap = 0.7
    s = rand_state(rng, kap)
    p = noether_P(1, kap)
    j = angular_J(2)
    comb = scaled_sum("C", [(2.0, p), (-0.5, j)])
    assert comb.name == "C"
    assert comb.value(s) == pytest.approx(2.0 * p.value(s) - 0.5 * j.value(s), rel=1e-14)
    vc, gc = comb.value_and_gradient(s)
    _, gp = p.value_and_gradient(s)
    _, gj = j.value_and_gradient(s)
    assert np.allclose(gc, 2.0 * gp - 0.5 * gj, rtol=1e-13, atol=1e-14)
    sq = square(p)
    assert sq.value(s) == pytest.approx(p.value(s) ** 2, rel=1e-14)
    vs, gs = sq.value_and_gradient(s)
    assert np.allclose(gs, 2.0 * p.value(s) * gp, rtol=1e-13, atol=1e-14)


def test_observable_metadata():
    obs = noether_P(2, 0.7)
    assert obs.name == "P2"
    assert isinstance(obs, Observable)
    m = complex_M(1, 0.7, ALPHA)
    assert m.name == "M1"
    assert m.re.name and m.im.name


def test_one_kernel_call_per_evaluation(monkeypatch):
    """An evaluation takes one trigonometry pass: every observable, the
    sums and squares of the catalogs included, calls its bound kernel at
    most once per value and per value_and_gradient, J_i and Jsq never, and
    the 1:1:2 KRL_i and every H.value exactly once (the pieces of KRL_i
    used to take five calls, and sw's W2.value four)."""
    from curvedyn import dynamics, geometry, kappa_core, observables, systems

    params = {"sw": dict(k1=0.1, k2=0.2, k3=0.3), "osc112": dict(k1=0.1, k2=0.2),
              "kepler123": dict(k1=0.1, k2=0.2, k3=0.3)}
    calls = [0]
    bind = kappa_core.sin_cos_k

    def counting(kappa):
        sc = bind(kappa)

        def counted(x):
            calls[0] += 1
            return sc(x)

        return counted

    for mod in (kappa_core, geometry, observables, systems, dynamics):
        monkeypatch.setattr(mod, "sin_cos_k", counting)
    rng = np.random.default_rng(19)
    seen = 0
    for sid in SYSTEM_IDS:
        for kap in (-1.0, 0.0, 1.0):
            spec = make_system(sid, kap, **params.get(sid, {}))
            cat = catalog(spec)
            obs = dict(cat.observables)
            for name, c in cat.complexes.items():
                obs[f"{name}.re"], obs[f"{name}.im"] = c.re, c.im
            y = sample_state(spec, rng, margin=0.05)
            for name, o in obs.items():
                for call in (o.value, o.value_and_gradient):
                    calls[0] = 0
                    call(y)
                    where = (sid, kap, name, call.__name__, calls[0])
                    if name in ("J1", "J2", "J3", "Jsq"):
                        assert calls[0] == 0, where
                    elif sid == "osc112" and name in ("KRL1", "KRL2"):
                        assert calls[0] == 1, where
                    elif name == "H" and call == o.value_and_gradient:
                        # The gradient of T is read off the geodesic
                        # Hamilton equations, which take their own call.
                        assert calls[0] <= 2, where
                    elif name == "H" or (sid == "sw" and name == "W2"):
                        assert calls[0] == 1, where
                    else:
                        assert calls[0] <= 1, where
                    seen += calls[0]
    assert seen > 0


def test_gradient_path_at_huge_momenta_warns_nothing():
    """At momenta whose squares overflow, value_and_gradient of every
    catalog entry ends as value does, in the same float (finite or not) or
    the same exception, and emits no RuntimeWarning: the gradients are
    float arithmetic, which overflows to inf silently where numpy's array
    arithmetic used to warn of overflow and invalid values.  No value
    raises OverflowError: the squares of momenta are products, which
    overflow to inf, in the catalog and in the chart kinetics alike."""
    seen = 0
    for p in (1e160, 1e200):
        y = (0.8, 1.2, 0.4, p, p, p)
        s = PhaseState(ConfigPoint(*y[:3]), *y[3:])
        assert rho_chart_kinetic(1.0, s) == R_chart_kinetic(1.0, s) == math.inf
        for sid in SYSTEM_IDS:
            for name, obs in catalog_table(make_system(sid, 1.0)).items():
                want = outcome(lambda: repr(obs.value(y)))
                assert want is not OverflowError, (sid, p, name)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = outcome(lambda: repr(obs.value_and_gradient(y)[0]))
                assert got == want, (sid, p, name)
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
                    (sid, p, name, [str(w.message) for w in caught])
                seen += 1
    assert seen > 100


def test_hand_built_ndarray_piece():
    """A piece of one's own may return its gradient as an ndarray: the
    observable, its scaled sums and squares, brackets and ranks give the
    same floats, bit for bit, as from the library's tuple piece."""
    rng = np.random.default_rng(108)
    kap = 0.7

    def as_array(obs):
        def piece(t, y, grad=True):
            v, g = obs.piece(t, y, grad)
            return v, (np.array(g) if grad else None)

        return Observable(f"{obs.name}.arr", piece, obs.kappa)

    spec = make_system("kepler123", kap, **CATALOG_PARAMS["kepler123"])
    cat = catalog(spec)
    tuples = [cat.observables[name] for name in cat.independence_sets["primary"]]
    arrays = [as_array(o) for o in tuples]
    j = angular_J(3)
    for _ in range(5):
        y = sample_state(spec, rng, margin=0.12)
        for a, b in zip(arrays, tuples):
            pairs = [
                (a, b),
                (scaled_sum("S", [(0.3, a), (-1.7, j)]), scaled_sum("S", [(0.3, b), (-1.7, j)])),
                (square(a), square(b)),
                (square(scaled_sum("S", [(1.1, j), (0.6, a)])),
                 square(scaled_sum("S", [(1.1, j), (0.6, b)]))),
            ]
            for got, want in pairs:
                assert got.gradient(y).tobytes() == want.gradient(y).tobytes(), got.name
                gv, gg = got.value_and_gradient(y)
                wv, wg = want.value_and_gradient(y)
                assert (gv, gg.tobytes()) == (wv, wg.tobytes()), got.name
                assert gg.dtype == np.float64 and gg.shape == (6,)
                assert poisson_bracket(got, j, y) == poisson_bracket(want, j, y), got.name
        assert independence_rank(arrays, y) == independence_rank(tuples, y)


def test_catalog_pieces_return_tuples_of_six_floats():
    """With grad true every library piece, those of the catalogs and the
    constructors' own, gives its gradient as a tuple of six Python floats;
    gradient and value_and_gradient give a new float64 array of it, which
    the caller may overwrite."""
    rng = np.random.default_rng(109)
    for kap in (-1.0, 0.0, 0.7):
        table = {f"lib:{name}": obs for name, (obs, _) in library_observables(kap).items()}
        for sid, params in CATALOG_PARAMS.items():
            spec = make_system(sid, kap, **params)
            table.update({f"{sid}:{name}": obs for name, obs in catalog_table(spec).items()})
        y = tuple(map(float, rand_state(rng, kap)))
        for name, obs in table.items():
            v, g = obs.piece(_trig(obs._sc, y), y, True)
            assert type(v) is float, (kap, name)
            assert type(g) is tuple and len(g) == 6, (kap, name, type(g))
            assert all(type(x) is float for x in g), (kap, name)
            arr = obs.gradient(y)
            assert arr.dtype == np.float64 and arr.tolist() == list(g), (kap, name)
            arr[:] = np.nan
            assert obs.value_and_gradient(y)[1].tolist() == list(g), (kap, name)
