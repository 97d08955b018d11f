"""Kernel identities, series branches, derivatives, and inverses."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvedyn.kappa_core import (
    DomainSingularity,
    EPS_DOM,
    SMALL_KAPPA_X2,
    arcsin_k,
    arctan_k,
    cos_k,
    d_cos_k,
    d_sin_k,
    d_tan_k,
    sin_cos_k,
    sin_k,
    tan_k,
)


def rel_defect(kap, x):
    c = cos_k(kap, x)
    s = sin_k(kap, x)
    scale = max(1.0, c * c + abs(kap) * s * s)
    return abs(c * c + kap * s * s - 1.0) / scale


def test_pythagorean_identity_random_sweep():
    """cos_k^2 + kappa sin_k^2 = 1 to 1e-13 relative over the sampling box."""
    rng = np.random.default_rng(2024)
    kaps = rng.uniform(-2.0, 2.0, 10000)
    xs = rng.uniform(-5.0, 5.0, 10000)
    worst = max(rel_defect(k, x) for k, x in zip(kaps, xs))
    assert worst < 1e-13


@settings(max_examples=300, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-5.0, 5.0))
def test_pythagorean_identity_property(kap, x):
    assert rel_defect(kap, x) < 1e-13


def test_matches_reference_branches():
    """Closed-form branches agree with the plain transcriptions."""
    for kap in (2.0, 1.0, 0.5, -0.5, -1.0, -2.0):
        for x in np.linspace(-3.0, 3.0, 41):
            assert cos_k(kap, x) == pytest.approx(oracles.ck(kap, x), rel=1e-15, abs=1e-15)
            assert sin_k(kap, x) == pytest.approx(oracles.sk(kap, x), rel=1e-15, abs=1e-15)


def test_flat_case_is_exact():
    for x in (-2.5, -1.0, 0.0, 0.3, 1.7):
        assert cos_k(0.0, x) == 1.0
        assert sin_k(0.0, x) == x
        assert tan_k(0.0, x) == x


def test_small_kappa_continuity():
    """Values at kappa = +-1e-8 sit within 1e-6 of the flat values."""
    for x in np.linspace(-5.0, 5.0, 101):
        for kap in (1e-8, -1e-8):
            assert abs(cos_k(kap, x) - cos_k(0.0, x)) < 1e-6
            assert abs(sin_k(kap, x) - sin_k(0.0, x)) < 1e-6


def test_series_branch_seam():
    """The series and closed-form branches agree where they hand over."""
    x = 1.0
    for kap in (SMALL_KAPPA_X2 * 0.999, SMALL_KAPPA_X2 * 1.001):
        for sign in (1.0, -1.0):
            u = sign * kap
            closed = math.cos(math.sqrt(u) * x) if u > 0 else math.cosh(math.sqrt(-u) * x)
            assert abs(cos_k(u, x) - closed) < 1e-14
            closed_s = (math.sin(math.sqrt(u) * x) / math.sqrt(u) if u > 0
                        else math.sinh(math.sqrt(-u) * x) / math.sqrt(-u))
            assert abs(sin_k(u, x) - closed_s) < 1e-13


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(200):
        kap = rng.uniform(-2.0, 2.0)
        x = rng.uniform(-1.4, 1.4)
        if kap > 0 and abs(cos_k(kap, x)) < 0.1:
            continue
        fd_s = (sin_k(kap, x + h) - sin_k(kap, x - h)) / (2 * h)
        fd_c = (cos_k(kap, x + h) - cos_k(kap, x - h)) / (2 * h)
        fd_t = (tan_k(kap, x + h) - tan_k(kap, x - h)) / (2 * h)
        assert abs(d_sin_k(kap, x) - fd_s) < 1e-8
        assert abs(d_cos_k(kap, x) - fd_c) < 1e-8
        assert abs(d_tan_k(kap, x) - fd_t) < 1e-6


def test_tangent_derivative_closed_form():
    """1/cos_k^2 equals 1 + kappa tan_k^2."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        kap = rng.uniform(-2.0, 2.0)
        x = rng.uniform(-1.2, 1.2)
        if kap > 0 and abs(cos_k(kap, x)) < 0.1:
            continue
        t = tan_k(kap, x)
        assert d_tan_k(kap, x) == pytest.approx(1.0 + kap * t * t, rel=1e-12)


def test_inverse_round_trips():
    rng = np.random.default_rng(9)
    for _ in range(200):
        kap = rng.uniform(-2.0, 2.0)
        # Stay on the principal branch of the forward map.
        if kap > 0:
            x = rng.uniform(-0.45, 0.45) * math.pi / math.sqrt(kap)
        else:
            x = rng.uniform(-2.0, 2.0)
        assert arcsin_k(kap, sin_k(kap, x)) == pytest.approx(x, abs=1e-12)
        assert arctan_k(kap, tan_k(kap, x)) == pytest.approx(x, abs=1e-12)


def test_inverse_series_branch():
    for y in (1e-4, -2e-4):
        for kap in (1e-8, -1e-8, 0.0):
            assert arcsin_k(kap, y) == pytest.approx(y, abs=1e-12)
            assert arctan_k(kap, y) == pytest.approx(y, abs=1e-12)


def test_singularities_raise():
    with pytest.raises(DomainSingularity):
        tan_k(1.0, math.pi / 2.0)
    with pytest.raises(DomainSingularity):
        d_tan_k(4.0, math.pi / 4.0)
    with pytest.raises(DomainSingularity):
        arcsin_k(1.0, 1.5)
    with pytest.raises(DomainSingularity):
        arctan_k(-1.0, 1.01)


def test_domain_guard_threshold():
    # Just outside the guard evaluates; the guard width is EPS_DOM on cos_k.
    assert abs(tan_k(1.0, math.pi / 2.0 - 1e-3)) > 999.0
    assert EPS_DOM == 1e-10


@pytest.mark.parametrize("kernel", [cos_k, sin_k, tan_k, arcsin_k, arctan_k])
@pytest.mark.parametrize("kap", [0.0, -0.0])
def test_flat_kernels_at_infinity_are_non_finite(kernel, kap):
    """At kappa = 0 a non-finite x takes the series branch: a non-finite
    result, not a ZeroDivisionError from dividing by sqrt(-0.0)."""
    for x in (math.inf, -math.inf, math.nan):
        assert not math.isfinite(kernel(kap, x)), (kernel.__name__, x)


def _outcome(fn, *args):
    """The float result of a call as bits, or the type and text of what it raised."""
    try:
        return np.float64(fn(*args)).tobytes()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def _written_out(kap, x):
    """(sin_k, cos_k) transcribed from their definition: the series in
    u = kappa x^2 at kappa = 0 or |u| < SMALL_KAPPA_X2, else the closed
    circular or hyperbolic forms."""
    u = kap * x * x
    if kap == 0.0 or abs(u) < SMALL_KAPPA_X2:
        return x * (1.0 - u / 6.0 + u * u / 120.0), 1.0 - u / 2.0 + u * u / 24.0
    if kap > 0.0:
        rk = math.sqrt(kap)
        return math.sin(rk * x) / rk, math.cos(rk * x)
    rk = math.sqrt(-kap)
    return math.sinh(rk * x) / rk, math.cosh(rk * x)


def _written_out_tan(kap, x):
    s, c = _written_out(kap, x)
    if abs(c) < EPS_DOM:
        raise DomainSingularity(f"tan_k singular: |cos_k({kap}, {x})| < {EPS_DOM}")
    return s / c


def test_kernels_equal_their_written_out_forms_bit_for_bit():
    """sin_cos_k(kappa)(x), sin_k, cos_k and tan_k equal the series and
    closed forms written out above, bit for bit, on both branches of every
    sign of kappa, on either side of the series threshold
    |kappa| x^2 = SMALL_KAPPA_X2, and for a non-finite or overflowing x,
    where they raise what the written-out forms raise."""
    rng = np.random.default_rng(17)
    seam = math.sqrt(SMALL_KAPPA_X2)
    for kap in (1.0, 2.5, 1e-7, -1.0, -0.3, -1e-7, 0.0, -0.0):
        sc = sin_cos_k(kap)
        xs = [0.0, -0.0, 1e-3, -0.7, 3.0, 800.0, math.inf, -math.inf, math.nan]
        xs += rng.uniform(-5.0, 5.0, 200).tolist()
        if kap != 0.0:
            edge = seam / math.sqrt(abs(kap))
            xs += [edge * f for f in (1.0 - 1e-12, 1.0 - 1e-16, 1.0, 1.0 + 1e-16, 1.0 + 1e-12)]
            xs += (edge * rng.uniform(0.5, 1.5, 200)).tolist()
        for x in xs:
            want_s = _outcome(lambda: _written_out(kap, x)[0])
            want_c = _outcome(lambda: _written_out(kap, x)[1])
            assert _outcome(lambda: sc(x)[0]) == want_s, (kap, x)
            assert _outcome(lambda: sc(x)[1]) == want_c, (kap, x)
            assert _outcome(sin_k, kap, x) == want_s, (kap, x)
            assert _outcome(cos_k, kap, x) == want_c, (kap, x)
            assert _outcome(tan_k, kap, x) == _outcome(_written_out_tan, kap, x), (kap, x)


@pytest.mark.parametrize("kernel", [cos_k, sin_k, tan_k, d_cos_k, d_sin_k, d_tan_k,
                                    arcsin_k, arctan_k])
@pytest.mark.parametrize("kap", [math.nan, math.inf, -math.inf])
def test_kernels_reject_a_non_finite_kappa(kernel, kap):
    """A non-finite kappa used to pass silently: sin_k(nan, x) gave nan,
    cos_k(-inf, x) gave inf, and sin_k(inf, x) raised a bare math domain
    error."""
    with pytest.raises(ValueError, match=f"^kappa must be finite, got {kap}$"):
        kernel(kap, 0.7)
    with pytest.raises(ValueError, match=f"^kappa must be finite, got {kap}$"):
        sin_cos_k(kap)
