"""Poisson brackets, integrators, audits, and closed-orbit detection.

The canonical bracket pairs (r, p_r), (theta, p_theta), (phi, p_phi).
Brackets of cataloged observables contract their analytic gradients, so
bracket identities can be audited to near machine precision without any
finite differencing.  Four integrators cover the trade-offs: a fixed
step classical Runge-Kutta, two embedded Dormand-Prince pairs (8(5,3),
the default, and 5(4) with proportional-integral step control), and an
implicit midpoint rule whose fixed-point iteration preserves quadratic
invariants to iteration tolerance.  Each yields its accepted steps to one
consumer, which stores them, ends the run and counts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import PhaseState, _central_difference, _j_vg, _p_vg, _trig
from .kappa_core import DomainSingularity, _finite, sin_cos_k
from .observables import Observable, _cartesian, _dir_vg, _fradkin_m
from .systems import Identity, SystemSpec, _system, catalog, hamilton_rhs

__all__ = [
    "Trajectory",
    "poisson_bracket",
    "poisson_bracket_fd",
    "integrate",
    "sample_state",
    "conservation_report",
    "independence_rank",
    "fradkin_audit",
    "BracketResidual",
    "bracket_table_audit",
    "ClosedOrbitResult",
    "closed_orbit_check",
]

METHODS = ("rk4_fixed", "rk45_adaptive", "dop853", "implicit_midpoint")
DEFAULT_METHOD = "dop853"  # of integrate and of the CLI's trajectory
FD_STEP = 1e-6  # central-difference step of poisson_bracket_fd
DT_MIN = 1e-12  # smallest step the adaptive methods retry down to
FP_TOL = 1e-13  # implicit_midpoint's fixed-point tolerance, relative to max(1, |y|)
FP_MAX_ITER = 100  # fixed-point iterations per implicit_midpoint step
ORBIT_TOL = 1e-12  # tolerance of the run behind closed_orbit_check
MAX_STEPS = 2_000_000  # integrate's default cap on steps


# ---------------------------------------------------------------------------
# Poisson brackets.

def _as_array(s) -> np.ndarray:
    if isinstance(s, PhaseState):
        return s.as_array()
    return np.asarray(s, dtype=float)


def _contract(gf: np.ndarray, gg: np.ndarray) -> float:
    """{f, g} from the 6-gradients of f and g."""
    return float(gf[:3] @ gg[3:] - gf[3:] @ gg[:3])


def poisson_bracket(f: Observable, g: Observable, s) -> float:
    """Canonical bracket {f, g} contracted from analytic gradients."""
    return _contract(f.gradient(s), g.gradient(s))


def poisson_bracket_fd(f, g, s) -> float:
    """Central finite-difference bracket of two state functions, step FD_STEP."""
    y = _as_array(s)
    gf = _central_difference(lambda x: _call(f, x), y, FD_STEP)
    gg = _central_difference(lambda x: _call(g, x), y, FD_STEP)
    return _contract(gf, gg)


def _audit_state(s) -> np.ndarray:
    """The state as a float array; anything but a finite 6-vector raises."""
    y = _as_array(s)
    if y.shape != (6,) or not np.isfinite(y).all():
        raise ValueError(f"audit states must be finite 6-vectors, got {y!r}")
    return y


def _call(fn, y: np.ndarray) -> float:
    if isinstance(fn, Observable):
        return fn.value(y)
    return float(fn(y))


# ---------------------------------------------------------------------------
# Integrators.

def _count(value, name: str, least: int) -> int:
    """value as an int; a bool, a non-integer or a value below least raises
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class Trajectory:
    """Time grid, states, and run diagnostics of one integration."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def thin(self, max_points: int) -> "Trajectory":
        """Evenly subsampled copy keeping the first and last states; a
        max_points that is not an integer >= 2 raises ValueError."""
        n = len(self.times)
        max_points = _count(max_points, "max_points", 2)
        if n <= max_points:
            return self
        idx = np.unique(np.linspace(0, n - 1, max_points).round().astype(int))
        return Trajectory(self.times[idx], self.states[idx], self.diagnostics, self.truncated)


# Explicit Runge-Kutta tableaux (c, A) (Hairer, Norsett & Wanner, Solving
# ODEs I, II.1, II.5 and II.10).  Row s of A holds the weights of stage s,
# taken at t + c[s] * dt, and the last row the weights b of the new state.
# RK4 has four stages.  The embedded pairs evaluate their weights row as
# a last stage, at the new state and c = 1, which starts the next step
# (FSAL): the seventh stage of Dormand-Prince 5(4) (Table II.5.2) and the
# thirteenth of Dormand-Prince 8(5,3).
_RK4 = (
    (0.0, 0.5, 0.5, 1.0),
    np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 0.0],
        ]
    ),
)
_DP54_TABLEAU = (
    (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0),
    np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0, 0.0],
            [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0, 0.0],
            [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0, 0.0],
            [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0],
        ]
    ),
)
# The 5th-order weights (last row of A) minus the embedded 4th-order
# ones: dt * (E @ K) is the local error estimate y5 - y4, without y4.
_DP_E = _DP54_TABLEAU[1][6] - np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                                        -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])

# Dormand-Prince 8(5,3), the constants of Hairer's dop853.f.  Each row of
# A lists its leading entries; the rest of the row is zero.
_DOP853_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
             4.45031289275240888144113950566e0, 1.89151789931450038304281599044e0,
             -5.8012039600105847814672114227e0, 3.1116436695781989440891606237e-1,
             -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
             4.47106157277725905176885569043e-2)
_DOP853_TABLEAU = (
    (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
     0.118350341907227396726757197510e0, 0.281649658092772603273242802490e0,
     0.333333333333333333333333333333e0, 0.25e0, 0.307692307692307692307692307692e0,
     0.651282051282051282051282051282e0, 0.6e0, 0.857142857142857142857142857142e0,
     1.0, 1.0),
    np.array([row + (0.0,) * (13 - len(row)) for row in (
        (),
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
        (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1),
        (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1),
        (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2),
        (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3),
        (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825e0,
         -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
        (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468e0,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2),
        (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209e0,
         1.09143734899672957818500254654e0, -8.14978701074692612513997267357e0,
         -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
         2.49360555267965238987089396762e0, -3.0467644718982195003823669022e0),
        (2.27331014751653820792359768449e0, 0.0, 0.0, -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444e0, -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1, -2.85899827713502369474065508674e0,
         -8.87285693353062954433549289258e0, 1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1),
        _DOP853_B,
    )]),
)
# The error rows E5 = b - (5th-order weights) and E3 = b - (3rd-order
# weights), whose products with K times dt estimate the local errors.
_DOP853_E = np.array([
    (1.312004499419488073250102996e-2, 0.0, 0.0, 0.0, 0.0, -1.225156446376204440720569753e0,
     -4.957589496572501915214079952e-1, 1.664377182454986536961530415e0,
     -3.503288487499736816886487290e-1, 3.341791187130174790297318841e-1,
     8.192320648511571246570742613e-2, -2.235530786388629525884427845e-2, 0.0),
    np.array(_DOP853_B + (0.0,)) - np.array(
        [0.244094488188976377952755905512e0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
         0.733846688281611857341361741547e0, 0.0, 0.0, 0.220588235294117647058823529412e-1, 0.0]),
])


class _Stages:
    """Stage buffer and stage loop of the explicit Runge-Kutta steps.

    K holds the stage derivatives; attempt expects K[0] = rhs(t, y).  The
    scaled tableau dtA = dt * A is filled when dt differs from the last
    attempt's, which spares the fixed-step methods a rescale per step (the
    adaptive loop changes dt on every attempt), and each row reads its
    fixed views (dtA[s, :s], K[:s]), so a row costs one dot product and one
    addition, plus the rhs call of a stage.  evals counts the rhs calls
    that returned (the implicit midpoint's iterations too), and rejected
    the attempts an adaptive run rejected.
    """

    def __init__(self, tableau: tuple, size: int):
        c, self.A = tableau
        self.K = np.empty((len(self.A), size))
        self.dtA = np.empty_like(self.A)
        self.dt = None  # the step dtA is scaled to
        self.rows = tuple((s, c[s], self.dtA[s, :s], self.K[:s]) for s in range(1, len(c)))
        # With fsal the weights row is the last stage; else it gives y_new.
        self.fsal = len(c) == len(self.A)
        self.b, self.Kb = self.dtA[-1, :-1], self.K[:-1]
        self.evals = self.rejected = 0

    def attempt(self, rhs, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """The new state of a step of size dt from (t, y), a fresh array."""
        if dt != self.dt:
            np.multiply(self.A, dt, out=self.dtA)
            self.dt = dt
        K = self.K
        # ndarray.dot, not @: at these sizes the matmul ufunc dispatch
        # costs about three times the product itself.
        for s, c, row, Ks in self.rows:
            ys = y + row.dot(Ks)
            K[s] = rhs(t + c * dt, ys)
            self.evals += 1
        return ys if self.fsal else y + self.b.dot(self.Kb)

    def step(self, rhs, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """attempt after evaluating its first stage at (t, y)."""
        self.K[0] = rhs(t, y)
        self.evals += 1
        return self.attempt(rhs, t, y, dt)


# An rhs call that raises one of these ends a run: at a domain singularity,
# or (math.sinh and the like raise) on a state out of the float range.
_STOPS = (DomainSingularity, OverflowError)


def _run(steps, t0: float, y0: np.ndarray, stages: _Stages, diag: dict) -> Trajectory:
    """The one consumer of a method's steps: stores (t0, y0) and every
    accepted (t, y) the generator yields, and ends the run with the reason
    it returns (None at t1) or with an rhs failure in _STOPS that escapes
    it.  The counts come from stages for every method."""
    times, states = [t0], [y0]
    try:
        while True:
            t, y = next(steps)
            times.append(t)
            states.append(y)
    except StopIteration as end:
        reason = end.value
    except _STOPS as exc:
        reason = "non-finite state" if isinstance(exc, OverflowError) else f"domain singularity: {exc}"
    diag.update(n_steps=len(times) - 1, n_rejected=stages.rejected, n_rhs_evals=stages.evals)
    if reason is not None:
        diag["reason"] = reason
    return Trajectory(np.array(times), np.array(states), diag, reason is not None)


def _fixed_steps(rhs, step, stages, y0, t0, t1, dt, max_steps):
    """Steps of step(stages, rhs, t, y, dt), which returns None if its
    solve fails; at most max_steps of them."""
    t, y = t0, y0
    # n may be infinite when dt is subnormal.
    n = (t1 - t0) / dt - 1e-12
    capped = n > max_steps
    for _ in range(max_steps if capped else max(1, math.ceil(n))):
        h = min(dt, t1 - t)
        y = step(stages, rhs, t, y, h)
        if y is None:
            return f"implicit solve did not converge at t = {t}"
        if not all(map(math.isfinite, y.tolist())):
            return "non-finite state"
        t = t + h
        yield t, y
    return "max_steps exceeded" if capped else None


def _dp54_error(K, y: list, y_new: list, dt: float, tol: float) -> float:
    """RMS of the error estimate dt * (E @ K) relative to
    tol * (1 + max(|y|, |y_new|)), on floats rather than temporaries."""
    acc = 0.0
    # b if b > a else a is max(a, b), with its order on a NaN.
    for e, a, b in zip(_DP_E.dot(K).tolist(), map(abs, y), map(abs, y_new)):
        w = e / (1.0 + (b if b > a else a))
        acc += w * w
    return dt / tol * math.sqrt(acc / len(y_new))


def _dop853_error(K, y: list, y_new: list, dt: float, tol: float) -> float:
    """err5^2 / sqrt(err5^2 + 0.01 err3^2) / sqrt(n) * dt / tol, where err5
    and err3 are the norms of the estimates E5 @ K and E3 @ K on the
    weights 1 + max(|y|, |y_new|) (dop853.f; both zero gives zero)."""
    acc5 = acc3 = 0.0
    e5, e3 = _DOP853_E.dot(K).tolist()
    for a, b, u, v in zip(e5, e3, map(abs, y), map(abs, y_new)):
        w = 1.0 + (v if v > u else u)  # max(u, v), as in _dp54_error
        acc5 += (a / w) ** 2
        acc3 += (b / w) ** 2
    return dt / tol * acc5 / math.sqrt(len(y_new) * (acc5 + 0.01 * acc3 or 1.0))


@dataclass(frozen=True)
class _Pair:
    """An embedded Runge-Kutta pair, as _adaptive_steps runs it.

    error(K, y, y_new, dt, tol) is the scaled error of an attempt, which
    is accepted when it is at most 1.  After an accepted step dt grows by
    0.9 * err**accept[0] * err_prev**accept[1] (err_prev is the last
    accepted error, at least 1e-4), after a rejection by 0.9 *
    err**reject but at most 1, each factor clipped to bounds.
    """

    tableau: tuple
    error: Callable
    accept: tuple
    reject: float
    bounds: tuple


# DP5(4) with proportional-integral control; DOP853 with dop853.f's
# control, err**(-1/8) with factors in [0.333, 6].
_DP54 = _Pair(_DP54_TABLEAU, _dp54_error, (-0.14, 0.08), -0.2, (0.2, 5.0))
_DOP853 = _Pair(_DOP853_TABLEAU, _dop853_error, (-0.125, 0.0), -0.125, (0.333, 6.0))
_ADAPTIVE = {"rk45_adaptive": _DP54, "dop853": _DOP853}


def _adaptive_steps(rhs, pair: _Pair, stages, y0, t0, t1, dt0, tol, max_steps):
    """Accepted steps of an embedded pair; max_steps caps the attempts."""
    t, y, y_list = t0, y0, y0.tolist()
    K = stages.K
    dt = dt0 if dt0 is not None else min(0.01 * (t1 - t0), 0.1)
    (a_err, a_prev), lo, hi = pair.accept, *pair.bounds
    err_prev = 1.0
    attempts = 0
    # K[0] depends on (t, y) alone: it survives a rejected attempt, is
    # handed on by FSAL, and a failure of it cannot be mended by a
    # smaller step, so it ends the run at once.
    K[0] = rhs(t, y)
    stages.evals += 1
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if attempts >= max_steps:
            return "max_steps exceeded"
        attempts += 1
        dt = min(dt, t1 - t)
        try:
            y_new = stages.attempt(rhs, t, y, dt)
        except _STOPS:
            if dt <= DT_MIN:
                raise
            dt = max(0.25 * dt, DT_MIN)
            stages.rejected += 1
            continue
        new_list = y_new.tolist()
        err = pair.error(K, y_list, new_list, dt, tol)
        if not (math.isfinite(err) and all(map(math.isfinite, new_list))):
            return "non-finite state"
        if err <= 1.0:
            t = t + dt
            y = y_new
            y_list = new_list
            K[0] = K[-1]  # first same as last
            fac = 0.9 * (err + 1e-300) ** a_err * err_prev**a_prev
            dt = dt * min(hi, max(lo, fac))
            err_prev = max(err, 1e-4)
            yield t, y
        else:
            stages.rejected += 1
            if dt <= DT_MIN:
                return "step size underflow"
            fac = 0.9 * err**pair.reject
            dt = max(dt * max(lo, min(1.0, fac)), DT_MIN)


def _implicit_midpoint_step(stages, rhs, t, y, dt):
    """One implicit midpoint step by fixed-point iteration from an RK4
    warm start, or None if FP_MAX_ITER iterations do not reach FP_TOL.  A
    non-finite iterate is returned at once, for the caller to reject."""
    ynew = stages.step(rhs, t, y, dt)
    tm = t + 0.5 * dt
    # y is finite, so its max-abs needs no NaN rule.
    bound = FP_TOL * max(1.0, *map(abs, y.tolist()))
    for _ in range(FP_MAX_ITER):
        ynext = y + dt * rhs(tm, 0.5 * (y + ynew))
        stages.evals += 1
        delta = (ynext - ynew).tolist()
        ynew = ynext
        # A NaN in delta makes its sum NaN, but not always its max-abs.
        total = sum(delta)
        if max(map(abs, delta)) < bound and not math.isnan(total):
            return ynew
        # A non-finite iterate makes the sum non-finite, and so does a
        # non-finite warm start, from which the iteration may still recover.
        if not math.isfinite(total) and not np.isfinite(ynew).all():
            return ynew
    return None


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_span,
    method: str = DEFAULT_METHOD,
    dt: Optional[float] = None,
    tol: float = 1e-10,
    max_steps: int = MAX_STEPS,
) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over t_span, storing every step.

    Bad input raises ValueError at once: a y0 that is not a finite 1-D
    vector, a t_span whose ends are not finite with t1 > t0, an unknown
    method, a missing or non-positive dt, a tol that is not positive and
    finite, or a max_steps that is not an integer >= 1.  Each method
    yields its accepted steps to one consumer, so every method treats a
    failure mid-run alike: the run truncates at the last good state and
    sets the truncated flag with a reason in the diagnostics.  The reasons
    are a domain singularity (the adaptive methods first retry with
    smaller steps down to DT_MIN, unless the rhs fails at the initial
    state itself), "non-finite state" (also when the rhs overflows; the
    adaptive methods check every stage and their error estimate too,
    implicit_midpoint every iterate), "implicit solve did not converge at
    t = ..." (implicit_midpoint), "max_steps exceeded" (every method; the
    adaptive methods count rejected attempts too) and "step size
    underflow" (dop853 and rk45_adaptive).  Every method's diagnostics
    hold method, tol, dt, n_steps (accepted steps, len(times) - 1),
    n_rejected (0 for the fixed-step methods) and n_rhs_evals (rhs calls
    that returned, implicit_midpoint's fixed-point iterations included).
    """
    y0, t0, t1 = _integrate_args(y0, t_span, method, dt, tol, max_steps)
    diag = {"method": method, "tol": tol, "dt": dt}
    pair = _ADAPTIVE.get(method)
    stages = _Stages(pair.tableau if pair else _RK4, y0.size)
    if pair:
        steps = _adaptive_steps(rhs, pair, stages, y0, t0, t1, dt, tol, max_steps)
    else:
        step = _Stages.step if method == "rk4_fixed" else _implicit_midpoint_step
        steps = _fixed_steps(rhs, step, stages, y0, t0, t1, dt, max_steps)
    return _run(steps, t0, y0, stages, diag)


def _integrate_args(y0, t_span, method, dt, tol, max_steps=MAX_STEPS) -> tuple:
    """integrate's checks of its arguments, each bad one raising ValueError;
    returns (y0 as a new float array, t0, t1)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y0 = _as_array(y0).copy()
    if y0.ndim != 1 or not np.isfinite(y0).all():
        raise ValueError(f"y0 must be a finite 1-D state vector, got {y0!r}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _count(max_steps, "max_steps", 1)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if dt is None and method not in _ADAPTIVE:
        raise ValueError(f"method {method!r} requires an explicit dt")
    return y0, t0, t1


# ---------------------------------------------------------------------------
# State sampling.

def sample_state(
    spec: SystemSpec,
    rng: np.random.Generator,
    min_angular: float = 0.0,
    margin: float = 0.05,
) -> np.ndarray:
    """Draw a random phase-space state away from coordinate singularities.

    Rejection rules keep sin(theta), sin_k(r), and cos_k(r) away from
    zero, keep the Cartesian coordinates away from the axis planes for
    systems with couplings on them, and optionally enforce a floor on
    the angular momentum so that sampled trajectories stay clear of the
    polar axis.  Radii are drawn from [0.15, pi/sqrt(kappa) - 0.15] on
    the sphere.  A margin outside [0, 1), a min_angular of 1 or more
    (no |p_phi| <= 1 reaches it), a kappa too large for a radius in that
    range with sin_k(r) and |cos_k(r)| at least margin, and rules that
    100,000 draws fail to satisfy raise ValueError.
    """
    kap, sc = spec.kappa, sin_cos_k(spec.kappa)
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"sample_state needs 0 <= margin < 1, got {margin!r}")
    if not min_angular < 1.0:
        raise ValueError(f"sample_state needs min_angular < 1, since |p_phi| <= 1, "
                         f"got {min_angular!r}")
    if kap > 0.0:
        # Some radius in [0.15, pi/sqrt(kappa) - 0.15] (symmetric about the
        # equator) has sin_k(r) and |cos_k(r)| >= margin iff kappa < k_max.
        x = math.acos(margin)
        k_max = min((x / 0.15) ** 2, (math.sin(x) / margin) ** 2 if margin else math.inf)
        if not kap < k_max:
            raise ValueError(f"sample_state needs kappa < {k_max:.6g} at margin = {margin!r}, and at "
                             f"any margin kappa < {(math.pi / 0.3) ** 2:.6g}, got kappa = {kap!r}")
        lo, hi = 0.15, math.pi / math.sqrt(kap) - 0.15
    else:
        lo, hi = 0.15, 2.5
    axial = _system(spec.system_id).axial
    needs_axis = (spec.k1 != 0.0, spec.k2 != 0.0, spec.k3 != 0.0 or axial)
    for _ in range(100000):
        r = rng.uniform(lo, hi)
        th = rng.uniform(0.0, math.pi)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        sk, ck, sth, cth, _, _ = t = _trig(sc, (r, th, ph))
        if sth < margin or sk < margin or abs(ck) < margin:
            continue
        dirs = [_dir_vg(axis, t, None, False)[0] for axis in range(3)]
        if any(need and abs(sk * d) < margin for need, d in zip(needs_axis, dirs)):
            continue
        if axial:
            u = (sk / ck) * cth
            if abs(1.0 - kap * u * u) < margin:
                continue
        pr, pth, pph = rng.uniform(-1.0, 1.0, 3)
        if min_angular > 0.0:
            if abs(pph) < min_angular or pth * pth + pph * pph < min_angular:
                continue
        return np.array([r, th, ph, pr, pth, pph])
    raise ValueError("state sampling failed to satisfy the rejection rules")


# ---------------------------------------------------------------------------
# Audits.

def conservation_report(observables: dict, traj: Trajectory) -> dict:
    """Drift of each named observable along a trajectory.

    Relative drift is the maximum deviation from the initial value
    divided by max(1, |initial value|).  Each state gets one tuple per
    distinct kappa of the observables (one without a kappa reads only the
    angles of any); states that are not 6-vectors raise ValueError.
    """
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 6:
        raise ValueError(f"conservation_report needs states of 6 columns, got shape {states.shape}")
    kernels = {o.kappa: o._sc for o in observables.values() if o.kappa is not None} or {None: None}
    slots = list(kernels)
    cols = [(o.piece, slots.index(o.kappa) if o.kappa in kernels else 0, [])
            for o in observables.values()]
    for y in states.tolist():
        ts = [_trig(sc, y) for sc in kernels.values()]
        for piece, k, values in cols:
            values.append(piece(ts[k], y, False)[0])
    report = {}
    for name, (_, _, values) in zip(observables, cols):
        values = np.array(values)
        v0 = values[0]
        drift = float(np.max(np.abs(values - v0)))
        report[name] = {"initial": float(v0), "max_drift": drift,
                        "rel_drift": drift / max(1.0, abs(v0))}
    return report


def independence_rank(
    observables: Sequence[Observable], s, threshold: float = 1e-6
) -> int:
    """Rank of the stacked gradient matrix at a state via SVD.

    Each gradient row is scaled to unit norm first, so the relative
    singular-value threshold measures directions rather than the very
    different magnitudes that quadratic and quartic integrals can have.
    Functional independence is invariant under this row scaling, and
    genuine dependencies still manifest many orders below the
    threshold.  An empty observable list, a state that is not a finite
    6-vector, or a threshold outside (0, 1) raises ValueError.
    """
    y = _audit_state(s)
    if not observables:
        raise ValueError("independence_rank needs at least one observable")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"independence_rank needs 0 < threshold < 1, got {threshold!r}")
    g = np.array([o.gradient(y) for o in observables])
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    g = g / np.where(norms > 0.0, norms, 1.0)
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > threshold * sv[0]))


def fradkin_audit(kappa, alpha, s) -> dict:
    """Normalized residuals of the oscillator quadratic-tensor identities.

    Covers the trace identity, the vanishing determinant, the kernel
    relation K J = 0, the coordinate quadratic forms, the 2x2 minors,
    and the three full contractions with coordinates and momenta, all
    read off one tuple of the state, with the kernels bound once.  A
    state that is not a finite 6-vector, or a non-finite alpha, raises
    ValueError.
    """
    kap, sc, alpha = float(kappa), sin_cos_k(kappa), _finite(alpha, "alpha")
    y = _audit_state(s).tolist()
    sk, ck, *_ = t = _trig(sc, y)
    m = _fradkin_m(alpha, t, y)
    j = np.array([_j_vg(i, t, y, False)[0] for i in (1, 2, 3)])
    p = np.array([_p_vg(i, t, y, False)[0] for i in (1, 2, 3)])
    x = np.array(_cartesian(t))
    tk = sk / ck
    jsq = float(j @ j)
    psq = float(p @ p)
    # the momenta satisfy sum P^2 + kappa sum J^2 = 2 T, so H = T + V reads
    h = 0.5 * (psq + kap * jsq) + 0.5 * alpha**2 * tk * tk
    scale_m = max(1.0, float(np.linalg.norm(m)))
    scale_j = max(1.0, float(np.linalg.norm(j)))
    res = {}
    res["trace"] = abs(np.trace(m) + kap * jsq - 2.0 * h) / max(1.0, abs(2.0 * h))
    res["det"] = abs(np.linalg.det(m)) / scale_m**3
    res["kernel"] = float(np.linalg.norm(m @ j)) / (scale_m * scale_j)
    quad_pairs = (((0, 1), 2), ((1, 2), 0), ((2, 0), 1))
    for (a, b), c in quad_pairs:
        # Cancelling differences of large products: scale by their terms.
        terms = (x[a] * x[a] * m[b, b], -2.0 * x[a] * x[b] * m[a, b], x[b] * x[b] * m[a, a])
        rhs = ck * ck * j[c] * j[c]
        scale = max(1.0, abs(rhs), *map(abs, terms))
        res[f"quad{c + 1}"] = abs(sum(terms) - rhs) / scale
        terms = (m[a, a] * m[b, b], m[a, b] ** 2)
        rhs = alpha**2 * j[c] * j[c]
        scale = max(1.0, abs(rhs), *map(abs, terms))
        res[f"minor{c + 1}"] = abs(terms[0] - terms[1] - rhs) / scale
    lhs = float(x @ m @ x)
    rhs = 2.0 * float(x @ x) * h - jsq
    res["xx"] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    lhs = float(x @ m @ p)
    rhs = (y[3] * sk) * (2.0 * h - kap * jsq)
    res["xp"] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    lhs = float(p @ m @ p)
    rhs = psq * psq + alpha**2 * tk * tk * y[3] * y[3]
    res["pp"] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return res


@dataclass(frozen=True)
class BracketResidual:
    """Maximum scale-normalized residual of one identity over the states.

    Each residual is divided by max(1, gradient-norm product, |expected
    value|), so tame identities are measured absolutely while entries
    whose terms reach 1e4-1e6 near the sampling margins are measured
    against their roundoff floor instead of the float noise itself.
    """

    name: str
    residual: float


class _GradientCache:
    """Value, gradient and gradient norm of each observable seen at one
    state y, read off its one tuple t (from sc, the kernels of the
    observables' kappa); an identity's expect and residual read y and t.

    Entries are keyed by id(obs), because Observable equality compares
    names only, and each entry keeps its observable so that no id is
    reused while the cache lives.  A scaled_sum's value and gradient are
    assembled from the cached ones of its terms with scaled_sum's own
    arithmetic, so they equal obs.value(y) and obs.gradient(y) bit for bit.
    """

    def __init__(self, y: np.ndarray, sc):
        self.y, self._y, self.entries = y, y.tolist(), {}
        self.t = _trig(sc, self._y)

    def entry(self, obs: Observable) -> tuple:
        """(obs, gradient, norm of the gradient, value) at this state."""
        entry = self.entries.get(id(obs))
        if entry is None:
            if obs.terms:
                v, g = 0.0, np.zeros(6)
                for c, term in obs.terms:
                    _, tg, _, tv = self.entry(term)
                    v += c * tv
                    g = g + c * tg
            else:
                v, g = obs.piece(self.t, self._y, True)
            entry = self.entries[id(obs)] = (obs, g, math.sqrt(g.dot(g)), v)
        return entry

    def value(self, obs: Observable) -> float:
        """obs.value(y) at this state."""
        return self.entry(obs)[3]

    def brackets_residual(self, brackets) -> float:
        """hypot of the residuals of {f, g} = expect(self) over (f, g,
        expect) triples, each relative to its gradient scale."""
        rel = []
        for f, g, e in brackets:
            _, gf, nf, _ = self.entry(f)
            _, gg, ng, _ = self.entry(g)
            expect = 0.0 if e is None else e(self)
            raw = _contract(gf, gg) - expect
            rel.append(raw / max(1.0, float(nf * ng), abs(expect)))
        return math.hypot(*rel)


def bracket_table_audit(
    spec: SystemSpec,
    states: Iterable[np.ndarray],
    rng: Optional[np.random.Generator] = None,
) -> list:
    """Audit every displayed bracket identity of a system.

    The table holds {f, g} = 0 for each pair of every involution set,
    {I, H} = 0 for each integral, then the identities the catalog
    displays (systems.Catalog.identities), in that order.  Returns one
    residual per identity, maximized over the given states (NaN if it is
    NaN at any) and normalized as described on BracketResidual.  An
    identity with free coefficients draws one random vector from rng
    (defaulting to a fixed seed), in table order, and uses it at every
    state.  Each distinct observable's value and gradient are evaluated
    once per state and shared by every row, the values read by the
    expected sides and the algebraic rows; a linear combination
    (scaled_sum, such as H = T + V or a row's random combination) takes
    them from those of its terms.  An empty state list, or a state that
    is not a finite 6-vector, raises ValueError.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    states = [_audit_state(y) for y in states]
    if not states:
        raise ValueError("bracket_table_audit needs at least one state")
    cat = catalog(spec)
    obs = cat.observables
    table = [
        Identity(f"invol:{name}:{{{a},{b}}}", ((obs[a], obs[b], None),))
        for name, group in cat.involution_sets.items()
        for a, b in combinations(group, 2)
    ]
    table += [
        Identity(f"conserve:{{{name},H}}", ((o, obs["H"], None),))
        for name, o in cat.integrals.items()
    ]
    sc = sin_cos_k(spec.kappa)
    caches = [_GradientCache(y, sc) for y in states]
    out = []
    for row in table + list(cat.identities):
        brackets = row.brackets
        if row.n_coeffs:
            brackets = brackets(rng.uniform(-1.0, 1.0, row.n_coeffs))
        if row.residual is not None:
            worst = _worst([abs(row.residual(cache)) for cache in caches])
        else:
            worst = _worst([abs(cache.brackets_residual(brackets)) for cache in caches])
        out.append(BracketResidual(row.name, worst))
    return out


def _worst(values: list) -> float:
    """The largest of the values, or NaN if any is NaN: the builtin max keeps
    a NaN only when it comes first, so a NaN state would pass an audit."""
    return math.nan if any(v != v for v in values) else max(values)


# ---------------------------------------------------------------------------
# Closed orbits.

@dataclass(frozen=True)
class ClosedOrbitResult:
    """Outcome of a closed-orbit search from one initial condition."""

    found: bool
    period: Optional[float]
    distance: float
    diagnostics: dict


def _orbit_scales(states: np.ndarray) -> np.ndarray:
    ranges = states.max(axis=0) - states.min(axis=0)
    ranges[2] = min(ranges[2], 2.0 * math.pi)
    return np.maximum(ranges, 1e-8)


def _normalized_distance(y: np.ndarray, y0: np.ndarray, scales: np.ndarray):
    """RMS of (y - y0) / scales with the azimuth difference wrapped.

    y is one state (6,), giving a scalar, or a stack (n, 6), giving an
    array of n distances.
    """
    d = y - y0
    d[..., 2] = (d[..., 2] + math.pi) % (2.0 * math.pi) - math.pi
    d /= scales
    return np.sqrt((d * d).sum(axis=-1)) / math.sqrt(6.0)


def _refine_return(rhs, stages: _Stages, traj: Trajectory, k: int, y0, scales) -> tuple:
    """(t, state, distance) closest to y0 between the samples k - 1 and
    k + 1 (or k, the last), by golden section.  The bracket spans at most
    two accepted steps, so each probe is one DP5 step from sample k - 1,
    with an error at the level of ORBIT_TOL, and shares K[0] there."""
    base_t, base_y = float(traj.times[k - 1]), traj.states[k - 1]
    stages.K[0] = rhs(base_t, base_y)

    def state_at(t: float) -> np.ndarray:
        if t <= base_t + 1e-15:
            return base_y
        return stages.attempt(rhs, base_t, base_y, t - base_t)

    def d_at(t: float) -> float:
        return _normalized_distance(state_at(t), y0, scales)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = traj.times[k - 1], traj.times[min(k + 1, len(traj.times) - 1)]
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = d_at(c), d_at(d)
    for _ in range(80):
        if b - a < 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = d_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = d_at(d)
    t_best = 0.5 * (a + b)
    y_best = state_at(t_best)
    return t_best, y_best, float(_normalized_distance(y_best, y0, scales))


def closed_orbit_check(
    spec: SystemSpec,
    y0,
    t_max: float,
    return_tol: float = 1e-4,
) -> ClosedOrbitResult:
    """Search for the first return of the trajectory to its initial state.

    A y0 that is not a finite 6-vector, or a t_max or return_tol that is
    not positive and finite, raises ValueError before any integration.  The
    candidate returns of a run over [0, t_max] are the local minima of the
    sample distance to y0 (with the run's end counted as infinitely far),
    normalized per component by the ranges the whole run explores, with
    the azimuth compared modulo a full turn.  They are refined in time
    order, and the first whose refined distance is below return_tol gives
    the least period.  Otherwise the result holds the best refined
    candidate, or an infinite distance if there is none.  The diagnostics
    hold n_samples, truncated, n_candidates (candidates refined) and, for
    the reported candidate, coarse_distance and the state at its refined
    time (return_state).
    """
    for name, value in (("t_max", t_max), ("return_tol", return_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    y0 = _as_array(y0).copy()
    if y0.shape != (6,) or not np.isfinite(y0).all():
        raise ValueError(f"closed_orbit_check needs a finite 6-vector y0, got {y0!r}")
    rhs = hamilton_rhs(spec)
    traj = integrate(rhs, y0, (0.0, t_max), method="rk45_adaptive", tol=ORBIT_TOL)
    diag = {"truncated": traj.truncated, "n_samples": len(traj.times), "n_candidates": 0}
    scales = _orbit_scales(traj.states)
    # Past its last sample the run counts as infinitely far, so a return
    # in its last step is a candidate too.
    dist = np.append(_normalized_distance(traj.states, y0, scales), math.inf)
    minima = np.nonzero((dist[:-2] > dist[1:-1]) & (dist[1:-1] <= dist[2:]))[0] + 1
    stages = _Stages(_DP54.tableau, y0.size)
    best = None
    for k in minima.tolist():
        t, y, d = _refine_return(rhs, stages, traj, k, y0, scales)
        diag["n_candidates"] += 1
        if best is None or d < best[2]:
            best = (t, y, d, k)
        if d < return_tol:
            break
    if best is None:
        return ClosedOrbitResult(False, None, math.inf, diag)
    t_best, y_best, d_best, k = best
    diag["coarse_distance"] = float(dist[k])
    diag["return_state"] = y_best.copy()
    found = d_best < return_tol
    return ClosedOrbitResult(found, t_best if found else None, d_best, diag)
