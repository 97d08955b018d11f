"""Poisson brackets, integrators, audits, and closed-orbit detection.

The canonical bracket pairs (r, p_r), (theta, p_theta), (phi, p_phi).
Brackets of cataloged observables contract their analytic gradients, so
bracket identities can be audited to near machine precision without any
finite differencing.  Four integrators cover the trade-offs: a fixed
step classical Runge-Kutta, two embedded Dormand-Prince pairs (8(5,3),
the default, and 5(4) with proportional-integral step control), and an
implicit midpoint rule whose fixed-point iteration preserves quadratic
invariants to iteration tolerance.  They step on tuples of Python floats
through one stage function per tableau and state length, generated from
the tableau on first use, and each yields its accepted steps to one
consumer, which stores them, ends the run and counts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, combinations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import _j_vg, _p_vg, _trig
from .kappa_core import DomainSingularity, _finite, sin_cos_k
from .observables import Observable, _as6, _cartesian, _dir_vg, _fradkin_m
from .systems import Identity, SystemSpec, _system, catalog, hamilton_rhs

__all__ = [
    "Trajectory",
    "poisson_bracket",
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
DT_MIN = 1e-12  # smallest step the adaptive methods retry down to
FP_TOL = 1e-13  # implicit_midpoint's fixed-point tolerance, relative to max(1, |y|)
FP_MAX_ITER = 100  # fixed-point iterations per implicit_midpoint step
ORBIT_TOL = 1e-12  # tolerance of the run behind closed_orbit_check
MAX_STEPS = 2_000_000  # integrate's default cap on steps


# ---------------------------------------------------------------------------
# Poisson brackets.

def _contract(gf, gg) -> float:
    """{f, g} from the six-entry gradients of f and g."""
    return (gf[0] * gg[3] + gf[1] * gg[4] + gf[2] * gg[5]
            - (gf[3] * gg[0] + gf[4] * gg[1] + gf[5] * gg[2]))


def poisson_bracket(f: Observable, g: Observable, s) -> float:
    """Canonical bracket {f, g} contracted from the analytic gradients
    that the pieces of f and g give at s, as bracket_table_audit does."""
    y = _as6(s)
    return float(_contract(f.piece(_trig(f._sc, y), y, True)[1],
                           g.piece(_trig(g._sc, y), y, True)[1]))


def _audit_state(s) -> list:
    """The state as a list of six floats; anything but a finite 6-vector raises."""
    a = np.asarray(s, dtype=float)
    if a.shape == (6,):
        y = a.tolist()
        if all(map(math.isfinite, y)):
            return y
    raise ValueError(f"audit states must be finite 6-vectors, got {a!r}")


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


# The tableau and error rows of each explicit method, by method name;
# implicit_midpoint takes its warm start from RK4.
_TABLEAUX = {
    "rk4_fixed": (_RK4, ()),
    "rk45_adaptive": (_DP54_TABLEAU, (_DP_E,)),
    "dop853": (_DOP853_TABLEAU, tuple(_DOP853_E)),
}


class _Counts:
    """evals counts the rhs calls of a run that returned (implicit_midpoint's
    iterations too), rejected the attempts an adaptive run rejected."""

    __slots__ = ("evals", "rejected")

    def __init__(self):
        self.evals = self.rejected = 0


def _stage_source(tableau: tuple, errors: tuple, n: int) -> str:
    """Source of one step of the tableau over n floats, unrolled from its
    nonzero entries.

    f maps (t, a tuple of n floats) to n floats, and each stage s > 0 is
    f at t + c[s] * h and y + h * (A[s] . K).  The calls that returned
    are added to counts.evals, also when a stage raises.  Without FSAL
    the function is step(f, counts, t, y, h), which evaluates the first
    stage f(t, y) too and returns the new state.  With FSAL (the weights
    row is the last stage, at the new state) it is attempt(f, counts, t,
    y, h, k0), given k0 = f(t, y), and returns (new state, last stage,
    the products of the error rows with K).
    """
    c, A = tableau
    fsal = len(c) == len(A)
    comps = range(n)

    def names(s):
        return ", ".join(f"k{s}_{i}" for i in comps)

    def dot(row, i):
        return " + ".join(f"{a!r} * k{j}_{i}" for j, a in enumerate(row.tolist()) if a)

    def state(row):
        return "(" + "".join(f"y{i} + h * ({dot(row, i)}), " for i in comps) + ")"

    last = len(c) - 1
    stages = [(s, f"t + {c[s]!r} * h", state(A[s])) for s in range(1, last + 1)]
    if fsal:
        head = ["def attempt(f, counts, t, y, h, k0):", f"    {names(0)}, = k0"]
    else:
        head = ["def step(f, counts, t, y, h):"]
        stages.insert(0, (0, "t", "y"))
    lines = head + [f"    {', '.join(f'y{i}' for i in comps)}, = y", "    done = 0", "    try:"]
    for done, (s, at, arg) in enumerate(stages, 1):
        if fsal and s == last:
            lines.append(f"        y_new = {arg}")
            arg = "y_new"
        lines += [f"        {names(s)}, = f({at}, {arg})", f"        done = {done}"]
    lines += ["    finally:", "        counts.evals += done"]
    if fsal:
        errs = "".join("(" + "".join(f"{dot(e, i)}, " for i in comps) + "), " for e in errors)
        lines.append(f"    return y_new, ({names(last)},), ({errs})")
    else:
        lines.append(f"    return {state(A[-1])}")
    return "\n".join(lines) + "\n"


def _midpoint_source(n: int) -> str:
    """Source of iterate(f, tm, y, z, h), one fixed-point iteration of the
    implicit midpoint rule over n floats: w = y + h * f(tm, (y + z) / 2),
    returned with the max-abs and the sum of w - z."""
    comps = range(n)
    ws = ", ".join(f"w{i}" for i in comps)
    ds = [f"d{i}" for i in comps]
    big = f"max({', '.join(f'abs({d})' for d in ds)})" if n > 1 else f"abs({ds[0]})"
    return "\n".join([
        "def iterate(f, tm, y, z, h):",
        f"    {', '.join(f'y{i}' for i in comps)}, = y",
        f"    {', '.join(f'z{i}' for i in comps)}, = z",
        f"    {', '.join(f'k{i}' for i in comps)}, = "
        f"f(tm, ({''.join(f'0.5 * (y{i} + z{i}), ' for i in comps)}))",
        f"    {ws}, = {''.join(f'y{i} + h * k{i}, ' for i in comps)}",
        f"    {', '.join(ds)}, = {''.join(f'w{i} - z{i}, ' for i in comps)}",
        f"    return ({ws},), {big}, {' + '.join(ds)}",
    ]) + "\n"


@lru_cache(maxsize=None)
def _stage_function(method: str, n: int) -> Callable:
    """The compiled step of a method's tableau (_stage_source) over n
    floats, or implicit_midpoint's iterate (_midpoint_source); generated
    on first use, so importing the module compiles nothing."""
    if method == "implicit_midpoint":
        source = _midpoint_source(n)
    else:
        source = _stage_source(*_TABLEAUX[method], n)
    namespace = {}
    exec(compile(source, f"<{method} stages over {n} floats>", "exec"), namespace)
    del namespace["__builtins__"]
    (function,) = namespace.values()  # the one function the source defines
    return function


# An rhs call that raises one of these ends a run: at a domain singularity,
# or (math.sinh and the like raise) on a state out of the float range.
_STOPS = (DomainSingularity, OverflowError)


def _run(steps, t0: float, y0: tuple, counts: _Counts, diag: dict) -> Trajectory:
    """The one consumer of a method's steps: stores (t0, y0) and every
    accepted (t, y) the generator yields, y a tuple of floats, and ends
    the run with the reason it returns (None at t1) or with an rhs
    failure in _STOPS that escapes it.  The Trajectory is built once,
    at the end; the counts come from counts for every method."""
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
    diag.update(n_steps=len(times) - 1, n_rejected=counts.rejected, n_rhs_evals=counts.evals)
    if reason is not None:
        diag["reason"] = reason
    n = len(y0)
    flat = np.fromiter(chain.from_iterable(states), float, len(states) * n)
    return Trajectory(np.array(times), flat.reshape(len(states), n), diag, reason is not None)


def _fixed_steps(step, y0, t0, t1, dt, max_steps):
    """Steps of step(t, y, dt), which returns None if its solve fails; at
    most max_steps of them."""
    t, y = t0, y0
    isfinite = math.isfinite
    # n may be infinite when dt is subnormal.
    n = (t1 - t0) / dt - 1e-12
    capped = n > max_steps
    for _ in range(max_steps if capped else max(1, math.ceil(n))):
        h = min(dt, t1 - t)
        y = step(t, y, h)
        if y is None:
            return f"implicit solve did not converge at t = {t}"
        # Non-finite entries make the sum non-finite (and so may an overflow).
        if not isfinite(sum(y)) and not all(map(isfinite, y)):
            return "non-finite state"
        t = t + h
        yield t, y
    return "max_steps exceeded" if capped else None


def _dp54_error(errs, y, y_new, dt: float, tol: float) -> float:
    """RMS of the error estimate dt * (E @ K), errs = (E @ K,), relative
    to tol * (1 + max(|y|, |y_new|))."""
    acc = 0.0
    # b if b > a else a is max(a, b), with its order on a NaN.
    for e, a, b in zip(errs[0], map(abs, y), map(abs, y_new)):
        w = e / (1.0 + (b if b > a else a))
        acc += w * w
    return dt / tol * math.sqrt(acc / len(y_new))


def _dop853_error(errs, y, y_new, dt: float, tol: float) -> float:
    """err5^2 / sqrt(err5^2 + 0.01 err3^2) / sqrt(n) * dt / tol, where err5
    and err3 are the norms of the estimates errs = (E5 @ K, E3 @ K) on the
    weights 1 + max(|y|, |y_new|) (dop853.f; both zero gives zero)."""
    acc5 = acc3 = 0.0
    e5, e3 = errs
    for a, b, u, v in zip(e5, e3, map(abs, y), map(abs, y_new)):
        w = 1.0 + (v if v > u else u)  # max(u, v), as in _dp54_error
        acc5 += (a / w) ** 2
        acc3 += (b / w) ** 2
    return dt / tol * acc5 / math.sqrt(len(y_new) * (acc5 + 0.01 * acc3 or 1.0))


@dataclass(frozen=True)
class _Pair:
    """An embedded Runge-Kutta pair's step control, as _adaptive_steps runs it.

    error(errs, y, y_new, dt, tol) is the scaled error of an attempt, errs
    the products of its error rows with the stages, and the attempt is
    accepted when it is at most 1.  After an accepted step dt grows by
    0.9 * err**accept[0] * err_prev**accept[1] (err_prev is the last
    accepted error, at least 1e-4), after a rejection by 0.9 *
    err**reject but at most 1, each factor clipped to bounds.
    """

    error: Callable
    accept: tuple
    reject: float
    bounds: tuple


# DP5(4) with proportional-integral control; DOP853 with dop853.f's
# control, err**(-1/8) with factors in [0.333, 6].
_DP54 = _Pair(_dp54_error, (-0.14, 0.08), -0.2, (0.2, 5.0))
_DOP853 = _Pair(_dop853_error, (-0.125, 0.0), -0.125, (0.333, 6.0))
_ADAPTIVE = {"rk45_adaptive": _DP54, "dop853": _DOP853}


def _adaptive_steps(f, attempt, pair: _Pair, counts: _Counts, y0, t0, t1, dt0, tol, max_steps):
    """Accepted steps of an embedded pair, attempt its stage function;
    max_steps caps the attempts."""
    t, y = t0, y0
    isfinite = math.isfinite
    dt = dt0 if dt0 is not None else min(0.01 * (t1 - t0), 0.1)
    (a_err, a_prev), lo, hi = pair.accept, *pair.bounds
    error = pair.error
    err_prev = 1.0
    attempts = 0
    # k0 depends on (t, y) alone: it survives a rejected attempt, is
    # handed on by FSAL, and a failure of it cannot be mended by a
    # smaller step, so it ends the run at once; so does a non-finite k0,
    # checked only once an attempt from it has failed.
    k0 = f(t, y)
    counts.evals += 1
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if attempts >= max_steps:
            return "max_steps exceeded"
        attempts += 1
        dt = min(dt, t1 - t)
        try:
            y_new, k_new, errs = attempt(f, counts, t, y, dt, k0)
        except _STOPS:
            if not all(map(isfinite, k0)):
                return "non-finite state"
            if dt <= DT_MIN:
                raise
            dt = max(0.25 * dt, DT_MIN)
            counts.rejected += 1
            continue
        err = error(errs, y, y_new, dt, tol)
        if not (isfinite(err) and all(map(isfinite, y_new))):
            return "non-finite state"
        if err <= 1.0:
            t = t + dt
            y = y_new
            k0 = k_new  # first same as last
            fac = 0.9 * (err + 1e-300) ** a_err * err_prev**a_prev
            dt = dt * min(hi, max(lo, fac))
            err_prev = max(err, 1e-4)
            yield t, y
        else:
            counts.rejected += 1
            if dt <= DT_MIN:
                return "step size underflow"
            fac = 0.9 * err**pair.reject
            dt = max(dt * max(lo, min(1.0, fac)), DT_MIN)


def _implicit_midpoint_step(f, rk4, iterate, counts: _Counts, t, y, dt):
    """One implicit midpoint step by fixed-point iteration from the RK4
    warm start rk4(t, y, dt), or None if FP_MAX_ITER iterations do not
    reach FP_TOL.  A non-finite iterate is returned at once, for the
    caller to reject."""
    ynew = rk4(t, y, dt)
    tm = t + 0.5 * dt
    # y is finite, so its max-abs needs no NaN rule.
    bound = FP_TOL * max(1.0, *map(abs, y))
    isfinite, isnan = math.isfinite, math.isnan
    for _ in range(FP_MAX_ITER):
        ynew, big, total = iterate(f, tm, y, ynew, dt)
        counts.evals += 1
        # A NaN difference makes their sum NaN, but not always their max-abs.
        if big < bound and not isnan(total):
            return ynew
        # A non-finite iterate makes the sum non-finite, and so does a
        # non-finite warm start, from which the iteration may still recover.
        if not isfinite(total) and not all(map(isfinite, ynew)):
            return ynew
    return None


def integrate(
    rhs: Callable[[float, tuple], Sequence[float]],
    y0,
    t_span,
    method: str = DEFAULT_METHOD,
    dt: Optional[float] = None,
    tol: float = 1e-10,
    max_steps: int = MAX_STEPS,
) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over t_span, storing every step.

    Every method calls rhs(t, y) on a tuple y of len(y0) floats and reads
    its result as a sequence of len(y) numbers: a tuple or list, as the
    library's Hamilton equations return, or an ndarray, stepped as numpy
    scalars, bit for bit alike but about three times as slow.  Bad input
    raises ValueError at once: a y0 that is not a finite 1-D vector (the
    library's rhs raises at its first call if it is not a 6-vector), a
    t_span whose ends are not finite with t1 > t0, an unknown method, a
    missing or non-positive dt, a tol that is not positive and finite, or
    a max_steps that is not an integer >= 1.  Each method yields its
    accepted steps to one consumer, so every method treats a failure
    mid-run alike: the run truncates at the last good state and sets the
    truncated flag with a reason in the diagnostics.  The reasons are a
    domain singularity (the adaptive methods first retry with smaller
    steps down to DT_MIN, unless the rhs fails at the initial state
    itself), "non-finite state" (also when the rhs overflows or the
    library's rhs meets an infinite coordinate; the adaptive methods check
    every stage and their error estimate too, implicit_midpoint every
    iterate), "implicit solve did not converge at t = ..."
    (implicit_midpoint), "max_steps exceeded" (every method; the adaptive
    methods count rejected attempts too) and "step size underflow" (dop853
    and rk45_adaptive).  Every method's diagnostics hold method, tol, dt,
    n_steps (accepted steps, len(times) - 1), n_rejected (0 for the
    fixed-step methods) and n_rhs_evals (rhs calls that returned,
    implicit_midpoint's fixed-point iterations included).
    """
    y0, t0, t1 = _integrate_args(y0, t_span, method, dt, tol, max_steps)
    y0 = tuple(y0.tolist())
    diag = {"method": method, "tol": tol, "dt": dt}
    counts = _Counts()
    pair = _ADAPTIVE.get(method)
    if pair:
        attempt = _stage_function(method, len(y0))
        steps = _adaptive_steps(rhs, attempt, pair, counts, y0, t0, t1, dt, tol, max_steps)
    else:
        step = partial(_stage_function("rk4_fixed", len(y0)), rhs, counts)
        if method == "implicit_midpoint":
            iterate = _stage_function(method, len(y0))
            step = partial(_implicit_midpoint_step, rhs, step, iterate, counts)
        steps = _fixed_steps(step, y0, t0, t1, dt, max_steps)
    return _run(steps, t0, y0, counts, diag)


def _integrate_args(y0, t_span, method, dt, tol, max_steps=MAX_STEPS) -> tuple:
    """integrate's checks of its arguments, each bad one raising ValueError;
    returns (y0 as a new float array, t0, t1)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 1 or not y0.size or not np.isfinite(y0).all():
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

def _kernels(observables) -> dict:
    """Kernels by distinct kappa of the observables; {None: None} if none has one."""
    return {o.kappa: o._sc for o in observables if o.kappa is not None} or {None: None}


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
    kernels = _kernels(observables.values())
    slots = list(kernels)
    cols = [(o.piece, slots.index(o.kappa) if o.kappa in kernels else 0, [])
            for o in observables.values()]
    for y in states.tolist():
        ts = [_trig(sc, y) for sc in kernels.values()]
        for piece, k, values in cols:
            values.append(piece(ts[k], y, False)[0])
    report = {}
    for name, (_, _, values) in zip(observables, cols):
        v0 = float(values[0])
        drift = float(_worst([abs(v - v0) for v in values]))
        report[name] = {"initial": v0, "max_drift": drift,
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
    threshold.  The gradients read one tuple per distinct kappa of the
    observables, as in conservation_report.  An empty observable list, a
    state that is not a finite 6-vector, or a threshold outside (0, 1)
    raises ValueError.  A gradient with an entry that is not finite (at
    momenta or parameters so large that it overflowed) raises
    OverflowError naming its observable.
    """
    y = _audit_state(s)
    if not observables:
        raise ValueError("independence_rank needs at least one observable")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"independence_rank needs 0 < threshold < 1, got {threshold!r}")
    ts = {kap: _trig(sc, y) for kap, sc in _kernels(observables).items()}
    any_t = next(iter(ts.values()))
    rows = []
    for o in observables:
        g0, g1, g2, g3, g4, g5 = g = o.piece(ts.get(o.kappa, any_t), y, True)[1]
        # The sum of squares in numpy's order, so each norm is np.linalg.norm's.
        sq = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4 + g5 * g5
        if 0.0 < sq < math.inf:
            n = math.sqrt(sq)
            rows.append([g0 / n, g1 / n, g2 / n, g3 / n, g4 / n, g5 / n])
        else:
            rows.append(_unit_row(o, g, y))
    sv = np.linalg.svd(np.array(rows, float), compute_uv=False).tolist()
    if sv[0] == 0.0:
        return 0
    cut = threshold * sv[0]
    return sum(v > cut for v in sv)


def _unit_row(o: Observable, g, y) -> list:
    """g over its norm, for a gradient whose sum of squares overflowed or
    underflowed: the entries are scaled by the largest first, so that the
    norm fits.  A zero gradient stays as it is, and one with an entry that
    is not finite raises OverflowError naming o."""
    g = [float(v) for v in g]
    if not all(map(math.isfinite, g)):
        raise OverflowError(f"the gradient of {o.name} is not finite at {tuple(y)}: "
                            "momenta or parameters too large")
    big = max(map(abs, g))
    if big == 0.0:
        return g
    g = [v / big for v in g]
    n = math.hypot(*g)
    return [v / n for v in g]


def fradkin_audit(kappa, alpha, s) -> dict:
    """Normalized residuals of the oscillator quadratic-tensor identities.

    Covers the trace identity, the vanishing determinant, the kernel
    relation K J = 0, the coordinate quadratic forms, the 2x2 minors,
    and the three full contractions with coordinates and momenta, all
    read off one tuple of the state, with the kernels bound once.  A
    state that is not a finite 6-vector, or a non-finite alpha, raises
    ValueError.  An alpha (or momenta) so large that an entry of K or a
    product of entries overflows raises OverflowError naming it, and
    numpy warns of nothing.
    """
    kap, sc, alpha = float(kappa), sin_cos_k(kappa), _finite(alpha, "alpha")
    y = _audit_state(s)
    t = _trig(sc, y)
    try:
        return _fradkin_residuals(kap, alpha, t, y)
    except FloatingPointError:
        # K = P P^T + alpha^2 w w^T with |w| = |tan_k r|: the larger part overflowed.
        p = math.hypot(*(_p_vg(i, t, y, False)[0] for i in (1, 2, 3)))
        what = f"alpha = {alpha!r} is" if abs(alpha * t[0] / t[1]) >= p else f"momenta {y[3:]} are"
        raise OverflowError(f"{what} too large: the products of K's entries overflow") from None


@np.errstate(over="raise", invalid="raise")
def _fradkin_residuals(kap: float, alpha: float, t, y) -> dict:
    """fradkin_audit at y with tuple t; a numpy product that overflows, or
    a NaN from an entry of K that overflowed to inf, raises FloatingPointError."""
    sk, ck = t[0], t[1]
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
    state y (a list of six floats), read off its one tuple t (from sc, the
    kernels of the observables' kappa); an identity's expect and residual
    read y and t.

    Entries are keyed by id(obs), because Observable equality compares
    names only, and each entry keeps its observable so that no id is
    reused while the cache lives.  Every observable, a scaled_sum too, is
    evaluated by its own piece, once, so its value and gradient are
    obs.value(y) and the floats of obs.gradient(y) bit for bit; the
    gradient is kept as the piece gives it, with its norm math.hypot.
    """

    def __init__(self, y: list, sc):
        self.y, self.t, self.entries = y, _trig(sc, y), {}

    def entry(self, obs: Observable) -> tuple:
        """(obs, gradient, norm of the gradient, value) at this state."""
        entry = self.entries.get(id(obs))
        if entry is None:
            v, g = obs.piece(self.t, self.y, True)
            entry = self.entries[id(obs)] = (obs, g, math.hypot(*g), v)
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
            rel.append(raw / max(1.0, nf * ng, abs(expect)))
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
    expected sides and the algebraic rows.  An empty state list, or a
    state that is not a finite 6-vector, raises ValueError.
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


def _refine_return(f, traj: Trajectory, k: int, y0, scales) -> tuple:
    """(t, state, distance) closest to y0 between the samples k - 1 and
    k + 1 (or k, the last), by golden section.  The bracket spans at most
    two accepted steps, so each probe is one DP5 step of the float core
    from sample k - 1, with an error at the level of ORBIT_TOL, and
    shares its first stage there; f is the run's rhs."""
    base_t, base_y = float(traj.times[k - 1]), tuple(traj.states[k - 1].tolist())
    attempt, counts = _stage_function("rk45_adaptive", len(base_y)), _Counts()
    k0 = f(base_t, base_y)

    def state_at(t: float) -> np.ndarray:
        if t <= base_t + 1e-15:
            return np.array(base_y)
        return np.array(attempt(f, counts, base_t, base_y, t - base_t, k0)[0])

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
    y0 = np.array(y0, dtype=float)
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
    best = None
    for k in minima.tolist():
        t, y, d = _refine_return(rhs, traj, k, y0, scales)
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
