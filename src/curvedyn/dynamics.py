"""Poisson brackets, integrators, audits, and closed-orbit detection.

The canonical bracket pairs (r, p_r), (theta, p_theta), (phi, p_phi).
Brackets of cataloged observables contract their analytic gradients, so
bracket identities can be audited to near machine precision without any
finite differencing.  Three integrators cover the trade-offs: a fixed
step classical Runge-Kutta, an embedded Dormand-Prince 5(4) pair with
proportional-integral step control, and an implicit midpoint rule whose
fixed-point iteration preserves quadratic invariants to iteration
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import PhaseState, _central_difference
from .kappa_core import DomainSingularity, cos_k, sin_k
from .observables import Observable, _dir_vg, angular_J, fradkin_matrix, kappa_cartesian, noether_P
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

METHODS = ("rk4_fixed", "rk45_adaptive", "implicit_midpoint")
FD_STEP = 1e-6  # central-difference step of poisson_bracket_fd
DT_MIN = 1e-12  # smallest step rk45_adaptive retries down to
ORBIT_TOL = 1e-12  # tolerance of the run behind closed_orbit_check


# ---------------------------------------------------------------------------
# Poisson brackets.

def _as_array(s) -> np.ndarray:
    if isinstance(s, PhaseState):
        return s.as_array()
    return np.asarray(s, dtype=float)


def poisson_bracket(f: Observable, g: Observable, s) -> float:
    """Canonical bracket {f, g} contracted from analytic gradients."""
    gf = f.gradient(s)
    gg = g.gradient(s)
    return float(gf[:3] @ gg[3:] - gf[3:] @ gg[:3])


def poisson_bracket_fd(f, g, s) -> float:
    """Central finite-difference bracket of two state functions, step FD_STEP."""
    y = _as_array(s)
    gf = _central_difference(lambda x: _call(f, x), y, FD_STEP)
    gg = _central_difference(lambda x: _call(g, x), y, FD_STEP)
    return float(gf[:3] @ gg[3:] - gf[3:] @ gg[:3])


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
        """Evenly subsampled copy keeping the first and last states."""
        n = len(self.times)
        if max_points < 2:
            raise ValueError("max_points must be at least 2")
        if n <= max_points:
            return self
        idx = np.unique(np.linspace(0, n - 1, max_points).round().astype(int))
        return Trajectory(self.times[idx], self.states[idx], self.diagnostics, self.truncated)


# Explicit Runge-Kutta tableaux (c, A) (Hairer, Norsett & Wanner, Solving
# ODEs I, II.1 and II.5).  Row s of A holds the weights of stage s, taken
# at t + c[s] * dt, and the last row the weights b of the new state.  RK4
# has four stages.  The seventh stage of Dormand-Prince 5(4) (Table II.5.2)
# is its last row, at the new state y5, and starts the next step (FSAL).
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
_DP54 = (
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
_DP_E = _DP54[1][6] - np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                                -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])


class _Stages:
    """Stage buffer and stage loop of the explicit Runge-Kutta steps.

    K holds the stage derivatives; attempt expects K[0] = rhs(t, y).  The
    scaled tableau dtA = dt * A is filled once per attempt, and each row
    reads its fixed views (dtA[s, :s], K[:s]), so a row costs one dot
    product and one addition, plus the rhs call of a stage.  evals counts
    the rhs calls that returned.
    """

    def __init__(self, tableau: tuple, size: int):
        c, self.A = tableau
        self.K = np.empty((len(self.A), size))
        self.dtA = np.empty_like(self.A)
        self.rows = tuple((s, c[s], self.dtA[s, :s], self.K[:s]) for s in range(1, len(c)))
        # With fsal the weights row is the last stage; else it gives y_new.
        self.fsal = len(c) == len(self.A)
        self.b, self.Kb = self.dtA[-1, :-1], self.K[:-1]
        self.evals = 0

    def attempt(self, rhs, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """The new state of a step of size dt from (t, y), a fresh array."""
        np.multiply(self.A, dt, out=self.dtA)
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


def _stop_reason(exc: Exception) -> str:
    return "non-finite state" if isinstance(exc, OverflowError) else f"domain singularity: {exc}"


def _trajectory(times: list, states: list, diag: dict, reason) -> Trajectory:
    """The stored samples as a Trajectory, truncated when reason is given."""
    diag["n_steps"] = len(times) - 1
    if reason is not None:
        diag["reason"] = reason
    return Trajectory(np.array(times), np.array(states), diag, reason is not None)


def _integrate_fixed(y0, t0, t1, dt, stepper, diag):
    """Steps of stepper(t, y, dt), which returns None if its solve fails."""
    times, states = [t0], [y0]
    t, y = t0, y0
    reason = None
    for _ in range(max(1, math.ceil((t1 - t0) / dt - 1e-12))):
        step = min(dt, t1 - t)
        try:
            y = stepper(t, y, step)
        except _STOPS as exc:
            reason = _stop_reason(exc)
            break
        if y is None:
            reason = f"implicit solve did not converge at t = {t}"
            break
        if not np.isfinite(y).all():
            reason = "non-finite state"
            break
        t = t + step
        times.append(t)
        states.append(y)
    return _trajectory(times, states, diag, reason)


def _integrate_dp54(rhs, y0, t0, t1, dt0, tol, max_steps, diag):
    t, y, y_list = t0, y0, y0.tolist()
    times, states = [t0], [y0]
    stages = _Stages(_DP54, y0.size)
    K = stages.K
    dt = dt0 if dt0 is not None else min(0.01 * (t1 - t0), 0.1)
    err_prev = 1.0
    n_rejected = 0
    reason = None
    # K[0] depends on (t, y) alone: it survives a rejected attempt, is
    # handed on by FSAL, and a failure of it cannot be mended by a
    # smaller step, so the run truncates at once.
    try:
        K[0] = rhs(t, y)
        stages.evals = 1
    except _STOPS as exc:
        reason = _stop_reason(exc)
    while reason is None and t < t1 - 1e-14 * max(1.0, abs(t1)):
        if len(times) - 1 + n_rejected >= max_steps:
            reason = "max_steps exceeded"
            break
        dt = min(dt, t1 - t)
        try:
            y5 = stages.attempt(rhs, t, y, dt)
        except _STOPS as exc:
            if dt <= DT_MIN:
                reason = _stop_reason(exc)
                break
            dt = max(0.25 * dt, DT_MIN)
            n_rejected += 1
            continue
        # RMS of the error estimate dt * (E @ K) relative to
        # tol * (1 + max(|y|, |y5|)), on floats rather than temporaries.
        y5_list = y5.tolist()
        acc = 0.0
        for e, a, b in zip(_DP_E.dot(K).tolist(), y_list, y5_list):
            w = e / (1.0 + max(abs(a), abs(b)))
            acc += w * w
        err = dt / tol * math.sqrt(acc / len(y5_list))
        if not (math.isfinite(err) and all(map(math.isfinite, y5_list))):
            reason = "non-finite state"
            break
        if err <= 1.0:
            t = t + dt
            y = y5
            y_list = y5_list
            times.append(t)
            states.append(y)
            K[0] = K[6]  # first same as last
            fac = 0.9 * (err + 1e-300) ** -0.14 * err_prev**0.08
            dt = dt * min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-4)
        else:
            n_rejected += 1
            if dt <= DT_MIN:
                reason = "step size underflow"
                break
            fac = 0.9 * err**-0.2
            dt = max(dt * max(0.2, min(1.0, fac)), DT_MIN)
    diag.update(n_rejected=n_rejected, n_rhs_evals=stages.evals)
    return _trajectory(times, states, diag, reason)


def _implicit_midpoint_step(rhs, stages, t, y, dt, fp_tol, max_iter=100):
    """One implicit midpoint step by fixed-point iteration from an RK4
    warm start, or None if the iteration does not reach fp_tol.  A
    non-finite iterate is returned at once, for the caller to reject."""
    ynew = stages.step(rhs, t, y, dt)
    tm = t + 0.5 * dt
    scale = max(1.0, float(np.max(np.abs(y))))
    for _ in range(max_iter):
        ynext = y + dt * rhs(tm, 0.5 * (y + ynew))
        delta = float(np.max(np.abs(ynext - ynew)))
        ynew = ynext
        if delta < fp_tol * scale:
            return ynew
        # delta is also non-finite after a non-finite warm start, from
        # which the iteration may still recover.
        if not math.isfinite(delta) and not np.isfinite(ynew).all():
            return ynew
    return None


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_span,
    method: str = "rk45_adaptive",
    dt: Optional[float] = None,
    tol: float = 1e-10,
    fp_tol: float = 1e-13,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over t_span, storing every step.

    Bad input raises ValueError at once: a y0 that is not a finite 1-D
    vector, a t_span whose ends are not finite with t1 > t0, an unknown
    method, a missing or non-positive dt, or a tol that is not positive
    and finite.  Every method treats a failure mid-run alike: the run
    truncates at the last good state and sets the truncated flag with a
    reason in the diagnostics.  The reasons are a domain singularity (the
    adaptive method first retries with smaller steps down to DT_MIN,
    unless the rhs fails at the initial state itself), "non-finite state"
    (also when the rhs overflows; the adaptive method checks every stage
    and its error estimate too, implicit_midpoint every iterate),
    "implicit solve did not converge at t = ..." (implicit_midpoint), and
    "max_steps exceeded" or "step size underflow" (rk45_adaptive).  The
    diagnostics hold n_steps (accepted steps, len(times) - 1) for every
    method, and n_rejected and n_rhs_evals (rhs calls that returned) for
    rk45_adaptive.
    """
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
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    diag = {"method": method, "tol": tol, "dt": dt}
    if method == "rk45_adaptive":
        return _integrate_dp54(rhs, y0, t0, t1, dt, tol, max_steps, diag)
    if dt is None:
        raise ValueError(f"method {method!r} requires an explicit dt")
    stages = _Stages(_RK4, y0.size)
    if method == "rk4_fixed":
        stepper = lambda t, y, h: stages.step(rhs, t, y, h)
    else:
        stepper = lambda t, y, h: _implicit_midpoint_step(rhs, stages, t, y, h, fp_tol)
    return _integrate_fixed(y0, t0, t1, dt, stepper, diag)


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
    kap = spec.kappa
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
        sth = math.sin(th)
        sk = sin_k(kap, r)
        ck = cos_k(kap, r)
        if sth < margin or sk < margin or abs(ck) < margin:
            continue
        dirs = [_dir_vg(axis, (r, th, ph), False)[0] for axis in range(3)]
        if any(need and abs(sk * d) < margin for need, d in zip(needs_axis, dirs)):
            continue
        if axial:
            u = (sk / ck) * math.cos(th)
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
    divided by max(1, |initial value|).
    """
    report = {}
    states = traj.states.tolist()
    for name, obs in observables.items():
        values = np.array([obs.value(y) for y in states])
        v0 = values[0]
        drift = float(np.max(np.abs(values - v0)))
        report[name] = {
            "initial": float(v0),
            "max_drift": drift,
            "rel_drift": drift / max(1.0, abs(v0)),
        }
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
    threshold.  An empty observable list, or a state that is not a
    finite 6-vector, raises ValueError.
    """
    y = _audit_state(s)
    if not observables:
        raise ValueError("independence_rank needs at least one observable")
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
    and the three full contractions with coordinates and momenta.  A
    state that is not a finite 6-vector raises ValueError.
    """
    kap = float(kappa)
    y = _audit_state(s)
    m = fradkin_matrix(kap, alpha, y).entries
    j = np.array([angular_J(i).value(y) for i in (1, 2, 3)])
    p = np.array([noether_P(i, kap).value(y) for i in (1, 2, 3)])
    x = np.array(kappa_cartesian(kap, y))
    ck = cos_k(kap, y[0])
    sk = sin_k(kap, y[0])
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
    """Gradient and its norm of each observable seen at one state.

    Entries are keyed by id(obs), because Observable equality compares
    names only, and each entry keeps its observable so that no id is
    reused while the cache lives.  A scaled_sum's gradient is assembled
    from the cached gradients of its terms with scaled_sum's own
    arithmetic, so it equals obs.gradient(y) bit for bit.
    """

    def __init__(self, y: np.ndarray):
        self.y = y
        self.entries = {}

    def entry(self, obs: Observable) -> tuple:
        """(obs, gradient, norm of the gradient) at this state."""
        entry = self.entries.get(id(obs))
        if entry is None:
            if obs.terms:
                g = np.zeros(6)
                for c, term in obs.terms:
                    g = g + c * self.entry(term)[1]
            else:
                g = obs.gradient(self.y)
            entry = self.entries[id(obs)] = (obs, g, np.linalg.norm(g))
        return entry

    def brackets_residual(self, brackets) -> float:
        """hypot of the residuals of {f, g} = expect(y) over (f, g, expect)
        triples, each relative to its gradient scale."""
        rel = []
        for f, g, e in brackets:
            _, gf, nf = self.entry(f)
            _, gg, ng = self.entry(g)
            expect = 0.0 if e is None else e(self.y)
            raw = float(gf[:3] @ gg[3:] - gf[3:] @ gg[:3]) - expect
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
    residual per identity, maximized over the given states and
    normalized as described on BracketResidual.  An identity with free
    coefficients draws one random vector from rng (defaulting to a fixed
    seed), in table order, and uses it at every state.  Each distinct
    observable's gradient is evaluated once per state and shared by
    every bracket row; a linear combination (scaled_sum, such as H =
    T + V or a row's random combination) takes its gradient from those
    of its terms.  An empty state list, or a state that is not a finite
    6-vector, raises ValueError.
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
    caches = [_GradientCache(y) for y in states]
    out = []
    for row in table + list(cat.identities):
        brackets = row.brackets
        if row.n_coeffs:
            brackets = brackets(rng.uniform(-1.0, 1.0, row.n_coeffs))
        if row.residual is not None:
            worst = max(abs(row.residual(y)) for y in states)
        else:
            worst = max(abs(cache.brackets_residual(brackets)) for cache in caches)
        out.append(BracketResidual(row.name, worst))
    return out


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

    A return_tol that is not positive and finite raises ValueError.  The
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
    if not (math.isfinite(return_tol) and return_tol > 0.0):
        raise ValueError(f"return_tol must be positive and finite, got {return_tol!r}")
    y0 = _as_array(y0).copy()
    rhs = hamilton_rhs(spec)
    traj = integrate(rhs, y0, (0.0, t_max), method="rk45_adaptive", tol=ORBIT_TOL)
    diag = {"truncated": traj.truncated, "n_samples": len(traj.times), "n_candidates": 0}
    scales = _orbit_scales(traj.states)
    # Past its last sample the run counts as infinitely far, so a return
    # in its last step is a candidate too.
    dist = np.append(_normalized_distance(traj.states, y0, scales), math.inf)
    minima = np.nonzero((dist[:-2] > dist[1:-1]) & (dist[1:-1] <= dist[2:]))[0] + 1
    stages = _Stages(_DP54, y0.size)
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
