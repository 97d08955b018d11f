"""Seeded input generation for the three workloads.

Every state the library receives is drawn here, from the run's seed, by
the benchmark's own sampler: a transcription of the rejection rules the
acceptance criteria rely on (coordinate margins, axis planes, the osc112
pole, an angular-momentum floor, the criterion 09 chart filters).  The
library's ``sample_state`` is deliberately not called, so a change to it
cannot silently change the benchmark's traffic.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SYSTEM_IDS = ("free", "oscillator", "sw", "osc112", "kepler", "kepler123")
KAPPAS = (-1.0, -0.3, 0.0, 0.7, 1.0)

# Reference parameters of the acceptance suite.
PARAMS = {
    "free": {},
    "oscillator": {"alpha": 1.0},
    "sw": {"alpha": 1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3},
    "osc112": {"alpha": 1.0, "k1": 0.1, "k2": 0.2},
    "kepler": {"k": -1.0},
    "kepler123": {"k": -1.0, "k1": 0.1, "k2": 0.2, "k3": 0.3},
}

# conserve: integration span per task.  Short spans give many distinct
# states per run, which keeps the run-to-run spread of the throughput low.
CONSERVE_T = 0.1
CONSERVE_POOL = 3000

# audit: states per (system, kappa) slice, sized so that every slice costs
# about the same; the latency median then sits inside one cluster instead
# of on the boundary between cheap and expensive systems.
AUDIT_BATCH = {"free": 20, "oscillator": 5, "sw": 2, "osc112": 6, "kepler": 12, "kepler123": 2}
AUDIT_POOL_CYCLES = 5
# Criterion 06 asks for rank 5 at 95% of a slice's states, not at every
# state: rare states are genuinely degenerate (up to 0.3% for osc112).  Each
# task ranks this many states, and the fraction is judged after the run
# over the 100 distinct states that the pool holds for each slice.
RANK_STATES = 20
RANK_FRACTION = 0.95

# cli: the pool holds this many cycles of seven commands, and wraps if a
# run outlasts it.
CLI_POOL_CYCLES = 100
CLI_ADAPTIVE_T = 1.0
CLI_RK4 = (0.25, 1e-3)
CLI_MIDPOINT = (0.1, 1e-3)
# The fixed-step runs follow the README's oscillator orbit, each coordinate
# of its y0 shifted by a seeded draw in [-0.1, 0.1].  From the sampler's
# states instead, some with |rhs| ~ 1e5, the implicit midpoint fixed point
# fails to converge for about 0.5% of them at dt = 1e-3 (and still for a
# few at dt = 2.5e-4), and the NonConvergence escapes the CLI as a traceback.
README_Y0 = (0.8, 1.2, 0.4, 0.15, 0.3, 0.35)
README_SHIFT = 0.1
# A great circle that starts within a few thousandths of a time unit after
# a radial turning point makes closed_orbit_check's guard (the second sign
# change of p_r) land just past the period 2 pi, so the return is missed.
# Great-circle draws keep |p_r| >= this share of the speed.
GREAT_CIRCLE_MIN_PR = 0.05
CLI_POTENTIAL_N = 2000
CLI_GREAT_CIRCLE_T = 8.0
# Radial systems on the rho chart, as in criterion 09.
RHO_COMBOS = (("free", -1.0), ("oscillator", 1.0), ("oscillator", -1.0),
              ("kepler", 1.0), ("kepler", -1.0))


def sin_k(kap: float, x: float) -> float:
    """Curvature sine, written here so that sampling does not use the library."""
    if kap > 0.0:
        return math.sin(math.sqrt(kap) * x) / math.sqrt(kap)
    if kap < 0.0:
        return math.sinh(math.sqrt(-kap) * x) / math.sqrt(-kap)
    return x


def cos_k(kap: float, x: float) -> float:
    """Curvature cosine, written here so that sampling does not use the library."""
    if kap > 0.0:
        return math.cos(math.sqrt(kap) * x)
    if kap < 0.0:
        return math.cosh(math.sqrt(-kap) * x)
    return 1.0


def draw_state(sid: str, kap: float, rng: np.random.Generator,
               min_angular: float = 0.0, margin: float = 0.05) -> np.ndarray:
    """One phase-space state clear of the coordinate singularities."""
    p = PARAMS[sid]
    hi = math.pi / math.sqrt(kap) - 0.15 if kap > 0.0 else 2.5
    ks = (p.get("k1", 0.0), p.get("k2", 0.0), p.get("k3", 0.0))
    needs_axis = (ks[0] != 0.0, ks[1] != 0.0, ks[2] != 0.0 or sid == "osc112")
    if sid in ("free", "oscillator", "kepler"):
        needs_axis = (False, False, False)
    for _ in range(100000):
        r = rng.uniform(0.15, hi)
        th = rng.uniform(0.0, math.pi)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        sth, sk, ck = math.sin(th), sin_k(kap, r), cos_k(kap, r)
        if sth < margin or sk < margin or abs(ck) < margin:
            continue
        dirs = (sth * math.cos(ph), sth * math.sin(ph), math.cos(th))
        if any(need and abs(sk * d) < margin for need, d in zip(needs_axis, dirs)):
            continue
        if sid == "osc112":
            u = (sk / ck) * math.cos(th)
            if abs(1.0 - kap * u * u) < margin:
                continue
        pr, pth, pph = rng.uniform(-1.0, 1.0, 3)
        if min_angular > 0.0 and (abs(pph) < min_angular or pth * pth + pph * pph < min_angular):
            continue
        return np.array([r, th, ph, pr, pth, pph])
    raise RuntimeError(f"no admissible state for {sid} at kappa {kap}")


def kinetic(kap: float, y) -> float:
    sk = sin_k(kap, y[0])
    sth = math.sin(y[1])
    return 0.5 * (y[3] ** 2 + y[4] ** 2 / sk**2 + y[5] ** 2 / (sk * sth) ** 2)


def kepler_energy(kap: float, y) -> float:
    return kinetic(kap, y) + PARAMS["kepler"]["k"] * cos_k(kap, y[0]) / sin_k(kap, y[0])


def _rho_chart_state(sid: str, kap: float, rng) -> np.ndarray:
    # The rho chart covers cos_k(r) > 0 only, and a spherical Kepler orbit
    # must stay bound to the attracting hemisphere (criterion 09).
    while True:
        y = draw_state(sid, kap, rng, min_angular=0.3, margin=0.12)
        if kap > 0.0 and cos_k(kap, y[0]) <= 0.12:
            continue
        if sid == "kepler" and kap > 0.0 and kepler_energy(kap, y) >= -0.05:
            continue
        return y


def _fmt_y0(y) -> str:
    return "--y0=" + ",".join("%.17g" % v for v in y)


def _system_flags(sid: str, kap: float) -> list:
    flags = ["--system", sid, "--kappa", "%.17g" % kap]
    for name, val in PARAMS[sid].items():
        flags += [f"--{name}", "%.17g" % val]
    return flags


def conserve_inputs(rng, n: int) -> list:
    """(system, kappa=1, state) triples cycling through all six systems."""
    return [(SYSTEM_IDS[i % 6], 1.0,
             draw_state(SYSTEM_IDS[i % 6], 1.0, rng, min_angular=0.3, margin=0.12))
            for i in range(n)]


def audit_inputs(rng, cycles: int) -> list:
    """(system, kappa, rank states, gradient states, rng seed) slices.

    The rank states keep the margin 0.12 of criteria 03 and 06; the first
    AUDIT_BATCH of them also feed the bracket and tensor audits.  The
    gradient states keep the default margin 0.05 of criterion 02.  The
    tensor audit avoids the margin-0.05 states: there about one state in
    1500 has a Fradkin minor residual above 1e-10 (up to 5e-9).
    """
    out = []
    for _ in range(cycles):
        for kap in KAPPAS:
            for sid in SYSTEM_IDS:
                b = AUDIT_BATCH[sid]
                tight = [draw_state(sid, kap, rng, margin=0.12) for _ in range(max(b, RANK_STATES))]
                loose = [draw_state(sid, kap, rng) for _ in range(b)]
                out.append((sid, kap, tight, loose, int(rng.integers(2**31))))
    return out


def cli_cycle(rng, i: int) -> list:
    """One cycle of seven CLI tasks: (kind, argv, expected, adaptive input).

    ``expected`` is the number of data rows, "integrate" for an adaptive
    run whose row count is checked afterwards against an independent
    library integration of the same input, or "orbit" for a great circle.
    """
    sa, sb = SYSTEM_IDS[(2 * i) % 6], SYSTEM_IDS[(2 * i + 1) % 6]
    rho_sid, rho_kap = RHO_COMBOS[i % len(RHO_COMBOS)]
    pot_sid, pot_kap = (("oscillator", 1.0), ("oscillator", -1.0),
                        ("kepler", 1.0), ("kepler", -1.0))[i % 4]
    tasks = []
    for sid, kap, chart in ((sa, 1.0, "base"), (sb, 1.0, "base"), (rho_sid, rho_kap, "rho")):
        if chart == "rho":
            y = _rho_chart_state(sid, kap, rng)
        else:
            y = draw_state(sid, kap, rng, min_angular=0.3, margin=0.12)
        tasks.append(("trajectory", ["trajectory", *_system_flags(sid, kap), _fmt_y0(y),
                                     "--t-max", repr(CLI_ADAPTIVE_T), "--chart", chart],
                      "integrate", (sid, kap, y, chart, CLI_ADAPTIVE_T)))
    for method, (t_max, dt) in (("rk4_fixed", CLI_RK4), ("implicit_midpoint", CLI_MIDPOINT)):
        y = np.array(README_Y0) + rng.uniform(-README_SHIFT, README_SHIFT, 6)
        n_steps = max(1, int(math.ceil(t_max / dt - 1e-12)))
        tasks.append(("trajectory", ["trajectory", *_system_flags("oscillator", 1.0), _fmt_y0(y),
                                     "--t-max", repr(t_max), "--method", method,
                                     "--dt", repr(dt)], n_steps + 1, None))
    tasks.append(("potential", ["potential", *_system_flags(pot_sid, pot_kap),
                                "--n", str(CLI_POTENTIAL_N)], CLI_POTENTIAL_N, None))
    tasks.append(("closed-orbit", ["closed-orbit", *_system_flags("free", 1.0),
                                   _fmt_y0(great_circle_state(rng)),
                                   "--t-max", repr(CLI_GREAT_CIRCLE_T)], "orbit", None))
    return tasks


def great_circle_state(rng) -> np.ndarray:
    """A unit-speed free state at kappa = 1, clear of radial turning points."""
    while True:
        y = draw_state("free", 1.0, rng, min_angular=0.3, margin=0.12)
        y[3:] /= math.sqrt(2.0 * kinetic(1.0, y))
        if abs(y[3]) >= GREAT_CIRCLE_MIN_PR:
            return y


def cli_inputs(rng, cycles: int) -> list:
    return [t for i in range(cycles) for t in cli_cycle(rng, i)]


def digest(items) -> str:
    """Stable digest of generated inputs (arrays by their exact bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()[:16]
