"""Task bodies and output checks of the three workloads.

Each workload has a ``work`` function, which is what a task's latency
measures, and a ``check`` function, run untimed right after it, which
returns the list of failed checks and the task's exact counts.  The
tolerances are the acceptance suite's own.  Library calls go through the
module attributes (``dynamics.integrate`` and so on) so that the traced
run can wrap them from outside.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

from curvedyn import cli, dynamics, systems

import inputs
from inputs import PARAMS

DRIFT_TOL = 1e-8
QUARTIC_DRIFT_TOL = 1e-7
BRACKET_TOL = 1e-10
FRADKIN_TOL = 1e-10
GRADIENT_TOL = 1e-6
GRADIENT_H = 1e-6
RETURN_TOL = 1e-4
PERIOD_TOL = 1e-6
CLI_DEFAULT_TOL = 1e-10


class NullSpan:
    """Stand-in for the tracer when a run is not traced."""

    task = None

    @contextmanager
    def span(self, name, **extra):
        yield {}


class Context:
    """Specs, catalogs and per-run scratch state shared by the tasks."""

    def __init__(self, keys, out_dir: str):
        self.specs = {}
        self.catalogs = {}
        self.watch = {}
        self.full = {}
        for sid, kap in keys:
            spec = systems.make_system(sid, kap, **PARAMS[sid])
            cat = systems.catalog(spec)
            self.specs[sid, kap] = spec
            self.catalogs[sid, kap] = cat
            watch = dict(cat.integrals)
            watch["H"] = cat.observables["H"]
            self.watch[sid, kap] = watch
            full = dict(cat.observables)
            for name, c in cat.complexes.items():
                full[f"{name}.re"] = c.re
                full[f"{name}.im"] = c.im
            self.full[sid, kap] = full
        self.out_path = os.path.join(out_dir, "cli_output.csv")
        self.tracer = NullSpan()
        # Checked after the run: adaptive CLI runs, pool index -> data rows
        # written; audit slices, (system, kappa) -> pool index -> ranks.
        self.adaptive_rows = {}
        self.ranks = {}


# ---------------------------------------------------------------------------
# conserve

def conserve_work(ctx: Context, item):
    sid, kap, y0 = item
    rhs = systems.hamilton_rhs(ctx.specs[sid, kap])
    traj = dynamics.integrate(rhs, y0, (0.0, inputs.CONSERVE_T), tol=1e-12).thin(2000)
    return traj, dynamics.conservation_report(ctx.watch[sid, kap], traj)


def conserve_check(ctx: Context, item, result, index: int):
    traj, report = result
    d = traj.diagnostics
    fails = [f"truncated: {d.get('reason')}"] if traj.truncated else []
    for name, row in report.items():
        tol = QUARTIC_DRIFT_TOL if name.startswith("KR") else DRIFT_TOL
        if not row["rel_drift"] < tol:
            fails.append(f"{name} drift {row['rel_drift']:.3e}")
    counts = {"steps": d["n_steps"], "rejected": d["n_rejected"], "rhs_evals": d["n_rhs_evals"]}
    return fails, counts


# ---------------------------------------------------------------------------
# audit

def gradient_errors(observables: dict, states) -> list:
    """Analytic gradient against central differences, as in criterion 02."""
    out = []
    for name, obs in observables.items():
        for y in states:
            _, g = obs.value_and_gradient(y)
            fd = np.empty(6)
            for i in range(6):
                yp = y.copy()
                ym = y.copy()
                yp[i] += GRADIENT_H
                ym[i] -= GRADIENT_H
                fd[i] = (obs.value(yp) - obs.value(ym)) / (2.0 * GRADIENT_H)
            out.append((name, float(np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))))))
    return out


def audit_work(ctx: Context, item):
    sid, kap, tight, loose, seed = item
    spec = ctx.specs[sid, kap]
    cat = ctx.catalogs[sid, kap]
    batch = tight[:inputs.AUDIT_BATCH[sid]]
    rows = dynamics.bracket_table_audit(spec, batch, np.random.default_rng(seed))
    primary = [cat.get(n) for n in cat.independence_sets["primary"]]
    ranks = [dynamics.independence_rank(primary, y) for y in tight]
    fradkin = []
    if sid == "oscillator":
        fradkin = [dynamics.fradkin_audit(kap, spec.alpha, y) for y in batch]
    full = ctx.full[sid, kap]
    with ctx.tracer.span("observables.gradient_pass", calls=len(full) * len(loose)):
        grads = gradient_errors(full, loose)
    return rows, ranks, fradkin, grads


def audit_check(ctx: Context, item, result, index: int):
    rows, ranks, fradkin, grads = result
    fails = [f"bracket {r.name} {r.residual:.3e}" for r in rows if not abs(r.residual) < BRACKET_TOL]
    ctx.ranks.setdefault(item[:2], {})[index] = ranks
    for res in fradkin:
        fails += [f"fradkin {k} {v:.3e}" for k, v in res.items() if not abs(v) < FRADKIN_TOL]
    fails += [f"gradient {n} {e:.3e}" for n, e in grads if not e < GRADIENT_TOL]
    counts = {"identities": len(rows), "rank_states": len(ranks),
              "fradkin_states": len(fradkin), "gradients": len(grads)}
    return fails, counts


# ---------------------------------------------------------------------------
# cli

def cli_work(ctx: Context, item):
    kind, argv, _expected, _spec = item
    with ctx.tracer.span("cli.main", sub=kind) as rec:
        code = cli.main([*argv, "--output", ctx.out_path])
    return code, rec


def _orbit_failures(line: str) -> list:
    fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
    if not line.startswith("FOUND"):
        return [f"no return: {line}"]
    fails = []
    if not float(fields["distance"]) < RETURN_TOL:
        fails.append(f"distance {fields['distance']}")
    if not abs(float(fields["period"]) - 2.0 * math.pi) < PERIOD_TOL:
        fails.append(f"period {fields['period']}")
    return fails


def cli_check(ctx: Context, item, result, index: int):
    kind, argv, expected, _spec = item
    code, rec = result
    fails = [] if code == 0 else [f"exit status {code}"]
    with open(ctx.out_path) as fh:
        lines = fh.read().splitlines()
    if kind == "closed-orbit":
        fails += _orbit_failures(lines[0] if lines else "")
        rows = len(lines)
    else:
        header = "r,V" if kind == "potential" else "t,"
        if not lines or not lines[0].startswith(header):
            fails.append("missing CSV header")
        rows = len(lines) - 1
        if expected == "integrate":
            ctx.adaptive_rows[index] = rows
        elif rows != expected:
            fails.append(f"{rows} rows, expected {expected}")
    rec["rows"] = rows
    return fails, {"rows": rows}


def rank_failures(ctx: Context) -> list:
    """Slices whose distinct states reach rank 5 less often than criterion 06 allows."""
    fails = []
    for (sid, kap), by_item in sorted(ctx.ranks.items()):
        ranks = [rk for item_ranks in by_item.values() for rk in item_ranks]
        hits = sum(rk == 5 for rk in ranks)
        if not hits >= inputs.RANK_FRACTION * len(ranks):
            fails.append(f"{sid} kappa={kap}: rank 5 at {hits} of {len(ranks)} states")
    return fails


def expected_adaptive_rows(item) -> int:
    """Samples of an independent library run of an adaptive CLI task."""
    from curvedyn.geometry import PhaseState, to_rho_chart

    sid, kap, y0, chart, t_max = item[3]
    spec = systems.make_system(sid, kap, **PARAMS[sid])
    if chart == "rho":
        y0 = to_rho_chart(kap, PhaseState.from_array(y0)).as_array()
        rhs = systems.rho_chart_rhs(spec)
    else:
        rhs = systems.hamilton_rhs(spec)
    return len(dynamics.integrate(rhs, y0, (0.0, t_max), tol=CLI_DEFAULT_TOL).times)
