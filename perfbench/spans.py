"""Spans around the benchmark's calls into each layer, and the per-layer
metrics computed from them.

The traced run wraps the library's public functions from outside: while
a ``Tracer`` is installed, ``dynamics.integrate``, the rhs factories of
``systems`` and the audit functions are replaced by timing wrappers, so
the calls the benchmark makes (and the calls ``cli.main`` and
``closed_orbit_check`` make through the same module attributes) open a
span.  Right-hand-side evaluations are too many to keep one span each;
their count and time are added to the enclosing span instead.  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus what its child spans and rhs evaluations cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from curvedyn import dynamics, geometry, kappa_core, systems

import inputs
from inputs import PARAMS, SYSTEM_IDS


# Every per-layer metric with its unit, in the order they are reported.
UNITS = {
    "kappa_core.closed_ns": "ns",
    "kappa_core.series_ns": "ns",
    "systems.rhs_us": "us",
    **{f"systems.rhs_us.{sid}": "us" for sid in SYSTEM_IDS},
    "systems.rhs_evals": "count",
    "systems.rho_rhs_us": "us",
    "systems.catalog_ms": "ms",
    "dynamics.step_overhead_us": "us",
    "dynamics.steps": "count",
    "dynamics.rejected": "count",
    "dynamics.evals_per_step": "evals/step",
    "dynamics.accept_ratio": "ratio",
    "dynamics.conservation_us": "us",
    "dynamics.bracket_us": "us",
    "dynamics.rank_us": "us",
    "dynamics.fradkin_us": "us",
    "dynamics.orbit_refine_ms": "ms",
    "observables.value_us": "us",
    "observables.vg_us": "us",
    "observables.value_vg_ratio": "ratio",
    "geometry.chart_us": "us",
    "cli.row_us": "us",
    "cli.main_ms.trajectory": "ms",
    "cli.main_ms.potential": "ms",
    "cli.main_ms.closed-orbit": "ms",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.rhs = defaultdict(lambda: [0, 0.0])
        self._saved = []

    @contextmanager
    def span(self, name, **extra):
        rec = {"name": name, "task": self.task,
               "parent": self.stack[-1] if self.stack else None,
               "start": perf_counter(), "end": None, "rhs_n": 0, "rhs_s": 0.0, **extra}
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(rec, out, *args)
            return out
        return traced

    def _wrap_rhs(self, label, rhs):
        acc = self.rhs[label]

        def traced(t, y):
            t0 = perf_counter()
            try:
                return rhs(t, y)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if self.stack:
                    top = self.spans[self.stack[-1]]
                    top["rhs_n"] += 1
                    top["rhs_s"] += dt
        return traced

    def _rhs_factory(self, factory, label):
        def make(spec):
            return self._wrap_rhs(label(spec), factory(spec))
        return make

    def install(self):
        """Replace the library's public entry points by traced wrappers."""
        def after_integrate(rec, traj, *args):
            d = traj.diagnostics
            rec.update(steps=d.get("n_steps", 0), rejected=d.get("n_rejected", 0),
                       method=d.get("method"))

        def after_conservation(rec, report, observables, traj):
            rec["calls"] = len(observables) * len(traj.states)

        def after_brackets(rec, rows, spec, states, *rest):
            rec["calls"] = len(rows) * len(states)

        hamilton = self._rhs_factory(systems.hamilton_rhs, lambda s: f"rhs.{s.system_id}")
        patches = [
            (dynamics, "integrate", self._wrap("dynamics.integrate", dynamics.integrate, after_integrate)),
            (dynamics, "conservation_report",
             self._wrap("dynamics.conservation_report", dynamics.conservation_report, after_conservation)),
            (dynamics, "bracket_table_audit",
             self._wrap("dynamics.bracket_table_audit", dynamics.bracket_table_audit, after_brackets)),
            (dynamics, "independence_rank", self._wrap("dynamics.independence_rank", dynamics.independence_rank)),
            (dynamics, "fradkin_audit", self._wrap("dynamics.fradkin_audit", dynamics.fradkin_audit)),
            (dynamics, "closed_orbit_check",
             self._wrap("dynamics.closed_orbit_check", dynamics.closed_orbit_check)),
            (systems, "potential_profile", self._wrap("systems.potential_profile", systems.potential_profile)),
            (systems, "hamilton_rhs", hamilton),
            (dynamics, "hamilton_rhs", hamilton),
            (systems, "rho_chart_rhs", self._rhs_factory(systems.rho_chart_rhs, lambda s: "rho")),
        ]
        for mod, name, fn in patches:
            self._saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, fn)

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def self_time(self):
        """Per-span duration minus child spans and rhs evaluations."""
        out = [s["end"] - s["start"] - s["rhs_s"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self):
        return {"spans": self.spans, "rhs": {k: list(v) for k, v in self.rhs.items()}}


# ---------------------------------------------------------------------------
# Direct calls into single layers, with inputs drawn from the run's seed.

def _per_call(fn, args_list, repeats: int = 5) -> float:
    """Median over repeats of seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        times.append((perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def layer_calls(rng) -> dict:
    """Kernel, observable, chart and catalog costs measured one layer at a time."""
    out = {}
    xs = rng.uniform(0.2, 1.4, 1000)
    closed = [(k, x) for x in xs for k in (1.0, -1.0)]
    series = [(0.0, x) for x in xs]
    for branch, pairs in (("closed", closed), ("series", series)):
        per = [_per_call(f, pairs) for f in (kappa_core.sin_k, kappa_core.cos_k, kappa_core.tan_k)]
        out[f"kappa_core.{branch}_ns"] = 1e9 * sum(per) / 3.0

    value_t, vg_t = [], []
    for sid in SYSTEM_IDS:
        spec = systems.make_system(sid, 1.0, **PARAMS[sid])
        states = [inputs.draw_state(sid, 1.0, rng, margin=0.12) for _ in range(3)]
        for obs in systems.catalog(spec).observables.values():
            args = [(y,) for y in states]
            value_t.append(_per_call(obs.value, args))
            vg_t.append(_per_call(obs.value_and_gradient, args))
    out["observables.value_us"] = 1e6 * statistics.mean(value_t)
    out["observables.vg_us"] = 1e6 * statistics.mean(vg_t)
    out["observables.value_vg_ratio"] = out["observables.value_us"] / out["observables.vg_us"]

    chart_args = []
    for _ in range(200):
        y = inputs.draw_state("oscillator", 1.0, rng, margin=0.12)
        if inputs.cos_k(1.0, y[0]) > 0.12:
            chart_args.append((1.0, geometry.PhaseState.from_array(y)))
    rho_args = [(k, geometry.to_rho_chart(k, s)) for k, s in chart_args]
    out["geometry.chart_us"] = 1e6 * 0.5 * (_per_call(geometry.to_rho_chart, chart_args)
                                            + _per_call(geometry.from_rho_chart, rho_args))

    specs = [(systems.make_system(sid, kap, **PARAMS[sid]),)
             for sid in SYSTEM_IDS for kap in inputs.KAPPAS]
    out["systems.catalog_ms"] = 1e3 * _per_call(systems.catalog, specs, repeats=3)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.

def _ratio(num, den):
    return num / den if den else math.nan


def span_metrics(tracers, probe: Tracer) -> dict:
    """Timings pooled over every tracer; exact counts from the probe alone."""
    out = {}
    rhs = defaultdict(lambda: [0, 0.0])
    for tr in tracers:
        for label, (n, s) in tr.rhs.items():
            rhs[label][0] += n
            rhs[label][1] += s
    base = [v for k, v in rhs.items() if k.startswith("rhs.")]
    out["systems.rhs_us"] = 1e6 * _ratio(sum(v[1] for v in base), sum(v[0] for v in base))
    for sid in SYSTEM_IDS:
        n, s = rhs[f"rhs.{sid}"]
        out[f"systems.rhs_us.{sid}"] = 1e6 * _ratio(s, n)
    out["systems.rho_rhs_us"] = 1e6 * _ratio(rhs["rho"][1], rhs["rho"][0])

    acc = defaultdict(float)
    cli_rows = 0
    main_ms = defaultdict(list)
    for tr in tracers:
        selfs = tr.self_time()
        integrate_in = defaultdict(float)
        for s in tr.spans:
            if s["name"] == "dynamics.integrate" and s["parent"] is not None:
                integrate_in[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(tr.spans):
            name, dur = s["name"], s["end"] - s["start"]
            if name == "dynamics.integrate":
                acc["step_self"] += selfs[i]
                acc["steps"] += s.get("steps", 0)
            elif name in ("dynamics.conservation_report", "dynamics.bracket_table_audit"):
                acc[name] += dur
                acc[name + ".calls"] += s.get("calls", 0)
            elif name in ("dynamics.independence_rank", "dynamics.fradkin_audit"):
                acc[name] += dur
                acc[name + ".calls"] += 1
            elif name == "dynamics.closed_orbit_check":
                acc["refine"] += dur - integrate_in[i]
                acc["refine.calls"] += 1
            elif name == "cli.main":
                main_ms[s["sub"]].append(1e3 * dur)
                if s["sub"] != "closed-orbit" and "rows" in s:
                    acc["cli_self"] += selfs[i]
                    cli_rows += s["rows"]
    out["dynamics.step_overhead_us"] = 1e6 * _ratio(acc["step_self"], acc["steps"])
    out["dynamics.conservation_us"] = 1e6 * _ratio(acc["dynamics.conservation_report"],
                                                   acc["dynamics.conservation_report.calls"])
    out["dynamics.bracket_us"] = 1e6 * _ratio(acc["dynamics.bracket_table_audit"],
                                              acc["dynamics.bracket_table_audit.calls"])
    out["dynamics.rank_us"] = 1e6 * _ratio(acc["dynamics.independence_rank"],
                                           acc["dynamics.independence_rank.calls"])
    out["dynamics.fradkin_us"] = 1e6 * _ratio(acc["dynamics.fradkin_audit"],
                                              acc["dynamics.fradkin_audit.calls"])
    out["dynamics.orbit_refine_ms"] = 1e3 * _ratio(acc["refine"], acc["refine.calls"])
    out["cli.row_us"] = 1e6 * _ratio(acc["cli_self"], cli_rows)
    for sub in ("trajectory", "potential", "closed-orbit"):
        out[f"cli.main_ms.{sub}"] = statistics.median(main_ms[sub]) if main_ms[sub] else math.nan

    # A call that raised has no counts; its task is already counted as failed.
    steps = sum(s.get("steps", 0) for s in probe.spans if s["name"] == "dynamics.integrate")
    adaptive = [s for s in probe.spans
                if s["name"] == "dynamics.integrate" and s.get("method") == "rk45_adaptive"]
    accepted = sum(s["steps"] for s in adaptive)
    rejected = sum(s["rejected"] for s in adaptive)
    evals = sum(s["rhs_n"] for s in probe.spans if s["name"] == "dynamics.integrate")
    out["systems.rhs_evals"] = sum(n for n, _ in probe.rhs.values())
    out["dynamics.steps"] = steps
    out["dynamics.rejected"] = rejected
    out["dynamics.evals_per_step"] = _ratio(evals, steps)
    out["dynamics.accept_ratio"] = _ratio(accepted, accepted + rejected)
    return out
