"""Command line interface for trajectories, audits, and orbit searches.

Subcommands:

  list-systems      available systems and their parameters
  list-observables  integral catalog of one system
  trajectory        integrate and emit a CSV of states
  potential         radial potential profile as CSV
  audit             conservation / bracket / rank / tensor-identity checks
  closed-orbit      search for a periodic return

All numeric output uses repr-faithful %.17g formatting.  Runs are
deterministic for a fixed seed; the seed comes from --seed, falling
back to the CURVEDYN_SEED environment variable, then a built-in
default.  A JSON config file can supply any of the options, and its
values pass the same checks as flags; explicit flags win over the file.
--emit-config prints the resolved run as a config file whose every key
is read back, once the run has passed the checks it would fail at the
start (trajectory builds its chart state and equations first).  Audit
subcommands exit nonzero when any check exceeds its tolerance or is NaN, and
trajectory prints "warning: trajectory truncated: <reason>"
(its only stderr line: numpy's RuntimeWarnings are silenced) and exits 1
when the run stopped early, for any reason (a failed implicit solve
included).  A bad option value, input rejected by the library (a
ValueError, which includes DomainSingularity), a parameter so large that
float arithmetic overflows (OverflowError), a missing, unreadable or
malformed config file, a missing --system and an unwritable --output
print "error: <message>" on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from typing import Optional

import numpy as np

from . import dynamics, systems
from .kappa_core import DomainSingularity, cos_k
from .systems import SystemSpec, make_system

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240601

_PARAM_NAMES = ("alpha", "k", "k1", "k2", "k3")


def _fmt(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# Conversions of a flag's string or a config file's JSON value.

def _real(value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"must be a number, got {value!r}")


def _finite(value) -> float:
    """A number that is finite."""
    x = _real(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _positive(value) -> float:
    """A number that is positive and finite."""
    x = _real(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"must be positive and finite, got {value!r}")
    return x


def _integer(least: int):
    """Conversion to an int >= least, 0 or 1 (a JSON float does not count)."""
    def convert(value) -> int:
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        if type(value) is not int or value < least:
            kind = ("non-negative", "positive")[least]
            raise ValueError(f"must be a {kind} integer, got {value!r}")
        return value
    return convert


def _choice(*choices):
    def convert(value):
        if value in choices:
            return value
        raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
    return convert


def _y0(value):
    """'random', or six finite floats from a comma-separated string or a JSON list."""
    if value == "random":
        return value
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 6:
        raise ValueError(f"needs six comma-separated values or 'random', got {value!r}")
    return [_finite(v) for v in parts]


# ---------------------------------------------------------------------------
# Subcommand implementations.

def _cmd_list_systems() -> int:
    lines = []
    for sid in systems.SYSTEM_IDS:
        params = ", ".join(make_system(sid, 0.0).params) or "none"
        lines.append(f"{sid:12s} params: {params:24s} {systems.system_summaries()[sid]}")
    print("\n".join(lines))
    return 0


def _cmd_list_observables(args, spec: SystemSpec, opts: dict) -> int:
    if args.emit_config:
        return _emit_config(args, spec, opts)
    cat = systems.catalog(spec)
    lines = [f"system: {spec.system_id}  kappa: {_fmt(spec.kappa)}"]
    lines.append("integrals: " + " ".join(cat.integrals))
    lines.append("auxiliary: " + " ".join(cat.aux))
    if cat.complexes:
        lines.append("complex: " + " ".join(cat.complexes))
    for name, group in cat.involution_sets.items():
        lines.append(f"involution {name}: " + " ".join(group))
    for name, group in cat.independence_sets.items():
        lines.append(f"independence {name}: " + " ".join(group))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _initial_state(spec: SystemSpec, opts: dict, rng) -> np.ndarray:
    """opts["y0"], drawn from rng when it is 'random' and then kept in opts."""
    if opts["y0"] == "random":
        y0 = dynamics.sample_state(spec, rng, min_angular=0.3)
        if opts.get("chart") == "rho":
            # The rho chart covers the hemisphere cos_k(r) > 0; retry
            # random draws until they land on it.
            for _ in range(1000):
                if cos_k(spec.kappa, y0[0]) > 0.05:
                    break
                y0 = dynamics.sample_state(spec, rng, min_angular=0.3)
        opts["y0"] = [float(v) for v in y0]
    return np.array(opts["y0"])


def _cmd_trajectory(args, spec: SystemSpec, opts: dict) -> int:
    y0 = _initial_state(spec, opts, np.random.default_rng(opts["seed"]))
    rho = opts["chart"] == "rho"
    if rho:
        # y0 is always given in the base chart and transformed here.
        from .geometry import PhaseState, to_rho_chart

        y0 = to_rho_chart(spec.kappa, PhaseState.from_array(y0)).as_array()
        rhs = systems.rho_chart_rhs(spec)
    else:
        rhs = systems.hamilton_rhs(spec)
    span, method, dt, tol = (0.0, opts["t_max"]), opts["method"], opts["dt"], opts["tol"]
    # integrate's own argument checks, so that --emit-config writes only a
    # run that starts.
    dynamics._integrate_args(y0, span, method, dt, tol)
    if args.emit_config:
        return _emit_config(args, spec, opts)
    traj = dynamics.integrate(rhs, y0, span, method=method, dt=dt, tol=tol)
    labels = ("rho" if rho else "r", "theta", "phi",
              "p_rho" if rho else "p_r", "p_theta", "p_phi")
    every = opts["every"]
    row = ",".join(["%.17g"] * 7)
    rows = ["t," + ",".join(labels)]
    rows += [row % (t, *y) for t, y in zip(traj.times[::every].tolist(),
                                           traj.states[::every].tolist())]
    _emit(args, "\n".join(rows) + "\n")
    if traj.truncated:
        print(f"warning: trajectory truncated: {traj.diagnostics.get('reason')}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_potential(args, spec: SystemSpec, opts: dict) -> int:
    if args.emit_config:
        return _emit_config(args, spec, opts)
    profile = systems.potential_profile(
        spec, np.linspace(opts["r_min"], opts["r_max"], opts["n"]),
        theta=opts["theta"], phi=opts["phi"],
    )
    rows = ["r,V"] + ["%.17g,%.17g" % (r, v) for r, v in profile.tolist()]
    _emit(args, "\n".join(rows) + "\n")
    return 0


def _audit_conservation(spec, rng, opts, lines) -> bool:
    ok = True
    cat = systems.catalog(spec)
    watch = dict(cat.integrals)
    watch["H"] = cat.aux["H"]
    rhs = systems.hamilton_rhs(spec)
    for run in range(opts["ics"]):
        y0 = dynamics.sample_state(spec, rng, min_angular=0.3)
        traj = dynamics.integrate(rhs, y0, (0.0, opts["t_max"]), tol=1e-12)
        if traj.truncated:
            lines.append(f"FAIL conservation run{run} truncated: "
                         f"{traj.diagnostics.get('reason')}")
            ok = False
            continue
        report = dynamics.conservation_report(watch, traj)
        for name, entry in report.items():
            tol = opts["tol"] if opts["tol"] is not None else (
                1e-7 if name.startswith("KR") else 1e-8
            )
            good = entry["rel_drift"] < tol
            ok &= good
            lines.append(
                f"{'PASS' if good else 'FAIL'} conservation run{run} {name} "
                f"rel_drift={entry['rel_drift']:.3e} tol={tol:.1e}"
            )
    return ok


def _audit_brackets(spec, rng, opts, lines) -> bool:
    tol = opts["tol"] if opts["tol"] is not None else 1e-10
    states = [dynamics.sample_state(spec, rng) for _ in range(opts["states"])]
    ok = True
    for res in dynamics.bracket_table_audit(spec, states, rng):
        good = res.residual < tol
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} bracket {res.name} "
                     f"residual={res.residual:.3e} tol={tol:.1e}")
    return ok


def _audit_rank(spec, rng, opts, lines) -> bool:
    threshold = opts["tol"] if opts["tol"] is not None else 1e-6
    n_states = opts["states"]
    cat = systems.catalog(spec)
    ok = True
    for set_name, names in cat.independence_sets.items():
        obs = [cat.observables[n] for n in names]
        expected = len(obs)
        hits = 0
        for _ in range(n_states):
            y = dynamics.sample_state(spec, rng)
            if dynamics.independence_rank(obs, y, threshold=threshold) == expected:
                hits += 1
        frac = hits / n_states
        good = frac >= 0.95
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} rank {set_name} "
                     f"fraction={frac:.3f} threshold={threshold:.1e}")
    return ok


def _audit_fradkin(spec, rng, opts, lines) -> bool:
    tol = opts["tol"] if opts["tol"] is not None else 1e-10
    if spec.system_id != "oscillator":
        lines.append("SKIP fradkin (oscillator only)")
        return True
    runs = [dynamics.fradkin_audit(spec.kappa, spec.alpha, dynamics.sample_state(spec, rng))
            for _ in range(opts["states"])]
    ok = True
    for name in runs[0]:
        # A NaN residual at any state is the worst one, and fails.
        val = dynamics._worst([run[name] for run in runs])
        good = val < tol
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} fradkin {name} "
                     f"residual={val:.3e} tol={tol:.1e}")
    return ok


_AUDITS = {"conservation": _audit_conservation, "brackets": _audit_brackets,
           "rank": _audit_rank, "fradkin": _audit_fradkin}


def _cmd_audit(args, spec: SystemSpec, opts: dict) -> int:
    # --tol is every check's tolerance, and the rank audit's threshold must
    # also lie below 1: checked before any audit runs.
    if opts["kind"] in ("rank", "all") and opts["tol"] is not None and opts["tol"] >= 1.0:
        raise ValueError(f"--tol must be below 1 for the rank audit, got {opts['tol']!r}")
    rng = np.random.default_rng(opts["seed"])
    if args.emit_config:
        return _emit_config(args, spec, opts)
    lines: list = []
    ok = True
    for kind in _AUDITS if opts["kind"] == "all" else (opts["kind"],):
        ok &= _AUDITS[kind](spec, rng, opts, lines)
    lines.append("AUDIT " + ("PASS" if ok else "FAIL"))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_closed_orbit(args, spec: SystemSpec, opts: dict) -> int:
    y0 = _initial_state(spec, opts, np.random.default_rng(opts["seed"]))
    if args.emit_config:
        return _emit_config(args, spec, opts)
    try:
        result = dynamics.closed_orbit_check(
            spec, y0, opts["t_max"], return_tol=opts["return_tol"]
        )
    except DomainSingularity as exc:
        _emit(args, f"NOT FOUND singular trajectory: {exc}\n")
        return 1
    if result.found:
        _emit(args, f"FOUND period={_fmt(result.period)} "
                    f"distance={result.distance:.3e}\n")
        return 0
    _emit(args, f"NOT FOUND best_distance={result.distance:.3e}\n")
    return 1


# ---------------------------------------------------------------------------
# Option tables: one (name, conversion, default, help) entry per option.
# The name is the config key and, with "-" for "_", the flag.  A system
# parameter's key lives in "params", the seed's at the top level, and
# the others in the section named after the subcommand.  A callable
# default is computed from the options resolved before it.

_SYSTEM = (
    ("system", str, None, "required: " + ", ".join(systems.SYSTEM_IDS)),
    ("kappa", _real, 1.0, "curvature (default 1)"),
) + tuple((name, _real, None, "system parameter") for name in _PARAM_NAMES)
_SEED = ("seed", _integer(0), lambda o: int(os.environ.get("CURVEDYN_SEED", DEFAULT_SEED)),
         "random seed (default $CURVEDYN_SEED, then built in)")
_Y0_HELP = "six comma-separated values r,theta,phi,p_r,p_theta,p_phi or 'random'"

_COMMANDS = {
    # subcommand: (implementation, help, its table)
    "list-observables": (_cmd_list_observables, "integral catalog of a system", ()),
    "trajectory": (_cmd_trajectory, "integrate and emit states as CSV", (
        _SEED,
        ("y0", _y0, "random", _Y0_HELP),
        ("t_max", _positive, 10.0, None),
        ("method", _choice(*dynamics.METHODS), dynamics.DEFAULT_METHOD,
         ", ".join(dynamics.METHODS) + f" (default {dynamics.DEFAULT_METHOD})"),
        ("tol", _positive, 1e-10, None),
        ("dt", _positive, None, None),
        ("every", _integer(1), 1, "emit every N-th stored sample"),
        ("chart", _choice("base", "rho"), "base", "integrate in the base or the rho chart"),
    )),
    "potential": (_cmd_potential, "radial potential profile as CSV", (
        ("r_min", _finite, 0.15, None),
        ("r_max", _finite, lambda o: math.pi / math.sqrt(o["kappa"]) - 0.15
         if o["kappa"] > 0.0 else 2.5, "default pi/sqrt(kappa) - 0.15, or 2.5"),
        ("n", _integer(1), 100, None),
        ("theta", _finite, math.pi / 2.0, None),
        ("phi", _finite, math.pi / 4.0, None),
    )),
    "audit": (_cmd_audit, "run verification audits", (
        _SEED,
        ("kind", _choice(*_AUDITS, "all"), "all", ", ".join((*_AUDITS, "all"))),
        ("states", _integer(1), 50, "number of random audit states"),
        ("ics", _integer(1), 3, "number of trajectories for the conservation audit"),
        ("t_max", _positive, 20.0, None),
        ("tol", _positive, None, "override the default tolerance of every check"),
    )),
    "closed-orbit": (_cmd_closed_orbit, "search for a periodic return", (
        _SEED,
        ("y0", _y0, "random", _Y0_HELP),
        ("t_max", _positive, 40.0, None),
        ("return_tol", _positive, 1e-4, None),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedyn",
        description="curvature-parametrized Hamiltonian systems toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-systems", help="available systems")
    for command, (_, text, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, *_, option_help in _SYSTEM + table:
            p.add_argument("--" + name.replace("_", "-"), help=option_help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--emit-config", action="store_true",
                       help="print the effective config as JSON and exit")
        p.add_argument("--output", help="output path (default stdout)")
    return parser


# argparse keeps no state between parses (every default is None and
# options are resolved in _options), so one parser serves every call.
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# Config handling and output.

def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    section = cfg.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(f"config {key!r} must be a JSON object, got {section!r}")
    return section


def _options(args, cfg: dict) -> dict:
    """Each option from its flag, config section, top-level config key or
    default, the first not None; a value that fails its conversion
    raises ValueError("--name ...")."""
    section = _section(cfg, args.command.replace("-", "_"))
    params = _section(cfg, "params")
    opts = {}
    for name, convert, default, _ in _SYSTEM + _COMMANDS[args.command][2]:
        where = params if name in _PARAM_NAMES else section
        for value in (getattr(args, name), where.get(name), cfg.get(name)):
            if value is not None:
                try:
                    opts[name] = convert(value)
                except ValueError as exc:
                    raise ValueError(f"--{name.replace('_', '-')} {exc}") from None
                break
        else:
            opts[name] = default(opts) if callable(default) else default
    return opts


def _build_spec(opts: dict) -> SystemSpec:
    system, kappa = opts["system"], opts["kappa"]
    if system is None:
        raise ValueError("--system is required (or supply it in --config)")
    params = {name: opts[name] for name in make_system(system, kappa).params
              if opts[name] is not None}
    return make_system(system, kappa, **params)


def _emit_config(args, spec: SystemSpec, opts: dict) -> int:
    """Print the resolved run as a config file that --config reads back."""
    out = {"schema_version": SCHEMA_VERSION, "system": spec.system_id,
           "kappa": spec.kappa, "params": spec.params}
    section = {name: opts[name] for name, *_ in _COMMANDS[args.command][2]}
    if "seed" in section:
        out["seed"] = section.pop("seed")
    if section:
        out[args.command.replace("-", "_")] = section
    print(json.dumps(out, indent=2))
    return 0


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(
            f"cannot write output file {args.output!r}: {exc.strerror or exc}"
        ) from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-systems":
            return _cmd_list_systems()
        opts = _options(args, _load_config(args.config))
        # A run that turns non-finite says so in its own one line; numpy's
        # overflow and invalid-value warnings would only precede it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command][0](args, _build_spec(opts), opts)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
