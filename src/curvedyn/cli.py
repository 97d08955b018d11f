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
default.  A JSON config file can supply any of the options; explicit
command line flags win over the file.  Audit subcommands exit nonzero
when any check exceeds its tolerance.  Invalid input rejected by the
library (a ValueError, which includes DomainSingularity), a missing,
unreadable or malformed config file or one with a wrong schema_version,
a missing --system, a --y0 that is not six values, a count option
below 1, and a failed implicit solve print "error: <message>" on stderr
and exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import dynamics, systems
from .kappa_core import DomainSingularity
from .systems import SystemSpec, make_system

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240601

_PARAM_NAMES = ("alpha", "k", "k1", "k2", "k3")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=systems.SYSTEM_IDS, default=None)
    p.add_argument("--kappa", type=float, default=None)
    for name in _PARAM_NAMES:
        p.add_argument(f"--{name}", type=float, default=None)


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--emit-config", action="store_true",
                   help="print the effective config as JSON and exit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedyn",
        description="curvature-parametrized Hamiltonian systems toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems", help="available systems")

    p = sub.add_parser("list-observables", help="integral catalog of a system")
    _add_system_args(p)
    _add_common_args(p)

    p = sub.add_parser("trajectory", help="integrate and emit states as CSV")
    _add_system_args(p)
    _add_common_args(p)
    p.add_argument("--y0", default=None,
                   help="six comma-separated values r,theta,phi,p_r,p_theta,p_phi "
                        "or 'random'")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--method", choices=dynamics.METHODS, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--every", type=int, default=None,
                   help="emit every N-th stored sample")
    p.add_argument("--chart", choices=["base", "rho"], default=None,
                   help="integrate in the base chart or the rho chart")

    p = sub.add_parser("potential", help="radial potential profile as CSV")
    _add_system_args(p)
    _add_common_args(p)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)

    p = sub.add_parser("audit", help="run verification audits")
    _add_system_args(p)
    _add_common_args(p)
    p.add_argument("--kind",
                   choices=["conservation", "brackets", "rank", "fradkin", "all"],
                   default="all")
    p.add_argument("--states", type=int, default=None,
                   help="number of random audit states")
    p.add_argument("--ics", type=int, default=None,
                   help="number of trajectories for the conservation audit")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="override the default tolerance of every check")

    p = sub.add_parser("closed-orbit", help="search for a periodic return")
    _add_system_args(p)
    _add_common_args(p)
    p.add_argument("--y0", default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--return-tol", type=float, default=None)

    return parser


# ---------------------------------------------------------------------------
# Config handling.

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


def _merged_option(args, cfg: dict, section: str, name: str, fallback):
    """CLI flag if given, else config value, else fallback."""
    cli_val = getattr(args, name.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    if section and isinstance(cfg.get(section), dict) and name in cfg[section]:
        return cfg[section][name]
    if name in cfg:
        return cfg[name]
    return fallback


def _positive_count(name: str, value) -> int:
    """A count option as an int, rejecting zero and negative values."""
    count = int(value)
    if count < 1:
        raise ValueError(f"--{name} must be a positive integer, got {value!r}")
    return count


def _build_spec(args, cfg: dict) -> SystemSpec:
    system = _merged_option(args, cfg, "", "system", None)
    if system is None:
        raise ValueError("--system is required (or supply it in --config)")
    kappa = _merged_option(args, cfg, "", "kappa", 1.0)
    params = dict(cfg.get("params", {}))
    for name in _PARAM_NAMES:
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    allowed = make_system(system, kappa).params
    params = {k: v for k, v in params.items() if k in allowed}
    return make_system(system, kappa, **params)


def _spec_config(spec: SystemSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": spec.system_id,
        "kappa": spec.kappa,
        "params": spec.params,
    }


def _get_rng(args, cfg: dict) -> tuple[np.random.Generator, int]:
    seed = _merged_option(args, cfg, "", "seed", None)
    if seed is None:
        seed = int(os.environ.get("CURVEDYN_SEED", DEFAULT_SEED))
    return np.random.default_rng(int(seed)), int(seed)


def _open_output(args):
    if args.output is None:
        return sys.stdout, False
    return open(args.output, "w"), True


def _emit(args, text: str) -> None:
    fh, close = _open_output(args)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# Subcommand implementations.

def _cmd_list_systems(args) -> int:
    lines = []
    for sid in systems.SYSTEM_IDS:
        params = ", ".join(make_system(sid, 0.0).params) or "none"
        lines.append(f"{sid:12s} params: {params:24s} {systems.system_summaries()[sid]}")
    print("\n".join(lines))
    return 0


def _cmd_list_observables(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    if args.emit_config:
        print(json.dumps(_spec_config(spec), indent=2))
        return 0
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


def _parse_y0(text: str, spec: SystemSpec, rng) -> np.ndarray:
    if text == "random":
        return dynamics.sample_state(spec, rng, min_angular=0.3)
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--y0 needs six comma-separated values or 'random'")
    return np.array(parts)


def _cmd_trajectory(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    rng, seed = _get_rng(args, cfg)
    t_max = _merged_option(args, cfg, "trajectory", "t_max", 10.0)
    method = _merged_option(args, cfg, "trajectory", "method", "rk45_adaptive")
    tol = _merged_option(args, cfg, "trajectory", "tol", 1e-10)
    dt = _merged_option(args, cfg, "trajectory", "dt", None)
    every = _positive_count("every", _merged_option(args, cfg, "trajectory", "every", 1))
    chart = _merged_option(args, cfg, "trajectory", "chart", "base")
    y0_text = _merged_option(args, cfg, "trajectory", "y0", "random")
    if isinstance(y0_text, (list, tuple)):
        y0 = np.array([float(v) for v in y0_text])
    else:
        y0 = _parse_y0(str(y0_text), spec, rng)
    if chart == "rho" and str(y0_text) == "random":
        # The rho chart covers the hemisphere cos_k(r) > 0; retry random
        # draws until they land on it.
        from .kappa_core import cos_k

        for _ in range(1000):
            if cos_k(spec.kappa, y0[0]) > 0.05:
                break
            y0 = dynamics.sample_state(spec, rng, min_angular=0.3)
    if args.emit_config:
        out = _spec_config(spec)
        out["seed"] = seed
        out["trajectory"] = {
            "y0": list(map(float, y0)),
            "t_max": float(t_max),
            "method": method,
            "tol": float(tol),
            "dt": dt,
            "every": every,
            "chart": chart,
        }
        print(json.dumps(out, indent=2))
        return 0
    if chart == "rho":
        # y0 is always given in the base chart and transformed here.
        from .geometry import PhaseState, to_rho_chart

        y0 = to_rho_chart(spec.kappa, PhaseState.from_array(y0)).as_array()
        rhs = systems.rho_chart_rhs(spec)
    else:
        rhs = systems.hamilton_rhs(spec)
    traj = dynamics.integrate(
        rhs, y0, (0.0, float(t_max)), method=method, dt=dt, tol=float(tol)
    )
    labels = ("rho" if chart == "rho" else "r", "theta", "phi",
              "p_rho" if chart == "rho" else "p_r", "p_theta", "p_phi")
    rows = ["t," + ",".join(labels)]
    for i in range(0, len(traj.times), every):
        rows.append(
            ",".join([_fmt(traj.times[i])] + [_fmt(v) for v in traj.states[i]])
        )
    _emit(args, "\n".join(rows) + "\n")
    if traj.truncated:
        print(f"warning: trajectory truncated: {traj.diagnostics.get('reason')}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_potential(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    if spec.kappa > 0.0:
        top = math.pi / math.sqrt(spec.kappa) - 0.15
    else:
        top = 2.5
    r_min = float(_merged_option(args, cfg, "potential", "r_min", 0.15))
    r_max = float(_merged_option(args, cfg, "potential", "r_max", top))
    n = _positive_count("n", _merged_option(args, cfg, "potential", "n", 100))
    theta = float(_merged_option(args, cfg, "potential", "theta", math.pi / 2.0))
    phi = float(_merged_option(args, cfg, "potential", "phi", math.pi / 4.0))
    if args.emit_config:
        out = _spec_config(spec)
        out["potential"] = {"r_min": r_min, "r_max": r_max, "n": n,
                            "theta": theta, "phi": phi}
        print(json.dumps(out, indent=2))
        return 0
    profile = systems.potential_profile(
        spec, np.linspace(r_min, r_max, n), theta=theta, phi=phi
    )
    rows = ["r,V"]
    for r, v in profile:
        rows.append(f"{_fmt(r)},{'nan' if math.isnan(v) else _fmt(v)}")
    _emit(args, "\n".join(rows) + "\n")
    return 0


def _audit_conservation(spec, rng, ics, t_max, tol_override, lines) -> bool:
    ok = True
    cat = systems.catalog(spec)
    watch = dict(cat.integrals)
    watch["H"] = cat.aux["H"]
    rhs = systems.hamilton_rhs(spec)
    for run in range(ics):
        y0 = dynamics.sample_state(spec, rng, min_angular=0.3)
        traj = dynamics.integrate(rhs, y0, (0.0, t_max), tol=1e-12)
        if traj.truncated:
            lines.append(f"FAIL conservation run{run} truncated: "
                         f"{traj.diagnostics.get('reason')}")
            ok = False
            continue
        report = dynamics.conservation_report(watch, traj)
        for name, entry in report.items():
            tol = tol_override if tol_override is not None else (
                1e-7 if name.startswith("KR") else 1e-8
            )
            good = entry["rel_drift"] < tol
            ok &= good
            lines.append(
                f"{'PASS' if good else 'FAIL'} conservation run{run} {name} "
                f"rel_drift={entry['rel_drift']:.3e} tol={tol:.1e}"
            )
    return ok


def _audit_brackets(spec, rng, n_states, tol_override, lines) -> bool:
    tol = tol_override if tol_override is not None else 1e-10
    states = [dynamics.sample_state(spec, rng) for _ in range(n_states)]
    ok = True
    for res in dynamics.bracket_table_audit(spec, states, rng):
        good = res.residual < tol
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} bracket {res.name} "
                     f"residual={res.residual:.3e} tol={tol:.1e}")
    return ok


def _audit_rank(spec, rng, n_states, tol_override, lines) -> bool:
    threshold = tol_override if tol_override is not None else 1e-6
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


def _audit_fradkin(spec, rng, n_states, tol_override, lines) -> bool:
    tol = tol_override if tol_override is not None else 1e-10
    if spec.system_id != "oscillator":
        lines.append("SKIP fradkin (oscillator only)")
        return True
    worst: dict = {}
    for _ in range(n_states):
        y = dynamics.sample_state(spec, rng)
        for name, val in dynamics.fradkin_audit(spec.kappa, spec.alpha, y).items():
            worst[name] = max(worst.get(name, 0.0), val)
    ok = True
    for name, val in worst.items():
        good = val < tol
        ok &= good
        lines.append(f"{'PASS' if good else 'FAIL'} fradkin {name} "
                     f"residual={val:.3e} tol={tol:.1e}")
    return ok


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    rng, seed = _get_rng(args, cfg)
    n_states = _positive_count("states", _merged_option(args, cfg, "audit", "states", 50))
    ics = _positive_count("ics", _merged_option(args, cfg, "audit", "ics", 3))
    t_max = float(_merged_option(args, cfg, "audit", "t_max", 20.0))
    if args.emit_config:
        out = _spec_config(spec)
        out["seed"] = seed
        out["audit"] = {"kind": args.kind, "states": n_states, "ics": ics,
                        "t_max": t_max, "tol": args.tol}
        print(json.dumps(out, indent=2))
        return 0
    lines: list = []
    ok = True
    kinds = (("conservation", "brackets", "rank", "fradkin")
             if args.kind == "all" else (args.kind,))
    for kind in kinds:
        if kind == "conservation":
            ok &= _audit_conservation(spec, rng, ics, t_max, args.tol, lines)
        elif kind == "brackets":
            ok &= _audit_brackets(spec, rng, n_states, args.tol, lines)
        elif kind == "rank":
            ok &= _audit_rank(spec, rng, n_states, args.tol, lines)
        elif kind == "fradkin":
            ok &= _audit_fradkin(spec, rng, n_states, args.tol, lines)
    lines.append("AUDIT " + ("PASS" if ok else "FAIL"))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_closed_orbit(args) -> int:
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    rng, seed = _get_rng(args, cfg)
    t_max = float(_merged_option(args, cfg, "closed_orbit", "t_max", 40.0))
    return_tol = float(_merged_option(args, cfg, "closed_orbit", "return_tol", 1e-4))
    y0_text = _merged_option(args, cfg, "closed_orbit", "y0", "random")
    if isinstance(y0_text, (list, tuple)):
        y0 = np.array([float(v) for v in y0_text])
    else:
        y0 = _parse_y0(str(y0_text), spec, rng)
    if args.emit_config:
        out = _spec_config(spec)
        out["seed"] = seed
        out["closed_orbit"] = {"y0": list(map(float, y0)), "t_max": t_max,
                               "return_tol": return_tol}
        print(json.dumps(out, indent=2))
        return 0
    try:
        result = dynamics.closed_orbit_check(
            spec, y0, t_max, return_tol=return_tol
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-systems": _cmd_list_systems,
        "list-observables": _cmd_list_observables,
        "trajectory": _cmd_trajectory,
        "potential": _cmd_potential,
        "audit": _cmd_audit,
        "closed-orbit": _cmd_closed_orbit,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, dynamics.NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
