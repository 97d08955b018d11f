"""Command line interface: outputs, exit codes, config merging, seeds."""
import inspect
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import curvedyn
from curvedyn import cli, dynamics, systems
from curvedyn.cli import main
from curvedyn.dynamics import DEFAULT_METHOD, METHODS, integrate
from curvedyn.geometry import PhaseState, to_rho_chart
from curvedyn.systems import SYSTEM_IDS, make_system, rho_chart_rhs

OSC_BOUND_Y0 = "0.8,1.2,0.4,0.15,0.3,0.35"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_systems(capsys):
    code, out, _ = run(capsys, "list-systems")
    assert code == 0
    for sid in ("free", "oscillator", "sw", "osc112", "kepler", "kepler123"):
        assert sid in out
    assert "alpha" in out and "k1" in out


def test_list_observables(capsys):
    code, out, _ = run(
        capsys, "list-observables", "--system", "kepler123",
        "--kappa", "-1", "--k", "-1", "--k1", "0.1", "--k2", "0.2", "--k3", "0.3",
    )
    assert code == 0
    assert "integrals:" in out and "KR1" in out and "KJ3" in out
    assert "auxiliary:" in out and "R1" in out
    assert "independence primary:" in out


def test_trajectory_csv(capsys):
    code, out, err = run(
        capsys, "trajectory", "--system", "oscillator", "--kappa", "1",
        "--alpha", "1", "--y0", OSC_BOUND_Y0, "--t-max", "2.0", "--tol", "1e-10",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,theta,phi,p_r,p_theta,p_phi"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.8
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)


def test_trajectory_every(capsys):
    args = ("trajectory", "--system", "oscillator", "--kappa", "1",
            "--alpha", "1", "--y0", OSC_BOUND_Y0, "--t-max", "2.0")
    _, full, _ = run(capsys, *args)
    _, thinned, _ = run(capsys, *args, "--every", "5")
    n_full = len(full.strip().splitlines()) - 1
    n_thin = len(thinned.strip().splitlines()) - 1
    assert n_thin == math.ceil(n_full / 5)


def test_trajectory_rho_chart(capsys):
    code, out, _ = run(
        capsys, "trajectory", "--system", "oscillator", "--kappa", "1",
        "--alpha", "1", "--y0", "0.8,1.2,0.4,0.15,0.3,0.35", "--chart", "rho",
        "--t-max", "1.0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,rho,theta,phi,p_rho,p_theta,p_phi"
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(math.sin(0.8), rel=1e-15)


def test_trajectory_rows_are_the_library_run(capsys):
    """Each row is %.17g of every N-th sample of the same integrate run,
    in the base and in the rho chart."""
    spec = make_system("oscillator", 1.0)
    y0 = np.array([float(v) for v in OSC_BOUND_Y0.split(",")])
    base = integrate(systems.hamilton_rhs(spec), y0, (0.0, 2.0))
    rho_y0 = to_rho_chart(1.0, PhaseState.from_array(y0)).as_array()
    rho = integrate(rho_chart_rhs(spec), rho_y0, (0.0, 2.0))
    args = ("trajectory", "--system", "oscillator", "--kappa", "1", "--y0", OSC_BOUND_Y0,
            "--t-max", "2")
    for extra, traj, every in (((), base, 1), (("--every", "3"), base, 3),
                               (("--chart", "rho"), rho, 1)):
        code, out, err = run(capsys, *args, *extra)
        assert code == 0 and err == ""
        expected = [",".join("%.17g" % v for v in (t, *y))
                    for t, y in zip(traj.times[::every], traj.states[::every])]
        assert out.splitlines()[1:] == expected, extra


def test_repeated_main_calls_match_first_calls(capsys):
    """In-process calls, one of them failing, leave no state behind: each
    prints what the same call prints first thing in a new interpreter."""
    base = ["trajectory", "--system", "oscillator", "--kappa", "1", "--y0", OSC_BOUND_Y0,
            "--t-max", "1"]
    calls = (base + ["--every", "3"], base + ["--every", "0"], base)
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvedyn.__file__)))
    script = "import sys; from curvedyn.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), argv


def test_library_calls_go_through_module_attributes(capsys, monkeypatch):
    """The CLI looks up its library entry points on their modules at call
    time, so a wrapper set on the module (a tracer, say) sees every call."""
    seen = []

    def spy(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((dynamics, "integrate"), (dynamics, "closed_orbit_check"),
                         (systems, "potential_profile"), (systems, "hamilton_rhs"),
                         (systems, "rho_chart_rhs")):
        spy(module, name)
    y0 = ("--y0", OSC_BOUND_Y0)
    for argv, names in (
        (("trajectory", "--system", "oscillator", *y0, "--t-max", "0.5"),
         ["hamilton_rhs", "integrate"]),
        (("trajectory", "--system", "oscillator", *y0, "--t-max", "0.5", "--chart", "rho"),
         ["rho_chart_rhs", "integrate"]),
        (("potential", "--system", "oscillator", "--n", "3"), ["potential_profile"]),
        (("closed-orbit", "--system", "free", "--y0", "1,1.5707963267948966,0,0,0,1",
          "--t-max", "8"), ["closed_orbit_check"]),
    ):
        seen.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and seen[:len(names)] == names, (argv, seen)


def test_trajectory_truncated_exit_code(capsys):
    """A run cut short, by a collision or a failed implicit solve, exits 1."""
    cases = (
        ("--k", "-1", "--y0", "1,1.5707963267948966,0,0,0,0", "--t-max", "3"),
        ("--y0", "0.3,1.2,0.4,0.9,0.3,0.35", "--method", "implicit_midpoint",
         "--dt", "1.0", "--t-max", "1"),
    )
    for extra in cases:
        code, out, err = run(capsys, "trajectory", "--system", "kepler", "--kappa", "0", *extra)
        assert code == 1
        assert err.startswith("warning: trajectory truncated: ") and err.count("\n") == 1, err
        assert out.startswith("t,r")


def test_flat_overflow_truncates_without_traceback(capsys):
    """At kappa = 0 a state that overflows to infinity truncates the run
    instead of raising ZeroDivisionError from the kernels."""
    code, out, err = run(capsys, "trajectory", "--system", "free", "--kappa", "0",
                         "--y0", "1e-3,1,0,0,1e150,1", "--t-max", "1")
    assert code == 1
    assert err == "warning: trajectory truncated: non-finite state\n", err
    assert out.startswith("t,r")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_prints_no_runtime_warning(capsys):
    """The truncation line is the only stderr line of a run that turns
    non-finite: numpy's invalid-value warnings stay silent, so even as
    errors they do not end the run."""
    code, out, err = run(capsys, "trajectory", "--system", "free", "--kappa", "0",
                         "--y0", "1e-3,1,0,0,1e150,1", "--t-max", "1")
    assert code == 1
    assert err == "warning: trajectory truncated: non-finite state\n", err
    assert out.startswith("t,r")


def test_library_errors_print_error_line(capsys):
    """Library ValueErrors exit 2 with one stderr line."""
    base = ("trajectory", "--system", "oscillator", "--kappa", "1", "--t-max", "1")
    cases = (
        ("--y0", "nan,1.2,0.4,0.15,0.3,0.35"),
        ("--y0", OSC_BOUND_Y0, "--method", "rk4_fixed"),
        ("--kappa", "nan"),
        ("--alpha", "inf"),
    )
    for extra in cases:
        code, out, err = run(capsys, *base, *extra)
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_trajectory_deterministic_rerun(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ("trajectory", "--system", "sw", "--kappa", "0.7", "--alpha", "1",
            "--k1", "0.1", "--k2", "0.2", "--k3", "0.3", "--y0", "random",
            "--t-max", "3.0", "--seed", "42")
    assert main(list(args) + ["--output", str(out1)]) == 0
    assert main(list(args) + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    out3 = tmp_path / "c.csv"
    args_other = args[:-1] + ("43",)
    assert main(list(args_other) + ["--output", str(out3)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() != out3.read_bytes()


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    args = ("trajectory", "--system", "oscillator", "--kappa", "1",
            "--alpha", "1", "--y0", "random", "--t-max", "1.0")
    monkeypatch.setenv("CURVEDYN_SEED", "777")
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    assert main(list(args) + ["--output", str(out1)]) == 0
    monkeypatch.setenv("CURVEDYN_SEED", "778")
    assert main(list(args) + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() != out2.read_bytes()
    # An explicit flag beats the environment.
    out3 = tmp_path / "e3.csv"
    monkeypatch.setenv("CURVEDYN_SEED", "777")
    assert main(list(args) + ["--seed", "778", "--output", str(out3)]) == 0
    capsys.readouterr()
    assert out2.read_bytes() == out3.read_bytes()


def test_emit_config_round_trip(tmp_path, capsys):
    """Every key --emit-config writes is read back: the file replays the run."""
    runs = (
        (("trajectory", "--system", "kepler", "--kappa", "-1", "--k", "-1",
          "--y0", "0.9,1.3,0.2,0.1,0.25,0.45", "--t-max", "2.0",
          "--tol", "1e-11", "--seed", "9"),
         {"k": -1.0}, {"tol": 1e-11}),
        (("audit", "--system", "free", "--kappa", "0.7", "--kind", "rank",
          "--tol", "1e-4", "--states", "10", "--seed", "9"),
         {}, {"kind": "rank", "tol": 1e-4}),
    )
    for args, params, entries in runs:
        code, out, _ = run(capsys, *args, "--emit-config")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["schema_version"] == 1
        assert cfg["system"] == args[2] and cfg["params"] == params
        assert {k: cfg[args[0]][k] for k in entries} == entries
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(out)

        direct = tmp_path / "direct.csv"
        via_cfg = tmp_path / "via_cfg.csv"
        assert main(list(args) + ["--output", str(direct)]) == 0
        assert main([args[0], "--config", str(cfg_path), "--output", str(via_cfg)]) == 0
        capsys.readouterr()
        assert direct.read_bytes() == via_cfg.read_bytes(), args[0]


def test_trajectory_default_method_is_the_library_default(capsys):
    """trajectory resolves method to DEFAULT_METHOD, the default of
    integrate too, so a run without --method integrates as integrate does."""
    code, out, _ = run(capsys, "trajectory", "--system", "free", "--y0", OSC_BOUND_Y0,
                       "--emit-config")
    assert code == 0
    assert json.loads(out)["trajectory"]["method"] == DEFAULT_METHOD
    assert inspect.signature(integrate).parameters["method"].default == DEFAULT_METHOD


def test_cli_flag_overrides_config(tmp_path, capsys):
    code, out, _ = run(
        capsys, "trajectory", "--system", "kepler", "--kappa", "-1", "--k", "-1",
        "--y0", "0.9,1.3,0.2,0.1,0.25,0.45", "--t-max", "2.0", "--emit-config",
    )
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(out)
    code, out, _ = run(
        capsys, "trajectory", "--config", str(cfg_path), "--t-max", "5.0",
        "--emit-config",
    )
    assert code == 0
    assert json.loads(out)["trajectory"]["t_max"] == 5.0


def test_config_bad_schema_version(tmp_path, capsys):
    """A wrong schema_version, an unknown system in a config, a missing
    --system, a short --y0, and a bad value in a config file or a flag
    exit 2."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "system": "free"}))
    assert_cli_error(capsys, ["trajectory", "--config", str(bad)],
                     "config schema_version must be 1, got 99")
    bad.write_text(json.dumps({"schema_version": 1, "system": "harmonic"}))
    assert_cli_error(capsys, ["potential", "--config", str(bad)],
                     "unknown system 'harmonic'")
    assert_cli_error(capsys, ["trajectory", "--y0", OSC_BOUND_Y0], "--system is required")
    assert_cli_error(capsys, ["trajectory", "--system", "free", "--y0", "1,2"],
                     "--y0 needs six comma-separated values")
    # Config values pass the same checks as flags.
    for entries, fragment in (
        ({"trajectory": {"chart": "bogus"}}, "--chart must be one of base, rho, got 'bogus'"),
        ({"trajectory": {"every": 2.5}}, "--every must be a positive integer, got 2.5"),
        ({"trajectory": {"y0": [0.7, 1.1]}}, "--y0 needs six comma-separated values"),
        ({"params": [1]}, "config 'params' must be a JSON object"),
    ):
        bad.write_text(json.dumps({"schema_version": 1, "system": "oscillator", **entries}))
        assert_cli_error(capsys, ["trajectory", "--config", str(bad), "--t-max", "0.1"],
                         fragment)
    # A bad flag value prints one error line, not argparse's usage.
    assert_cli_error(capsys, ["trajectory", "--system", "free", "--kappa", "abc"],
                     "--kappa must be a number, got 'abc'")
    assert_cli_error(capsys, ["audit", "--system", "free", "--kind", "bogus"],
                     "--kind must be one of conservation, brackets, rank, fradkin, all")


def test_potential_csv(capsys):
    code, out, _ = run(
        capsys, "potential", "--system", "kepler", "--kappa", "0", "--k", "-1",
        "--r-min", "0.5", "--r-max", "2.5", "--n", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,V"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 5
    for r, v in rows:
        assert v == pytest.approx(-1.0 / r, rel=1e-15)


def test_potential_nan_sentinel(capsys):
    code, out, _ = run(
        capsys, "potential", "--system", "oscillator", "--kappa", "1",
        "--alpha", "1", "--r-min", "1.5707963267948966", "--r-max", "2.5",
        "--n", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].endswith(",nan")
    assert not lines[2].endswith(",nan")


def test_parameter_overflow_prints_error_line(capsys):
    """A finite parameter so large that its square overflows (alpha**2 in
    the oscillator potential, (alpha w_i)**2 in K_ij) used to end in an
    OverflowError traceback; it exits 2 with one error line.  An alpha of
    1e154 passes make_system, but (alpha w_i)**2 overflows where w_i >
    1.34, and the error read "(34, 'Numerical result out of range')"; at
    a state where every K_ii fits, the products of K's entries overflowed
    into NaN residuals and FAIL lines, with exit status 1."""
    cases = (
        ("trajectory", "--system", "oscillator", "--alpha", "1e200", "--t-max", "1"),
        ("potential", "--system", "oscillator", "--alpha", "1e200", "--n", "3"),
        ("audit", "--system", "oscillator", "--alpha", "1e200"),
        ("audit", "--system", "oscillator", "--kappa", "1", "--alpha", "1e160",
         "--kind", "fradkin", "--states", "2"),
        ("audit", "--system", "oscillator", "--kappa", "1", "--alpha", "1e154",
         "--kind", "fradkin", "--states", "5"),
        # Every K_ii fits at these states, but K's products overflow.
        ("audit", "--system", "oscillator", "--kappa", "1", "--alpha", "1e154",
         "--kind", "fradkin", "--states", "1", "--seed", "1"),
        ("audit", "--system", "oscillator", "--kappa", "1", "--alpha", "1e153",
         "--kind", "fradkin", "--states", "5"),
    )
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # make_system and K_ii reject an alpha too large, by name.
        assert err.startswith(f"error: alpha = {float(argv[argv.index('--alpha') + 1])!r} "
                              "is too large"), err
    with pytest.raises(OverflowError, match=r"^alpha = 1e\+154 is too large: .* in K_11$"):
        dynamics.fradkin_audit(1.0, 1e154, [1.2, 1.5, 0.1, 0.1, 0.2, 0.3])


def test_rank_audit_overflow_names_the_observable(capsys):
    """At alpha = 1e154 the rank audit's K_ii gradients overflow: it used to
    print "error: SVD did not converge"; the error line names the
    observable whose gradient is not finite."""
    code, out, err = run(capsys, "audit", "--system", "oscillator", "--kappa", "1",
                         "--alpha", "1e154", "--kind", "rank", "--states", "5", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: the gradient of K") and err.count("\n") == 1, err


def test_infinite_coordinate_truncates_with_warning(capsys):
    """A momentum of 1e200 drives the radius of a stage to infinity, where
    math.sin raises ValueError; every method truncates with the warning
    line and exits 1 (it printed "error: math domain error" and exited 2)."""
    y0 = "0.8,1.2,0.4,0.15,1e200,0.35"
    for method in METHODS:
        dt = () if method in dynamics._ADAPTIVE else ("--dt", "0.01")
        code, out, err = run(capsys, "trajectory", "--system", "free", "--kappa", "1",
                             "--y0", y0, "--t-max", "1", "--method", method, *dt)
        assert code == 1, method
        assert err == "warning: trajectory truncated: non-finite state\n", (method, err)
        assert out.startswith("t,r")


def test_audit_fradkin_nan_residual_fails(capsys, monkeypatch):
    """A NaN residual at any state is the worst one, so its line reads FAIL
    and the audit exits 1 (the maximum started from 0.0 and dropped every
    NaN, so it passed).  Overflow no longer gives one (alpha = 1e153 now
    exits 2 naming alpha, test_parameter_overflow_prints_error_line), so
    the NaN comes from the real audit with its det set to NaN at the third
    of five states."""
    real, calls = dynamics.fradkin_audit, []

    def audit(kappa, alpha, s):
        calls.append(s)
        res = real(kappa, alpha, s)
        if len(calls) == 3:
            res["det"] = math.nan
        return res

    monkeypatch.setattr(dynamics, "fradkin_audit", audit)
    code, out, _ = run(capsys, "audit", "--system", "oscillator", "--kappa", "1",
                       "--alpha", "1.3", "--kind", "fradkin", "--states", "5")
    assert code == 1 and len(calls) == 5
    lines = out.splitlines()
    assert "FAIL fradkin det residual=nan tol=1.0e-10" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "AUDIT FAIL"


def test_audit_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, "audit", "--system", "free", "--kappa", "0.7",
        "--kind", "brackets", "--states", "30",
    )
    assert code == 0
    assert out.strip().endswith("AUDIT PASS")
    assert "PASS bracket" in out


def test_audit_fail_exit_one(capsys):
    code, out, _ = run(
        capsys, "audit", "--system", "free", "--kappa", "0.7",
        "--kind", "brackets", "--states", "30", "--tol", "1e-18",
    )
    assert code == 1
    assert out.strip().endswith("AUDIT FAIL")
    assert "FAIL bracket" in out


def test_audit_conservation_lines(capsys):
    code, out, _ = run(
        capsys, "audit", "--system", "oscillator", "--kappa", "0.7",
        "--alpha", "1", "--kind", "conservation", "--ics", "1", "--t-max", "5",
    )
    assert code == 0
    assert "PASS conservation run0 J3 rel_drift=" in out
    assert "PASS conservation run0 H rel_drift=" in out


def test_audit_rank_and_fradkin(capsys):
    code, out, _ = run(
        capsys, "audit", "--system", "oscillator", "--kappa", "-0.3",
        "--alpha", "1", "--kind", "rank", "--states", "40",
    )
    assert code == 0
    assert "rank primary fraction=" in out
    code, out, _ = run(
        capsys, "audit", "--system", "oscillator", "--kappa", "-0.3",
        "--alpha", "1", "--kind", "fradkin", "--states", "40",
    )
    assert code == 0
    assert "fradkin trace" in out and "fradkin minor3" in out
    code, out, _ = run(
        capsys, "audit", "--system", "kepler", "--kappa", "1",
        "--kind", "fradkin",
    )
    assert code == 0
    assert "SKIP fradkin" in out


def test_closed_orbit_found(capsys):
    code, out, _ = run(
        capsys, "closed-orbit", "--system", "oscillator", "--kappa", "1",
        "--alpha", "1", "--y0", OSC_BOUND_Y0, "--t-max", "40",
    )
    assert code == 0
    assert out.startswith("FOUND period=")
    assert "distance=" in out


def test_closed_orbit_not_found(capsys):
    code, out, _ = run(
        capsys, "closed-orbit", "--system", "free", "--kappa", "0",
        "--y0", "1,1.5707963267948966,0,0.5,0,0.3", "--t-max", "10",
    )
    assert code == 1
    assert out.startswith("NOT FOUND best_distance=")


def assert_cli_error(capsys, argv, fragment):
    """The command prints one "error: ..." line naming fragment and exits 2."""
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, err


def test_config_file_missing_or_unreadable(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert_cli_error(capsys, ["trajectory", "--config", missing],
                     f"cannot read config file {missing!r}")
    assert_cli_error(capsys, ["audit", "--config", str(tmp_path)], "cannot read config file")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_cli_error(capsys, ["potential", "--config", str(bad)], "is not valid JSON")


def test_unwritable_output(tmp_path, capsys):
    """An output path that cannot be opened is an error, not a traceback."""
    base = ["potential", "--system", "kepler", "--kappa", "1", "--n", "3"]
    for path in (tmp_path, tmp_path / "absent" / "out.csv"):
        assert_cli_error(capsys, base + ["--output", str(path)],
                         f"cannot write output file {str(path)!r}")


def test_trajectory_every_must_be_positive(tmp_path, capsys):
    base = ["trajectory", "--system", "oscillator", "--kappa", "1", "--y0", OSC_BOUND_Y0]
    for every in ("0", "-3"):
        assert_cli_error(capsys, base + ["--every", every], "--every must be a positive integer")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema_version": 1, "system": "oscillator",
                               "trajectory": {"every": 0}}))
    assert_cli_error(capsys, ["trajectory", "--config", str(cfg)], "--every must be")


def test_audit_states_must_be_positive(capsys):
    assert_cli_error(
        capsys, ["audit", "--system", "free", "--kappa", "0.7", "--kind", "rank", "--states", "0"],
        "--states must be a positive integer, got 0",
    )


def test_potential_n_must_be_positive(capsys):
    assert_cli_error(
        capsys, ["potential", "--system", "kepler", "--kappa", "1", "--n", "0"],
        "--n must be a positive integer, got 0",
    )


def test_potential_non_finite_input(capsys):
    """A NaN radius or angle used to print NaN rows and exit 0, an
    infinite radius only "error: math domain error"."""
    base = ["potential", "--n", "3"]
    cases = (
        (["--system", "kepler", "--kappa", "1", "--r-min", "nan"], "--r-min must be finite, got 'nan'"),
        (["--system", "kepler", "--kappa", "1", "--r-max", "inf"], "--r-max must be finite, got 'inf'"),
        (["--system", "sw", "--k1", "0.1", "--theta", "nan"], "--theta must be finite, got 'nan'"),
        (["--system", "oscillator", "--phi=-inf"], "--phi must be finite, got '-inf'"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *(base + argv))
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


# Configs --emit-config used to print with exit 0 although the run they
# describe exits 2, and the error the run gives.
_UNREPLAYABLE = (
    (["trajectory", "--system", "sw", "--chart", "rho"],
     "chart forms require a radial potential"),
    (["trajectory", "--system", "free", "--method", "rk4_fixed"],
     "method 'rk4_fixed' requires an explicit dt"),
    (["trajectory", "--system", "oscillator", "--chart", "rho", "--kappa", "1",
      "--y0", "2.0,1.2,0.4,0.15,0.3,0.35"], "chart transform requires cos_k(r) > 0"),
    (["trajectory", "--system", "free", "--y0", "nan,1.2,0.4,0.15,0.3,0.35"],
     "--y0 must be finite, got 'nan'"),
    (["closed-orbit", "--system", "free", "--y0", "1.0,1.2,0.4,0.15,inf,0.35"],
     "--y0 must be finite, got 'inf'"),
    (["trajectory", "--system", "free", "--t-max", "-1"],
     "--t-max must be positive and finite, got '-1'"),
    (["trajectory", "--system", "free", "--tol", "0"], "--tol must be positive and finite"),
    (["trajectory", "--system", "free", "--method", "rk4_fixed", "--dt", "-0.1"],
     "--dt must be positive and finite"),
    (["audit", "--system", "free", "--t-max", "0"], "--t-max must be positive and finite"),
    (["closed-orbit", "--system", "free", "--t-max", "inf"],
     "--t-max must be positive and finite"),
    (["closed-orbit", "--system", "free", "--return-tol", "0"],
     "--return-tol must be positive and finite"),
)


@pytest.mark.parametrize("argv, message", _UNREPLAYABLE,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _ in _UNREPLAYABLE])
def test_emit_config_writes_only_a_run_that_starts(capsys, argv, message):
    """The trajectory builds its chart state and rhs and passes integrate's
    argument checks before it emits, and times and tolerances convert as
    positive finite numbers, so --emit-config fails as the run would."""
    assert_cli_error(capsys, argv + ["--emit-config"], message)


def test_audit_tol_must_be_positive_and_finite(tmp_path, capsys, monkeypatch):
    """--tol -1 or 0 used to pass the rank audit, inf every audit."""
    base = ["audit", "--system", "free", "--kappa", "0.7", "--kind", "rank", "--states", "3"]
    for tol in ("-1", "0", "nan", "inf"):
        assert_cli_error(capsys, base + ["--tol", tol],
                         f"--tol must be positive and finite, got {tol!r}")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema_version": 1, "system": "free", "audit": {"tol": -1}}))
    assert_cli_error(capsys, ["audit", "--config", str(cfg)], "--tol must be positive")
    # A rank threshold must also lie below 1, which is checked before any
    # audit runs: --kind all used to run the conservation and bracket
    # audits to the end first.
    ran = []
    for kind, audit in list(cli._AUDITS.items()):
        monkeypatch.setitem(cli._AUDITS, kind, lambda *a, kind=kind, audit=audit: ran.append(kind) or audit(*a))
    for kind in ("rank", "all"):
        argv = ["audit", "--system", "oscillator", "--kappa", "1", "--kind", kind, "--tol", "2"]
        assert_cli_error(capsys, argv, "--tol must be below 1 for the rank audit, got 2.0")
    assert ran == []
    # Every other audit takes a tolerance of 1 or more.
    code, out, _ = run(capsys, "audit", "--system", "oscillator", "--kappa", "1", "--kind", "fradkin",
                       "--states", "3", "--tol", "2")
    assert code == 0 and out.endswith("AUDIT PASS\n")
    assert ran == ["fradkin"]


def test_random_state_beyond_kappa_limit(capsys):
    """Random states need pi/sqrt(kappa) - 0.15 > 0.15, i.e. kappa < 109.66,
    and at margin 0.05 a radius with |cos_k(r)| >= 0.05, i.e. kappa < 102.79."""
    assert_cli_error(
        capsys, ["trajectory", "--system", "oscillator", "--kappa", "200", "--t-max", "1"],
        "kappa < 109.662, got kappa = 200.0",
    )
    assert_cli_error(
        capsys, ["trajectory", "--system", "free", "--kappa", "105"],
        "kappa < 102.789 at margin = 0.05, and at any margin kappa < 109.662, got kappa = 105.0",
    )


# ---------------------------------------------------------------------------
# Property: any mix of flags and config entries, each valid, out of range,
# of the wrong type or missing, ends in status 0, 1 or 2, and a 2 prints
# one error line and nothing else.

_FLOAT_JUNK = (True, "abc", "", [1.0], {"x": 1})
_INT_JUNK = _FLOAT_JUNK + (2.5,)
_CHOICE_JUNK = (5, True, ["free"])
# option: (valid values, out-of-range values, wrong-type config values).
# The valid values keep every run short.
_SPACE = {
    "system": (st.sampled_from(SYSTEM_IDS), ("harmonic",), _CHOICE_JUNK),
    "kappa": (st.sampled_from((-1.0, -0.3, 0.0, 0.7, 1.0, -1e-05, "-1E-5")),
              (200.0, math.inf, -math.inf, math.nan), _FLOAT_JUNK),
    "alpha": (st.floats(0.5, 2.0), (math.nan,), _FLOAT_JUNK),
    "k": (st.floats(-2.0, -0.5), (math.nan,), _FLOAT_JUNK),
    **{name: (st.floats(0.05, 0.3), (math.nan,), _FLOAT_JUNK) for name in ("k1", "k2", "k3")},
    "seed": (st.integers(0, 2**32 - 1), (-1,), _INT_JUNK),
    "y0": (st.sampled_from(("random", [-0.8, 1.2, 0.4, 0.15, 0.3, 0.35],
                            [0.8, 1.2, 0.4, 0.15, 0.3, 0.35])),
           ([0.7, 1.1], [math.nan] * 6), (True, 5, "abc", {"x": 1})),
    "t_max": (st.floats(0.01, 0.05), (-1.0, 0.0, math.nan, -1e300), _FLOAT_JUNK),
    "method": (st.sampled_from(METHODS), ("euler",), _CHOICE_JUNK),
    "tol": (st.floats(1e-10, 1e-6), (0.0, -1.0, math.inf, -1e-07), _FLOAT_JUNK),
    "dt": (st.floats(0.01, 0.05), (0.0, -0.01, -1e-05), _FLOAT_JUNK),
    "every": (st.integers(1, 4), (0, -3), _INT_JUNK),
    "chart": (st.sampled_from(("base", "rho")), ("bogus",), _CHOICE_JUNK),
    "r_min": (st.floats(0.1, 1.0), (math.nan, -1.0), _FLOAT_JUNK),
    "r_max": (st.floats(1.0, 2.0), (math.inf,), _FLOAT_JUNK),
    "n": (st.integers(1, 20), (0,), _INT_JUNK),
    "theta": (st.floats(0.1, 3.0), (math.inf,), _FLOAT_JUNK),
    "phi": (st.floats(0.0, 6.0), (math.nan,), _FLOAT_JUNK),
    "kind": (st.sampled_from(("conservation", "brackets", "rank", "fradkin", "all")),
             ("bogus",), _CHOICE_JUNK),
    "states": (st.integers(1, 3), (0,), _INT_JUNK),
    "ics": (st.just(1), (0,), _INT_JUNK),
    "return_tol": (st.floats(1e-6, 1e-2), (-1.0,), _FLOAT_JUNK),
}
_OPTIONS = {
    "list-observables": (),
    "trajectory": ("seed", "y0", "t_max", "method", "tol", "dt", "every", "chart"),
    "potential": ("r_min", "r_max", "n", "theta", "phi"),
    "audit": ("seed", "kind", "states", "ics", "t_max", "tol"),
    "closed-orbit": ("seed", "y0", "t_max", "return_tol"),
}
_TOP_LEVEL = ("system", "kappa", "seed")
_PARAMS = ("alpha", "k", "k1", "k2", "k3")
# One of flag and config always sets these: their defaults make long runs,
# and an unset system only repeats one error.
_ALWAYS_SET = ("system", "t_max", "states", "ics", "n")


@st.composite
def _cli_run(draw, command):
    """argv and config of one run: up to two options get a bad value, as a
    flag, a config entry or both; the others are valid or missing."""
    names = ("system", "kappa", *_PARAMS, *_OPTIONS[command])
    bad = draw(st.sets(st.sampled_from(names), max_size=2))
    argv, cfg = [command], {"schema_version": 1}
    for name in names:
        valid, out_of_range, junk = _SPACE[name]
        kinds = ("out of range", "wrong type") if name in bad else ("missing", "valid")
        flag, entry = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
        if name in _ALWAYS_SET and flag == entry == "missing":
            flag = "valid"
        if flag == "wrong type":
            argv.append(f"--{name.replace('_', '-')}=" + draw(st.sampled_from(("abc", "", "[1]"))))
        elif flag != "missing":
            value = draw(valid if flag == "valid" else st.sampled_from(out_of_range))
            text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
            # "--name value" reads a negative value in any float form, -1e-05,
            # -1E-5, -inf or a --y0 list led by one, as "--name=value" does.
            option = f"--{name.replace('_', '-')}"
            argv += draw(st.sampled_from(([f"{option}={text}"], [option, text])))
        if entry != "missing":
            value = draw({"valid": valid, "out of range": st.sampled_from(out_of_range),
                          "wrong type": st.sampled_from(junk)}[entry])
            if name in _PARAMS:
                cfg.setdefault("params", {})[name] = value
            elif name in _TOP_LEVEL or draw(st.booleans()):
                cfg[name] = value
            else:
                cfg.setdefault(command.replace("-", "_"), {})[name] = value
    if draw(st.booleans()):
        argv.append("--emit-config")
    return argv, cfg


@pytest.mark.parametrize("command", list(_OPTIONS))
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_and_config_space(command, data, tmp_path):
    argv, cfg = data.draw(_cli_run(command))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
