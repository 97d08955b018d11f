"""curvedyn benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload conserve --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process, one thread, closed loop: the
next task starts when the previous one has completed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import numpy as np
    import curvedyn  # noqa: F401
except ImportError as exc:
    sys.exit(f"error: cannot import the program from {ROOT}/src: {exc}")

import inputs  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402

STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("conserve", "audit", "cli")
# Latency tail: a fixed percentile, so that runs of different speed compare
# the same statistic.  In a 30-second run every workload leaves at least
# ten tasks beyond it even on a host half as fast as the 2-core host the
# benchmark was tuned on (which completes 550 to 1000 tasks per run).
TAIL_PCT = 95.0
SETUP_REPEATS = 5
MIN_TASKS = {"conserve": 6, "audit": 6, "cli": 7}
# Per-layer counts of the traced run's probe that must repeat exactly.
EXACT_COUNTS = ("systems.rhs_evals", "dynamics.steps", "dynamics.rejected",
                "dynamics.evals_per_step", "dynamics.accept_ratio")
# Host-speed normalization.  The host's speed swings by up to 2x within
# seconds (other tenants share its cores; process CPU time swings with
# it), which would drown the figures in noise.  A fixed reference kernel
# runs after every timed task, and each task time is scaled by
# REFERENCE_S over the rolling median of the kernel times around it: times
# are reported in units of a host on which the kernel takes REFERENCE_S.
REFERENCE_S = 1e-3
ROLLING = 7


IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, curvedyn; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Median import time of numpy and the package in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def build(workload: str, seed: int):
    """Specs, catalogs and inputs of one workload, from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "conserve":
        items = inputs.conserve_inputs(rng, inputs.CONSERVE_POOL)
        keys = [(sid, 1.0) for sid in inputs.SYSTEM_IDS]
    elif workload == "audit":
        items = inputs.audit_inputs(rng, inputs.AUDIT_POOL_CYCLES)
        keys = [(sid, kap) for kap in inputs.KAPPAS for sid in inputs.SYSTEM_IDS]
    else:
        items = inputs.cli_inputs(rng, inputs.CLI_POOL_CYCLES)
        keys = []
    return tasks.Context(keys, STATE_DIR), items


def reference_kernel() -> float:
    """Seconds for 40 classical RK4 steps of a pendulum-like 6-vector field.

    Written against numpy alone, with the library's call pattern (small
    arrays, Python-level rhs calls), so that it slows down with the host
    the way the tasks do, and no change to the library can move it.  The
    garbage collector is off while it runs, so that collecting what the
    previous task left behind is charged to the tasks, not to the kernel.
    """
    def f(y):
        out = np.empty(6)
        out[:3] = y[3:]
        out[3:] = -np.sin(y[0]) * y[:3]
        return out

    y = np.array([0.5, 0.1, 0.2, 0.0, 0.3, 0.1])
    h = 0.01
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(40):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalized(times, kernel_times):
    """Each time scaled by REFERENCE_S / rolling median of the kernel times."""
    half = ROLLING // 2
    out = []
    for i, t in enumerate(times):
        window = kernel_times[max(0, i - half):i + half + 1]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out


class Tally:
    """Latencies, failures and exact counts of one run."""

    def __init__(self):
        self.latencies = []
        self.kernel = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = []

    def fail(self, index, reasons):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append((index, reasons[:5]))


def run_tasks(workload, ctx, items, tally, start, stop=None, seconds=None, timed=True):
    """Run items[start:] in a closed loop until ``stop``, or at least one task and ``seconds``.

    Only the work is timed; the checks run after it, untimed.  A task that
    raises counts as failed and the loop goes on.  Returns the index of the
    next task.
    """
    work = getattr(tasks, f"{workload}_work")
    check = getattr(tasks, f"{workload}_check")
    t_start = perf_counter()
    i = start
    while True:
        if stop is not None and i >= stop:
            break
        if stop is None and i > start and perf_counter() - t_start >= seconds:
            break
        item = items[i % len(items)]
        ctx.tracer.task = i
        tally.attempted += 1
        t0 = perf_counter()
        try:
            result = work(ctx, item)
            elapsed = perf_counter() - t0
            reasons, counts = check(ctx, item, result, i % len(items))
        except (Exception, SystemExit) as exc:
            elapsed = perf_counter() - t0
            reasons, counts = [f"raised {exc!r}", traceback.format_exc(limit=3)], None
        if timed:
            tally.latencies.append(elapsed)
            tally.kernel.append(reference_kernel())
        else:
            tally.counts.append(counts)
        if reasons:
            tally.fail(i, reasons)
        i += 1
    return i


def after_run_checks(ctx, items, tally):
    """Checks judged over the whole run rather than one task."""
    for index, rows in sorted(ctx.adaptive_rows.items()):
        expected = tasks.expected_adaptive_rows(items[index])
        if rows != expected:
            tally.fail(index, [f"{rows} rows, expected {expected}"])
    for reason in tasks.rank_failures(ctx):
        tally.fail(None, [reason])


def percentile(values, pct):
    return float(np.percentile(values, pct))


def latency_metrics(lat):
    return {
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "task_tail_ms": (1e3 * percentile(lat, TAIL_PCT), "ms"),
    }


def end_to_end(workload, tally, raw_setup_s):
    """End-to-end metrics; set-up is scaled by the run's median kernel time,
    which is steadier than a few kernel runs at the moment of set-up."""
    lat = normalized(tally.latencies, tally.kernel)
    setup_s = raw_setup_s * REFERENCE_S / statistics.median(tally.kernel)
    beyond = sum(1 for v in lat if v > percentile(lat, TAIL_PCT))
    print(f"{workload}: {len(lat)} timed tasks, tail = p{TAIL_PCT:g} with {beyond} tasks beyond it")
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics(lat),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_layers(workload, seed, ctx, items, tally, start, seconds):
    """Untraced then traced pass over the same tasks, plus the layer probe."""
    untraced = Tally()
    stop = run_tasks(workload, ctx, items, untraced, start, seconds=seconds / 2.0)
    tracer = spans.Tracer()
    ctx.tracer = tracer
    tracer.install()
    traced = Tally()
    try:
        run_tasks(workload, ctx, items, traced, start, stop=stop)
    finally:
        tracer.uninstall()
    # The probe: the first tasks of every workload, traced, so that each
    # layer is measured on every workload and the counts repeat exactly.
    probe = spans.Tracer()
    probe.install()
    probed = []
    try:
        for other in WORKLOADS:
            octx, oitems = (ctx, items) if other == workload else build(other, seed)
            octx.tracer = probe
            run_tasks(other, octx, oitems, tally, 0, stop=MIN_TASKS[other], timed=False)
            probed.append((octx, oitems))
    finally:
        probe.uninstall()
    for octx, oitems in probed:
        after_run_checks(octx, oitems, tally)
    for t in (untraced, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.failures += t.failures
    metrics = spans.span_metrics([tracer, probe], probe)
    metrics.update(spans.layer_calls(np.random.default_rng([seed, 99])))
    metrics["trace.overhead_frac"] = (sum(normalized(traced.latencies, traced.kernel))
                                      / sum(normalized(untraced.latencies, untraced.kernel)) - 1.0)
    dumps = {"workload": tracer.dump(), "probe": probe.dump()}
    return {name: (metrics[name], unit) for name, unit in spans.UNITS.items()}, dumps


def metadata(calibration_ms):
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unavailable (not a git checkout)"
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {
        "host": platform.node(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "calibration_ms": calibration_ms,
    }


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, to compare hosts."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def source_digest() -> str:
    """Digest of the package's and the benchmark's source files."""
    h = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "curvedyn"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def determinism_check(key: str, record: dict) -> bool:
    """Compare with an earlier run of the same seed, code and workload."""
    path = os.path.join(STATE_DIR, "determinism.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    if key in seen:
        if seen[key] != record:
            print(f"determinism mismatch for {key}: {seen[key]} != {record}", file=sys.stderr)
            return False
        return True
    seen[key] = record
    with open(path, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_s = import_seconds()
    os.makedirs(STATE_DIR, exist_ok=True)

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ctx, items = build(args.workload, args.seed)
        builds.append(perf_counter() - t0)
    raw_setup_s = import_s + statistics.median(builds)

    tally = Tally()
    # Warm-up: the first tasks run untimed; their exact counts feed the
    # determinism check.
    start = run_tasks(args.workload, ctx, items, tally, 0, stop=MIN_TASKS[args.workload], timed=False)
    record = {"inputs": inputs.digest(items), "counts": tally.counts}
    key = f"{args.workload}:seed={args.seed}:src={source_digest()}"
    deterministic = determinism_check(key, record)

    dumps = None
    if args.trace:
        metrics, dumps = traced_layers(args.workload, args.seed, ctx, items, tally, start, args.seconds)
        exact = {name: metrics[name][0] for name in EXACT_COUNTS}
        deterministic &= determinism_check(key + ":probe", exact)
    else:
        run_tasks(args.workload, ctx, items, tally, start, seconds=args.seconds)
        after_run_checks(ctx, items, tally)
        metrics = end_to_end(args.workload, tally, raw_setup_s)

    meta = metadata(calibrate())
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                import_s=import_s, setup_builds_s=builds,
                determinism=record, failures=tally.failures)
    if tally.latencies:
        meta["kernel_median_s"] = statistics.median(tally.kernel)
        meta["raw"] = {"setup_s": raw_setup_s,
                       **{k: v for k, (v, _) in latency_metrics(tally.latencies).items()}}
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE_DIR, out_name), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "trace": dumps}, fh, default=str)
    for index, reasons in tally.failures:
        print(f"task {index} failed: {reasons[0]}", file=sys.stderr)
    # A layer no task reached has no figure; report 0 and fail the run
    # rather than print a NaN, which is not JSON.
    unmeasured = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    for name in unmeasured:
        print(f"metric {name} was not measured", file=sys.stderr)
        metrics[name] = (0.0, metrics[name][1])
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "failures"}}, default=str))
    result = {
        "correct": tally.failed == 0 and deterministic and not unmeasured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
