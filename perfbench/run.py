#!/usr/bin/env python3
"""geomwave benchmark: one workload, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` (nothing is installed).  Every workload is a closed loop: one
process, one op in flight.  Ops run in whole cycles of the workload's fixed
configuration mix until ``--seconds`` have passed, and every op's output is
checked.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
prints the per-layer metrics: a third of the time runs untraced, the rest with
span tracing on (see spans.py), and the spans of the first ops are written to
``perfbench/out/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Every time reported is
corrected for the host's speed (see ``HostClock``).
"""

import os

# Pin numpy's thread pools before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-ups timed per run, spread over it; setup_s is their median.
SETUP_REPS = 5
# Host speed: a calibration sample taking CAL_REF_S defines the reference
# host.  BRACKET_SAMPLES are taken between timed stretches, and one every
# SAMPLE_EVERY_S while a child process runs (see HostClock).
CAL_REF_S = 0.001
BRACKET_SAMPLES = 3
SAMPLE_EVERY_S = 0.05
# Interpreter start-ups timed for cli.startup_ms in a traced run.
STARTUP_REPS = 3


def calibration_sample() -> float:
    """Time a fixed kernel of the geometry kernel's kind, about a millisecond
    long: Python-level calls of small numpy functions on 3-vectors.  It uses
    no geomwave code, so a change to the program leaves it as it is."""
    a, b = np.array([0.3, 0.4, 0.5]), np.array([0.1, -0.2, 0.9])
    t0 = perf_counter()
    for _ in range(40):
        c = np.cross(a, b)
        float(np.dot(a, b)) + float(np.linalg.norm(c))
    return perf_counter() - t0


class HostClock:
    """Times regions in seconds of a reference host.

    The vCPUs of a shared host switch between a fast and a slow state, up to
    2x apart, for a fraction of a second to minutes at a time; process CPU
    time slows with wall time.  So each timed stretch is divided by the mean
    time of the calibration samples taken on the same CPU right before it,
    during it and right after it, and scaled to a host on which a sample takes
    ``CAL_REF_S``.  A region that runs for seconds may call ``mark()`` at its
    own step boundaries, so that it is timed as several shorter stretches, and
    waits for its child processes with ``wait()``, which samples while they
    run.  The samples between stretches are not timed.
    """

    def __init__(self):
        self.before = self._bracket()
        self.during = []
        self.t0 = self.wall = self.ref = 0.0

    @staticmethod
    def _bracket():
        return [calibration_sample() for _ in range(BRACKET_SAMPLES)]

    def mark(self):
        """End the current stretch of the region being timed and start the
        next one."""
        dt = perf_counter() - self.t0
        after = self._bracket()
        cal = statistics.fmean(self.before + self.during + after)
        self.wall += dt
        self.ref += dt * CAL_REF_S / cal
        self.before, self.during = after, []
        self.t0 = perf_counter()

    def wait(self, pid: int):
        """``os.wait4(pid, 0)``, taking a calibration sample about every
        ``SAMPLE_EVERY_S`` until the child ends."""
        fd = os.pidfd_open(pid)
        try:
            while not select.select([fd], [], [], SAMPLE_EVERY_S)[0]:
                self.during.append(calibration_sample())
        finally:
            os.close(fd)
        return os.wait4(pid, 0)

    def time(self, fn):
        """Run ``fn``; return its result, its wall time and its reference
        time, both in seconds."""
        self.wall = self.ref = 0.0
        self.t0 = perf_counter()
        try:
            out = fn()
        finally:
            self.mark()
        return out, self.wall, self.ref


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="set up (inputs, banks, one warm-up op) and exit; used to time setup_s",
    )
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: str, in_process: bool = False):
    """Make the workload's inputs from the seed and run one warm-up op."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.in_process = in_process
    try:
        wl.check(0, wl.op(0))
    except Exception:
        traceback.print_exc()
    wl.counters.clear()
    return wl


def time_setup(name: str, seed: int, clock: HostClock) -> tuple[float, float]:
    """Wall and reference time of a fresh process that only sets up:
    interpreter start, imports, input generation, bank building, one warm-up
    op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]

    def run():
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            return os.waitstatus_to_exitcode(clock.wait(proc.pid)[1])
        except BaseException:
            proc.terminate()  # the child then removes its own work directory
            proc.wait()
            raise

    status, dt, ref = clock.time(run)
    if status != 0:
        raise subprocess.CalledProcessError(status, cmd)
    return dt, ref


def run_cycles(wl, seconds: float, clock: HostClock, tracer=None, pause=None, every=0.0):
    """Run whole cycles of ops until ``seconds`` of cycle time have passed.
    ``pause``, if given, is called untimed between cycles, about every
    ``every`` seconds of cycle time.  Returns the reference times and the
    wall times of correct ops, by configuration, and the op counts."""
    wl.clock = clock
    n = len(wl.cycle)
    times = [[] for _ in range(n)]
    walls = [[] for _ in range(n)]
    attempted = failed = 0
    elapsed, next_pause = 0.0, every
    k = 0

    def op():
        with tracer.op() if tracer else contextlib.nullcontext():
            return wl.op(k)

    start = perf_counter()
    while True:
        ok = False
        try:
            out, dt, ref = clock.time(op)
            ok = wl.check(k, out)
        except Exception:
            traceback.print_exc()
        if tracer:
            # after the op's time: folding the spans is not part of it
            tracer.end_op()
        attempted += 1
        if ok:
            times[k].append(ref)
            walls[k].append(dt)
        else:
            failed += 1
        k = (k + 1) % n
        if k == 0:
            elapsed += perf_counter() - start
            if elapsed >= seconds:
                return times, walls, attempted, failed
            if pause and elapsed >= next_pause:
                pause()
                next_pause += every
            start = perf_counter()


def op_ms_p50(times) -> float:
    """Median op time of each configuration, averaged over the fixed mix
    (a median over a mix of unequal ops would jump between modes)."""
    meds = [statistics.median(t) for t in times if t]
    return 1e3 * statistics.fmean(meds) if meds else 0.0


def end_to_end(args, workdir):
    clock = HostClock()
    # Set-ups are timed before and between cycles, not back to back, so that
    # their median does not hang on the host's speed in one short stretch.
    setups = [time_setup(args.workload, args.seed, clock)]

    def more_setup():
        if len(setups) < SETUP_REPS:
            setups.append(time_setup(args.workload, args.seed, clock))

    wl = set_up(args.workload, args.seed, workdir)
    times, walls, attempted, failed = run_cycles(
        wl, args.seconds, clock, pause=more_setup, every=args.seconds / SETUP_REPS)
    while len(setups) < SETUP_REPS:
        more_setup()
    done = [t for ts in times for t in ts]
    done_wall = [t for ts in walls for t in ts]
    if hasattr(wl, "peak_rss_kb"):  # ops ran in child processes
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "op_ms_p50": (op_ms_p50(times), "ms"),
        "ops_per_s": (len(done) / sum(done) if done else 0.0, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print("wall clock (not host-corrected):", json.dumps({
        "setup_s": statistics.median(dt for dt, _ in setups),
        "op_ms_p50": op_ms_p50(walls),
        "ops_per_s": len(done_wall) / sum(done_wall) if done_wall else 0.0,
    }))
    known = {
        k.removeprefix("failed:"): v for k, v in wl.counters.items() if k.startswith("failed:")
    }
    if known:
        print("known failing checks (not gated):", json.dumps(known))
    return attempted, failed, metrics


def cli_startup_ms(clock: HostClock) -> float:
    cmd = [sys.executable, "-c", "import geomwave.cli"]
    times = [clock.time(lambda: subprocess.run(cmd, check=True))[2]
             for _ in range(STARTUP_REPS)]
    return 1e3 * statistics.median(times)


def per_layer(args, workdir):
    from spans import GEOMETRY, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wl = set_up(args.workload, args.seed, workdir, in_process=True)
        tracer.end_op()
    finally:
        tracer.uninstall()
    setup = tracer.take_totals()
    clock = HostClock()
    plain, _, a1, f1 = run_cycles(wl, args.seconds / 3, clock)
    wl.tracer = tracer
    wl.counters.clear()
    tracer.install()
    try:
        traced, walls, a2, f2 = run_cycles(wl, args.seconds * 2 / 3, clock, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"))

    t, n, c = tracer.totals, a2, wl.counters
    # Span times are wall times; scale them to the reference host by the
    # traced ops' overall ratio of reference to wall time.
    wall = sum(map(sum, walls))
    host = sum(map(sum, traced)) / wall if wall else 1.0

    def calls(name):
        return t.calls.get(name, 0) / n

    def self_ms(name):
        return 1e3 * host * t.self_s.get(name, 0.0) / n

    def total_ms(name):
        return 1e3 * host * t.total_s.get(name, 0.0) / n

    m = {}
    for g in GEOMETRY:
        m[f"manifolds.{g}.calls"] = (calls(f"manifolds.{g}"), "count")
        m[f"manifolds.{g}.self_ms"] = (self_ms(f"manifolds.{g}"), "ms")
    geo_calls = sum(t.calls.get(f"manifolds.{g}", 0) for g in GEOMETRY)
    geo_self = sum(t.self_s.get(f"manifolds.{g}", 0.0) for g in GEOMETRY)
    m["manifolds.us_per_call"] = (1e6 * host * geo_self / geo_calls if geo_calls else 0.0, "us")
    for f in ("manifold_subdivide_once", "ominus", "oplus"):
        m[f"transform.{f}.calls"] = (calls(f"transform.{f}"), "count")
        m[f"transform.{f}.self_ms"] = (self_ms(f"transform.{f}"), "ms")
    for f in ("decompose_manifold", "reconstruct_manifold"):
        m[f"transform.{f}.self_ms"] = (self_ms(f"transform.{f}"), "ms")
    m["transform.subdivide.useful_ratio"] = (
        t.subdivide_odd / t.subdivide_exp if t.subdivide_exp else 0.0, "ratio")
    m["predictors.mask_at.calls"] = (calls("predictors.mask_at"), "count")
    m["predictors.mask_at.self_ms"] = (self_ms("predictors.mask_at"), "ms")
    m["predictors.interpolatory_check.calls"] = (
        calls("predictors.interpolatory_check"), "count")
    for f in ("apply_subdivision", "apply_decomposition"):
        m[f"sequences.{f}.calls"] = (calls(f"sequences.{f}"), "count")
        m[f"sequences.{f}.self_ms"] = (self_ms(f"sequences.{f}"), "ms")
    for f in ("decompose_linear", "reconstruct_linear",
              "biorthogonality_residuals", "symbol_biorthogonality_residuals"):
        m[f"filterbank.{f}.self_ms"] = (self_ms(f"filterbank.{f}"), "ms")
    for f in ("write_pyramid", "read_pyramid", "write_samples", "read_samples"):
        m[f"io.{f}.ms"] = (total_ms(f"io.{f}"), "ms")
    m["io.pyramid_bytes"] = (c["pyramid_bytes"] / n, "bytes")
    m["io.samples_bytes"] = (c["samples_bytes"] / n, "bytes")
    m["signals.sample_signal.ms"] = (
        1e3 * host * setup.total_s.get("signals.sample_signal", 0.0), "ms")
    for f in ("verify_suite", "decay_experiment"):
        m[f"experiments.{f}.self_ms"] = (self_ms(f"experiments.{f}"), "ms")
    m["experiments.verify_suite.checks_failed"] = (c["checks_failed"] / n, "count")
    m["cli.startup_ms"] = (cli_startup_ms(clock), "ms")
    m["cli.decompose_ms"] = (total_ms("cli.decompose"), "ms")
    m["cli.reconstruct_ms"] = (total_ms("cli.reconstruct"), "ms")
    m["trace.overhead_ms"] = (op_ms_p50(traced) - op_ms_p50(plain), "ms")
    m["trace.spans_per_op"] = (t.spans / n, "count")
    return a1 + a2, f1 + f2, m


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "geomwave", "__init__.py")):
        print(f"perfbench: no geomwave sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    # One CPU for this process and its children, so that the calibration
    # kernel runs on the CPU whose speed it corrects for.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env:", json.dumps({
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
