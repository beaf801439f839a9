"""The benchmark workloads.

The seed only moves curve parameters (wobble amplitudes, a random isometry,
an affine image of trigblend); it never changes a workload's mix of sizes,
manifolds, predictors or rules.

Library calls go through module attributes (``transform.decompose_manifold``)
so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np

from geomwave import cli, experiments, filterbank, signals, transform
from geomwave import io as gio
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import periodic_sequence
from geomwave.transform import ManifoldHermiteSeq

# Criterion 7 (manifold round trip) and criterion 1 (linear round trip).
MANIFOLD_TOL = 1e-10
LINEAR_TOL = 1e-12

# Verify checks that fail at every seed today; they are reported, not gated.
KNOWN_FAILURES = ("proximity ratio boundedness [sphere2]",)

CLI_ENTRY = "from geomwave.cli import entry; entry()"


# -- seeded inputs -----------------------------------------------------------


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _left_product(q: np.ndarray) -> np.ndarray:
    """Matrix of x -> q x (Hamilton product), an isometry of S^3."""
    w, x, y, z = q
    return np.array(
        [[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]]
    )


def wobble_spec(rng):
    return signals.get_preset(
        "sphere2", "wobble", a1=rng.uniform(0.3, 0.5), a2=rng.uniform(0.1, 0.25)
    )


def sphere_curve(rng, level: int) -> ManifoldHermiteSeq:
    """wobble with seeded amplitudes, under a seeded orthogonal map."""
    c = signals.sample_signal(wobble_spec(rng), level)
    Q = _orthogonal(rng, 3)
    return ManifoldHermiteSeq(c.manifold, c.points @ Q.T, c.vectors @ Q.T, level=level)


def quat_curve(rng, level: int) -> ManifoldHermiteSeq:
    """quatcurve under a seeded left quaternion product."""
    c = signals.sample_signal(signals.get_preset("so3-quat", "quatcurve"), level)
    q = rng.normal(size=4)
    Lq = _left_product(q / np.linalg.norm(q))
    return ManifoldHermiteSeq(c.manifold, c.points @ Lq.T, c.vectors @ Lq.T, level=level)


def trig_curve(rng, level: int):
    """Seeded affine image (P A^T + b, V A^T) of trigblend in R^3."""
    c = signals.sample_signal(signals.get_preset("euclidean:3", "trigblend"), level)
    A = _orthogonal(rng, 3) @ np.diag(rng.uniform(0.5, 2.0, 3)) @ _orthogonal(rng, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    return periodic_sequence(c.points @ A.T + b, c.vectors @ A.T, level=level)


# -- checks ------------------------------------------------------------------


def round_trip_error(tag: str, P0, V0, P1, V1) -> float:
    """Worst geodesic distance between points, and worst vector component
    difference, computed here rather than with the library under test."""
    if tag.startswith("euclidean"):
        d = np.linalg.norm(P1 - P0, axis=1)
    else:
        inner = np.clip(np.sum(P0 * P1, axis=1), -1.0, 1.0)
        u = P1 - inner[:, None] * P0
        d = np.arctan2(np.linalg.norm(u, axis=1), inner)
    err = max(float(d.max()), float(np.abs(V1 - V0).max()))
    return err if math.isfinite(err) else math.inf


# -- workloads ---------------------------------------------------------------


class Workload:
    """Makes its inputs from the seed in ``__init__`` (the set-up), then runs
    one op at a time: ``op(k)`` runs configuration ``k`` of the fixed
    ``cycle``, and ``check(k, out)`` says whether its output is correct."""

    cycle: list
    # Run ops that start child processes in this process instead.
    in_process = False
    # Set by the traced run, for spans around the benchmark's own regions.
    tracer = None
    # Set by the timing loop; ops that run for seconds call clock.mark()
    # between their steps (see run.HostClock).
    clock = None

    def __init__(self):
        self.counters = Counter()


class ManifoldRoundtrip(Workload):
    """decompose_manifold + reconstruct_manifold of one closed curve,
    L = 2^8 over 4 levels, cycling {sphere2, so3-quat} x {cubic, exp(1)} x
    {midpoint, leftpoint}."""

    level, levels = 8, 4

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        curves = [sphere_curve(rng, self.level), quat_curve(rng, self.level)]
        providers = [cubic_provider(), exponential_provider(1.0)]
        self.cycle = [
            (c, p, r) for c in curves for p in providers for r in ("midpoint", "leftpoint")
        ]

    def op(self, k: int):
        c, provider, rule = self.cycle[k]
        pyr = transform.decompose_manifold(c, provider, rule, self.levels)
        return transform.reconstruct_manifold(pyr)

    def check(self, k: int, out) -> bool:
        c = self.cycle[k][0]
        err = round_trip_error(c.manifold.tag, c.points, c.vectors, out.points, out.vectors)
        return err <= MANIFOLD_TOL


class FlatPyramid(Workload):
    """decompose_linear + reconstruct_linear of periodic R^3 data,
    L = 2^16 over 8 levels, alternating the cubic and exp(1) banks."""

    level, levels = 16, 8

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.data = trig_curve(rng, self.level)
        self.cycle = [
            filterbank.build_bank(cubic_provider()),
            filterbank.build_bank(exponential_provider(1.0)),
        ]

    def op(self, k: int):
        bank = self.cycle[k]
        pyr = filterbank.decompose_linear(self.data, bank, self.levels)
        return filterbank.reconstruct_linear(pyr, bank)

    def check(self, k: int, out) -> bool:
        d = self.data
        err = max(
            float(np.abs(out.points - d.points).max()),
            float(np.abs(out.vectors - d.vectors).max()),
        )
        return err <= LINEAR_TOL


class CliFiles(Workload):
    """``geomwave decompose --levels 8`` then ``geomwave reconstruct`` on a
    samples file at L = 2^12, alternating euclidean:3 and sphere2 files.

    Each subcommand runs in its own interpreter (the CLI is not installed;
    PYTHONPATH names the source tree).  The traced run calls ``cli.main`` in
    this process instead, so that its spans can be recorded.
    """

    level, levels = 12, 8

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.curves = [
            ("euclidean:3", trig_curve(rng, self.level)),
            ("sphere2", sphere_curve(rng, self.level)),
        ]
        self.cycle = []
        for k, (_, c) in enumerate(self.curves):
            src = os.path.join(workdir, f"samples-{k}.json")
            gio.write_samples(c, src)
            pyr = os.path.join(workdir, f"pyramid-{k}.json")
            back = os.path.join(workdir, f"back-{k}.json")
            self.cycle.append(
                (
                    ["decompose", "--in", src, "--levels", str(self.levels), "--out", pyr],
                    ["reconstruct", "--in", pyr, "--out", back],
                )
            )
        self.peak_rss_kb = 0

    def _run(self, argv: list[str]) -> int:
        if self.in_process:
            with self._region(f"cli.{argv[0]}"), contextlib.redirect_stdout(stdio.StringIO()):
                return cli.main(argv)
        with open(os.path.join(self.dir, "stderr.txt"), "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                if self.clock:
                    _, status, usage = self.clock.wait(proc.pid)
                else:
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _region(self, name: str):
        return self.tracer.region(name) if self.tracer else contextlib.nullcontext()

    def op(self, k: int):
        decompose, reconstruct = self.cycle[k]
        for f in (decompose[-1], reconstruct[-1]):
            if os.path.exists(f):
                os.remove(f)
        status = self._run(decompose)
        if self.clock:
            self.clock.mark()
        return status, self._run(reconstruct)

    def check(self, k: int, out) -> bool:
        if out != (0, 0):
            return False
        pyr_path, back_path = self.cycle[k][0][-1], self.cycle[k][1][-1]
        try:
            with open(pyr_path) as fh:
                pyr = json.load(fh)
            with open(back_path) as fh:
                back = json.load(fh)
            P = np.array([e["p"] for e in back["data"]], dtype=float)
            V = np.array([e["v"] for e in back["data"]], dtype=float)
        except (OSError, ValueError, KeyError, TypeError):
            return False
        tag, c = self.curves[k]
        if len(pyr.get("details", ())) != self.levels or P.shape != c.points.shape:
            return False
        self.counters["pyramid_bytes"] += os.path.getsize(pyr_path)
        self.counters["samples_bytes"] += os.path.getsize(back_path)
        return round_trip_error(tag, c.points, c.vectors, P, V) <= MANIFOLD_TOL


class VerifySuite(Workload):
    """verify_suite({"seed": s}) then decay_experiment(wobble, cubic,
    midpoint, 3, 8): thousands of single-point geometry calls, 32-sample
    probes, Laurent symbol products and small pyramids."""

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = {"seed": seed}
        self.spec = wobble_spec(rng)
        self.provider = cubic_provider()
        self.cycle = [None]

    def op(self, k: int):
        report = experiments.verify_suite(self.config)
        decay = experiments.decay_experiment(self.spec, self.provider, "midpoint", 3, 8)
        return report, decay

    def check(self, k: int, out) -> bool:
        report, decay = out
        failed = [c.name for c in report.checks if not c.passed]
        self.counters["checks_failed"] += len(failed)
        self.counters.update(f"failed:{name}" for name in failed)
        finite = all(
            c.residual is not None and math.isfinite(c.residual) for c in report.checks
        )
        return (
            finite
            and set(failed) <= set(KNOWN_FAILURES)
            and all(math.isfinite(x) for x in decay.sup_norms)
            and decay.fitted_slope is not None
            and math.isfinite(decay.fitted_slope)
        )


WORKLOADS = {
    "manifold-roundtrip": ManifoldRoundtrip,
    "flat-pyramid": FlatPyramid,
    "cli-files": CliFiles,
    "verify-suite": VerifySuite,
}
