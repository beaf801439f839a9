"""Span tracing for the traced benchmark run.

The tracer replaces each listed public function of geomwave with a wrapper at
every module binding where callers look it up, and wraps the geometry methods
on the manifold classes.  Every call records a span (name, start, end, parent
span, op id), except a geometry call made inside another geometry call (such
as the log inside transport): only calls that cross into the manifolds layer
count, because the inner ones depend on early exits taken on exactly equal
points, so their number changes with the data.

The spans of one op stay in memory until the op ends; they are then folded
into per-name totals (calls, inclusive time, self time), and the spans of the
first ops, up to ``KEEP_SPANS``, are kept to be written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

# (module, public function) pairs wrapped at every binding in geomwave.
FUNCTIONS = [
    ("transform", "manifold_subdivide_once"),
    ("transform", "ominus"),
    ("transform", "oplus"),
    ("transform", "decompose_manifold"),
    ("transform", "reconstruct_manifold"),
    ("predictors", "interpolatory_check"),
    ("sequences", "apply_subdivision"),
    ("sequences", "apply_decomposition"),
    ("filterbank", "decompose_linear"),
    ("filterbank", "reconstruct_linear"),
    ("filterbank", "biorthogonality_residuals"),
    ("filterbank", "symbol_biorthogonality_residuals"),
    ("io", "write_pyramid"),
    ("io", "read_pyramid"),
    ("io", "write_samples"),
    ("io", "read_samples"),
    ("signals", "sample_signal"),
    ("experiments", "verify_suite"),
    ("experiments", "decay_experiment"),
]

GEOMETRY = ("exp", "log", "transport", "midpoint", "dist")

# Spans kept in memory to be written out when the run ends.
KEEP_SPANS = 200_000


class Totals:
    """Per-name call counts and times, summed over closed ops."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        # exp calls made directly by a manifold subdivision step, and the odd
        # outputs (len(output) // 2) of those steps
        self.subdivide_exp = 0
        self.subdivide_odd = 0
        self.spans = 0


class Tracer:
    def __init__(self):
        self.totals = Totals()
        self.kept: list[list] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self._spans))
        self._spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def op(self):
        """The root span of one op.  The caller folds the op's spans in with
        ``end_op`` once it has taken the op's time."""
        return self.region("bench.op")

    def wrap(self, name: str, fn):
        count_odd = name == "transform.manifold_subdivide_once"
        boundary_only = name.startswith("manifolds.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (
                boundary_only
                and self._stack
                and self._spans[self._stack[-1]][0].startswith("manifolds.")
            ):
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count_odd:
                self.totals.subdivide_odd += len(out) // 2
            return out

        return traced

    def end_op(self):
        """Fold the spans of the finished op into the totals."""
        spans, t = self._spans, self.totals
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[2] - rec[1]
            t.calls[name] = t.calls.get(name, 0) + 1
            t.total_s[name] = t.total_s.get(name, 0.0) + dur
            t.self_s[name] = t.self_s.get(name, 0.0) + dur - child[i]
            if (
                name == "manifolds.exp"
                and rec[3] >= 0
                and spans[rec[3]][0] == "transform.manifold_subdivide_once"
            ):
                t.subdivide_exp += 1
        t.spans += len(spans)
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend(spans)
        self._spans = []
        self._op += 1

    def take_totals(self) -> Totals:
        """Return the totals so far and start new ones."""
        out, self.totals = self.totals, Totals()
        return out

    def dump(self, path: str):
        """Write the kept spans as JSON: times in microseconds from the first."""
        t0 = self.kept[0][1] if self.kept else 0.0
        rows = [
            [r[0], round((r[1] - t0) * 1e6, 3), round((r[2] - t0) * 1e6, 3), r[3], r[4]]
            for r in self.kept
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "op"],
                       "spans": rows}, fh)
            fh.write("\n")

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the loaded geomwave."""
        from geomwave import manifolds, predictors

        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "geomwave" or k.startswith("geomwave."))
        ]
        for modname, fname in FUNCTIONS:
            original = getattr(sys.modules[f"geomwave.{modname}"], fname)
            wrapper = self.wrap(f"{modname}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for cls in (manifolds.Sphere2, manifolds.SO3Quat, manifolds.Euclidean):
            for meth in GEOMETRY:
                self._patch(cls, meth, self.wrap(f"manifolds.{meth}", getattr(cls, meth)))
        cls = predictors.MaskProvider
        self._patch(cls, "mask_at", self.wrap("predictors.mask_at", cls.mask_at))

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, had, value in reversed(self._patches):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches = []
