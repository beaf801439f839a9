"""Decay experiments with slope fitting, and the aggregated verification suite.

``decay_experiment`` samples a signal at the finest level, runs the
prediction-correction pyramid down to the coarsest, and fits an ordinary
least-squares line to (n, log2 ||d^[n]||_inf).  The exponent of the wavelet
coefficient decay is the fitted slope; the empirical constant
C = max_n ||d^[n]|| 4^n is reported, never asserted.

``verify_suite`` re-runs the numerical certificates of every module
(biorthogonality in operator and symbol form, perfect reconstruction linear
and manifold, geometry and fiber-algebra identities, vanishing moments,
proximity boundedness) and returns a structured pass/fail report.  Failures
are report entries, not exceptions.  The configuration is a flat
``key = value`` text format (see ``parse_config``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DensityError, GeomwaveError, SchemaError
from .filterbank import (
    biorthogonality_residuals,
    build_bank,
    decompose_linear,
    dual_filter_details,
    reconstruct_linear,
    symbol_biorthogonality_residuals,
    vanishing_moment_residual,
)
from .manifolds import Euclidean, SO3Quat, Sphere2
from .predictors import MaskProvider, cubic_provider, exponential_provider
from .sequences import (
    HermiteSequence,
    apply_subdivision,
    interior_sequence,
    periodic_sequence,
    seq_sub,
    sup_norm,
)
from .signals import SignalSpec, get_preset, sample_signal
from .transform import (
    RULES,
    ManifoldHermiteSeq,
    decompose_manifold,
    detail_sup_norm,
    from_linear,
    ominus,
    oplus,
    proximity_denominator,
    proximity_numerator,
    reconstruct_manifold,
)

__all__ = [
    "DecayReport",
    "CheckResult",
    "VerifyReport",
    "decay_experiment",
    "verify_suite",
    "parse_config",
    "default_config",
    "provider_from_config",
]

# Detail norms at or below this are treated as exact annihilation: the signal
# lies in the reproduced space and log-slopes are meaningless roundoff.
_ANNIHILATION_TOL = 1e-12


@dataclass(frozen=True)
class DecayReport:
    """Per-level detail sup norms and the fitted decay exponent."""

    preset: str
    manifold: str
    predictor: str
    rule: str
    levels: tuple  # detail levels n, ascending
    sup_norms: tuple  # ||d^[n]||_inf per level
    log2_ratios: tuple  # log2(||d^[n+1]|| / ||d^[n]||), one fewer entry
    fitted_slope: float | None
    fitted_intercept: float | None
    fit_range: tuple | None  # (first, last) level used in the fit
    constant_estimate: float | None  # max_n ||d^[n]|| * 4^n
    exact_annihilation: bool = False

    @property
    def ratios(self) -> tuple:
        """Plain consecutive norm ratios ||d^[n+1]|| / ||d^[n]||."""
        return tuple(2.0**r for r in self.log2_ratios)


def _ols_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _fit_report(
    spec: SignalSpec,
    provider: MaskProvider,
    rule: str,
    levels: list[int],
    norms: list[float],
    fit_levels: int,
) -> DecayReport:
    levels_t = tuple(levels)
    norms_t = tuple(float(x) for x in norms)
    if all(x <= _ANNIHILATION_TOL for x in norms_t):
        return DecayReport(
            spec.name, spec.manifold_tag, provider.kind, rule,
            levels_t, norms_t, (), None, None, None, None,
            exact_annihilation=True,
        )
    log2n = [math.log2(x) if x > 0 else -math.inf for x in norms_t]
    ratios = tuple(b - a for a, b in zip(log2n, log2n[1:]))
    take = min(fit_levels, len(levels_t))
    xs = np.array(levels_t[-take:], dtype=float)
    ys = np.array(log2n[-take:], dtype=float)
    slope, intercept = _ols_line(xs, ys)
    c_est = max(x * 4.0**n for n, x in zip(levels_t, norms_t))
    return DecayReport(
        spec.name, spec.manifold_tag, provider.kind, rule,
        levels_t, norms_t, ratios, slope, intercept,
        (int(xs[0]), int(xs[-1])), c_est,
    )


def _halve_interior(c: HermiteSequence) -> HermiteSequence:
    """Interior analogue of c^[n]_i = D^-1 c^[n+1]_{2i}."""
    a = c.start
    i_lo = -((-a) // 2)  # ceil(a / 2)
    idx = 2 * np.arange(i_lo, (a + len(c) - 1) // 2 + 1) - a
    return interior_sequence(
        c.points[idx].copy(),
        2.0 * c.vectors[idx],
        i_lo,
        level=c.level - 1,
        valid=c.valid[idx],
    )


def _interior_detail_norms(
    cN: HermiteSequence, provider: MaskProvider, levels: list[int]
) -> list[float]:
    """Odd prediction residual sup norms per level for interior data."""
    bank = build_bank(provider)
    c = cN
    norms: dict[int, float] = {}
    while c.level > min(levels):
        n = c.level - 1
        coarse = _halve_interior(c)
        pred = apply_subdivision(bank.filters_at(n).A, coarse)
        vals = []
        for r in range(len(c)):
            j = c.start + r
            if j % 2 == 0:
                continue
            pr = j - pred.start
            if 0 <= pr < len(pred) and pred.valid[pr] and c.valid[r]:
                vals.append(
                    max(
                        np.abs(c.points[r] - pred.points[pr]).max(),
                        np.abs(c.vectors[r] - pred.vectors[pr]).max(),
                    )
                )
        if not vals:
            raise ValueError(f"no valid interior details at level {n}")
        norms[n] = float(max(vals))
        c = coarse
    return [norms[n] for n in levels]


def decay_experiment(
    spec: SignalSpec,
    provider: MaskProvider,
    rule: str = "midpoint",
    nmin: int = 3,
    nmax: int = 8,
    fit_levels: int = 5,
) -> DecayReport:
    """Sample at level nmax, decompose down to nmin, fit the decay slope.

    Detail levels run nmin .. nmax-1 (d^[n] corrects level n -> n+1).
    """
    if not nmin < nmax:
        raise ValueError("need nmin < nmax")
    detail_levels = list(range(nmin, nmax))
    cN = sample_signal(spec, nmax)
    if isinstance(cN, HermiteSequence) and not cN.periodic:
        norms = _interior_detail_norms(cN, provider, detail_levels)
        return _fit_report(spec, provider, rule, detail_levels, norms, fit_levels)
    if isinstance(cN, HermiteSequence):
        cN = from_linear(Euclidean(cN.dim), cN)
    pyr = decompose_manifold(cN, provider, rule, nmax - nmin)
    norms = [detail_sup_norm(d) for d in pyr.details]
    return _fit_report(spec, provider, rule, detail_levels, norms, fit_levels)


# --------------------------------------------------------------------------
# verify suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None
    threshold: float | None
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.residual is None:
            detail = self.note
        else:
            detail = f"residual {self.residual:.3e} vs {self.threshold:.1e}"
            if self.note:
                detail += f" ({self.note})"
        return f"{status}  {self.name}: {detail}"


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def to_dict(self) -> dict:
        return {
            "schema": "geomwave/1",
            "kind": "verify-report",
            "passed": self.passed,
            "config": dict(self.config),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def default_config() -> dict:
    return {
        "seed": 0,
        "probes": 20,
        "cases": 200,
        "levels": 4,
        "perturb_mask": 0.0,
        "sparse_sphere": False,
    }


def parse_config(text: str) -> dict:
    """Parse the flat ``key = value`` verification config format.

    Lines are ``key = value``; ``#`` starts a comment; ``[section]`` headers
    are allowed and ignored; values are booleans, numbers, or bare/quoted
    strings.  Unknown keys are rejected.
    """
    cfg = default_config()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise SchemaError(f"config line {ln}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip("\"'")
        if key not in cfg:
            raise SchemaError(
                f"config line {ln}: unknown key {key!r}; "
                f"known keys: {sorted(cfg)}"
            )
        if isinstance(cfg[key], bool):
            if value.lower() not in ("true", "false"):
                raise SchemaError(f"config line {ln}: {key} must be true/false")
            cfg[key] = value.lower() == "true"
        elif isinstance(cfg[key], int):
            cfg[key] = int(value)
        else:
            cfg[key] = float(value)
    return cfg


def provider_from_config(kind: str, lam: float | None = None) -> MaskProvider:
    if kind == "cubic":
        return cubic_provider()
    if kind == "exp":
        return exponential_provider(1.0 if lam is None else lam)
    raise SchemaError(f"unknown predictor kind {kind!r} (use 'cubic' or 'exp')")


def _random_probes(rng, count: int, length: int, m: int) -> list[HermiteSequence]:
    return [
        periodic_sequence(
            rng.normal(size=(length, m)), rng.normal(size=(length, m))
        )
        for _ in range(count)
    ]


def _worst(*residuals) -> float:
    """Largest absolute entry over all residual arrays (0 when empty)."""
    return max(float(np.max(np.abs(r), initial=0.0)) for r in residuals)


def verify_suite(config: dict | None = None) -> VerifyReport:
    cfg = dict(default_config(), **(config or {}))
    rng = np.random.default_rng(int(cfg["seed"]))
    checks: list[CheckResult] = []

    def add(name, residual, threshold, note=""):
        checks.append(
            CheckResult(
                name, bool(residual <= threshold), float(residual), threshold, note
            )
        )

    def raised(name, err):
        """A check whose pyramid raised fails, naming the error."""
        checks.append(
            CheckResult(name, False, None, None, f"{type(err).__name__}: {err}")
        )

    providers = [
        ("cubic", cubic_provider()),
        ("exp(1.0)", exponential_provider(1.0)),
    ]
    probes = _random_probes(rng, int(cfg["probes"]), 32, 2)
    perturb = float(cfg["perturb_mask"])

    for label, prov in providers:
        bank = build_bank(prov)
        worst_op = worst_sym = 0.0
        for level in range(0, 4):
            filt = bank.filters_at(level)
            if perturb > 0.0:
                delta = perturb * rng.standard_normal((2, 2))
                filt = filt.with_mask("Bt", filt.Bt.perturbed(0, delta))
            worst_op = max(worst_op, *biorthogonality_residuals(filt, probes))
            worst_sym = max(worst_sym, *symbol_biorthogonality_residuals(filt))
        note = "fault injection active" if perturb > 0.0 else ""
        add(f"biorthogonality operator form [{label}]", worst_op, 1e-13, note)
        add(f"biorthogonality symbol form [{label}]", worst_sym, 1e-13, note)

    # linear perfect reconstruction
    levels = int(cfg["levels"])
    data = periodic_sequence(
        rng.normal(size=(16 << levels, 3)),
        rng.normal(size=(16 << levels, 3)),
        level=levels,
    )
    for label, prov in providers:
        bank = build_bank(prov)
        name = f"linear perfect reconstruction [{label}]"
        try:
            rec = reconstruct_linear(decompose_linear(data, bank, levels), bank)
        except GeomwaveError as err:
            raised(name, err)
            continue
        add(name, sup_norm(seq_sub(rec, data)), 1e-12)

    # vanishing moments
    cub = build_bank(cubic_provider())
    worst = 0.0
    for deg in range(4):
        worst = max(
            worst,
            vanishing_moment_residual(
                cub.filters_at(3), lambda x: x**deg,
                lambda x: deg * x ** (deg - 1) if deg else 0.0, 3, (-16, 16),
            ),
        )
    add("vanishing moments cubic (degree <= 3)", worst, 1e-12)
    lam = 1.0
    eb = build_bank(exponential_provider(lam))
    worst = 0.0
    for sgn in (1.0, -1.0):
        worst = max(
            worst,
            vanishing_moment_residual(
                eb.filters_at(3),
                lambda x, s=sgn: math.exp(s * lam * x),
                lambda x, s=sgn: s * lam * math.exp(s * lam * x),
                3, (-16, 16),
            ),
        )
    add("vanishing moments exponential", worst, 1e-10)

    # geometry + fiber algebra: every case at once.  The raw draws keep the
    # order of a per-case loop (point, scale, seven tangent directions), so
    # the cases do not depend on the batching.
    cases = int(cfg["cases"])
    for M in (Sphere2(), SO3Quat(), Euclidean(3)):
        d = M.ambient_dim
        raw_p, scale = np.empty((cases, d)), np.empty((cases, 1))
        raw_t = np.empty((7, cases, d))
        for i in range(cases):
            raw_p[i] = rng.normal(size=d)
            scale[i] = rng.uniform(0.05, 1.0)
            for k in range(7):
                raw_t[k, i] = rng.normal(size=d)

        def tangent(p, k, size):
            """A tangent at p of norm ``size`` from the k-th raw direction."""
            v = M.project_tangent(p, raw_t[k])
            return v * (size / np.linalg.norm(v, axis=-1, keepdims=True))

        p = M.project_point(raw_p)
        v = tangent(p, 0, scale)
        q = M.exp(p, v)
        w = tangent(p, 1, 1.0)
        wq = M.transport(p, w, q)
        mid = M.midpoint(p, q)
        worst_geo = _worst(
            M.log(p, q) - v,
            np.linalg.norm(wq, axis=-1) - np.linalg.norm(w, axis=-1),
            M.transport(q, wq, p) - w,
            M.dist(p, mid) - M.dist(mid, q),
        )
        # fiber algebra: a oplus (at ominus a) = at; (a oplus b) ominus a = b
        a = (p, tangent(p, 2, 0.5))
        pt = M.exp(p, tangent(p, 3, 0.5))
        at = (pt, tangent(pt, 4, 0.5))
        q2, v2 = oplus(M, a, *ominus(M, at, a))
        u0b, u1b = tangent(p, 5, 0.5), tangent(p, 6, 0.5)
        _, r0, r1 = ominus(M, oplus(M, a, p, u0b, u1b), a)
        worst_fiber = _worst(M.dist(q2, pt), v2 - at[1], r0 - u0b, r1 - u1b)
        add(f"geometry kernel [{M.tag}]", worst_geo, 1e-11)
        add(f"fiber algebra [{M.tag}]", worst_fiber, 1e-11)

    # manifold perfect reconstruction
    for tag, preset in (("sphere2", "wobble"), ("so3-quat", "quatcurve")):
        name = f"manifold perfect reconstruction [{tag}]"
        if cfg["sparse_sphere"] and tag == "sphere2":
            # fault injection: a 4-point great circle halves to an antipodal
            # coarse pair, which the prediction step cannot log through
            M = Sphere2()
            P = np.array(
                [[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]]
            )
            V = np.zeros_like(P)
            c = ManifoldHermiteSeq(M, P, V, level=1)
            try:
                decompose_manifold(c, cubic_provider(), "midpoint", 1)
            except DensityError as err:
                checks.append(
                    CheckResult(
                        name, False, None, None,
                        f"density failure (injected): {err}",
                    )
                )
                continue
        cN = sample_signal(get_preset(tag, preset), 7)
        try:
            rec = reconstruct_manifold(
                decompose_manifold(cN, cubic_provider(), "midpoint", 4)
            )
        except GeomwaveError as err:
            raised(name, err)
            continue
        err = max(
            float(cN.manifold.dist(rec.points, cN.points).max()),
            float(np.abs(rec.vectors - cN.vectors).max()),
        )
        add(name, err, 1e-10)

    # Euclidean reduction: the pyramid on flat data, with either base point
    # rule, against the details of the dual wavelet filter Bt
    spec = get_preset("euclidean:3", "trigblend")
    cN = sample_signal(spec, 6)
    ref = dual_filter_details(cN, build_bank(cubic_provider()), 3)
    worst = 0.0
    for rule in RULES:
        man = decompose_manifold(
            from_linear(Euclidean(3), cN), cubic_provider(), rule, 3
        )
        for dr, dm in zip(ref, man.details):
            worst = max(
                worst,
                float(np.abs(dr.points - dm.u0).max()),
                float(np.abs(dr.vectors - dm.u1).max()),
            )
    add("euclidean reduction (details agree)", worst, 1e-13)

    # proximity boundedness and numerator exponent on the sphere preset
    spec = get_preset("sphere2", "wobble")
    mask = cubic_provider().mask_at(0)
    levels = range(4, 8)
    samples = [sample_signal(spec, n) for n in levels]
    nums = [proximity_numerator(mask, c, "midpoint") for c in samples]
    ratios = [num / proximity_denominator(c) for num, c in zip(nums, samples)]
    # bounded, not constant: on smooth data the ratio falls like 4^-n
    growth = max(ratios) / ratios[0]
    checks.append(
        CheckResult(
            "proximity ratio boundedness [sphere2]",
            bool(growth <= 10.0), float(growth), 10.0,
            "max over four dyadic densities / coarsest",
        )
    )
    # a first-order fault grows the ratio only 2x per level, which the bound
    # above cannot see over four levels; proximity promises quadratic order
    slope = float(np.polyfit([-n for n in levels], np.log2(nums), 1)[0])
    checks.append(
        CheckResult(
            "proximity numerator exponent [sphere2]",
            bool(slope >= 1.7), slope, 1.7,
            "log-log slope over levels 4..7; passes at or above the threshold",
        )
    )

    return VerifyReport(tuple(checks), cfg)
