"""Decay experiments with slope fitting, and the registry of numerical checks.

``decay_experiment`` samples a signal at the finest level, runs the
prediction-correction pyramid down to the coarsest, and fits an ordinary
least-squares line to (n, log2 ||d^[n]||_inf).  The exponent of the wavelet
coefficient decay is the fitted slope; the empirical constant
C = max_n ||d^[n]|| 4^n is reported, never asserted.

``REGISTRY`` lists the named numerical certificates of every module
(biorthogonality in operator and symbol form, perfect reconstruction linear
and manifold, vanishing moments, geometry and fiber-algebra identities,
Euclidean reduction, proximity).  Each check is a function of its subject
(a bank, a manifold or a preset, with the sizes that go with it) and of the
verify config, so the acceptance tests run the same checks at their own
sizes.  ``verify_suite`` runs the registry at the default sizes and returns
a structured pass/fail report; failures are report entries, not exceptions.
The configuration is a flat ``key = value`` text format (see
``parse_config``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

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
from .sequences import HermiteSequence, periodic_sequence, seq_sub, sup_norm
from .signals import SignalSpec, get_preset, sample_signal
from .transform import (
    RULES,
    ManifoldHermiteSeq,
    decompose_manifold,
    detail_sup_norm,
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
    "REGISTRY",
    "biorthogonality",
    "decay_experiment",
    "euclidean_reduction",
    "geometry_and_fiber",
    "linear_reconstruction",
    "manifold_reconstruction",
    "proximity",
    "vanishing_moments",
    "verify_suite",
    "parse_config",
    "default_config",
]

# Detail norms at or below this are treated as exact annihilation: the signal
# lies in the reproduced space and log-slopes are meaningless roundoff.
_ANNIHILATION_TOL = 1e-12
# The decay slope is fitted over at most this many of the finest levels.
_FIT_LEVELS = 5


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
    fit_range: tuple | None  # (first, last) level used in the fit
    constant_estimate: float | None  # max_n ||d^[n]|| * 4^n
    exact_annihilation: bool = False


def _slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, as every exponent fit takes it."""
    return float(np.polyfit(xs, ys, 1)[0])


def _fit_report(
    spec: SignalSpec,
    provider: MaskProvider,
    rule: str,
    levels: list[int],
    norms: list[float],
) -> DecayReport:
    levels_t = tuple(levels)
    norms_t = tuple(float(x) for x in norms)
    if all(x <= _ANNIHILATION_TOL for x in norms_t):
        return DecayReport(
            spec.name, spec.manifold.tag, provider.kind, rule,
            levels_t, norms_t, (), None, None, None,
            exact_annihilation=True,
        )
    log2n = [math.log2(x) if x > 0 else -math.inf for x in norms_t]
    ratios = tuple(b - a for a, b in zip(log2n, log2n[1:]))
    fit = levels_t[-_FIT_LEVELS:]
    slope = _slope(fit, log2n[-_FIT_LEVELS:])
    c_est = max(x * 4.0**n for n, x in zip(levels_t, norms_t))
    return DecayReport(
        spec.name, spec.manifold.tag, provider.kind, rule,
        levels_t, norms_t, ratios, slope, (fit[0], fit[-1]), c_est,
    )


def decay_experiment(
    spec: SignalSpec,
    provider: MaskProvider,
    rule: str = "midpoint",
    nmin: int = 3,
    nmax: int = 8,
) -> DecayReport:
    """Sample at level nmax, decompose down to nmin, fit the decay slope.

    Detail levels run nmin .. nmax-1 (d^[n] corrects level n -> n+1); a
    slope needs two of them, so nmax - nmin < 2 is a SchemaError.  Interior
    (non-periodic) Euclidean samples take the details of the linear Hermite
    wavelet from ``dual_filter_details``; all others run the pyramid.
    """
    if nmax - nmin < 2:
        need = "nmin < nmax" if nmin >= nmax else "two detail levels to fit a slope"
        raise SchemaError(f"decay levels need {need}, got {nmin}:{nmax}")
    detail_levels = list(range(nmin, nmax))
    provider.mask_at(nmin)  # the coarsest mask fails before sampling
    cN = sample_signal(spec, nmax)
    if not cN.periodic:
        details = dual_filter_details(cN, build_bank(provider), nmax - nmin)
        for n, d in zip(detail_levels, details):
            if len(d) == 0:
                raise SchemaError(f"no valid interior details at level {n}")
        norms = [sup_norm(d) for d in details]
    else:
        pyr = decompose_manifold(cN, provider, rule, nmax - nmin)
        norms = [detail_sup_norm(d) for d in pyr.details]
    return _fit_report(spec, provider, rule, detail_levels, norms)


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
            "checks": [asdict(c) for c in self.checks],
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


# smallest valid value of each numeric config key
_MINIMUM = {"seed": 0, "probes": 1, "cases": 1, "levels": 1, "perturb_mask": 0}


def parse_config(text: str) -> dict:
    """Parse the flat ``key = value`` verification config format.

    Lines are ``key = value``; ``#`` starts a comment; ``[section]`` headers
    are allowed and ignored; values are booleans, numbers, or bare/quoted
    strings.  Unknown keys, and values that do not parse or fall outside
    their range (``_MINIMUM``, finite), are rejected naming the line.
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
            continue
        kind = type(cfg[key])
        try:
            number = kind(value)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number >= _MINIMUM[key]):
            what = "an integer" if kind is int else "a finite number"
            raise SchemaError(
                f"config line {ln}: {key} must be {what} >= {_MINIMUM[key]}, "
                f"got {value!r}"
            )
        cfg[key] = number
    return cfg


# --------------------------------------------------------------------------
# registered checks: each is a function of its subject and the verify config
# that returns unnamed results; REGISTRY names them


def _at_most(residual: float, threshold: float, note: str = "") -> CheckResult:
    """A result that passes at or below its threshold."""
    return CheckResult("", bool(residual <= threshold), float(residual), threshold, note)


def _random_data(cfg: dict, length: int, level: int) -> HermiteSequence:
    """Random periodic Hermite data in R^3, drawn from the config's seed."""
    rng = np.random.default_rng(int(cfg["seed"]))
    size = (length, 3)
    return periodic_sequence(rng.normal(size=size), rng.normal(size=size), level=level)


def _worst(*residuals) -> float:
    """Largest absolute entry over all residual arrays (0 when empty)."""
    return max(float(np.max(np.abs(r), initial=0.0)) for r in residuals)


def biorthogonality(subject, cfg: dict) -> list[CheckResult]:
    """Operator form (on ``probes`` random periodic probes) and symbol form
    of the biorthogonality of one bank.  Subject: (provider, filter levels).
    ``perturb_mask`` > 0 perturbs each dual wavelet filter Bt at random.

    Levels with equal filters are certified once: a stationary bank (cubic)
    has one filter set at every level.  A perturbed run draws its own delta
    per level, so it still checks every level."""
    provider, levels = subject
    rng = np.random.default_rng(int(cfg["seed"]))
    probes = [
        periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
        for _ in range(int(cfg["probes"]))
    ]
    perturb = float(cfg["perturb_mask"])
    bank = build_bank(provider)
    distinct = {}
    for level in levels:
        filt = bank.filters_at(level)
        if perturb > 0.0:
            delta = perturb * rng.standard_normal((2, 2))
            filt = replace(filt, Bt=filt.Bt.perturbed(0, delta))
        masks = (filt.A, filt.B, filt.At, filt.Bt)
        distinct.setdefault(tuple((m.lo, m.blocks.tobytes()) for m in masks), filt)
    worst_op = worst_sym = 0.0
    for filt in distinct.values():
        worst_op = max(worst_op, *biorthogonality_residuals(filt, probes))
        worst_sym = max(worst_sym, *symbol_biorthogonality_residuals(filt))
    note = "fault injection active" if perturb > 0.0 else ""
    return [_at_most(worst_op, 1e-13, note), _at_most(worst_sym, 1e-13, note)]


def linear_reconstruction(provider: MaskProvider, cfg: dict) -> list[CheckResult]:
    """Round trip of random periodic data in R^3, of length 16 * 2^levels,
    through ``levels`` levels of the linear pyramid."""
    levels = int(cfg["levels"])
    data = _random_data(cfg, 16 << levels, levels)
    bank = build_bank(provider)
    rec = reconstruct_linear(decompose_linear(data, bank, levels), bank)
    return [_at_most(sup_norm(seq_sub(rec, data)), 1e-12)]


def vanishing_moments(subject, cfg: dict) -> list[CheckResult]:
    """The dual wavelet filter Bt annihilates the samples of reproduced
    functions.  Subject: (provider, {filter level: window half-width},
    elements), where elements is a tuple of (label, f, f') taken from
    ``provider.reproduction_space()``."""
    provider, windows, elements = subject
    bank = build_bank(provider)
    worst = max(
        vanishing_moment_residual(bank.filters_at(n), f, df, n, (-w, w))
        for n, w in windows.items()
        for _, f, df in elements
    )
    return [_at_most(worst, 1e-12 if provider.kind == "cubic" else 1e-10)]


def geometry_and_fiber(M, cfg: dict) -> list[CheckResult]:
    """On ``cases`` random cases of M: log inverts exp (|v| in [0.01, 2.5]),
    transport is an isometry undone by the reverse transport (|w| in
    [0.1, 2]) and the midpoint is equidistant; then the fiber identities
    a (+) (at (-) a) = at and (a (+) b) (-) a = b."""
    rng = np.random.default_rng(int(cfg["seed"]))
    shape = (int(cfg["cases"]), M.ambient_dim)
    p = M.project_point(rng.normal(size=shape))
    raw = rng.normal(size=(7,) + shape)
    size_v, size_w, size_t = rng.uniform(
        (0.01, 0.1, 0.05), (2.5, 2.0, 1.0), size=(shape[0], 3)
    ).T[..., None]

    def tangent(at, k, size):
        """A tangent at ``at`` of norm ``size`` from the k-th raw direction."""
        v = M.project_tangent(at, raw[k])
        return v * (size / np.linalg.norm(v, axis=-1, keepdims=True))

    v = tangent(p, 0, size_v)
    q = M.exp(p, v)
    w = tangent(p, 1, size_w)
    wq = M.transport(p, w, q)
    mid = M.midpoint(p, q)
    geometry = _worst(
        M.log(p, q) - v,
        np.linalg.norm(wq, axis=-1) - np.linalg.norm(w, axis=-1),
        M.transport(q, wq, p) - w,
        M.dist(p, mid) - M.dist(mid, q),
    )
    a = (p, tangent(p, 2, 0.5))
    pt = M.exp(p, tangent(p, 3, size_t))
    at = (pt, tangent(pt, 4, 0.5))
    q2, v2 = oplus(M, a, *ominus(M, at, a))
    u0, u1 = tangent(p, 5, 0.5), tangent(p, 6, 0.5)
    _, r0, r1 = ominus(M, oplus(M, a, p, u0, u1), a)
    fiber = _worst(M.dist(q2, pt), v2 - at[1], r0 - u0, r1 - u1)
    return [_at_most(geometry, 1e-11), _at_most(fiber, 1e-11)]


def manifold_reconstruction(subject, cfg: dict) -> list[CheckResult]:
    """Round trip of a preset sampled at a level, decomposed down to 8
    coarse samples (cubic predictor, midpoint rule).  Subject: (preset,
    level).  ``sparse_sphere`` injects a density failure on the sphere."""
    spec, level = subject
    if cfg["sparse_sphere"] and spec.manifold.tag == "sphere2":
        # a 4-point great circle halves to an antipodal coarse pair, which
        # the prediction step cannot log through
        P = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        c = ManifoldHermiteSeq(Sphere2(), P, np.zeros_like(P), level=1)
        try:
            decompose_manifold(c, cubic_provider(), "midpoint", 1)
        except DensityError as err:
            note = f"density failure (injected): {err}"
            return [CheckResult("", False, None, None, note)]
    cN = sample_signal(spec, level)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", level - 3)
    rec = reconstruct_manifold(pyr)
    err = _worst(cN.manifold.dist(rec.points, cN.points), rec.vectors - cN.vectors)
    return [_at_most(err, 1e-10)]


def euclidean_reduction(levels: int, cfg: dict) -> list[CheckResult]:
    """On random periodic data in R^3 of length 8 * 2^levels, the pyramid
    with either base point rule gives the details of the dual wavelet filter
    Bt.  Subject: the number of levels."""
    data = _random_data(cfg, 8 << levels, levels)
    ref = dual_filter_details(data, build_bank(cubic_provider()), levels)
    worst = 0.0
    for rule in RULES:
        pyr = decompose_manifold(data, cubic_provider(), rule, levels)
        for dr, dm in zip(ref, pyr.details):
            worst = max(worst, _worst(dr.points - dm.u0, dr.vectors - dm.u1))
    return [_at_most(worst, 1e-13)]


def proximity(subject, cfg: dict) -> list[CheckResult]:
    """Proximity of the manifold and the linear cubic subdivision on a
    preset sampled at each of several levels.  Subject: (preset, levels).
    The ratio to ||(delta p, v)||^2 stays bounded (on smooth data it falls
    like 4^-n), and the numerator is at least of quadratic order, which a
    first-order fault fails even where the bound cannot see it."""
    spec, levels = subject
    mask = cubic_provider().mask_at(0)
    samples = [sample_signal(spec, n) for n in levels]
    nums = [proximity_numerator(mask, c, "midpoint") for c in samples]
    ratios = [num / proximity_denominator(c) for num, c in zip(nums, samples)]
    growth = max(ratios) / ratios[0]
    slope = _slope([-n for n in levels], np.log2(nums))
    span = f"levels {levels[0]}..{levels[-1]}"
    return [
        _at_most(growth, 10.0, f"max over {span} / coarsest"),
        CheckResult(
            "", bool(slope >= 1.7), slope, 1.7,
            f"log-log slope over {span}; passes at or above the threshold",
        ),
    ]


_CUBIC, _EXP = cubic_provider(), exponential_provider(1.0)
_WOBBLE = get_preset("sphere2", "wobble")

# The checks of ``geomwave verify`` in report order: the names of a check's
# results, the check, and its subject at the default size.
REGISTRY = (
    (("biorthogonality operator form [cubic]",
      "biorthogonality symbol form [cubic]"), biorthogonality, (_CUBIC, range(4))),
    (("biorthogonality operator form [exp(1.0)]",
      "biorthogonality symbol form [exp(1.0)]"), biorthogonality, (_EXP, range(4))),
    (("linear perfect reconstruction [cubic]",), linear_reconstruction, _CUBIC),
    (("linear perfect reconstruction [exp(1.0)]",), linear_reconstruction, _EXP),
    (("vanishing moments cubic (degree <= 3)",), vanishing_moments,
     (_CUBIC, {3: 16}, _CUBIC.reproduction_space())),
    (("vanishing moments exponential",), vanishing_moments,  # e^{lx}, e^{-lx}
     (_EXP, {3: 16}, _EXP.reproduction_space()[2:])),
    (("geometry kernel [sphere2]",
      "fiber algebra [sphere2]"), geometry_and_fiber, Sphere2()),
    (("geometry kernel [so3-quat]",
      "fiber algebra [so3-quat]"), geometry_and_fiber, SO3Quat()),
    (("geometry kernel [euclidean:3]",
      "fiber algebra [euclidean:3]"), geometry_and_fiber, Euclidean(3)),
    (("manifold perfect reconstruction [sphere2]",), manifold_reconstruction,
     (_WOBBLE, 7)),
    (("manifold perfect reconstruction [so3-quat]",), manifold_reconstruction,
     (get_preset("so3-quat", "quatcurve"), 7)),
    (("euclidean reduction (details agree)",), euclidean_reduction, 3),
    (("proximity ratio boundedness [sphere2]",
      "proximity numerator exponent [sphere2]"), proximity, (_WOBBLE, range(4, 8))),
)


def verify_suite(config: dict | None = None) -> VerifyReport:
    """Run every registered check.  A check that raises a library error fails
    with the error as its note, so the report is always complete."""
    cfg = dict(default_config(), **(config or {}))
    checks: list[CheckResult] = []
    for names, check, subject in REGISTRY:
        try:
            results = check(subject, cfg)
        except GeomwaveError as err:
            note = f"{type(err).__name__}: {err}"
            results = [CheckResult("", False, None, None, note)] * len(names)
        checks += [replace(r, name=n) for n, r in zip(names, results, strict=True)]
    return VerifyReport(tuple(checks), cfg)
