"""Acceptance suite: one test per numbered criterion, each recording a single
pass/fail line (printed in the terminal summary).

Criteria 1, 2, 4-8 and 10 run the checks that ``geomwave verify`` runs
(``geomwave.experiments.REGISTRY``), at their own sizes and subjects; the
other criteria are checks that only this suite makes.

Criteria 9 and 10 assert the bounds the method promises, which are upper
bounds: coefficient decay at least like 2^{-2n} (and within 0.3 of the linear
Hermite wavelet slope on the same samples), and a proximity numerator of at
least quadratic order with a bounded ratio. On the smooth presets the cubic
predictor is fourth-order accurate, so the measured decay slopes are about
-3.9 and the numerator exponent about 3.8.
"""

import math
from dataclasses import replace

import numpy as np

from geomwave.cli import main as cli_main
from geomwave.errors import BaseMismatchError
from geomwave.experiments import (
    biorthogonality,
    default_config,
    euclidean_reduction,
    geometry_and_fiber,
    linear_reconstruction,
    manifold_reconstruction,
    proximity,
    vanishing_moments,
)
from geomwave.filterbank import (
    biorthogonality_residuals,
    build_bank,
    dual_filter_details,
    symbol_biorthogonality_residuals,
)
from geomwave.io import write_samples
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import periodic_sequence, sup_norm
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import (
    ManifoldHermiteSeq,
    decompose_manifold,
    ominus,
    oplus,
    proximity_numerator,
    reconstruct_manifold,
)
from fiber_ratio import ominus_lipschitz_ratio
from random_cases import random_point, random_tangent, random_tangents

SEED = 20240817
BANKS = [cubic_provider()] + [exponential_provider(lam) for lam in (0.5, 1.0, 2.0)]
MANIFOLDS = [Sphere2(), SO3Quat(), Euclidean(3)]
CURVES = [get_preset("sphere2", "wobble"), get_preset("so3-quat", "quatcurve")]


def run(check, subjects, **settings):
    """Each result's largest residual over the subjects, for a registered
    check run at this suite's seed and the given verify settings."""
    cfg = dict(default_config(), seed=SEED, **settings)
    results = [check(subject, cfg) for subject in subjects]
    return [max(r.residual for r in rs) for rs in zip(*results)]


def test_criterion_01_linear_perfect_reconstruction(criterion):
    (err,) = run(linear_reconstruction, [cubic_provider()], levels=5)
    criterion(
        "criterion 1: linear perfect reconstruction (m=3, len 512, 5 levels)",
        err <= 1e-12,
        f"max error {err:.3e} (tolerance 1e-12)",
    )


def test_criterion_02_biorthogonality_operator_form(criterion):
    worst, _ = run(biorthogonality, [(p, range(6)) for p in BANKS], probes=100)
    criterion(
        "criterion 2: biorthogonality, operator form (100 probes, 4 banks, levels 0..5)",
        worst <= 1e-13,
        f"worst residual {worst:.3e} (tolerance 1e-13)",
    )


def test_criterion_03_biorthogonality_symbol_form(criterion):
    _, worst = run(biorthogonality, [(p, range(6)) for p in BANKS], probes=1)
    symbol_clean = worst <= 1e-13

    # pass/fail agreement between operator and symbol form under random
    # mask perturbations of magnitude 1e-3
    rng = np.random.default_rng(SEED)
    probes = [
        periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
        for _ in range(3)
    ]
    filters = [build_bank(p).filters_at(0) for p in BANKS]
    agree = 0
    trials = 1000
    for t in range(trials):
        filt = filters[rng.integers(len(filters))]
        name = ("A", "B", "At", "Bt")[rng.integers(4)]
        mask = getattr(filt, name)
        delta = 1e-3 * rng.standard_normal((2, 2))
        k = int(rng.integers(mask.lo, mask.hi + 1))
        broken = replace(filt, **{name: mask.perturbed(k, delta)})
        op_pass = max(biorthogonality_residuals(broken, probes)) <= 1e-13
        sym_pass = max(symbol_biorthogonality_residuals(broken)) <= 1e-13
        agree += op_pass == sym_pass
    criterion(
        "criterion 3: biorthogonality, symbol form + perturbation agreement",
        symbol_clean and agree == trials,
        f"worst clean residual {worst:.3e} (tolerance 1e-13); "
        f"operator/symbol verdicts agree on {agree}/{trials} perturbations",
    )


def test_criterion_04_vanishing_moments(criterion):
    windows = {n: 2 ** (n + 2) for n in range(7)}  # x in [-2, 2] at level n+1
    (worst_poly,), (worst_exp,) = (
        run(vanishing_moments, [(p, windows, p.reproduction_space()) for p in banks])
        for banks in (BANKS[:1], BANKS[1:])
    )
    criterion(
        "criterion 4: vanishing moments (poly/cubic, exponential/matching bank, levels 0..6)",
        worst_poly <= 1e-12 and worst_exp <= 1e-10,
        f"poly residual {worst_poly:.3e} (tol 1e-12), "
        f"exponential residual {worst_exp:.3e} (tol 1e-10)",
    )


def test_criterion_05_geometry_kernel(criterion):
    worst, _ = run(geometry_and_fiber, MANIFOLDS, cases=1000)
    criterion(
        "criterion 5: geometry kernel (1000 cases per manifold)",
        worst <= 1e-11,
        f"worst residual {worst:.3e} (tolerance 1e-11)",
    )


def test_criterion_06_fiber_algebra(criterion):
    _, worst = run(geometry_and_fiber, MANIFOLDS, cases=1000)
    # same-fiber remark: a correction based at a's own point comes back
    # from the fiber difference to within roundoff
    rng = np.random.default_rng(SEED)
    worst_same_fiber = 0.0
    for M in MANIFOLDS:
        p = random_point(M, rng, (1000,))
        a = (p, random_tangents(M, rng, p, 0.5))
        u0, u1 = random_tangents(M, rng, p, 0.5), random_tangents(M, rng, p, 0.5)
        _, r0, r1 = ominus(M, oplus(M, a, p, u0, u1), a)
        worst_same_fiber = max(
            worst_same_fiber, np.abs(r0 - u0).max(), np.abs(r1 - u1).max()
        )
    criterion(
        "criterion 6: fiber algebra identities + same-fiber remark",
        worst <= 1e-11 and worst_same_fiber <= 1e-12,
        f"identity residual {worst:.3e} (tol 1e-11), "
        f"same-fiber residual {worst_same_fiber:.3e} (tol 1e-12)",
    )


def test_criterion_07_manifold_perfect_reconstruction(criterion):
    (worst,) = run(manifold_reconstruction, [(curve, 8) for curve in CURVES])
    criterion(
        "criterion 7: manifold perfect reconstruction (level 8, 5 levels)",
        worst <= 1e-10,
        f"worst geodesic/tangent error {worst:.3e} (tolerance 1e-10)",
    )


def test_criterion_08_euclidean_reduction(criterion):
    (details,) = run(euclidean_reduction, [4])
    rng = np.random.default_rng(SEED)
    data = periodic_sequence(rng.normal(size=(64, 3)), rng.normal(size=(64, 3)), level=4)
    rec = reconstruct_manifold(decompose_manifold(data, cubic_provider(), "midpoint", 4))
    worst = max(
        details,
        float(np.abs(rec.points - data.points).max()),
        float(np.abs(rec.vectors - data.vectors).max()),
    )
    numerator = proximity_numerator(cubic_provider().mask_at(0), data)
    criterion(
        "criterion 8: euclidean reduction of the manifold pipeline",
        worst <= 1e-13 and numerator <= 1e-13,
        f"deviation from the dual-filter details and round trip {worst:.3e}, "
        f"proximity numerator {numerator:.3e} "
        "(tolerance 1e-13)",
    )


def test_criterion_09_coefficient_decay(criterion):
    from geomwave.experiments import _slope, decay_experiment

    # The guaranteed rate 2^{-2n} is an upper bound. On C^4 presets the cubic
    # predictor is fourth-order accurate, so the manifold slope is compared
    # with the linear Hermite wavelet slope on the same ambient samples.
    lin_bank = build_bank(cubic_provider())
    details = []
    ok = True
    for tag, preset in (("sphere2", "wobble"), ("so3-quat", "quatcurve")):
        spec = get_preset(tag, preset)
        rep = decay_experiment(spec, cubic_provider(), "midpoint", 3, 8)
        lin = dual_filter_details(sample_signal(spec, 8), lin_bank, 5)
        lin_slope = _slope([d.level for d in lin], np.log2([sup_norm(d) for d in lin]))
        slope_ok = rep.fitted_slope <= -1.7
        linear_ok = abs(rep.fitted_slope - lin_slope) <= 0.3
        ratios = [2.0**r for r in rep.log2_ratios]  # ||d^[n+1]|| / ||d^[n]||
        ratio_ok = all(r <= 0.4 for n, r in zip(rep.levels[1:], ratios) if n >= 4)
        ok = ok and slope_ok and linear_ok and ratio_ok
        details.append(
            f"{preset}: slope {rep.fitted_slope:.2f} (<= -1.7), linear "
            f"Hermite slope {lin_slope:.2f} (within 0.3), max ratio "
            f"{max(ratios):.3f} (<= 0.4), C estimate "
            f"{rep.constant_estimate:.3g}"
        )
    criterion(
        "criterion 9: wavelet coefficient decay exponent (levels 3..8)", ok, "; ".join(details)
    )


def test_criterion_10_proximity_condition(criterion):
    # bounded: no finer level exceeds 10x the coarsest level's ratio (on
    # smooth data the ratio falls like 4^-n, so a max/min spread is no test);
    # numerator slope versus h = 2^-n on a log-log scale at least quadratic
    growth, slope = run(proximity, [(CURVES[0], range(4, 8))])
    criterion(
        "criterion 10: proximity condition (boundedness + numerator exponent)",
        growth <= 10.0 and slope >= 1.7,
        f"ratio max/coarsest {growth:.2f} (<= 10), numerator log-log slope "
        f"{slope:.2f} (>= 1.7)",
    )


def test_criterion_11_ominus_lipschitz(criterion):
    rng = np.random.default_rng(SEED)
    lo, hi = math.inf, -math.inf
    for M in (Sphere2(), SO3Quat()):
        for _ in range(500):
            eps = float(rng.uniform(1e-5, 1e-3))
            p = random_point(M, rng)
            b = (p, random_tangent(M, rng, p, scale=eps * float(rng.uniform(0.1, 1.0))))
            q = M.exp(p, random_tangent(M, rng, p, scale=eps * float(rng.uniform(0.1, 1.0))))
            u = random_tangent(M, rng, q, scale=eps * float(rng.uniform(0.1, 1.0)))
            r = ominus_lipschitz_ratio(M, (q, u), b)
            lo, hi = min(lo, r), max(hi, r)
    criterion(
        "criterion 11: fiber-difference linearization ratios (perturbations <= 1e-3)",
        0.9 <= lo and hi <= 1.1,
        f"ratio range [{lo:.4f}, {hi:.4f}] (window [0.9, 1.1])",
    )


def test_criterion_12_error_paths(criterion, tmp_path, capsys):
    # antipodal sphere data must exit with code 3 naming the failing level
    M = Sphere2()
    P = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    c = ManifoldHermiteSeq(M, P, np.zeros_like(P), level=1)
    s = str(tmp_path / "anti.json")
    write_samples(c, s)
    code = cli_main(
        ["decompose", "--in", s, "--levels", "1", "--out", str(tmp_path / "p.json")]
    )
    err = capsys.readouterr().err
    antipodal_ok = code == 3 and "level" in err

    # a corrupted detail base point must abort reconstruction
    cN = sample_signal(get_preset("sphere2", "wobble"), 5)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    d0 = pyr.details[0]
    bad = d0.bases.copy()
    bad[0] = M.exp(bad[0], np.array([0.0, 0.0, 1e-3]))
    bad[0] /= np.linalg.norm(bad[0])
    corrupted = replace(pyr, details=(replace(d0, bases=bad),) + pyr.details[1:])
    try:
        reconstruct_manifold(corrupted)
        corrupt_ok = False
        msg = "no abort"
    except BaseMismatchError as exc:
        corrupt_ok = "level" in str(exc) and exc.exit_code == 2
        msg = "abort with mismatch report"
    criterion(
        "criterion 12: error-path contract (exit codes and diagnostics)",
        antipodal_ok and corrupt_ok,
        f"antipodal decompose exit {code} naming level; corrupted pyramid: {msg}",
    )
