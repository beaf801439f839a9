"""Acceptance suite: one test per numbered criterion, each recording a single
pass/fail line (printed in the terminal summary).

Criteria 9 and 10 assert the bounds the method promises, which are upper
bounds: coefficient decay at least like 2^{-2n} (and within 0.3 of the linear
Hermite wavelet slope on the same samples), and a proximity numerator of at
least quadratic order with a bounded ratio. On the smooth presets the cubic
predictor is fourth-order accurate, so the measured decay slopes are about
-3.9 and the numerator exponent about 3.8.
"""

import math

import numpy as np

from geomwave.cli import main as cli_main
from geomwave.errors import BaseMismatchError
from geomwave.filterbank import (
    biorthogonality_residuals,
    build_bank,
    decompose_linear,
    dual_filter_details,
    reconstruct_linear,
    symbol_biorthogonality_residuals,
    vanishing_moment_residual,
)
from geomwave.io import write_samples
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import periodic_sequence, seq_sub, sup_norm
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import (
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
    decompose_manifold,
    from_linear,
    ominus,
    ominus_lipschitz_ratio,
    oplus,
    proximity_numerator,
    proximity_ratio,
    reconstruct_manifold,
    to_linear,
)
from random_cases import random_point, random_tangent

SEED = 20240817


def make_probes(rng, count, length=32, m=2):
    return [
        periodic_sequence(rng.normal(size=(length, m)), rng.normal(size=(length, m)))
        for _ in range(count)
    ]


ALL_BANKS = [("cubic", cubic_provider())] + [
    (f"exp({lam})", exponential_provider(lam)) for lam in (0.5, 1.0, 2.0)
]


def test_criterion_01_linear_perfect_reconstruction(criterion):
    rng = np.random.default_rng(SEED)
    data = periodic_sequence(
        rng.normal(size=(64, 3)), rng.normal(size=(64, 3)), level=5
    )
    bank = build_bank(cubic_provider())
    rec = reconstruct_linear(decompose_linear(data, bank, 5), bank)
    err = sup_norm(seq_sub(rec, data))
    criterion(
        "criterion 1: linear perfect reconstruction (m=3, len 64, 5 levels)",
        err <= 1e-12,
        f"max error {err:.3e} (tolerance 1e-12)",
    )


def test_criterion_02_biorthogonality_operator_form(criterion):
    rng = np.random.default_rng(SEED)
    probes = make_probes(rng, 100)
    worst = 0.0
    for label, prov in ALL_BANKS:
        bank = build_bank(prov)
        for level in range(6):
            worst = max(
                worst, *biorthogonality_residuals(bank.filters_at(level), probes)
            )
    criterion(
        "criterion 2: biorthogonality, operator form (100 probes, 4 banks, levels 0..5)",
        worst <= 1e-13,
        f"worst residual {worst:.3e} (tolerance 1e-13)",
    )


def test_criterion_03_biorthogonality_symbol_form(criterion):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for label, prov in ALL_BANKS:
        bank = build_bank(prov)
        for level in range(6):
            worst = max(
                worst, *symbol_biorthogonality_residuals(bank.filters_at(level))
            )
    symbol_clean = worst <= 1e-13

    # pass/fail agreement between operator and symbol form under random
    # mask perturbations of magnitude 1e-3
    probes = make_probes(rng, 3)
    filters = [build_bank(p).filters_at(0) for _, p in ALL_BANKS]
    agree = 0
    trials = 1000
    for t in range(trials):
        filt = filters[rng.integers(len(filters))]
        name = ("A", "B", "At", "Bt")[rng.integers(4)]
        mask = getattr(filt, name)
        delta = 1e-3 * rng.standard_normal((2, 2))
        k = int(rng.integers(mask.lo, mask.hi + 1))
        broken = filt.with_mask(name, mask.perturbed(k, delta))
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
    worst_poly = 0.0
    cub_bank = build_bank(cubic_provider())
    for level in range(7):
        w = 2 ** (level + 2)  # window spans x in [-2, 2] at sampling level+1
        for deg in range(4):
            worst_poly = max(
                worst_poly,
                vanishing_moment_residual(
                    cub_bank.filters_at(level),
                    lambda x: x**deg,
                    lambda x: deg * x ** (deg - 1) if deg else 0.0,
                    level,
                    (-w, w),
                ),
            )
    worst_exp = 0.0
    for lam in (0.5, 1.0, 2.0):
        bank = build_bank(exponential_provider(lam))
        for level in range(7):
            w = 2 ** (level + 2)
            for f, df in (
                (lambda x: 1.0, lambda x: 0.0),
                (
                    lambda x: math.exp(lam * x),
                    lambda x: lam * math.exp(lam * x),
                ),
                (
                    lambda x: math.exp(-lam * x),
                    lambda x: -lam * math.exp(-lam * x),
                ),
            ):
                worst_exp = max(
                    worst_exp,
                    vanishing_moment_residual(
                        bank.filters_at(level), f, df, level, (-w, w)
                    ),
                )
    criterion(
        "criterion 4: vanishing moments (poly/cubic, exponential/matching bank, levels 0..6)",
        worst_poly <= 1e-12 and worst_exp <= 1e-10,
        f"poly residual {worst_poly:.3e} (tol 1e-12), "
        f"exponential residual {worst_exp:.3e} (tol 1e-10)",
    )


def test_criterion_05_geometry_kernel(criterion):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for M in (Sphere2(), SO3Quat(), Euclidean(3)):
        for _ in range(1000):
            p = random_point(M, rng)
            v = random_tangent(M, rng, p, scale=float(rng.uniform(0.01, 2.5)))
            q = M.exp(p, v)
            worst = max(worst, float(np.abs(M.log(p, q) - v).max()))
            w = random_tangent(M, rng, p, scale=float(rng.uniform(0.1, 2.0)))
            wq = M.transport(p, w, q)
            worst = max(worst, abs(float(np.linalg.norm(wq) - np.linalg.norm(w))))
            worst = max(worst, float(np.abs(M.transport(q, wq, p) - w).max()))
            mid = M.midpoint(p, q)
            worst = max(worst, abs(M.dist(p, mid) - M.dist(mid, q)))
    criterion(
        "criterion 5: geometry kernel (1000 cases per manifold)",
        worst <= 1e-11,
        f"worst residual {worst:.3e} (tolerance 1e-11)",
    )


def test_criterion_06_fiber_algebra(criterion):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_same_fiber = 0.0
    for M in (Sphere2(), SO3Quat(), Euclidean(3)):
        for _ in range(1000):
            p = random_point(M, rng)
            a = (p, random_tangent(M, rng, p, scale=0.5))
            pt = M.exp(
                p, random_tangent(M, rng, p, scale=float(rng.uniform(0.05, 1.0)))
            )
            at = (pt, random_tangent(M, rng, pt, scale=0.5))
            base, u0, u1 = ominus(M, at, a)
            q, v = oplus(M, a, base, u0, u1)
            worst = max(worst, M.dist(q, at[0]), float(np.abs(v - at[1]).max()))
            u0b = random_tangent(M, rng, p, scale=0.5)
            u1b = random_tangent(M, rng, p, scale=0.5)
            q2, v2 = oplus(M, a, p, u0b, u1b)
            _, r0, r1 = ominus(M, (q2, v2), a)
            sf = max(float(np.abs(r0 - u0b).max()), float(np.abs(r1 - u1b).max()))
            worst = max(worst, sf)
            worst_same_fiber = max(worst_same_fiber, sf)
    criterion(
        "criterion 6: fiber algebra identities + same-fiber remark",
        worst <= 1e-11 and worst_same_fiber <= 1e-12,
        f"identity residual {worst:.3e} (tol 1e-11), "
        f"same-fiber residual {worst_same_fiber:.3e} (tol 1e-12)",
    )


def test_criterion_07_manifold_perfect_reconstruction(criterion):
    worst = 0.0
    for tag, preset in (("sphere2", "wobble"), ("so3-quat", "quatcurve")):
        cN = sample_signal(get_preset(tag, preset), 8)
        M = cN.manifold
        pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 5)
        rec = reconstruct_manifold(pyr)
        worst = max(
            worst,
            max(M.dist(a, b) for a, b in zip(rec.points, cN.points)),
            float(np.abs(rec.vectors - cN.vectors).max()),
        )
    criterion(
        "criterion 7: manifold perfect reconstruction (level 8, 5 levels)",
        worst <= 1e-10,
        f"worst geodesic/tangent error {worst:.3e} (tolerance 1e-10)",
    )


def test_criterion_08_euclidean_reduction(criterion):
    rng = np.random.default_rng(SEED)
    data = periodic_sequence(
        rng.normal(size=(64, 3)), rng.normal(size=(64, 3)), level=4
    )
    ref = dual_filter_details(data, build_bank(cubic_provider()), 4)
    man = decompose_manifold(
        from_linear(Euclidean(3), data), cubic_provider(), "midpoint", 4
    )
    worst = 0.0
    for dr, dm in zip(ref, man.details):
        worst = max(
            worst,
            float(np.abs(dr.points - dm.u0).max()),
            float(np.abs(dr.vectors - dm.u1).max()),
        )
    rec = reconstruct_manifold(man)
    worst = max(
        worst,
        float(np.abs(rec.points - data.points).max()),
        float(np.abs(rec.vectors - data.vectors).max()),
    )
    numerator = proximity_numerator(
        cubic_provider().mask_at(0), from_linear(Euclidean(3), data)
    )
    criterion(
        "criterion 8: euclidean reduction of the manifold pipeline",
        worst <= 1e-13 and numerator <= 1e-13,
        f"deviation from the dual-filter details and round trip {worst:.3e}, "
        f"proximity numerator {numerator:.3e} "
        "(tolerance 1e-13)",
    )


def test_criterion_09_coefficient_decay(criterion):
    from geomwave.experiments import decay_experiment

    # The guaranteed rate 2^{-2n} is an upper bound. On C^4 presets the cubic
    # predictor is fourth-order accurate, so the manifold slope is compared
    # with the linear Hermite wavelet slope on the same ambient samples.
    lin_bank = build_bank(cubic_provider())
    details = []
    ok = True
    for tag, preset in (("sphere2", "wobble"), ("so3-quat", "quatcurve")):
        spec = get_preset(tag, preset)
        rep = decay_experiment(spec, cubic_provider(), "midpoint", 3, 8)
        lin = dual_filter_details(to_linear(sample_signal(spec, 8)), lin_bank, 5)
        lin_slope = float(
            np.polyfit(
                [d.level for d in lin],
                np.log2([sup_norm(d) for d in lin]),
                1,
            )[0]
        )
        slope_ok = rep.fitted_slope <= -1.7
        linear_ok = abs(rep.fitted_slope - lin_slope) <= 0.3
        ratio_ok = all(
            r <= 0.4 for n, r in zip(rep.levels[1:], rep.ratios) if n >= 4
        )
        ok = ok and slope_ok and linear_ok and ratio_ok
        details.append(
            f"{preset}: slope {rep.fitted_slope:.2f} (<= -1.7), linear "
            f"Hermite slope {lin_slope:.2f} (within 0.3), max ratio "
            f"{max(rep.ratios):.3f} (<= 0.4), C estimate "
            f"{rep.constant_estimate:.3g}"
        )
    criterion(
        "criterion 9: wavelet coefficient decay exponent (levels 3..8)",
        ok,
        "; ".join(details),
    )


def test_criterion_10_proximity_condition(criterion):
    spec = get_preset("sphere2", "wobble")
    mask = cubic_provider().mask_at(0)
    levels = [4, 5, 6, 7]
    ratios, nums = [], []
    for n in levels:
        c = sample_signal(spec, n)
        ratios.append(proximity_ratio(mask, c, "midpoint"))
        nums.append(proximity_numerator(mask, c, "midpoint"))
    # bounded: no finer level exceeds 10x the coarsest level's ratio (on
    # smooth data the ratio falls like 4^-n, so a max/min spread is no test)
    growth = max(ratios) / ratios[0]
    # numerator slope versus h = 2^-n on a log-log scale; proximity promises
    # at least quadratic order
    slope = float(
        np.polyfit([-n for n in levels], np.log2(nums), 1)[0]
    )
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
            q = M.exp(
                p, random_tangent(M, rng, p, scale=eps * float(rng.uniform(0.1, 1.0)))
            )
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
    corrupted = ManifoldPyramid(
        pyr.coarse,
        (TangentPairSeq(M, bad, d0.u0, d0.u1, d0.level),) + pyr.details[1:],
        pyr.provider,
        pyr.rule,
    )
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
