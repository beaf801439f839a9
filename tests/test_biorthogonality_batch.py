"""Differential tests against ``reference_filterbank``, compared with ``==``:
``geomwave.filterbank.biorthogonality_residuals``, which stacks the probes of
one length by columns and checks them in one pass, against the per-probe
loop; ``symbol_biorthogonality_residuals``, which doubles the even part of
one product, against the two products of the Laurent-polynomial class; and
``geomwave.experiments.biorthogonality``, which certifies each distinct
filter set once, against the per-level loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_filterbank
from geomwave import experiments
from geomwave.filterbank import (
    LevelFilters,
    biorthogonality_residuals,
    filters_at,
    symbol_biorthogonality_residuals,
)
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import HermiteSequence, Mask, periodic_sequence

# Signed zeros and ordinary magnitudes: every product and sum stays finite.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def random_filters(provider, level, perturb_seed):
    """The predictor's filters at ``level``; with a seed, one random block of
    one random filter is perturbed by 1e-3."""
    filt = filters_at(provider, level)
    if perturb_seed is None:
        return filt
    rng = np.random.default_rng(perturb_seed)
    name = ("A", "B", "At", "Bt")[rng.integers(4)]
    mask = getattr(filt, name)
    k = mask.lo + int(rng.integers(mask.width))
    delta = 1e-3 * rng.standard_normal((2, 2))
    return replace(filt, **{name: mask.perturbed(k, delta)})


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    halves=st.lists(st.integers(6, 32), min_size=1, max_size=3).flatmap(
        # draw from a few half-lengths so that some probes share a stack
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ),
    dims=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    lam=st.one_of(st.none(), st.floats(0.1, 3.0)),
    level=st.integers(0, 3),
    perturb_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_batched_residuals_match_per_probe_loop(
    seed, halves, dims, lam, level, perturb_seed
):
    provider = cubic_provider() if lam is None else exponential_provider(lam)
    filt = random_filters(provider, level, perturb_seed)
    rng = np.random.default_rng(seed)
    probes = [
        periodic_sequence(rng.normal(size=(2 * h, m)), rng.normal(size=(2 * h, m)))
        for h, m in zip(halves, dims)
    ]
    got = biorthogonality_residuals(filt, probes)
    assert got == reference_filterbank.biorthogonality_residuals(filt, probes)
    if perturb_seed is None:
        assert max(got) <= 1e-13


@st.composite
def symbol_filters(draw):
    """Four random masks (supports lo -5..4, width 1..6, so some products
    have no exponent 0), or a real bank's filters with one perturbed block."""
    if draw(st.booleans()):
        masks = []
        for _ in range(4):
            shape = (draw(st.integers(1, 6)), 2, 2)
            lo = draw(st.integers(-5, 4))
            masks.append(Mask(lo, draw(hnp.arrays(float, shape, elements=VALUES))))
        return LevelFilters(*masks)
    lam = draw(st.sampled_from([None, 0.1, 1.0, 1.5, 3.0, -2.0]))
    provider = cubic_provider() if lam is None else exponential_provider(lam)
    level = draw(st.integers(-2, 5))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return random_filters(provider, level, seed)


@settings(max_examples=300, deadline=None)
@given(filters=symbol_filters())
def test_symbol_residuals_match_laurent_reference(filters):
    got = symbol_biorthogonality_residuals(filters)
    assert got == reference_filterbank.symbol_biorthogonality_residuals(filters)


VERIFY_CONFIGS = pytest.mark.parametrize(
    "config",
    [{"seed": s} for s in range(4)] + [{"seed": 0, "perturb_mask": 1e-3}],
    ids=["seed0", "seed1", "seed2", "seed3", "perturbed"],
)


@VERIFY_CONFIGS
def test_verify_suite_residuals_match_per_probe_loop(config, monkeypatch):
    batched = experiments.verify_suite(config).checks
    monkeypatch.setattr(
        experiments,
        "biorthogonality_residuals",
        reference_filterbank.biorthogonality_residuals,
    )
    assert batched == experiments.verify_suite(config).checks


@VERIFY_CONFIGS
def test_verify_suite_matches_per_level_loop(config, monkeypatch):
    distinct = experiments.verify_suite(config).checks
    registry = tuple(
        (names, reference_filterbank.biorthogonality, subject)
        if check is experiments.biorthogonality
        else (names, check, subject)
        for names, check, subject in experiments.REGISTRY
    )
    assert sum(r != s for r, s in zip(registry, experiments.REGISTRY)) == 2
    monkeypatch.setattr(experiments, "REGISTRY", registry)
    assert distinct == experiments.verify_suite(config).checks


# the banks of acceptance criteria 2 and 3
CRITERION_BANKS = [cubic_provider()] + [exponential_provider(x) for x in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("probes", [1, 100])
@pytest.mark.parametrize(
    "provider", CRITERION_BANKS, ids=["cubic", "exp(0.5)", "exp(1.0)", "exp(2.0)"]
)
def test_biorthogonality_matches_per_level_loop(provider, probes):
    cfg = dict(experiments.default_config(), seed=20240817, probes=probes)
    subject = (provider, range(6))
    want = reference_filterbank.biorthogonality(subject, cfg)
    assert experiments.biorthogonality(subject, cfg) == want


@pytest.mark.parametrize(
    "provider,perturb,sets",
    [(cubic_provider(), 0.0, 1), (exponential_provider(1.0), 0.0, 4),
     (cubic_provider(), 1e-3, 4)],
    ids=["cubic", "exp(1.0)", "cubic-perturbed"],
)
def test_each_distinct_filter_set_is_certified_once(
    monkeypatch, provider, perturb, sets
):
    """The stationary cubic bank has one filter set at levels 0..3; exp(1.0)
    has one per level, and a perturbed run one per level's delta."""
    calls = []
    for name in ("biorthogonality_residuals", "symbol_biorthogonality_residuals"):
        real = getattr(experiments, name)
        monkeypatch.setattr(
            experiments, name, lambda *a, f=real: calls.append(f.__name__) or f(*a)
        )
    cfg = dict(experiments.default_config(), perturb_mask=perturb)
    results = experiments.biorthogonality((provider, range(4)), cfg)
    assert [r.passed for r in results] == [perturb == 0.0] * 2
    assert calls.count("biorthogonality_residuals") == sets
    assert calls.count("symbol_biorthogonality_residuals") == sets


def test_interior_window_probe_refused(rng):
    filt = filters_at(cubic_provider(), 0)
    good = periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
    window = HermiteSequence(
        rng.normal(size=(32, 2)), rng.normal(size=(32, 2)), periodic=False, start=-5
    )
    with pytest.raises(ValueError, match="must be periodic"):
        biorthogonality_residuals(filt, [good, window])
