"""Differential tests against ``reference_filterbank``, compared with ``==``:
``geomwave.filterbank.biorthogonality_residuals``, which stacks the probes of
one length by columns and checks them in one pass, against the per-probe
loop, and ``symbol_biorthogonality_residuals``, which doubles the even part of
one product, against the two products of the Laurent-polynomial class."""

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
    build_bank,
    symbol_biorthogonality_residuals,
)
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import Mask, interior_sequence, periodic_sequence

# Signed zeros and ordinary magnitudes: every product and sum stays finite.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def random_filters(bank, level, perturb_seed):
    """The bank's filters at ``level``; with a seed, one random block of one
    random filter is perturbed by 1e-3."""
    filt = bank.filters_at(level)
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
    filt = random_filters(build_bank(provider), level, perturb_seed)
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
    return random_filters(build_bank(provider), level, seed)


@settings(max_examples=300, deadline=None)
@given(filters=symbol_filters())
def test_symbol_residuals_match_laurent_reference(filters):
    got = symbol_biorthogonality_residuals(filters)
    assert got == reference_filterbank.symbol_biorthogonality_residuals(filters)


@pytest.mark.parametrize(
    "config",
    [{"seed": s} for s in range(4)] + [{"seed": 0, "perturb_mask": 1e-3}],
    ids=["seed0", "seed1", "seed2", "seed3", "perturbed"],
)
def test_verify_suite_residuals_match_per_probe_loop(config, monkeypatch):
    batched = experiments.verify_suite(config).checks
    monkeypatch.setattr(
        experiments,
        "biorthogonality_residuals",
        reference_filterbank.biorthogonality_residuals,
    )
    assert batched == experiments.verify_suite(config).checks


def test_interior_window_probe_refused(rng):
    filt = build_bank(cubic_provider()).filters_at(0)
    good = periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
    window = interior_sequence(
        rng.normal(size=(32, 2)), rng.normal(size=(32, 2)), start=-5
    )
    with pytest.raises(ValueError, match="must be periodic"):
        biorthogonality_residuals(filt, [good, window])
