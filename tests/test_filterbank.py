"""Filter banks: derived duals, biorthogonality, pyramids, vanishing moments."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import SchemaError
from geomwave.experiments import biorthogonality, default_config, vanishing_moments
from geomwave.filterbank import (
    biorthogonality_residuals,
    build_bank,
    decompose_linear,
    reconstruct_linear,
    symbol_biorthogonality_residuals,
    vanishing_moment_residual,
)
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import (
    diag_d,
    periodic_sequence,
    seq_sub,
    sup_norm,
)
from reference_filterbank import MatLaurent, laurent_symbol


def random_probes(rng, count=10, length=32, m=2):
    return [
        periodic_sequence(rng.normal(size=(length, m)), rng.normal(size=(length, m)))
        for _ in range(count)
    ]


def test_derived_filter_structure():
    filt = build_bank(cubic_provider()).filters_at(0)
    # B has symbol z * I, At has constant symbol D^-1
    assert filt.B.lo == filt.B.hi == 1
    assert np.array_equal(filt.B.block(1), np.eye(2))
    assert filt.At.lo == filt.At.hi == 0
    assert np.array_equal(filt.At.block(0), diag_d(-1))
    # Bt blocks follow the alternating-transpose formula from A
    Dinv = diag_d(-1)
    for k in range(filt.Bt.lo, filt.Bt.hi + 1):
        want = (-1.0) ** (1 - k) * Dinv @ filt.A.block(1 - k).T
        assert np.allclose(filt.Bt.block(k), want, atol=0)


def test_matlaurent_algebra(rng):
    """The Laurent-polynomial class of the symbol-form reference."""
    a = MatLaurent(-2, rng.normal(size=(4, 2, 2)))
    b = MatLaurent(1, rng.normal(size=(3, 2, 2)))
    # sharp is an involution and an anti-homomorphism for @
    assert np.allclose(a.sharp().sharp().coeffs, a.coeffs)
    lhs = (a @ b).sharp()
    rhs = b.sharp() @ a.sharp()
    assert lhs.lo == rhs.lo
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    # neg_arg is multiplicative
    lhs = (a @ b).neg_arg()
    rhs = a.neg_arg() @ b.neg_arg()
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    # evaluation consistency at z = 2 for add and matmul
    def ev(p, z):
        return sum(c * z**k for k, c in zip(range(p.lo, p.hi + 1), p.coeffs))
    assert np.allclose(ev(a @ b, 2.0), ev(a, 2.0) @ ev(b, 2.0), atol=1e-10)
    assert np.allclose(ev(a + b, 2.0), ev(a, 2.0) + ev(b, 2.0), atol=1e-10)
    assert np.allclose(ev(a.neg_arg(), 2.0), ev(a, -2.0), atol=1e-10)
    assert np.allclose(ev(a.sharp(), 2.0), ev(a, 0.5).T, atol=1e-10)


def test_biorthogonality_both_forms_clean():
    cfg = dict(default_config(), probes=10)
    for provider in (cubic_provider(), exponential_provider(1.5)):
        results = biorthogonality((provider, (0, 2, 4)), cfg)
        assert [r.passed for r in results] == [True, True], results


def test_perturbed_filter_breaks_both_forms(rng):
    probes = random_probes(rng)
    filt = build_bank(cubic_provider()).filters_at(0)
    delta = 1e-3 * rng.standard_normal((2, 2))
    for name in ("A", "B", "At", "Bt"):
        mask = getattr(filt, name)
        broken = replace(filt, **{name: mask.perturbed(mask.lo, delta)})
        op = max(biorthogonality_residuals(broken, probes))
        sym = max(symbol_biorthogonality_residuals(broken))
        assert op > 1e-13 and sym > 1e-13, name


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    levels=st.integers(1, 4),
    m=st.integers(1, 3),
)
def test_linear_roundtrip_property(seed, levels, m):
    rng = np.random.default_rng(seed)
    length = 8 << levels
    data = periodic_sequence(
        rng.normal(size=(length, m)), rng.normal(size=(length, m)), level=levels
    )
    bank = build_bank(cubic_provider())
    rec = reconstruct_linear(decompose_linear(data, bank, levels), bank)
    assert sup_norm(seq_sub(rec, data)) <= 1e-12
    assert rec.level == data.level


def test_pyramid_shapes(rng):
    data = periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)), level=3)
    pyr = decompose_linear(data, build_bank(cubic_provider()), 3)
    assert pyr.levels == 3
    assert len(pyr.coarse) == 4
    assert [len(d) for d in pyr.details] == [4, 8, 16]


def test_decompose_validates_input(rng):
    bank = build_bank(cubic_provider())
    data = periodic_sequence(rng.normal(size=(12, 1)), rng.normal(size=(12, 1)))
    with pytest.raises(SchemaError, match="cannot decompose 12 samples over 3 levels"):
        decompose_linear(data, bank, 3)  # 12 not divisible by 8


def test_exponential_pyramid_uses_absolute_levels(rng):
    """Level-dependent banks must index masks by the grid the data lives on:
    decomposing level-4 data must use masks at levels 3, 2, 1."""
    lam = 2.0
    bank = build_bank(exponential_provider(lam))
    data = periodic_sequence(
        rng.normal(size=(32, 1)), rng.normal(size=(32, 1)), level=4
    )
    pyr = decompose_linear(data, bank, 3)
    rec = reconstruct_linear(pyr, bank)
    assert sup_norm(seq_sub(rec, data)) <= 1e-12
    # an exponential sample sequence is annihilated only with correct levels
    lam_f = 1.0
    bank2 = build_bank(exponential_provider(lam_f))
    n = 4
    L = 16
    xs = np.arange(L) / 2.0**n
    P = np.exp(lam_f * xs)[:, None]
    V = (2.0**-n * lam_f * np.exp(lam_f * xs))[:, None]
    # not periodic data; use one prediction step instead of the pyramid
    from geomwave.sequences import apply_subdivision, interior_sequence

    c = interior_sequence(P, V, 0, level=n)
    pred = apply_subdivision(bank2.filters_at(n).A, c)
    exact_x = np.arange(pred.start, pred.start + len(pred)) / 2.0 ** (n + 1)
    errs = np.abs(pred.points[:, 0] - np.exp(lam_f * exact_x))
    assert errs.max() <= 1e-12


def test_reconstruct_linear_refuses_another_predictor(rng):
    """A pyramid reconstructs with its own predictor: a bank built from
    another one is a SchemaError naming both, not a base-audit mismatch."""
    data = periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
    pyr = decompose_linear(data, build_bank(cubic_provider()), 2)
    assert reconstruct_linear(pyr, build_bank(cubic_provider())).level == data.level
    with pytest.raises(SchemaError) as exc:
        reconstruct_linear(pyr, build_bank(exponential_provider(2.0)))
    assert "kind='cubic'" in str(exc.value) and "lam=2.0" in str(exc.value)


def test_bank_builds_only_the_levels_a_pyramid_uses(rng):
    """exp(60) passes the mask's overflow guard (|lambda| 2^-n <= 50) at
    levels 1 and finer only: a pyramid over levels 2..5 runs, and level 0
    is refused when asked for."""
    bank = build_bank(exponential_provider(60.0))
    data = periodic_sequence(rng.normal(size=(64, 1)), rng.normal(size=(64, 1)), level=6)
    rec = reconstruct_linear(decompose_linear(data, bank, 4), bank)
    assert sup_norm(seq_sub(rec, data)) <= 1e-12
    with pytest.raises(SchemaError, match="at level 0"):
        bank.filters_at(0)


def test_vanishing_moments_cubic_and_exponential():
    """Bt annihilates the whole reproduction space: cubics with the cubic
    bank (to 1e-12), and 1, x, e^{x}, e^{-x} with the exp(1) bank (1e-10)."""
    for provider in (cubic_provider(), exponential_provider(1.0)):
        subject = (provider, {2: 12}, provider.reproduction_space())
        (result,) = vanishing_moments(subject, default_config())
        assert result.passed, result


def test_cubic_bank_does_not_annihilate_quartic():
    cub = build_bank(cubic_provider()).filters_at(2)
    r = vanishing_moment_residual(
        cub, lambda x: x**4, lambda x: 4 * x**3, 2, (-12, 12)
    )
    assert r > 1e-8


def test_probe_length_guard(rng):
    filt = build_bank(cubic_provider()).filters_at(0)
    short = [periodic_sequence(rng.normal(size=(4, 1)), rng.normal(size=(4, 1)))]
    with pytest.raises(ValueError):
        biorthogonality_residuals(filt, short)


def test_symbol_matches_mask():
    """The reference's symbol of a mask has the mask's blocks as coefficients."""
    mask = cubic_provider().mask_at(0)
    sym = laurent_symbol(mask)
    assert sym.lo == mask.lo
    assert np.array_equal(sym.coeffs, mask.blocks)
