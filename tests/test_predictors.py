"""Predictor masks: reproduction oracles, interpolatory structure, limits."""

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import SchemaError
from geomwave.manifolds import Sphere2
from geomwave.predictors import (
    cubic_hermite_mask,
    cubic_provider,
    exponential_hermite_mask,
    exponential_provider,
    interpolatory_check,
    MaskProvider,
    poly_space,
    exponential_space,
    provider_from_config,
)
from geomwave.sequences import (
    HermiteSequence,
    apply_subdivision,
    seq_sub,
    sup_norm,
)
from geomwave.signals import real_signal, sample_signal
from geomwave.transform import ManifoldHermiteSeq, manifold_subdivide_once
from sequence_ops import delta_sequence


def sample_window(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    level: int,
    window: tuple[int, int],
) -> HermiteSequence:
    """Normalized samples (f(j/2^n), 2^-n f'(j/2^n)) of a real array function
    for j in [window], through ``sample_signal``."""
    h = 2.0 ** (-level)
    spec = real_signal("element", f, df, (window[0] * h, window[1] * h))
    return sample_signal(spec, level)


def spectral_condition_residual(
    provider: MaskProvider,
    f: Callable[[float], float],
    df: Callable[[float], float],
    level: int,
    window: tuple[int, int],
) -> float:
    """Sup norm of S_{A^[n]} c^[n] - c^[n+1] for samples of f, over the
    output indices whose taps all lie in the window."""
    a, b = window
    if b - a < 2:
        raise ValueError("window too small for one subdivision step")
    cn = sample_window(f, df, level, window)
    out = apply_subdivision(provider.mask_at(level), cn)
    exact = sample_window(f, df, level + 1, (out.start, out.start + len(out) - 1))
    diff = seq_sub(out, exact)
    return sup_norm(diff)


@dataclass(frozen=True)
class BasicLimitTable:
    """Dyadic-grid approximation of the 2x2 basic-limit-function matrix of the
    scheme started at a given level, from iterated delta data."""

    start_level: int
    iterations: int
    values: np.ndarray  # (2, 2, L): [row][column][grid point]
    sup: float

    @property
    def grid_step(self) -> float:
        return 2.0 ** (-self.iterations)


def basic_limit_table(
    provider: MaskProvider, start_level: int, iterations: int, length: int = 8
) -> BasicLimitTable:
    """Run the scheme (starting at ``start_level``) on delta data and record
    un-normalized values approximating the basic limit function matrix."""
    if iterations > 20:
        raise ValueError("iterations capped at 20 (grid 2^-20)")
    cols = []
    for pair in ((1.0, 0.0), (0.0, 1.0)):
        c = delta_sequence(1, length, pair=pair)
        for k in range(iterations):
            c = apply_subdivision(provider.mask_at(start_level + k), c)
        # un-normalize: p^[k] = D^-k c^[k]
        cols.append((c.points[:, 0], c.vectors[:, 0] * 2.0**iterations))
        if not np.isfinite(cols[-1][1]).all():
            raise OverflowError("diverging derivative column in limit table")
    # values[r][c]: r=0 function row, r=1 derivative row; c = initial column
    values = np.array([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    return BasicLimitTable(
        start_level, iterations, values, float(np.abs(values).max())
    )


def hermite_midpoint_oracle(p0, d0, p1, d1, h):
    """Two-point cubic Hermite interpolation on [0, h] evaluated at h/2,
    via an independent polynomial solve."""
    # coefficients of a + b x + c x^2 + d x^3 matching values/derivatives
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, h, h**2, h**3],
            [0.0, 1.0, 2 * h, 3 * h**2],
        ]
    )
    a, b, c, d = np.linalg.solve(A, [p0, d0, p1, d1])
    x = h / 2.0
    return (
        a + b * x + c * x**2 + d * x**3,
        b + 2 * c * x + 3 * d * x**2,
    )


def test_cubic_mask_matches_midpoint_oracle(rng):
    """The odd-index stencil must reproduce cubic Hermite interpolation at
    the interval midpoint, in normalized coordinates."""
    mask = cubic_hermite_mask()
    for level in (0, 2, 5):
        h = 2.0 ** (-level)
        p0, d0, p1, d1 = rng.normal(size=4)
        val, der = hermite_midpoint_oracle(p0, d0, p1, d1, h)
        # normalized input pairs at consecutive indices
        left = np.array([p0, h * d0])
        right = np.array([p1, h * d1])
        out = mask.block(1) @ left + mask.block(-1) @ right
        assert out[0] == pytest.approx(val, abs=1e-12)
        assert out[1] == pytest.approx(h / 2.0 * der, abs=1e-12)


def test_cubic_mask_is_interpolatory():
    mask = cubic_hermite_mask()
    assert interpolatory_check(mask)
    assert np.array_equal(mask.block(0), [[1.0, 0.0], [0.0, 0.5]])
    broken = mask.perturbed(0, np.array([[1e-15, 0.0], [0.0, 0.0]]))
    assert not interpolatory_check(broken)


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.05, 5.0),
    level=st.integers(0, 8),
    seed=st.integers(0, 10**6),
)
def test_exponential_mask_reproduces_its_span(lam, level, seed):
    """The exponential mask must interpolate span{1, x, e^(lx), e^(-lx)}
    exactly at the midpoint (collocation oracle)."""
    mask = exponential_hermite_mask(lam, level)
    h = 2.0 ** (-level)
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=4)

    def f(x):
        return coeff @ [1.0, x, math.exp(lam * x), math.exp(-lam * x)]

    def df(x):
        return coeff @ [0.0, 1.0, lam * math.exp(lam * x), -lam * math.exp(-lam * x)]

    left = np.array([f(0.0), h * df(0.0)])
    right = np.array([f(h), h * df(h)])
    out = mask.block(1) @ left + mask.block(-1) @ right
    scale = max(1.0, abs(f(h / 2)))
    assert abs(out[0] - f(h / 2)) <= 1e-10 * scale
    assert abs(out[1] - h / 2 * df(h / 2)) <= 1e-10 * scale


def test_exponential_mask_interpolatory_and_limits():
    for lam in (0.5, 1.0, 2.0):
        for level in range(7):
            assert interpolatory_check(exponential_hermite_mask(lam, level))
    # lambda -> 0 and level -> infinity both converge to the cubic mask
    cub = cubic_hermite_mask()
    near = exponential_hermite_mask(1e-4, 0)
    assert np.abs(near.blocks - cub.blocks).max() <= 1e-7
    deep = exponential_hermite_mask(1.0, 25)
    assert np.abs(deep.blocks - cub.blocks).max() <= 1e-8


def test_exponential_mask_guards():
    with pytest.raises(ValueError):
        exponential_hermite_mask(0.0, 0)
    with pytest.raises(ValueError):
        exponential_hermite_mask(100.0, -3)  # |lambda| * 2^-level > 50
    # deep levels switch to the cubic mask exactly
    assert np.array_equal(
        exponential_hermite_mask(1.0, 30).blocks, cubic_hermite_mask().blocks
    )


def test_provider_validation():
    with pytest.raises(ValueError):
        MaskProvider("quintic")
    with pytest.raises(ValueError):
        MaskProvider("exp", 0.0)
    assert cubic_provider().mask_at(3).lo == -1
    assert len(poly_space(3)) == 4
    assert len(exponential_space(1.0)) == 4


def test_spectral_condition_cubic():
    """Exact reproduction of polynomials up to degree 3 on sampled data."""
    prov = cubic_provider()
    for label, f, df in prov.reproduction_space():
        for level in (0, 3):
            r = spectral_condition_residual(prov, f, df, level, (-8, 8))
            assert r <= 1e-12, (label, level, r)


def test_spectral_condition_exponential():
    for lam in (0.5, 2.0):
        prov = exponential_provider(lam)
        for label, f, df in prov.reproduction_space():
            for level in (0, 3):
                r = spectral_condition_residual(prov, f, df, level, (-8, 8))
                scale = max(1.0, abs(f(-8.0)), abs(f(8.0)))
                assert r <= 1e-10 * scale, (lam, label, level, r)


def test_degree4_not_reproduced():
    r = spectral_condition_residual(
        cubic_provider(), lambda x: x**4, lambda x: 4 * x**3, 0, (-8, 8)
    )
    assert r > 1e-6


def test_run_scheme_interpolates_samples():
    """Iterated subdivision of exact samples stays on the function's samples."""
    prov = cubic_provider()
    f = lambda x: x**3 - x
    df = lambda x: 3 * x**2 - 1
    c0 = sample_window(f, df, 0, (-6, 6))
    c2 = apply_subdivision(prov.mask_at(1), apply_subdivision(prov.mask_at(0), c0))
    exact = sample_window(f, df, 2, (c2.start, c2.start + len(c2) - 1))
    err = np.abs(c2.points - exact.points).max()
    assert err <= 1e-12
    assert c2.level == 2


def test_basic_limit_table_structure():
    table = basic_limit_table(cubic_provider(), 0, 6, length=8)
    assert table.values.shape == (2, 2, 8 * 2**6)
    assert np.isfinite(table.values).all()
    assert table.sup == np.abs(table.values).max()
    assert table.grid_step == 2.0**-6
    # first-column function values at integer grid points reproduce the delta
    stride = 2**6
    f_col0 = table.values[0, 0, ::stride]
    assert f_col0[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(f_col0[1:]).max() <= 1e-12


def test_basic_limit_table_level_dependent_runs():
    table = basic_limit_table(exponential_provider(1.0), 2, 5, length=8)
    assert np.isfinite(table.values).all()


def test_mask_at_builds_each_level_once():
    """A provider hands out one read-only mask per level; the copies that
    ``transposed`` and ``perturbed`` make are writable."""
    for provider in (cubic_provider(), exponential_provider(1.5)):
        mask = provider.mask_at(3)
        assert provider.mask_at(3) is mask
        assert provider.mask_at(4) is not mask
        want = mask.blocks.copy()
        with pytest.raises(ValueError, match="read-only"):
            mask.blocks[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mask.block(1)[0, 0] += 1.0
        for copy in (mask.transposed(), mask.perturbed(-1, np.zeros((2, 2)))):
            copy.blocks[0, 0, 0] += 1.0
            copy.block(1)[1, 1] = 7.0
        assert np.array_equal(provider.mask_at(3).blocks, want)


def test_mask_cache_keeps_providers_apart():
    """exp(1) and exp(1.5) give different masks at one level; building masks
    does not change how providers compare or hash."""
    a, b = exponential_provider(1.0), exponential_provider(1.5)
    assert not np.array_equal(a.mask_at(2).blocks, b.mask_at(2).blocks)
    fresh = exponential_provider(1.0)
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert a != b and cubic_provider() == cubic_provider()
    assert np.array_equal(fresh.mask_at(2).blocks, a.mask_at(2).blocks)


def test_mask_odd_taps_are_the_odd_blocks():
    for mask in (cubic_hermite_mask(), exponential_hermite_mask(1.5, 2)):
        assert mask.odd_taps == tuple(
            (t, *mask.block(t).ravel().tolist()) for t in (-1, 1)
        )
        assert all(type(a) is float for tap in mask.odd_taps for a in tap[1:])


def test_perturbed_even_block_refused_by_manifold_step():
    """The interpolatory verdict is taken per mask: a perturbed copy of a
    provider's mask is refused with the same message."""
    mask = cubic_provider().mask_at(0)
    M = Sphere2()
    P = M.project_point(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    c = ManifoldHermiteSeq(M, P, np.zeros_like(P))
    assert len(manifold_subdivide_once(mask, c)) == 6
    for delta in (1e-15, -0.5):
        broken = mask.perturbed(0, np.array([[delta, 0.0], [0.0, 0.0]]))
        assert not interpolatory_check(broken) and interpolatory_check(mask)
        with pytest.raises(
            ValueError,
            match="^manifold subdivision requires an interpolatory mask$",
        ):
            manifold_subdivide_once(broken, c)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0])
def test_exponential_provider_refuses_bad_lambda(lam):
    message = (
        "^exponential predictor requires a finite nonzero lambda, "
        f"got {re.escape(repr(lam))}$"
    )
    with pytest.raises(ValueError, match=message):
        exponential_provider(lam)
    with pytest.raises(SchemaError, match=message):
        provider_from_config("exp", lam)
    assert provider_from_config("cubic", lam) == cubic_provider()
