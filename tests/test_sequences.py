"""Block masks, sequence realizations, and the linear operators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.io import read_samples, write_samples
from geomwave.manifolds import Euclidean, Sphere2
from geomwave.sequences import (
    HermiteSequence,
    Mask,
    apply_decomposition,
    apply_subdivision,
    diag_d,
    periodic_sequence,
    seq_sub,
    single_block_mask,
    sup_norm,
)
from geomwave.signals import get_preset, sample_signal
from sequence_ops import delta_sequence, shift


def random_mask(rng, lo=-2, width=5):
    return Mask(lo, rng.normal(size=(width, 2, 2)))


def random_periodic(rng, length=16, m=2):
    return periodic_sequence(
        rng.normal(size=(length, m)), rng.normal(size=(length, m))
    )


def oracle_subdivision(mask, s):
    """Independent direct-sum reference implementation (periodic)."""
    L, m = len(s), s.dim
    P = np.zeros((2 * L, m))
    V = np.zeros((2 * L, m))
    for j in range(2 * L):
        for k in range(-3 * L, 3 * L):
            blk = mask.block(j - 2 * k)
            p, v = s.points[k % L], s.vectors[k % L]
            P[j] += blk[0, 0] * p + blk[0, 1] * v
            V[j] += blk[1, 0] * p + blk[1, 1] * v
    return P, V


def oracle_decomposition(mask, s):
    L, m = len(s), s.dim
    P = np.zeros((L // 2, m))
    V = np.zeros((L // 2, m))
    for j in range(L // 2):
        for i in range(-2 * L, 2 * L):
            blk = mask.block(i - 2 * j)
            p, v = s.points[i % L], s.vectors[i % L]
            P[j] += blk[0, 0] * p + blk[0, 1] * v
            V[j] += blk[1, 0] * p + blk[1, 1] * v
    return P, V


def test_block_and_diag_d():
    blk = single_block_mask(0, [[1, 2], [3, 4]]).block(0)
    assert blk.dtype == float and np.array_equal(blk, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(diag_d(), [[1.0, 0.0], [0.0, 0.5]])
    assert np.array_equal(diag_d(-1), [[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(diag_d(2) @ diag_d(-2), np.eye(2))


def test_mask_accessors():
    rng = np.random.default_rng(0)
    m = random_mask(rng)
    assert m.hi == m.lo + m.width - 1
    assert np.array_equal(m.block(m.lo - 1), np.zeros((2, 2)))
    assert np.array_equal(m.transposed().block(m.lo), m.block(m.lo).T)
    d = np.full((2, 2), 0.5)
    assert np.allclose(m.perturbed(m.lo, d).block(m.lo), m.block(m.lo) + d)
    with pytest.raises(ValueError):
        m.perturbed(m.hi + 1, d)


def test_delta_mask_is_identity_operator(rng):
    s = random_periodic(rng, length=8)
    delta = single_block_mask(0, np.eye(2))
    out = apply_decomposition(delta, apply_subdivision(delta, s))
    assert np.allclose(out.points, s.points)
    assert np.allclose(out.vectors, s.vectors)


def test_subdivision_matches_oracle(rng):
    mask = random_mask(rng)
    s = random_periodic(rng, length=10, m=3)
    out = apply_subdivision(mask, s)
    P, V = oracle_subdivision(mask, s)
    assert np.allclose(out.points, P, atol=1e-13)
    assert np.allclose(out.vectors, V, atol=1e-13)
    assert out.level == s.level + 1


def test_decomposition_matches_oracle(rng):
    mask = random_mask(rng)
    s = random_periodic(rng, length=12, m=2)
    out = apply_decomposition(mask, s)
    P, V = oracle_decomposition(mask, s)
    assert np.allclose(out.points, P, atol=1e-13)
    assert np.allclose(out.vectors, V, atol=1e-13)
    assert out.level == s.level - 1


def test_subdivision_shift_commutation(rng):
    # S_A (L c) = L^2 (S_A c)
    mask = random_mask(rng)
    s = random_periodic(rng)
    lhs = apply_subdivision(mask, shift(s, 1))
    rhs = shift(apply_subdivision(mask, s), 2)
    assert np.allclose(lhs.points, rhs.points, atol=1e-13)
    assert np.allclose(lhs.vectors, rhs.vectors, atol=1e-13)


def test_decomposition_shift_commutation(rng):
    # D_A (L^2 c) = L (D_A c)
    mask = random_mask(rng)
    s = random_periodic(rng)
    lhs = apply_decomposition(mask, shift(s, 2))
    rhs = shift(apply_decomposition(mask, s), 1)
    assert np.allclose(lhs.points, rhs.points, atol=1e-13)
    assert np.allclose(lhs.vectors, rhs.vectors, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
def test_subdivision_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng)
    s, t = random_periodic(rng), random_periodic(rng)
    combo = replace(
        s,
        points=alpha * s.points + beta * t.points,
        vectors=alpha * s.vectors + beta * t.vectors,
    )
    lhs = apply_subdivision(mask, combo)
    Ss, St = apply_subdivision(mask, s), apply_subdivision(mask, t)
    assert np.allclose(lhs.points, alpha * Ss.points + beta * St.points, atol=1e-10)
    assert np.allclose(lhs.vectors, alpha * Ss.vectors + beta * St.vectors, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(-40, 40))
def test_shift_roundtrip_and_norm_invariance(seed, k):
    rng = np.random.default_rng(seed)
    s = random_periodic(rng)
    back = shift(shift(s, k), -k)
    assert np.array_equal(back.points, s.points)
    assert sup_norm(shift(s, k)) == sup_norm(s)


def test_delta_sequence_entries():
    s = delta_sequence(2, 6, pair=(3.0, -1.0))
    assert np.array_equal(s.points[0], [3.0, 3.0])
    assert np.array_equal(s.vectors[0], [-1.0, -1.0])
    assert not s.points[1:].any() and not s.vectors[1:].any()


def test_interior_subdivision_validity(rng):
    mask = random_mask(rng, lo=-1, width=3)
    P, V = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
    s = HermiteSequence(P, V, periodic=False, start=2)
    out = apply_subdivision(mask, s)
    # the outputs j whose stencil k in [ceil((j-1)/2), (j+1)/2] lies inside
    # [2, 6]: j from 2*2 + 1 - 1 to 2*6 - 1 + 1
    assert (out.start, out.start + len(out) - 1) == (4, 12)


def test_interior_decomposition_validity(rng):
    mask = random_mask(rng, lo=-1, width=3)
    P, V = rng.normal(size=(9, 1)), rng.normal(size=(9, 1))
    s = HermiteSequence(P, V, periodic=False, start=-4)
    out = apply_decomposition(mask, s)
    # the outputs j with 2j - 1 >= -4 and 2j + 1 <= 4
    assert (out.start, out.start + len(out) - 1) == (-1, 1)
    # a window shorter than the mask has no output
    zeros = np.zeros((2, 1))
    short = HermiteSequence(zeros, zeros, periodic=False, start=-4)
    assert len(apply_decomposition(mask, short)) == 0


def test_interior_matches_periodic_away_from_boundary(rng):
    mask = random_mask(rng, lo=-1, width=3)
    P = rng.normal(size=(16, 1))
    V = rng.normal(size=(16, 1))
    per = apply_subdivision(mask, periodic_sequence(P, V))
    inte = apply_subdivision(mask, HermiteSequence(P, V, periodic=False))
    assert (inte.start, len(inte)) == (0, 31)
    j = slice(inte.start, inte.start + len(inte))
    assert np.allclose(inte.points, per.points[j], atol=1e-13)
    assert np.allclose(inte.vectors, per.vectors[j], atol=1e-13)


def test_sup_norm_and_arithmetic(rng):
    s = random_periodic(rng)
    assert sup_norm(seq_sub(s, s)) == 0.0
    scaled = replace(s, points=-2.0 * s.points, vectors=-2.0 * s.vectors)
    assert sup_norm(scaled) == pytest.approx(2.0 * sup_norm(s))
    t = random_periodic(rng)
    assert sup_norm(seq_sub(s, t)) <= sup_norm(s) + sup_norm(t) + 1e-15
    empty = HermiteSequence(np.zeros((0, 2)), np.zeros((0, 2)), periodic=False, start=3)
    with pytest.raises(ValueError, match="sup_norm of an empty sequence"):
        sup_norm(empty)


def test_difference_of_manifold_samples_lies_on_flat_space(tmp_path):
    """seq_sub of sphere samples is data on R^3, so its file reads back."""
    c = sample_signal(get_preset("sphere2", "wobble"), 5)
    diff = seq_sub(c, c)
    assert diff.manifold.tag == "euclidean:3"
    path = str(tmp_path / "diff.json")
    write_samples(diff, path)
    back = read_samples(path)
    assert back.manifold.tag == "euclidean:3"
    assert np.array_equal(back.points, diff.points)
    assert np.array_equal(back.vectors, diff.vectors)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        HermiteSequence(np.zeros((4, 2)), np.zeros((3, 2)))
    for M in (Sphere2(), Euclidean(3)):  # a width other than the ambient one
        with pytest.raises(ValueError, match="ambient dimension 2 != 3"):
            HermiteSequence(np.zeros((4, 2)), np.zeros((4, 2)), manifold=M)


def test_interior_window_only_on_flat_space():
    P = np.array([[1.0, 0.0, 0.0]] * 4)
    with pytest.raises(ValueError, match="interior window must be on R\\^m"):
        HermiteSequence(P, np.zeros_like(P), periodic=False, manifold=Sphere2())
    window = HermiteSequence(P, np.zeros_like(P), periodic=False)
    assert window.manifold.tag == "euclidean:3"


def test_decomposition_needs_even_length(rng):
    mask = random_mask(rng)
    s = random_periodic(rng, length=7)
    with pytest.raises(ValueError):
        apply_decomposition(mask, s)
