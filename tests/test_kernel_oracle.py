"""Differential tests: the array geometry kernel and the array subdivision
step against the per-point reference in ``scalar_oracle``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import CutLocusError
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.transform import ManifoldHermiteSeq, manifold_subdivide_once
from random_cases import random_point, random_tangent, random_tangents
from scalar_oracle import scalar_manifold, scalar_subdivide_once

MANIFOLDS = {M.tag: M for M in (Sphere2(), SO3Quat(), Euclidean(3))}
TOL = 1e-13


def rows(f, *arrays):
    """Apply a per-point function row by row over the leading axes."""
    d = arrays[0].shape[-1]
    flat = [a.reshape(-1, d) for a in arrays]
    out = [f(*args) for args in zip(*flat)]
    return np.array(out).reshape(arrays[0].shape[:-1] + np.shape(out[0]))


def pick(rng, shape, count):
    """``count`` distinct flat positions in an array of the given shape."""
    return rng.choice(int(np.prod(shape)), size=count, replace=False)


SHAPES = st.sampled_from([(7,), (1,), (3, 5), (2, 1)])


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    shape=SHAPES,
    seed=st.integers(0, 10**6),
)
def test_kernel_matches_oracle(tag, shape, seed):
    """exp/log/transport/dist/midpoint on (L, d) and (B, L, d) arrays agree
    with the per-point oracle, equal pairs included."""
    M = MANIFOLDS[tag]
    S = scalar_manifold(M)
    rng = np.random.default_rng(seed)
    p = random_point(M, rng, shape)
    v = random_tangents(M, rng, p, 2.5)
    q = M.exp(p, random_tangents(M, rng, p, 2.5))
    flat_q = q.reshape(-1, M.ambient_dim)
    for i in pick(rng, shape, 1 + flat_q.shape[0] // 3):
        flat_q[i] = p.reshape(-1, M.ambient_dim)[i]  # equal pairs
    w = random_tangents(M, rng, p, 3.0)
    checks = [
        (M.exp(p, v), rows(S.exp, p, v)),
        (M.log(p, q), rows(S.log, p, q)),
        (M.transport(p, w, q), rows(S.transport, p, w, q)),
        (M.dist(p, q), rows(S.dist, p, q)),
        (M.midpoint(p, q), rows(S.midpoint, p, q)),
    ]
    for got, want in checks:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= TOL
    # equal pairs: log is exactly zero
    equal = np.all(p == q, axis=-1)
    assert not M.log(p, q)[equal].any()


@settings(max_examples=30, deadline=None)
@given(
    tag=st.sampled_from(["sphere2", "so3-quat"]),
    shape=SHAPES,
    seed=st.integers(0, 10**6),
)
def test_cut_locus_names_first_index(tag, shape, seed):
    """Antipodal pairs and over-long tangents raise at the first failing
    entry (row-major), where the oracle raises too."""
    M = MANIFOLDS[tag]
    S = scalar_manifold(M)
    rng = np.random.default_rng(seed)
    p = random_point(M, rng, shape)
    q = M.exp(p, random_tangents(M, rng, p, 2.0))
    v = random_tangents(M, rng, p, 2.0)
    bad = np.sort(pick(rng, shape, min(2, int(np.prod(shape)))))
    first = np.unravel_index(bad[0], shape)
    want = int(first[0]) if len(shape) == 1 else tuple(int(i) for i in first)
    flat_p = p.reshape(-1, M.ambient_dim)
    flat_q = q.reshape(-1, M.ambient_dim)
    flat_v = v.reshape(-1, M.ambient_dim)
    flat_q[bad] = -flat_p[bad]
    flat_v[bad] *= math.pi / np.linalg.norm(flat_v[bad], axis=-1, keepdims=True)
    for call, scalar, args in (
        (M.log, S.log, (p, q)),
        (M.midpoint, S.midpoint, (p, q)),
        (lambda a, b: M.transport(a, v, b), lambda a, b, w: S.transport(a, w, b),
         (p, q, v)),
        (M.exp, S.exp, (p, v)),
    ):
        with pytest.raises(CutLocusError) as exc:
            call(*args[:2])
        assert exc.value.index == want
        assert f"index {want}" in str(exc.value)
        with pytest.raises(CutLocusError):
            scalar(*(a[first] for a in args))


def smooth_curve(M, rng, length, step=0.2):
    """A closed random curve of short geodesic steps, with tangents."""
    P = [random_point(M, rng)]
    for _ in range(length - 1):
        P.append(M.exp(P[-1], random_tangent(M, rng, P[-1], scale=step)))
    P = np.array(P)
    return P, random_tangents(M, rng, P, step)


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    rule=st.sampled_from(["midpoint", "leftpoint"]),
    kind=st.sampled_from(["cubic", "exp(1)"]),
    length=st.integers(3, 12),
    level=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_subdivide_matches_oracle(tag, rule, kind, length, level, seed):
    M = MANIFOLDS[tag]
    rng = np.random.default_rng(seed)
    provider = cubic_provider() if kind == "cubic" else exponential_provider(1.0)
    mask = provider.mask_at(level)
    P, V = smooth_curve(M, rng, length)
    out = manifold_subdivide_once(mask, ManifoldHermiteSeq(M, P, V, level), rule)
    want_p, want_v = scalar_subdivide_once(mask, M, P, V, rule)
    assert np.abs(out.points - want_p).max() <= TOL
    assert np.abs(out.vectors - want_v).max() <= TOL
