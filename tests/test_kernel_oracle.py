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


def outcome(call):
    """The bytes and shapes a call returns, or the CutLocusError it raises."""
    try:
        return [(a.shape, a.tobytes()) for a in call()]
    except CutLocusError as err:
        return ("CutLocusError", str(err), err.index)


def pairs(M, rng, L, T, scale):
    """Base points m of shape (L, d), the array they are compared against
    (m itself, or m[:, None] against (L, T, d)), points p at geodesic
    distance up to ``scale`` from it with some equal pairs, and tangents v
    at p.  The points are up to 1e-10 off unit norm, as input may be."""
    m = random_point(M, rng, (L,)) * (1.0 + 1e-10 * rng.uniform(-1, 1, (L, 1)))
    base = m if T is None else m[:, None]
    shape = (L,) if T is None else (L, T)
    at = np.broadcast_to(base, shape + (M.ambient_dim,))
    p = M.exp(at, random_tangents(M, rng, at, scale))
    flat_p = p.reshape(-1, M.ambient_dim)
    for i in pick(rng, p.shape[:-1], 1 + flat_p.shape[0] // 4):
        flat_p[i] = at.reshape(-1, M.ambient_dim)[i]  # equal pairs
    return base, p, random_tangents(M, rng, p, 2.0)


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    L=st.integers(1, 9),
    T=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 10**6),
)
def test_log_transport_matches_separate_calls(tag, L, T, seed):
    """The fused kernel returns log(m, p) and transport(p, v, m) byte for
    byte, on (L, d) pairs and on m[:, None] against (L, T, d), with equal
    pairs and angles past 2pi/3."""
    M = MANIFOLDS[tag]
    base, p, v = pairs(M, np.random.default_rng(seed), L, T, 3.0)
    got = outcome(lambda: M.log_transport(base, p, v))
    assert got == outcome(lambda: (M.log(base, p), M.transport(p, v, base)))
    assert got[0][0] == p.shape


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from(["sphere2", "so3-quat"]),
    L=st.integers(1, 9),
    T=st.sampled_from([None, 1, 3]),
    gap=st.sampled_from([0.0, 1e-12, 1e-9, 5e-7, 1e-6, 2e-6, 1e-5]),
    stretch=st.sampled_from([1.0, 1.0 + 1e-11, 1.0 + 1e-10]),
    seed=st.integers(0, 10**6),
)
def test_log_transport_cut_locus_matches_separate_calls(
    tag, L, T, gap, stretch, seed
):
    """Pairs at angle pi - gap: the fused kernel raises where log or then
    transport would, with the same message and index, and otherwise returns
    the same bytes; exactly antipodal pairs always raise.  Points stretched
    a little off the sphere put <m, p> below -1, where only transport's
    arccos test fires for gaps past the margin."""
    M = MANIFOLDS[tag]
    rng = np.random.default_rng(seed)
    base, p, v = pairs(M, rng, L, T, 2.0)
    at = np.broadcast_to(base, p.shape).reshape(-1, M.ambient_dim)
    flat_p = p.reshape(-1, M.ambient_dim)
    bad = pick(rng, p.shape[:-1], min(2, flat_p.shape[0]))
    # the point at angle pi - gap along a unit tangent e (exp refuses it)
    e = random_tangents(M, rng, at[bad], 1.0)
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    far = math.cos(math.pi - gap) * at[bad] + math.sin(math.pi - gap) * e
    flat_p[bad] = stretch * (-at[bad] if gap == 0.0 else far)
    v = M.project_tangent(p, v)
    got = outcome(lambda: M.log_transport(base, p, v))
    assert got == outcome(lambda: (M.log(base, p), M.transport(p, v, base)))
    if gap == 0.0:
        assert got[0] == "CutLocusError"
