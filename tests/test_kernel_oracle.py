"""The array geometry kernel and the array subdivision step against the
extended-precision reference in ``reference_80bit``; the cut-locus errors
name the first failing entry; the fused ``log_transport`` against separate
calls, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_80bit
from geomwave.errors import CutLocusError
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.transform import ManifoldHermiteSeq, manifold_subdivide_once
from random_cases import random_point, random_tangent, random_tangents
from reference_80bit import error_in_eps, requires_80bit

MANIFOLDS = {M.tag: M for M in (Sphere2(), SO3Quat(), Euclidean(3))}
# the bounds of the maps and of the step, in eps times max(1, |reference|)
MAP_BOUND = 16.0
STEP_BOUND = 4.0


def pick(rng, shape, count):
    """``count`` distinct flat positions in an array of the given shape."""
    return rng.choice(int(np.prod(shape)), size=count, replace=False)


SHAPES = st.sampled_from([(7,), (1,), (3, 5), (2, 1)])


@requires_80bit
@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    shape=SHAPES,
    seed=st.integers(0, 10**6),
)
def test_kernel_matches_oracle(tag, shape, seed):
    """exp/log/transport/dist/midpoint on (L, d) and (B, L, d) arrays, equal
    pairs included, are within 16 eps max(1, |x|) of the extended-precision
    reference x, at angles up to 2.5 and tangents up to 3.  The points q
    and the tangents w are projected onto M and T_pM once more, so that they
    lie on it to rounding: the reference maps the directions of its points,
    and one projection of a random vector nearly parallel to p leaves a
    tangent whose normal part is hundreds of eps of its length, which moved
    the kernel's transport by up to 98 eps against it.  The largest errors measured over 30,000
    draws were 12.2 eps (sphere2 transport; 12.8 over 60,000 draws of
    both spheres), 11.0 (so3-quat transport), 3.1 (log), 2.8 (exp), 2.0
    (midpoint), 1.4 (dist) and 0.5 on euclidean:3.  The transport's is the
    loss of its divisor 1 + <p, q> (see test_accuracy_80bit).  The retired
    double-precision oracle held the maps to 1e-13, 450 eps."""
    M = MANIFOLDS[tag]
    G = reference_80bit.geometry(M)
    rng = np.random.default_rng(seed)
    p = random_point(M, rng, shape)
    v = random_tangents(M, rng, p, 2.5)
    q = M.project_point(M.exp(p, M.project_tangent(p, random_tangents(M, rng, p, 2.5))))
    flat_q = q.reshape(-1, M.ambient_dim)
    for i in pick(rng, shape, 1 + flat_q.shape[0] // 3):
        flat_q[i] = p.reshape(-1, M.ambient_dim)[i]  # equal pairs
    w = M.project_tangent(p, random_tangents(M, rng, p, 3.0))
    checks = [
        (M.exp(p, v), G.exp(p, v)),
        (M.log(p, q), G.log(p, q)),
        (M.transport(p, w, q), G.transport(p, w, q)),
        (M.dist(p, q)[..., None], G.dist(p, q)[..., None]),
        (M.midpoint(p, q), G.midpoint(p, q)),
    ]
    for got, want in checks:
        assert error_in_eps(got, want) <= MAP_BOUND
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
    entry (row-major)."""
    M = MANIFOLDS[tag]
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
    for call in (
        lambda: M.log(p, q),
        lambda: M.midpoint(p, q),
        lambda: M.transport(p, v, q),
        lambda: M.exp(p, v),
    ):
        with pytest.raises(CutLocusError) as exc:
            call()
        assert exc.value.index == want
        assert f"index {want}" in str(exc.value)


def smooth_curve(M, rng, length, step=0.2):
    """A random walk of short geodesic steps, with tangents; taken as a
    periodic curve, its closing step is of any length."""
    P = [random_point(M, rng)]
    for _ in range(length - 1):
        P.append(M.exp(P[-1], random_tangent(M, rng, P[-1], scale=step)))
    P = np.array(P)
    return P, random_tangents(M, rng, P, step)


@requires_80bit
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
    """One subdivision step of a periodic walk of geodesic steps of 0.2
    (its closing step is of any length) is within 4 eps of the
    extended-precision step.  The points and vectors are projected onto M
    once more: the chain of exp calls leaves points up to 105 eps off the
    sphere, and the reference steps their directions.  The largest error
    measured over 20,000 draws on the spheres was 1.7 eps; without the
    projection it was 87 eps."""
    M = MANIFOLDS[tag]
    rng = np.random.default_rng(seed)
    provider = cubic_provider() if kind == "cubic" else exponential_provider(1.0)
    mask = provider.mask_at(level)
    P, V = smooth_curve(M, rng, length)
    P = M.project_point(P)
    V = M.project_tangent(P, V)
    out = manifold_subdivide_once(mask, ManifoldHermiteSeq(M, P, V, level), rule)
    want_p, want_v = reference_80bit.subdivide_once(mask, M, P, V, rule)
    assert error_in_eps(out.points, want_p) <= STEP_BOUND
    assert error_in_eps(out.vectors, want_v) <= STEP_BOUND


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
