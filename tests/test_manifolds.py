"""Geometry kernel: exp/log/transport/distance on sphere, SO(3), Euclidean."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import CutLocusError
from geomwave.manifolds import (
    Euclidean,
    SO3Quat,
    Sphere2,
    _CUT_LOCUS_MARGIN,
    manifold_from_tag,
)
from random_cases import random_point, random_tangent, random_tangents

MANIFOLDS = [Sphere2(), SO3Quat(), Euclidean(3)]


@pytest.mark.parametrize("M", MANIFOLDS, ids=lambda M: M.tag)
def test_exp_log_roundtrip(M, rng):
    for _ in range(200):
        p = random_point(M, rng)
        v = random_tangent(M, rng, p, scale=float(rng.uniform(0.01, 2.5)))
        q = M.exp(p, v)
        assert np.abs(M.log(p, q) - v).max() <= 1e-11
        assert abs(M.dist(p, q) - np.linalg.norm(v)) <= 1e-11


@pytest.mark.parametrize("M", MANIFOLDS, ids=lambda M: M.tag)
def test_transport_isometry_and_reversal(M, rng):
    for _ in range(200):
        p = random_point(M, rng)
        q = M.exp(p, random_tangent(M, rng, p, scale=float(rng.uniform(0.01, 2.0))))
        v = random_tangent(M, rng, p, scale=float(rng.uniform(0.1, 3.0)))
        w = M.transport(p, v, q)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-11
        assert np.abs(M.transport(q, w, p) - v).max() <= 1e-11


@pytest.mark.parametrize("M", MANIFOLDS, ids=lambda M: M.tag)
def test_midpoint_symmetry(M, rng):
    """The midpoint is equidistant, and midpoint(q, p) is midpoint(p, q) word
    for word: on every manifold it is a function of p + q."""
    for _ in range(200):
        p = random_point(M, rng)
        q = M.exp(p, random_tangent(M, rng, p, scale=float(rng.uniform(0.01, 2.0))))
        mid = M.midpoint(p, q)
        assert abs(M.dist(p, mid) - M.dist(mid, q)) <= 1e-11
        assert M.midpoint(q, p).tobytes() == mid.tobytes()


@pytest.mark.parametrize("M", [Sphere2(), SO3Quat()], ids=lambda M: M.tag)
def test_transport_preserves_tangency(M, rng):
    for _ in range(100):
        p = random_point(M, rng)
        q = random_point(M, rng)
        if M.dist(p, q) >= math.pi - _CUT_LOCUS_MARGIN:
            continue
        v = random_tangent(M, rng, p)
        w = M.transport(p, v, q)
        assert abs(float(np.dot(w, q))) <= 1e-11


def test_sphere_quarter_arc_values():
    M = Sphere2()
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    assert M.dist(p, q) == pytest.approx(math.pi / 2)
    assert np.allclose(M.log(p, q), [0.0, math.pi / 2, 0.0], atol=1e-15)
    assert np.allclose(M.midpoint(p, q), [math.sqrt(0.5), math.sqrt(0.5), 0.0])
    # transport of the geodesic direction stays the geodesic direction
    v = M.log(p, q)
    w = M.transport(p, v, q)
    assert np.allclose(w, [-math.pi / 2, 0.0, 0.0], atol=1e-12)


def test_cut_locus_raises():
    M = Sphere2()
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(CutLocusError):
        M.exp(p, np.array([0.0, math.pi, 0.0]))
    with pytest.raises(CutLocusError):
        M.log(p, np.array([-1.0, 0.0, 0.0]))
    # just inside the bound is fine
    M.exp(p, np.array([0.0, math.pi - 1e-3, 0.0]))


@pytest.mark.parametrize("M", [Sphere2(), SO3Quat()], ids=lambda M: M.tag)
def test_midpoint_refuses_antipodes(M, rng):
    """The midpoint refuses a pair within the margin of the cut locus with
    log's message, at the first such row; a pair just outside the margin
    passes.  Exact antipodes 1e-10 inside the sphere, which the invariant
    tolerance accepts, are refused too: the guard measures the angle
    between the points' directions."""
    p = random_point(M, rng, (6,))
    e = M.project_tangent(p, random_point(M, rng, (6,)))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    q = M.exp(p, e)

    def set_gap(row, gap):
        """Put q[row] at angle pi - gap from p[row]."""
        q[row] = math.cos(math.pi - gap) * p[row] + math.sin(math.pi - gap) * e[row]

    set_gap(4, 0.5 * _CUT_LOCUS_MARGIN)
    set_gap(2, 0.0)
    with pytest.raises(CutLocusError) as exc:
        M.midpoint(p, q)
    with pytest.raises(CutLocusError) as log_exc:
        M.log(p, q)
    assert (str(exc.value), exc.value.index) == (str(log_exc.value), 2)
    set_gap(2, 2.0 * _CUT_LOCUS_MARGIN)
    set_gap(4, 2.0 * _CUT_LOCUS_MARGIN)
    assert np.isfinite(M.midpoint(p, q)).all()
    inside = (1.0 - 1e-10) * p
    assert M.check_point(inside).all()
    with pytest.raises(CutLocusError) as exc:
        M.midpoint(inside, -inside)
    assert exc.value.index == 0


@pytest.mark.parametrize("M", [Sphere2(), SO3Quat()], ids=lambda M: M.tag)
def test_transport_refuses_stretched_near_antipodes(M, rng):
    """Points stretched 5e-10 off the sphere, which the invariant tolerance
    accepts, at angle pi - 1e-5 (past the margin): <p, q> is below -1, so
    transport's divisor 1 + <p, q> is negative.  transport and log_transport
    refuse the pair rather than return a vector of the wrong sign."""
    p = random_point(M, rng, (3,))
    e = M.project_tangent(p, random_point(M, rng, (3,)))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    gap = 10.0 * _CUT_LOCUS_MARGIN
    q = math.cos(math.pi - gap) * p + math.sin(math.pi - gap) * e
    p, q = (1.0 + 5e-10) * p, (1.0 + 5e-10) * q
    assert M.check_point(p).all() and M.check_point(q).all()
    assert (1.0 + np.einsum("...i,...i->...", p, q) < 0.0).all()
    v = random_tangents(M, rng, p, 0.5)
    with pytest.raises(CutLocusError) as exc:
        M.transport(p, v, q)
    assert exc.value.index == 0
    with pytest.raises(CutLocusError) as exc:
        M.log_transport(q, p, v)
    assert exc.value.index == 0


def test_antipode_guard_silent_on_zero_rows():
    """A zero row beside a pair past 2pi/3 makes the guard's cosine 0/0.
    The guard still refuses the antipodal pair at index 0, and passes a
    pair at angle 2.5 with finite rows, without a floating-point warning."""
    M = Sphere2()
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CutLocusError) as exc:
            M.transport(p, np.zeros((2, 3)), -p)
        assert exc.value.index == 0
        q = np.array([[math.cos(2.5), math.sin(2.5), 0.0], [0.0, 0.0, 0.0]])
        v = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.0]])
        assert np.isfinite(M.transport(p, v, q)).all()


def test_euclidean_degenerate_ops(rng):
    M = Euclidean(4)
    p, q, v = rng.normal(size=(3, 4))
    assert np.array_equal(M.exp(p, v), p + v)
    assert np.array_equal(M.log(p, q), q - p)
    assert np.array_equal(M.transport(p, v, q), v)
    assert M.dist(p, q) == pytest.approx(np.linalg.norm(q - p))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.floats(1e-3, 3.0))
def test_sphere_exp_stays_unit(seed, scale):
    rng = np.random.default_rng(seed)
    M = Sphere2()
    p = random_point(M, rng)
    q = M.exp(p, random_tangent(M, rng, p, scale=scale))
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    assert M.check_point(q)


def test_projections():
    M = Sphere2()
    p = M.project_point(np.array([3.0, 0.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0, 0.0])
    v = M.project_tangent(p, np.array([1.0, 2.0, 0.0]))
    assert np.allclose(v, [0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        M.project_point(np.zeros(3))
    assert not M.check_point(np.array([0.9, 0.0, 0.0]))


def test_manifold_from_tag():
    assert manifold_from_tag("sphere2").tag == "sphere2"
    assert manifold_from_tag("so3-quat").ambient_dim == 4
    E = manifold_from_tag("euclidean:5")
    assert E.ambient_dim == 5 and E.tag == "euclidean:5"
    for bad in ("euclidean", "sphere3", "euclidean:x", ""):
        with pytest.raises(ValueError):
            manifold_from_tag(bad)
