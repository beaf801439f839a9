"""Geometry kernel: exp/log/transport/distance on sphere, SO(3), Euclidean."""

import math

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
from random_cases import random_point, random_tangent

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
    for _ in range(200):
        p = random_point(M, rng)
        q = M.exp(p, random_tangent(M, rng, p, scale=float(rng.uniform(0.01, 2.0))))
        mid = M.midpoint(p, q)
        assert abs(M.dist(p, mid) - M.dist(mid, q)) <= 1e-11
        other = M.midpoint(q, p)
        assert M.dist(mid, other) <= 1e-11


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
