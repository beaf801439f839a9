"""The geometry kernel and one manifold subdivision step in ``np.longdouble``,
from double inputs: the accuracy reference for the double-precision code.
On x86-64 Linux ``np.longdouble`` is the 80-bit extended format, eps
1.08e-19, so the reference's own rounding is about 2,000 times below a
double's.  The presets and reproduction elements need no copy here: they are
plain numpy, so ``spec.curve(t.astype(np.longdouble))`` evaluates the same
closed form in extended precision.

On the round sphere the points are normalized in extended precision first:
the reference maps the directions of the inputs, which is what the kernel
can at best return for points a rounding error off the sphere.  Its log,
transport and dist are the geodesic forms through the angle
theta = atan2(|q - <p, q> p|, <p, q>), not the kernel's closed forms, and it
has no cut-locus guard.  Plain arithmetic only; no ``np.linalg``.  Every
result has dtype ``np.longdouble``; the tests assert it, so that a double
slipping into a reference cannot make a comparison pass by agreeing with
itself.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from geomwave.manifolds import Euclidean

EPS = float(np.finfo(np.longdouble).eps)
DOUBLE_EPS = float(np.finfo(float).eps)
WIDE = EPS < DOUBLE_EPS / 1000

# the mark of every test against this reference: where np.longdouble is a
# double, a comparison with it would check nothing
requires_80bit = pytest.mark.skipif(
    not WIDE, reason="np.longdouble is no wider than a double on this platform"
)


def error_in_eps(got, ref):
    """The largest error of the double array ``got`` against the extended
    reference ``ref`` of its shape, in units of the double eps times
    max(1, |ref|), |ref| the norm of each row over the last axis.  Asserts
    that ``ref`` is extended."""
    assert ref.dtype == np.longdouble and np.shape(got) == ref.shape
    scale = np.maximum(1, np.sqrt(_dot(ref, ref)))
    return float(np.max(np.abs(got - ref) / scale)) / DOUBLE_EPS


def _ext(*arrays):
    return [np.asarray(a, np.longdouble) for a in arrays]


def _dot(a, b):
    """Inner product over the last axis, kept as a length-1 axis."""
    return np.sum(a * b, axis=-1, keepdims=True)


def _unit(x):
    """x scaled to unit norm over the last axis."""
    return x / np.sqrt(_dot(x, x))


def _angle(p, q):
    """For unit p and q: the residual u = q - <p, q> p, its norm s and the
    angle between p and q."""
    c = _dot(p, q)
    u = q - c * p
    s = np.sqrt(_dot(u, u))
    return u, s, np.arctan2(s, c)


def exp(p, v):
    p, v = _ext(p, v)
    theta = np.sqrt(_dot(v, v))
    return np.cos(theta) * _unit(p) + np.sin(theta) / np.where(theta == 0, 1, theta) * v


def log(p, q):
    p, q = _ext(p, q)
    u, s, theta = _angle(_unit(p), _unit(q))
    return theta / np.where(s == 0, 1, s) * u


def transport(p, v, q):
    """The rotation by theta in the plane of p and e = u/|u| that takes p
    to q, applied to v."""
    p, v, q = _ext(p, v, q)
    p = _unit(p)
    u, s, theta = _angle(p, _unit(q))
    e = u / np.where(s == 0, 1, s)
    return v + _dot(e, v) * ((np.cos(theta) - 1) * e - np.sin(theta) * p)


def dist(p, q):
    p, q = _ext(p, q)
    return _angle(_unit(p), _unit(q))[2][..., 0]


def midpoint(p, q):
    """(p + q) / |p + q| of the unit directions of the double arrays p and q,
    in extended precision."""
    p, q = _ext(p, q)
    return _unit(_unit(p) + _unit(q))


def _flat_dist(p, q):
    d = np.subtract(*_ext(q, p))
    return np.sqrt(_dot(d, d))[..., 0]


_SPHERE = SimpleNamespace(
    exp=exp, log=log, transport=transport, dist=dist, midpoint=midpoint
)
# Euclidean space: the same maps, rounded once in extended precision
_FLAT = SimpleNamespace(
    exp=lambda p, v: np.add(*_ext(p, v)),
    log=lambda p, q: np.subtract(*_ext(q, p)),
    transport=lambda p, v, q: _ext(v)[0],
    dist=_flat_dist,
    midpoint=lambda p, q: np.add(*_ext(p, q)) / 2,
)


def geometry(M):
    """The reference maps ``exp``, ``log``, ``transport``, ``dist`` and
    ``midpoint`` of the library manifold M."""
    return _FLAT if isinstance(M, Euclidean) else _SPHERE


def subdivide_once(mask, M, points, vectors, rule="midpoint"):
    """One manifold Hermite subdivision step of the periodic (L, d) samples:
    output 2i + r (r = 0 or 1) is exp(m, w0) with the vector
    transport(m, w1, exp(m, w0)), where (w0, w1) sums the mask's blocks at
    the taps t = r, r +- 2, ... against (log(m, P_k), transport(P_k, V_k, m)),
    k = i + (r - t)/2 mod L, and m is P_i for r = 0, and for r = 1 the
    midpoint of P_i and P_{i+1} or, under the leftpoint rule, P_i.  Returns
    the (2L, d) points and vectors."""
    G = geometry(M)
    P, V = _ext(points, vectors)
    rows = np.arange(len(P))
    out = []
    for r in (0, 1):
        m = P if r == 0 or rule == "leftpoint" else G.midpoint(P, np.roll(P, -1, axis=0))
        w0 = w1 = np.zeros_like(P)
        for t in range(mask.lo, mask.hi + 1):
            if (r - t) % 2:
                continue
            k = (rows + (r - t) // 2) % len(P)
            (a, b), (c, d) = mask.block(t)
            y, z = G.log(m, P[k]), G.transport(P[k], V[k], m)
            w0, w1 = w0 + a * y + b * z, w1 + c * y + d * z
        p = G.exp(m, w0)
        out.append((p, G.transport(m, w1, p)))
    return tuple(np.stack(x, axis=1).reshape(2 * len(P), -1) for x in zip(*out))
