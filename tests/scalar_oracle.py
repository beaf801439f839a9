"""Plain per-point reference for the array geometry kernel and the manifold
subdivision step.

This is the scalar code the library ran before its kernel took ``(..., d)``
arrays: one 3- or 4-vector per call, explicit ``theta == 0`` branches, and a
double loop over output indices and mask taps (even outputs included).  The
differential tests compare the array code against it.
"""

import math

import numpy as np

from geomwave.errors import CutLocusError
from geomwave.manifolds import Euclidean, _CUT_LOCUS_MARGIN


class ScalarRoundSphere:
    """Unit sphere in R^(d+1), one point at a time."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim

    def injectivity_bound(self):
        return math.pi - _CUT_LOCUS_MARGIN

    def project_tangent(self, p, v):
        v = np.asarray(v, dtype=float)
        return v - np.dot(p, v) * p

    def exp(self, p, v):
        theta = np.linalg.norm(v)
        if theta == 0.0:
            return np.array(p, dtype=float)
        if theta >= self.injectivity_bound():
            raise CutLocusError(f"tangent norm {theta:g} reaches the cut locus")
        return math.cos(theta) * p + math.sin(theta) / theta * v

    def log(self, p, q):
        if np.array_equal(p, q):
            return np.zeros(self.ambient_dim)
        inner = float(np.clip(np.dot(p, q), -1.0, 1.0))
        u = q - inner * p
        s = np.linalg.norm(u)
        theta = math.atan2(s, inner)
        if theta >= self.injectivity_bound():
            raise CutLocusError(f"points at angle {theta:g} are antipodal")
        if s == 0.0:
            return np.zeros(self.ambient_dim)
        return (theta / s) * u

    def transport(self, p, v, q):
        if np.array_equal(p, q):
            return np.array(v, dtype=float)
        u = self.log(p, q)
        theta = np.linalg.norm(u)
        if theta == 0.0:
            return np.array(v, dtype=float)
        e = u / theta
        coeff = float(np.dot(e, v))
        out = v + coeff * ((math.cos(theta) - 1.0) * e - math.sin(theta) * p)
        return self.project_tangent(q, out)

    def dist(self, p, q):
        inner = float(np.clip(np.dot(p, q), -1.0, 1.0))
        u = q - inner * p
        return math.atan2(np.linalg.norm(u), inner)

    def midpoint(self, p, q):
        """The geodesic form, independent of the kernel's chord."""
        return self.exp(p, 0.5 * self.log(p, q))


def scalar_manifold(M):
    """The per-point oracle for a library manifold."""
    if isinstance(M, Euclidean):
        return M  # p + v, q - p and the identity are the same on any shape
    return ScalarRoundSphere(M.ambient_dim)


def scalar_subdivide_once(mask, M, points, vectors, rule="midpoint"):
    """One manifold Hermite subdivision step, output index by output index.
    Returns the (2L, d) points and vectors."""
    S = scalar_manifold(M)
    L, d = points.shape
    if rule == "leftpoint":
        odd_bases = points.copy()
    else:
        odd_bases = np.array(
            [S.midpoint(points[i], points[(i + 1) % L]) for i in range(L)]
        )
    P = np.empty((2 * L, d))
    V = np.empty((2 * L, d))
    for j in range(2 * L):
        m = points[j // 2] if j % 2 == 0 else odd_bases[j // 2]
        w0 = np.zeros(d)
        w1 = np.zeros(d)
        for t in range(mask.lo, mask.hi + 1):
            if (j - t) % 2 != 0:
                continue
            blk = mask.block(t)
            if not blk.any():
                continue
            k = (j - t) // 2 % L
            y = S.log(m, points[k])
            z = S.transport(points[k], vectors[k], m)
            w0 += blk[0, 0] * y + blk[0, 1] * z
            w1 += blk[1, 0] * y + blk[1, 1] * z
        P[j] = S.exp(m, w0)
        V[j] = S.transport(m, w1, P[j])
    return P, V
