"""Random points and tangent vectors for the tests, drawn from normal
vectors in the ambient space.  Each call draws from ``rng`` in a fixed
order, so a seeded test sees the same cases every run."""

import numpy as np


def random_point(M, rng, shape=()):
    """A point of M, or an array of them with the given leading shape."""
    return M.project_point(rng.normal(size=shape + (M.ambient_dim,)))


def random_tangent(M, rng, p, scale=1.0):
    """A tangent vector at the point p of norm ``scale``."""
    v = M.project_tangent(p, rng.normal(size=M.ambient_dim))
    n = np.linalg.norm(v)
    return v * (scale / n) if n > 0 else v


def random_tangents(M, rng, p, scale):
    """Tangent vectors at the points p with norms in (0, scale]."""
    v = M.project_tangent(p, rng.normal(size=p.shape))
    size = scale * rng.uniform(0.0, 1.0, size=p.shape[:-1] + (1,))
    return v * (size / np.linalg.norm(v, axis=-1, keepdims=True))
