"""The round sphere's chord midpoint in ``np.longdouble``, from double
inputs: the accuracy reference for the double-precision kernel.  On x86-64
Linux ``np.longdouble`` is the 80-bit extended format, eps 1.08e-19, so the
reference's own rounding is about 2,000 times below a double's.  The inputs
are normalized in extended precision first: the reference is the midpoint of
the directions of p and q, which is what the kernel can at best return for
inputs a rounding error off the sphere.  Plain arithmetic only; no
``np.linalg``."""

import numpy as np

EPS = float(np.finfo(np.longdouble).eps)


def _unit(x):
    """x scaled to unit norm over the last axis."""
    return x / np.sqrt(np.sum(x * x, axis=-1, keepdims=True))


def midpoint(p, q):
    """(p + q) / |p + q| of the unit directions of the double arrays p and q,
    in extended precision."""
    p, q = np.asarray(p, np.longdouble), np.asarray(q, np.longdouble)
    return _unit(_unit(p) + _unit(q))
