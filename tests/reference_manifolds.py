"""The round-sphere kernel as it was written with ``np.linalg.norm``,
``np.clip`` and ``np.all``: exp, log, parallel transport, the fused
log-transport, the chord midpoint, the distance, ``project_point`` and
``check_point`` on the unit sphere in R^d.  The differential test requires
``geomwave.manifolds``' ``_RoundSphere``, which calls the same ufuncs
directly, to give the same words, the same result types and the same
CutLocusErrors.  Only the two tolerances are imported, so that the reference
follows the input contract while keeping its own arithmetic."""

import math

import numpy as np

from geomwave.errors import CutLocusError
from geomwave.manifolds import _CUT_LOCUS_MARGIN, _INVARIANT_TOL

_ANTIPODAL = (
    "points at angle {:g} are antipodal within tolerance; data not dense enough"
)


def _raise_first(bad: np.ndarray, theta: np.ndarray, message: str):
    """Raise CutLocusError at the first entry of the violation mask ``bad``
    (``message`` is formatted with that entry's angle)."""
    if not bad.any():
        return
    at = np.unravel_index(int(np.argmax(bad)), bad.shape)
    index = tuple(int(i) for i in at)
    if len(index) < 2:
        index = index[0] if index else None
    raise CutLocusError(message.format(float(theta[at])), index)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, kept as a length-1 axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


class RoundSphere:
    """Unit sphere in R^d with the round metric; closed-form geodesics."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim

    def injectivity_bound(self):
        return math.pi - _CUT_LOCUS_MARGIN

    def project_point(self, p):
        p = np.asarray(p, dtype=float)
        n = np.linalg.norm(p, axis=-1, keepdims=True)
        if (n == 0.0).any():
            raise ValueError("cannot normalize the zero vector to the sphere")
        return p / n

    def check_point(self, p):
        return abs(np.linalg.norm(p, axis=-1) - 1.0) <= _INVARIANT_TOL

    def exp(self, p, v):
        p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
        theta = np.linalg.norm(v, axis=-1, keepdims=True)
        _raise_first(
            theta[..., 0] >= self.injectivity_bound(), theta[..., 0],
            "tangent norm {:g} reaches the cut locus; data not dense enough",
        )
        zero = theta == 0.0
        safe = np.where(zero, 1.0, theta)
        return np.where(zero, p, np.cos(theta) * p + np.sin(theta) / safe * v)

    def log(self, p, q):
        return self._log(np.asarray(p, dtype=float), np.asarray(q, dtype=float))[0]

    def transport(self, p, v, q):
        p, v, q = (np.asarray(x, dtype=float) for x in (p, v, q))
        return self._transport(p, v, q, _dot(p, q))

    def log_transport(self, m, p, v):
        # one inner product <m, p> serves both maps
        m, p, v = (np.asarray(x, dtype=float) for x in (m, p, v))
        y, c = self._log(m, p)
        return y, self._transport(p, v, m, c)

    def midpoint(self, p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        self._refuse_antipodes(p, q, _dot(p, q))
        s = p + q
        return s / np.linalg.norm(s, axis=-1, keepdims=True)

    def _log(self, p, q):
        """log_p(q), and the inner product c = <p, q> it was built from."""
        equal = np.all(p == q, axis=-1, keepdims=True)
        c = _dot(p, q)
        inner = np.clip(c, -1.0, 1.0)
        u = q - inner * p
        s = np.linalg.norm(u, axis=-1, keepdims=True)
        theta = np.arctan2(s, inner)
        _raise_first(
            ~equal[..., 0] & (theta[..., 0] >= self.injectivity_bound()),
            theta[..., 0],
            _ANTIPODAL,
        )
        zero = equal | (s == 0.0)
        return np.where(zero, 0.0, theta / np.where(zero, 1.0, s) * u), c

    def _transport(self, p, v, q, c):
        """Transport of v from T_p to T_q given c = <p, q>: closed form along
        the minimal geodesic, for v tangent at p."""
        self._refuse_antipodes(p, q, c)
        return v - _dot(q, v) / (1.0 + c) * (p + q)

    def _refuse_antipodes(self, p, q, c):
        """The cut-locus guard of the pairs (p, q) given c = <p, q>, on the
        lesser of c and the cosine of the angle between their directions."""
        # where c >= -0.5 the angle is at most 2pi/3, far from the cut locus,
        # so the arccos test runs only on inputs with a pair below that
        if (c < -0.5).any():
            n = np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
            cos = np.fmin(c[..., 0], c[..., 0] / n)
            theta = np.arccos(np.clip(cos, -1.0, 1.0))
            _raise_first(theta >= self.injectivity_bound(), theta, _ANTIPODAL)

    def dist(self, p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        inner = np.clip(_dot(p, q), -1.0, 1.0)
        s = np.linalg.norm(q - inner * p, axis=-1)
        return np.arctan2(s, inner[..., 0])
