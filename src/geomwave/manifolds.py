"""Closed-form manifold geometry: Euclidean space, the unit 2-sphere, and the
rotation group SO(3) realized as unit quaternions with the round geometry of
S^3.

Points and tangent vectors are plain numpy arrays in the ambient
representation, of shape ``(..., d)``: every operation maps whole arrays of
points entry by entry, with numpy broadcasting over the leading axes.  Every
manifold enforces its own invariants (unit norm, tangency) via
``project_point`` / ``project_tangent``.  Operations requiring inversion of
the exponential map raise :class:`CutLocusError` near the cut locus, naming
the first failing entry; downstream code reports it as "data not dense
enough".

The round-sphere kernel calls numpy's ufuncs directly rather than through
their Python wrappers, which cost more than the arithmetic on the small
arrays of a pyramid level: ``_norm`` is the arithmetic ``np.linalg.norm``
itself runs over one axis of a real array, and ``_clip`` is ``np.clip``'s.
Each reduction over the coordinate axis (``_norm``, ``Euclidean.dist`` and
``log``'s equal-row test) first builds its product column-major, so that
numpy reduces with one long loop per coordinate rather than one loop of 3
or 4 entries per row; each row is still summed in coordinate order, word
for word as the row-major product gives it (but for the sign of a NaN in a
row that holds NaNs of both signs).

Every cut-locus guard is one call of ``_refuse`` on its angles: one
NaN-ignoring ``np.fmax.reduce`` against the one bound ``_CUT_LOCUS``, with
the mask that names the failing entry built only when it fires.
``_transport`` and ``midpoint`` share one guard, ``_refuse_antipodes``,
which takes its ``arccos`` only when ``np.fmin.reduce`` of the inner
products finds a pair past 2pi/3, and then of the lesser of the inner
product and the cosine between the points' directions, so that a pair a
rounding error off the sphere on either side is refused.  The midpoint is
the chord
(p + q)/|p + q|.  The zero masks of ``exp`` (a zero tangent, by
``np.fmin.reduce``) and ``log`` (an equal pair, or a zero residual) are
applied with ``np.where`` only when a zero is present.  Results are word
for word those of the wrapped calls.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import CutLocusError

__all__ = [
    "Manifold",
    "Euclidean",
    "Sphere2",
    "SO3Quat",
    "manifold_from_tag",
]

_CUT_LOCUS_MARGIN = 1e-6
# the angle at which every guard of the round sphere refuses a pair
_CUT_LOCUS = math.pi - _CUT_LOCUS_MARGIN
# how far a point may be off M, or a vector off T_pM, and still be accepted
_INVARIANT_TOL = 1e-9


class Manifold:
    """Abstract interface: exp, log, parallel transport along geodesics,
    midpoints, and distance."""

    tag: str
    ambient_dim: int

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transport(self, p: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Parallel transport of v from T_p to T_q along the geodesic.  The
        result may be v itself (flat space), so callers must not write into
        it."""
        raise NotImplementedError

    def log_transport(
        self, m: np.ndarray, p: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(log(m, p), transport(p, v, m))``: pull the pair (p, v) into T_m.
        Subclasses may share work between the two maps, with the same
        results and errors as the two calls."""
        return self.log(m, p), self.transport(p, v, m)

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Geodesic distance over the last axis."""
        raise NotImplementedError

    def midpoint(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The geodesic midpoint ``exp(p, log(p, q) / 2)``."""
        raise NotImplementedError

    def project_point(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float)

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float)

    def check_point(self, p: np.ndarray) -> bool:
        return True

    def check_tangent(self, p: np.ndarray, v: np.ndarray) -> bool:
        return True

    def first_fault(self, p, *tangents) -> tuple[int, int, str] | None:
        """The first row of the (L, d) arrays p, *tangents that is not a
        sample of M, as (row, array, reason), or None.  A row's fault is the
        first of: a non-finite value in array k, its point (array 0) off M,
        its vector in array k > 0 not tangent at its point.  Whole arrays are
        tested first; per-row masks only name the fault."""
        finite = [np.isfinite(a) for a in (p, *tangents)]
        on_M = [self.check_point(p), *(self.check_tangent(p, v) for v in tangents)]
        if all(np.logical_and.reduce(ok, axis=None) for ok in finite + on_M):
            return None
        tests = np.broadcast_arrays(*(f.all(axis=1) for f in finite), *on_M)
        i = int(np.argmin(np.logical_and.reduce(tests)))
        k = [t[i] for t in tests].index(False) - len(finite)
        if k < 0:
            return i, k + len(finite), "is not finite"
        if k == 0:
            return i, 0, f"is not on {self.tag} (|p| = {np.linalg.norm(p[i]):.6g})"
        dot = abs(p[i] @ tangents[k - 1][i])
        return i, k, f"has a non-tangent vector (|<p, v>| = {dot:.3g})"


class Euclidean(Manifold):
    """Flat space: exp is +, log is -, transport is the identity."""

    def __init__(self, m: int):
        self.ambient_dim = m
        self.tag = f"euclidean:{m}"

    def exp(self, p, v):
        return p + v

    def log(self, p, q):
        return q - p

    def transport(self, p, v, q):
        return np.asarray(v, dtype=float)

    def dist(self, p, q):
        d = np.subtract(q, p, order="F")
        if d.dtype.kind != "f":  # np.linalg.norm's cast of an integer difference
            d = d.astype(float)
        return np.sqrt(np.add.reduce(np.multiply(d, d, order="F"), axis=-1))

    def midpoint(self, p, q):
        return 0.5 * (p + q)


_ANTIPODAL = (
    "points at angle {:g} are antipodal within tolerance; data not dense enough"
)


def _refuse(theta: np.ndarray, message: str):
    """Raise CutLocusError at the first entry of the angles ``theta``, shape
    ``(..., 1)``, that reaches ``_CUT_LOCUS``, formatting ``message`` with
    that angle.  NaN angles are ignored."""
    if np.fmax.reduce(theta, axis=None, initial=0.0) < _CUT_LOCUS:
        return
    theta = theta[..., 0]
    bad = theta >= _CUT_LOCUS
    at = np.unravel_index(int(np.argmax(bad)), bad.shape)
    index = tuple(int(i) for i in at)
    if len(index) < 2:
        index = index[0] if index else None
    raise CutLocusError(message.format(float(theta[at])), index)


def _refuse_antipodes(p: np.ndarray, q: np.ndarray, c: np.ndarray):
    """The guard of the pairs (p, q) given c = <p, q>: ``_refuse`` on the
    arccos of the lesser of c and the cosine c / (|p| |q|) between their
    directions.  The cosine refuses a pair a little inside the sphere, whose
    c reads farther from the antipode than the pair is; c refuses a pair a
    little outside it, whose 1 + c, the divisor of the transport, can reach
    zero before the angle between the directions reaches the margin."""
    # where c >= -0.5 the angle is at most 2pi/3, far from the cut locus,
    # so the arccos test runs only on inputs with a pair below that
    if np.fmin.reduce(c, axis=None, initial=np.inf) < -0.5:
        # a zero row's cosine is NaN, and fmin keeps its c
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = np.fmin(c, c / (_norm(p) * _norm(q)))
        _refuse(np.arccos(_clip(cos)), _ANTIPODAL)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, kept as a length-1 axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, kept as a length-1 axis: the
    arithmetic ``np.linalg.norm(x, axis=-1, keepdims=True)`` runs on a real
    array, without its Python wrapper.  The squares are laid out
    column-major, so the sum runs one loop over all rows per coordinate,
    adding the coordinates in the same order (for fewer than 8 of them,
    numpy's row-major sum is sequential too)."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, order="F"), axis=-1, keepdims=True))


def _clip(c: np.ndarray) -> np.ndarray:
    """``np.clip(c, -1.0, 1.0)`` as its two ufuncs."""
    return np.minimum(np.maximum(c, -1.0), 1.0)


class _RoundSphere(Manifold):
    """Unit sphere in R^(d+1) with the round metric; closed-form geodesics."""

    def project_point(self, p):
        p = np.asarray(p, dtype=float)
        n = _norm(p)
        if (n == 0.0).any():
            raise ValueError("cannot normalize the zero vector to the sphere")
        return p / n

    def project_tangent(self, p, v):
        v = np.asarray(v, dtype=float)
        return v - _dot(p, v) * p

    def check_point(self, p):
        return abs(_norm(np.asarray(p, dtype=float))[..., 0] - 1.0) <= _INVARIANT_TOL

    def check_tangent(self, p, v):
        return abs(_dot(p, v)[..., 0]) <= _INVARIANT_TOL

    def exp(self, p, v):
        p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
        theta = _norm(v)
        _refuse(theta, "tangent norm {:g} reaches the cut locus; data not dense enough")
        if np.fmin.reduce(theta, axis=None, initial=np.inf) != 0.0:
            return np.cos(theta) * p + np.sin(theta) / theta * v
        zero = theta == 0.0
        safe = np.where(zero, 1.0, theta)
        return np.where(zero, p, np.cos(theta) * p + np.sin(theta) / safe * v)

    def log(self, p, q):
        return self._log(np.asarray(p, dtype=float), np.asarray(q, dtype=float))[0]

    def transport(self, p, v, q):
        p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
        q = np.asarray(q, dtype=float)
        return self._transport(p, v, q, _dot(p, q))

    def log_transport(self, m, p, v):
        # one inner product <m, p> serves both maps
        m, p = np.asarray(m, dtype=float), np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        y, c = self._log(m, p)
        return y, self._transport(p, v, m, c)

    def _log(self, p, q):
        """log_p(q), and the inner product c = <p, q> it was built from."""
        equal = np.logical_and.reduce(np.equal(p, q, order="F"), axis=-1, keepdims=True)
        c = _dot(p, q)
        inner = _clip(c)
        u = q - inner * p
        s = _norm(u)
        theta = np.arctan2(s, inner)
        _refuse(theta, _ANTIPODAL)
        zero = equal | (s == 0.0)
        if not np.logical_or.reduce(zero, axis=None):
            return theta / s * u, c
        return np.where(zero, 0.0, theta / np.where(zero, 1.0, s) * u), c

    def _transport(self, p, v, q, c):
        """Transport of v from T_p to T_q given c = <p, q>: closed form along
        the minimal geodesic, for v tangent at p."""
        _refuse_antipodes(p, q, c)
        return v - _dot(q, v) / (1.0 + c) * (p + q)

    def midpoint(self, p, q):
        """The chord midpoint (p + q) / |p + q|, the geodesic midpoint of
        two points that are not antipodal, behind ``transport``'s guard."""
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        _refuse_antipodes(p, q, _dot(p, q))
        s = p + q
        return s / _norm(s)

    def dist(self, p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        inner = _clip(_dot(p, q))
        s = _norm(q - inner * p)
        return np.arctan2(s[..., 0], inner[..., 0])


class Sphere2(_RoundSphere):
    tag = "sphere2"
    ambient_dim = 3


class SO3Quat(_RoundSphere):
    """SO(3) as unit quaternions; the bi-invariant geometry is that of the
    round S^3 (a Cartan-Schouten connection up to scale)."""

    tag = "so3-quat"
    ambient_dim = 4


def manifold_from_tag(tag: str) -> Manifold:
    """Parse a manifold tag: "euclidean:<m>", "sphere2", or "so3-quat"."""
    if not isinstance(tag, str):
        raise ValueError(f"expected a manifold tag string, got {tag!r}")
    if tag == "sphere2":
        return Sphere2()
    if tag == "so3-quat":
        return SO3Quat()
    m = re.fullmatch(r"euclidean:(\d+)", tag)
    if m:
        return Euclidean(int(m.group(1)))
    raise ValueError(f"unknown manifold tag {tag!r}")
