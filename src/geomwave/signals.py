"""Closed-form test signals with exact analytic derivatives, and sampling of
normalized Hermite data from them.

Presets per manifold:

* Euclidean: ``poly2`` / ``poly3`` / ``poly4`` (interior window), ``exp``
  (interior, parameter lambda), ``trigblend`` (periodic, R^3).
* sphere2: ``greatcircle``, ``wobble`` (two-frequency perturbation of a great
  circle, written in spherical coordinates so the tangent is closed form).
* so3-quat: ``quatcurve`` (unit-quaternion lift of a trigonometric
  axis-angle path).

Periodic presets live on [0, 1) and close up in value and derivative.

A ``SignalSpec`` is one array function on one manifold: ``curve(t)`` gives
the points f(t) and the velocities f'(t), for an array t of shape (L,) two
(L, d) arrays, d the ambient dimension, and for a scalar t two of shape (d,).
Terms the two share are computed once.  ``sample_signal`` calls ``curve``
once on the whole grid, and refuses any other output shape.  The array
forms are bitwise equal to evaluating the same formulas one scalar t at a
time: exp and powers go through the C library entrywise
(``predictors.libm_exp``/``libm_pow``), and quaternion norms through the
BLAS dot of one 3-vector, as ``np.linalg.norm`` computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SchemaError
from .manifolds import Euclidean, Manifold, SO3Quat, Sphere2, manifold_from_tag
from .predictors import libm_exp, libm_pow
from .sequences import HermiteSequence

__all__ = ["SignalSpec", "get_preset", "preset_names", "real_signal", "sample_signal"]

# the most float64 words one numpy array can index
_MAX_WORDS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class SignalSpec:
    """A curve t -> M with its exact derivative: ``curve(t)`` gives the
    points and the velocities, as arrays."""

    name: str
    manifold: Manifold
    curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[float, float] = (0.0, 1.0)
    periodic: bool = True


def _stack(*columns) -> np.ndarray:
    """Coordinate columns (arrays of one shape, or constants) as the last
    axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one BLAS dot per vector."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sphere_from_angles(name: str, angles) -> SignalSpec:
    """The S^2 curve of latitude/longitude angle paths, with
    angles(t) = (phi, phi', psi, psi')."""

    def point_velocity(t):
        phi, dphi, psi, dpsi = angles(t)
        cp, sp = np.cos(phi), np.sin(phi)
        cs, ss = np.cos(psi), np.sin(psi)
        v = _stack(
            -sp * dphi * cs - cp * ss * dpsi,
            -sp * dphi * ss + cp * cs * dpsi,
            cp * dphi,
        )
        return _stack(cp * cs, cp * ss, sp), v

    return SignalSpec(name, Sphere2(), point_velocity)


def _great_circle() -> SignalSpec:
    return _sphere_from_angles(
        "greatcircle", lambda t: (0.0, 0.0, 2 * math.pi * t, 2 * math.pi)
    )


def _wobble(a1: float = 0.4, a2: float = 0.2) -> SignalSpec:
    """Great circle with a two-frequency latitude perturbation."""

    def angles(t):
        phi = a1 * np.sin(2 * math.pi * t) + a2 * np.sin(4 * math.pi * t)
        dphi = 2 * math.pi * a1 * np.cos(2 * math.pi * t) + 4 * math.pi * a2 * np.cos(
            4 * math.pi * t
        )
        return phi, dphi, 2 * math.pi * t, 2 * math.pi

    return _sphere_from_angles("wobble", angles)


def _quat_curve() -> SignalSpec:
    """Unit-quaternion lift of the axis-angle path
    w(t) = (0.8 + 0.3 sin 2pi t, 0.4 cos 2pi t, 0.3 sin 4pi t)."""

    def curve(t):
        s1, c1 = np.sin(2 * math.pi * t), np.cos(2 * math.pi * t)
        w = _stack(0.8 + 0.3 * s1, 0.4 * c1, 0.3 * np.sin(4 * math.pi * t))
        dw = _stack(
            0.6 * math.pi * c1, -0.8 * math.pi * s1, 1.2 * math.pi * np.cos(4 * math.pi * t)
        )
        th = np.sqrt(_dot(w, w))[..., None]
        dth = _dot(w, dw)[..., None] / th
        n = w / th
        dn = dw / th - w * dth / libm_pow(th, 2)
        s, c = np.sin(th / 2), np.cos(th / 2)
        return (
            np.concatenate((c, s * w / th), axis=-1),
            np.concatenate((-dth / 2 * s, dth / 2 * c * n + s * dn), axis=-1),
        )

    return SignalSpec("quatcurve", SO3Quat(), curve)


def real_signal(name: str, f, df, domain) -> SignalSpec:
    """An interior signal in R^1 from a real function and its derivative,
    each mapping an array t to an array of t's shape."""
    return SignalSpec(
        name, Euclidean(1), lambda t: (_stack(f(t)), _stack(df(t))),
        domain=domain, periodic=False,
    )


def _poly(degree: int) -> SignalSpec:
    coeffs = [1.0, -0.5, 0.25, 0.125, -0.0625][: degree + 1]

    def curve(t):
        powers = [libm_pow(t, k) for k in range(degree + 1)]
        f = sum(c * x for c, x in zip(coeffs, powers))
        df = sum(k * c * powers[k - 1] for k, c in enumerate(coeffs) if k > 0)
        return _stack(f), _stack(df)

    return SignalSpec(f"poly{degree}", Euclidean(1), curve, (-2.0, 2.0), False)


def _exp_signal(lam: float = 1.0) -> SignalSpec:
    def curve(t):
        e = libm_exp(lam * t)
        return _stack(e), _stack(lam * e)

    return SignalSpec("exp", Euclidean(1), curve, (-2.0, 2.0), False)


def _trigblend() -> SignalSpec:
    def curve(t):
        w = 2 * math.pi * t
        s1, c1, s2, c2 = np.sin(w), np.cos(w), np.sin(2 * w), np.cos(2 * w)
        return (
            _stack(s1 + 0.5 * c2, c1 - 0.3 * s2, 0.4 * s2),
            2 * math.pi * _stack(c1 - s2, -s1 - 0.6 * c2, 0.8 * c2),
        )

    return SignalSpec("trigblend", Euclidean(3), curve)


_PRESETS: dict[str, Callable[..., SignalSpec]] = {
    "greatcircle": _great_circle,
    "wobble": _wobble,
    "quatcurve": _quat_curve,
    "poly2": lambda: _poly(2),
    "poly3": lambda: _poly(3),
    "poly4": lambda: _poly(4),
    "exp": _exp_signal,
    "trigblend": _trigblend,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def get_preset(manifold_tag: str, name: str, **params) -> SignalSpec:
    """The preset ``name``; a tag other than its own is a SchemaError."""
    try:
        tag = manifold_from_tag(manifold_tag).tag
    except ValueError as err:
        raise SchemaError(str(err)) from None
    if name not in _PRESETS:
        raise SchemaError(
            f"no preset {name!r} for manifold {manifold_tag!r}; "
            f"known presets: {preset_names()}"
        )
    spec = _PRESETS[name](**params)
    if spec.manifold.tag != tag:
        raise SchemaError(
            f"preset {name!r} belongs to {spec.manifold.tag!r}, not {manifold_tag!r}"
        )
    return spec


def sample_signal(spec: SignalSpec, level: int) -> HermiteSequence:
    """Normalized Hermite samples c^[n]_i = (f(i/2^n), 2^-n f'(i/2^n)) on the
    preset's manifold, periodic or on the interior window of its domain.
    The curve is called once, on the whole grid; a periodic grid runs to
    t = 1 to check that the curve closes up.  A level whose grid spacing or
    sample array numpy cannot represent is a SchemaError.
    """
    if spec.periodic and level < 0:
        raise SchemaError(f"preset {spec.name} needs level >= 0, got {level}")
    a, b = (0.0, 1.0) if spec.periodic else spec.domain
    try:
        h = 2.0 ** (-level)
        # i / 2^level in [a, b]; ldexp is exact, and refuses an i past floats
        lo, hi = math.ceil(math.ldexp(a, level)), math.floor(math.ldexp(b, level))
        fits = (hi - lo + 1) * spec.manifold.ambient_dim <= _MAX_WORDS
    except OverflowError:
        fits = False
    if not fits:
        raise SchemaError(f"preset {spec.name}: level {level} is out of numpy's range")
    t = np.arange(lo, hi + 1) * h
    shape = (len(t), spec.manifold.ambient_dim)
    P, V = (np.asarray(x, dtype=float) for x in spec.curve(t))
    for name, x in (("f", P), ("df", V)):
        if x.shape != shape:
            raise SchemaError(
                f"preset {spec.name}: {name} maps t of shape {t.shape} to "
                f"shape {x.shape}, not {shape}"
            )
    if spec.periodic:
        gap = max(np.abs(P[0] - P[-1]).max(), np.abs(V[0] - V[-1]).max())
        if gap > 1e-12:
            raise ValueError(
                f"preset {spec.name} does not close up on [0, 1): gap {gap:g}"
            )
        P, V = P[:-1], V[:-1]
    return HermiteSequence(
        P, h * V, spec.periodic, lo, level=level, manifold=spec.manifold
    )
