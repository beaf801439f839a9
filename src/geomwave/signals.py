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

A ``SignalSpec``'s ``f`` and ``df`` are array functions: an array t of shape
(L,) gives an (L, d) array, d the ambient dimension, and a scalar t gives
shape (d,).  ``sample_signal`` evaluates each once on the whole grid, and
refuses any other output shape.  The array forms are bitwise equal to
evaluating the same formulas one scalar t at a time: exp and powers go
through the C library entrywise (``predictors.libm_exp``/``libm_pow``), and
quaternion norms through the BLAS dot of one 3-vector, as ``np.linalg.norm``
computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SchemaError
from .manifolds import Euclidean, Manifold, manifold_from_tag
from .predictors import libm_exp, libm_pow
from .sequences import interior_sequence, periodic_sequence
from .transform import ManifoldHermiteSeq

__all__ = ["SignalSpec", "get_preset", "preset_names", "real_signal", "sample_signal"]


@dataclass(frozen=True)
class SignalSpec:
    """A curve t -> M with its exact derivative, as array functions."""

    name: str
    manifold_tag: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] = (0.0, 1.0)
    periodic: bool = True
    params: dict = field(default_factory=dict)

    @property
    def manifold(self) -> Manifold:
        return manifold_from_tag(self.manifold_tag)


def _stack(*columns) -> np.ndarray:
    """Coordinate columns (arrays of one shape, or constants) as the last
    axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one BLAS dot per vector."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sphere_from_angles(name: str, angles, params=None) -> SignalSpec:
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

    return SignalSpec(
        name, "sphere2", lambda t: point_velocity(t)[0],
        lambda t: point_velocity(t)[1], params=params or {},
    )


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

    return _sphere_from_angles("wobble", angles, {"a1": a1, "a2": a2})


def _quat_curve() -> SignalSpec:
    """Unit-quaternion lift of the axis-angle path
    w(t) = (0.8 + 0.3 sin 2pi t, 0.4 cos 2pi t, 0.3 sin 4pi t)."""

    def omega(t):
        return _stack(
            0.8 + 0.3 * np.sin(2 * math.pi * t),
            0.4 * np.cos(2 * math.pi * t),
            0.3 * np.sin(4 * math.pi * t),
        )

    def domega(t):
        return _stack(
            0.6 * math.pi * np.cos(2 * math.pi * t),
            -0.8 * math.pi * np.sin(2 * math.pi * t),
            1.2 * math.pi * np.cos(4 * math.pi * t),
        )

    def f(t):
        w = omega(t)
        th = np.sqrt(_dot(w, w))[..., None]
        return np.concatenate((np.cos(th / 2), np.sin(th / 2) * w / th), axis=-1)

    def df(t):
        w, dw = omega(t), domega(t)
        th = np.sqrt(_dot(w, w))[..., None]
        dth = _dot(w, dw)[..., None] / th
        n = w / th
        dn = dw / th - w * dth / libm_pow(th, 2)
        s, c = np.sin(th / 2), np.cos(th / 2)
        return np.concatenate((-dth / 2 * s, dth / 2 * c * n + s * dn), axis=-1)

    return SignalSpec("quatcurve", "so3-quat", f, df)


def real_signal(name: str, f, df, domain, params=None) -> SignalSpec:
    """An interior signal in R^1 from a real function and its derivative,
    each mapping an array t to an array of t's shape."""
    return SignalSpec(
        name, "euclidean:1", lambda t: _stack(f(t)), lambda t: _stack(df(t)),
        domain=domain, periodic=False, params=params or {},
    )


def _poly(degree: int) -> SignalSpec:
    coeffs = [1.0, -0.5, 0.25, 0.125, -0.0625][: degree + 1]

    def f(t):
        return sum(c * libm_pow(t, k) for k, c in enumerate(coeffs))

    def df(t):
        return sum(k * c * libm_pow(t, k - 1) for k, c in enumerate(coeffs) if k > 0)

    return real_signal(f"poly{degree}", f, df, (-2.0, 2.0), {"degree": degree})


def _exp_signal(lam: float = 1.0) -> SignalSpec:
    def f(t):
        return libm_exp(lam * t)

    def df(t):
        return lam * libm_exp(lam * t)

    return real_signal("exp", f, df, (-2.0, 2.0), {"lambda": lam})


def _trigblend() -> SignalSpec:
    def f(t):
        w = 2 * math.pi * t
        return _stack(
            np.sin(w) + 0.5 * np.cos(2 * w),
            np.cos(w) - 0.3 * np.sin(2 * w),
            0.4 * np.sin(2 * w),
        )

    def df(t):
        w = 2 * math.pi * t
        return 2 * math.pi * _stack(
            np.cos(w) - np.sin(2 * w),
            -np.sin(w) - 0.6 * np.cos(2 * w),
            0.8 * np.cos(2 * w),
        )

    return SignalSpec("trigblend", "euclidean:3", f, df)


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
    if spec.manifold_tag != tag:
        raise SchemaError(
            f"preset {name!r} belongs to {spec.manifold_tag!r}, not {manifold_tag!r}"
        )
    return spec


def sample_signal(spec: SignalSpec, level: int):
    """Normalized Hermite samples c^[n]_i = (f(i/2^n), 2^-n f'(i/2^n)).

    Returns a periodic ManifoldHermiteSeq for manifold presets, a (periodic
    or interior) HermiteSequence for Euclidean ones.  Each field is called
    once, on the whole grid; a periodic grid runs to t = 1 to check that the
    curve closes up.
    """
    h = 2.0 ** (-level)
    if spec.periodic:
        if level < 0:
            raise SchemaError(f"preset {spec.name} needs level >= 0, got {level}")
        lo, hi = 0, 1 << level
    else:
        a, b = spec.domain
        lo, hi = math.ceil(a / h), math.floor(b / h)
    t = np.arange(lo, hi + 1) * h
    shape = (len(t), spec.manifold.ambient_dim)
    P, V = (np.asarray(fn(t), dtype=float) for fn in (spec.f, spec.df))
    for name, x in (("f", P), ("df", V)):
        if x.shape != shape:
            raise SchemaError(
                f"preset {spec.name}: {name} maps t of shape {t.shape} to "
                f"shape {x.shape}, not {shape}"
            )
    if not spec.periodic:
        return interior_sequence(P, h * V, lo, level=level)
    gap = max(np.abs(P[0] - P[-1]).max(), np.abs(V[0] - V[-1]).max())
    if gap > 1e-12:
        raise ValueError(f"preset {spec.name} does not close up on [0, 1): gap {gap:g}")
    P, V = P[:-1], h * V[:-1]
    if isinstance(spec.manifold, Euclidean):
        return periodic_sequence(P, V, level=level)
    return ManifoldHermiteSeq(spec.manifold, P, V, level=level)
