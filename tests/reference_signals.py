"""The scalar presets, reproduction elements and samplers: ``f`` and ``df``
take one float t and return a vector, and the samplers call them once per
sample.  A preset hands them to the library as the curve t -> (f(t), df(t)).
The differential tests require the array forms of ``geomwave.signals`` and
``geomwave.predictors``, and the one array sampler
``geomwave.signals.sample_signal``, to give the same numbers."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from geomwave.errors import SchemaError
from geomwave.filterbank import LevelFilters
from geomwave.manifolds import Euclidean, manifold_from_tag
from geomwave.sequences import (
    HermiteSequence,
    apply_decomposition,
    interior_sequence,
    periodic_sequence,
    sup_norm,
)
from geomwave.signals import SignalSpec
from geomwave.transform import ManifoldHermiteSeq


def _spec(name: str, tag: str, f, df, **fields) -> SignalSpec:
    """The preset whose curve evaluates the scalar f and df at one t."""
    return SignalSpec(name, manifold_from_tag(tag), lambda t: (f(t), df(t)), **fields)


def _sphere_from_angles(phi, dphi, psi, dpsi):
    """Point and velocity on S^2 from latitude/longitude angle paths."""
    cp, sp = math.cos(phi), math.sin(phi)
    cs, ss = math.cos(psi), math.sin(psi)
    p = np.array([cp * cs, cp * ss, sp])
    v = np.array(
        [
            -sp * dphi * cs - cp * ss * dpsi,
            -sp * dphi * ss + cp * cs * dpsi,
            cp * dphi,
        ]
    )
    return p, v


def _great_circle() -> SignalSpec:
    def f(t):
        return _sphere_from_angles(0.0, 0.0, 2 * math.pi * t, 2 * math.pi)[0]

    def df(t):
        return _sphere_from_angles(0.0, 0.0, 2 * math.pi * t, 2 * math.pi)[1]

    return _spec("greatcircle", "sphere2", f, df)


def _wobble(a1: float = 0.4, a2: float = 0.2) -> SignalSpec:
    """Great circle with a two-frequency latitude perturbation."""

    def angles(t):
        phi = a1 * math.sin(2 * math.pi * t) + a2 * math.sin(4 * math.pi * t)
        dphi = 2 * math.pi * a1 * math.cos(2 * math.pi * t) + 4 * math.pi * a2 * math.cos(
            4 * math.pi * t
        )
        return phi, dphi, 2 * math.pi * t, 2 * math.pi

    def f(t):
        return _sphere_from_angles(*angles(t))[0]

    def df(t):
        return _sphere_from_angles(*angles(t))[1]

    return _spec("wobble", "sphere2", f, df)


def _quat_curve() -> SignalSpec:
    """Unit-quaternion lift of the axis-angle path
    w(t) = (0.8 + 0.3 sin 2pi t, 0.4 cos 2pi t, 0.3 sin 4pi t)."""

    def omega(t):
        return np.array(
            [
                0.8 + 0.3 * math.sin(2 * math.pi * t),
                0.4 * math.cos(2 * math.pi * t),
                0.3 * math.sin(4 * math.pi * t),
            ]
        )

    def domega(t):
        return np.array(
            [
                0.6 * math.pi * math.cos(2 * math.pi * t),
                -0.8 * math.pi * math.sin(2 * math.pi * t),
                1.2 * math.pi * math.cos(4 * math.pi * t),
            ]
        )

    def f(t):
        w = omega(t)
        th = np.linalg.norm(w)
        return np.concatenate(([math.cos(th / 2)], math.sin(th / 2) * w / th))

    def df(t):
        w, dw = omega(t), domega(t)
        th = np.linalg.norm(w)
        dth = float(w @ dw) / th
        n = w / th
        dn = dw / th - w * dth / th**2
        return np.concatenate(
            (
                [-dth / 2 * math.sin(th / 2)],
                dth / 2 * math.cos(th / 2) * n + math.sin(th / 2) * dn,
            )
        )

    return _spec("quatcurve", "so3-quat", f, df)


def _poly(degree: int) -> SignalSpec:
    coeffs = [1.0, -0.5, 0.25, 0.125, -0.0625][: degree + 1]

    def f(t):
        return np.array([sum(c * t**k for k, c in enumerate(coeffs))])

    def df(t):
        return np.array(
            [sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k > 0)]
        )

    return _spec(
        f"poly{degree}",
        "euclidean:1",
        f,
        df,
        domain=(-2.0, 2.0),
        periodic=False,
    )


def _exp_signal(lam: float = 1.0) -> SignalSpec:
    def f(t):
        return np.array([math.exp(lam * t)])

    def df(t):
        return np.array([lam * math.exp(lam * t)])

    return _spec(
        "exp",
        "euclidean:1",
        f,
        df,
        domain=(-2.0, 2.0),
        periodic=False,
    )


def _trigblend() -> SignalSpec:
    def f(t):
        w = 2 * math.pi * t
        return np.array(
            [
                math.sin(w) + 0.5 * math.cos(2 * w),
                math.cos(w) - 0.3 * math.sin(2 * w),
                0.4 * math.sin(2 * w),
            ]
        )

    def df(t):
        w = 2 * math.pi * t
        return 2 * math.pi * np.array(
            [
                math.cos(w) - math.sin(2 * w),
                -math.sin(w) - 0.6 * math.cos(2 * w),
                0.8 * math.cos(2 * w),
            ]
        )

    return _spec("trigblend", "euclidean:3", f, df)


_PRESETS: dict[tuple[str, str], Callable[..., SignalSpec]] = {
    ("sphere2", "greatcircle"): _great_circle,
    ("sphere2", "wobble"): _wobble,
    ("so3-quat", "quatcurve"): _quat_curve,
    ("euclidean", "poly2"): lambda: _poly(2),
    ("euclidean", "poly3"): lambda: _poly(3),
    ("euclidean", "poly4"): lambda: _poly(4),
    ("euclidean", "exp"): _exp_signal,
    ("euclidean", "trigblend"): _trigblend,
}


def preset_names() -> list[str]:
    return sorted({name for _, name in _PRESETS})


def get_preset(manifold_tag: str, name: str, **params) -> SignalSpec:
    family = "euclidean" if manifold_tag.startswith("euclidean") else manifold_tag
    try:
        factory = _PRESETS[(family, name)]
    except KeyError:
        raise SchemaError(
            f"no preset {name!r} for manifold {manifold_tag!r}; "
            f"known presets: {preset_names()}"
        ) from None
    return factory(**params)


def sample_signal(spec: SignalSpec, level: int):
    """Normalized Hermite samples c^[n]_i = (f(i/2^n), 2^-n f'(i/2^n)).

    Returns a periodic ManifoldHermiteSeq for manifold presets, a (periodic
    or interior) HermiteSequence for Euclidean ones.
    """
    h = 2.0 ** (-level)
    if spec.periodic:
        if level < 0:
            raise SchemaError(f"preset {spec.name} needs level >= 0, got {level}")
        (p0, v0), (p1, v1) = spec.curve(0.0), spec.curve(1.0)
        close_p, close_v = np.abs(p0 - p1).max(), np.abs(v0 - v1).max()
        if max(close_p, close_v) > 1e-12:
            raise ValueError(
                f"preset {spec.name} does not close up on [0, 1): "
                f"gap {max(close_p, close_v):g}"
            )
        L = 1 << level
        rows = [spec.curve(i * h) for i in range(L)]
        P = np.array([p for p, _ in rows])
        V = np.array([h * v for _, v in rows])
        if isinstance(spec.manifold, Euclidean):
            return periodic_sequence(P, V, level=level)
        return ManifoldHermiteSeq(spec.manifold, P, V, level=level)
    a, b = spec.domain
    lo = math.ceil(a / h)
    hi = math.floor(b / h)
    idx = np.arange(lo, hi + 1)
    rows = [spec.curve(j * h) for j in idx]
    P = np.array([p for p, _ in rows])
    V = np.array([h * v for _, v in rows])
    return interior_sequence(P, V, lo, level=level)


def poly_space(degree: int) -> tuple:
    elems = []
    for d in range(degree + 1):
        f = (lambda d: lambda x: x**d)(d)
        df = (lambda d: lambda x: d * x ** (d - 1) if d > 0 else 0.0)(d)
        elems.append((f"x^{d}", f, df))
    return tuple(elems)


def exponential_space(lam: float) -> tuple:
    return (
        ("1", lambda x: 1.0, lambda x: 0.0),
        ("x", lambda x: x, lambda x: 1.0),
        ("e^{lx}", lambda x: math.exp(lam * x), lambda x: lam * math.exp(lam * x)),
        (
            "e^{-lx}",
            lambda x: math.exp(-lam * x),
            lambda x: -lam * math.exp(-lam * x),
        ),
    )


def sample_hermite_interior(
    f: Callable[[float], float],
    df: Callable[[float], float],
    level: int,
    window: tuple[int, int],
) -> HermiteSequence:
    """Normalized samples (f(j/2^n), 2^-n f'(j/2^n)) for j in [window]."""
    a, b = window
    h = 2.0 ** (-level)
    idx = np.arange(a, b + 1)
    p = np.array([[f(j * h)] for j in idx], dtype=float)
    v = np.array([[h * df(j * h)] for j in idx], dtype=float)
    return interior_sequence(p, v, a, level=level)


def vanishing_moment_residual(
    filters: LevelFilters,
    f: Callable[[float], float],
    df: Callable[[float], float],
    level: int,
    window: tuple[int, int],
) -> float:
    """Sup norm of D_{Bt^T} applied to normalized level-(n+1) samples of f
    over interior-valid indices."""
    c = sample_hermite_interior(f, df, level + 1, window)
    out = apply_decomposition(filters.Bt.transposed(), c)
    return sup_norm(out)
