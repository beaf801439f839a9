"""Interpolatory Hermite subdivision predictors.

Two families ship: the stationary two-point cubic-Hermite midpoint scheme, and
a level-dependent family whose odd stencil interpolates in
span{1, x, e^{lx}, e^{-lx}} on one coarse interval.  Both have support [-1, 1]
and copy even data (interpolatory).  All masks are expressed in normalized
coordinates c^[n] = D^n (f, f')(j / 2^n), so iterating a scheme is plain
operator application without explicit D^n bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .sequences import Mask

__all__ = [
    "MaskProvider",
    "cubic_hermite_mask",
    "exponential_hermite_mask",
    "cubic_provider",
    "exponential_provider",
    "provider_from_config",
    "interpolatory_check",
    "poly_space",
    "exponential_space",
]

# Below this value of |lambda| * 2^-n the closed-form exponential mask is its
# polynomial limit up to rounding (3e-15 at the switch), and the cubic mask is
# returned word for word instead.
_LAMBDA_SWITCH = 1e-6
_LAMBDA_OVERFLOW = 50.0


def cubic_hermite_mask() -> Mask:
    """Stationary mask of the two-point cubic Hermite midpoint scheme."""
    blocks = np.array(
        [
            [[0.5, -0.125], [0.75, -0.125]],  # index -1
            [[1.0, 0.0], [0.0, 0.5]],  # index 0 (= D)
            [[0.5, 0.125], [-0.75, -0.125]],  # index 1
        ]
    )
    return Mask(-1, blocks)


def _cosh1(y: float) -> float:
    """(cosh(y) - 1) / y^2, stable near 0."""
    h = math.sinh(y / 2.0)
    return 2.0 * h * h / (y * y)


def _sinh1(y: float) -> float:
    """(sinh(y) - y) / y^3 to full precision: below |y| = 1 the direct
    quotient cancels (8e-14 relative error near 0.1) and the 8-term series is
    exact to rounding."""
    if abs(y) < 1.0:
        y2 = y * y
        s = 1.0
        for k in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
            s = 1.0 + y2 / k * s
        return s / 6.0
    return (math.sinh(y) - y) / (y * y * y)


def exponential_hermite_mask(lam: float, level: int) -> Mask:
    """Level-dependent mask reproducing span{1, x, e^{lam x}, e^{-lam x}}.

    The odd stencil is the closed form of the two-point Hermite interpolant
    in that span on one coarse interval of length h = 2^-level, evaluated
    (value and h/2 times the derivative) at the midpoint.  With y = lam h / 2,
    C = (cosh y - 1)/y^2 and S = (sinh y - y)/y^3, its weights are
    tau = tanh(y/2)/(4y), mu = C/(2(C - S)) and delta = (1 - 2 mu)/4: even in
    y, with C - S >= 1/3, and 1/8, 3/4, -1/8 (the cubic mask) as y -> 0.
    The even rule is D * delta.
    """
    if lam == 0.0:
        raise ValueError("lambda must be nonzero; use the cubic mask instead")
    h = 2.0 ** (-level)
    if abs(lam) * h > _LAMBDA_OVERFLOW:
        raise ValueError(
            f"|lambda| * 2^-level = {abs(lam) * h:g} exceeds overflow guard "
            f"{_LAMBDA_OVERFLOW:g}"
        )
    if abs(lam) * h < _LAMBDA_SWITCH:
        return cubic_hermite_mask()

    y = lam * h / 2.0
    c = _cosh1(y)
    tau = math.tanh(y / 2.0) / (4.0 * y)
    mu = c / (2.0 * (c - _sinh1(y)))
    delta = (1.0 - 2.0 * mu) / 4.0
    blocks = np.array(
        [
            [[0.5, -tau], [mu, delta]],  # index -1: right data point
            [[1.0, 0.0], [0.0, 0.5]],  # index 0
            [[0.5, tau], [-mu, delta]],  # index 1: left data point
        ]
    )
    return Mask(-1, blocks)


@dataclass(frozen=True)
class MaskProvider:
    """Level-indexed source of predictor masks.  Each level's mask is built
    once and shared: its blocks are read-only."""

    kind: str  # "cubic" or "exp"
    lam: float = 0.0
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("cubic", "exp"):
            raise ValueError(
                f"unknown predictor kind {self.kind!r} (use 'cubic' or 'exp')"
            )
        if self.kind == "exp" and not (math.isfinite(self.lam) and self.lam != 0.0):
            raise ValueError(
                f"exponential predictor requires a finite nonzero lambda, "
                f"got {self.lam!r}"
            )

    def mask_at(self, level: int) -> Mask:
        if level not in self._masks:
            if self.kind == "cubic":
                mask = cubic_hermite_mask()
            else:
                try:
                    mask = exponential_hermite_mask(self.lam, level)
                except (ValueError, OverflowError) as err:  # a level past float range
                    raise SchemaError(
                        f"exp predictor lambda={self.lam:g} at level {level}: {err}"
                    ) from None
            mask.blocks.flags.writeable = False
            self._masks[level] = mask
        return self._masks[level]

    def reproduction_space(self) -> tuple:
        if self.kind == "cubic":
            return poly_space(3)
        return exponential_space(self.lam)


def cubic_provider() -> MaskProvider:
    return MaskProvider("cubic")


def exponential_provider(lam: float) -> MaskProvider:
    return MaskProvider("exp", lam)


def provider_from_config(kind: str, lam: float | None = None) -> MaskProvider:
    try:
        if kind == "exp":
            return exponential_provider(1.0 if lam is None else lam)
        return MaskProvider(kind)
    except ValueError as err:
        raise SchemaError(str(err)) from None


def poly_space(degree: int) -> tuple:
    """The elements (label, f, f') of the polynomials of degree <= degree:
    basis functions with exact derivatives, as array functions of x."""
    elems = []
    for d in range(degree + 1):
        f = (lambda d: lambda x: x**d)(d)
        df = (lambda d: lambda x: d * x ** (d - 1))(d) if d else np.zeros_like
        elems.append((f"x^{d}", f, df))
    return tuple(elems)


def exponential_space(lam: float) -> tuple:
    """The elements (label, f, f') of span{1, x, e^(lam x), e^(-lam x)}."""
    return (
        ("1", np.ones_like, np.zeros_like),
        ("x", lambda x: x, np.ones_like),
        ("e^{lx}", lambda x: np.exp(lam * x), lambda x: lam * np.exp(lam * x)),
        ("e^{-lx}", lambda x: np.exp(-lam * x), lambda x: -lam * np.exp(-lam * x)),
    )


def interpolatory_check(mask: Mask) -> bool:
    """True iff every even-index block equals D*delta (exact comparison)."""
    return mask.interpolatory
