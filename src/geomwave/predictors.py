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

# Below this value of |lambda| * 2^-n the 4x4 interpolation system is treated
# as the polynomial limit and the cubic mask is returned instead.
_LAMBDA_SWITCH = 1e-6
_LAMBDA_OVERFLOW = 50.0

# math.exp and math.pow entrywise: numpy's SIMD exp and power differ from the
# C library's in the last bit for some arguments; these keep samples bitwise.
libm_exp = np.vectorize(math.exp, otypes=[float])
libm_pow = np.vectorize(math.pow, otypes=[float])


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
    """(sinh(y) - y) / y^3, stable near 0."""
    if abs(y) < 0.1:
        y2 = y * y
        return (1.0 + y2 / 20.0 * (1.0 + y2 / 42.0 * (1.0 + y2 / 72.0))) / 6.0
    return (math.sinh(y) - y) / (y * y * y)


def _exp_basis(lam: float, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives at x of the basis {1, x, c, s} spanning
    {1, x, e^{lam x}, e^{-lam x}}, scaled to stay well-conditioned as lam->0:
    c(x) = (cosh(lam x) - 1)/lam^2 and s(x) = (sinh(lam x) - lam x)/lam^3."""
    y = lam * x
    c = x * x * _cosh1(y) if x != 0.0 else 0.0
    s = x * x * x * _sinh1(y) if x != 0.0 else 0.0
    dc = math.sinh(y) / lam
    ds = c
    vals = np.array([1.0, x, c, s])
    ders = np.array([0.0, 1.0, dc, ds])
    return vals, ders


def exponential_hermite_mask(lam: float, level: int) -> Mask:
    """Level-dependent mask reproducing span{1, x, e^{lam x}, e^{-lam x}}.

    The odd stencil solves the two-point Hermite interpolation problem on one
    coarse interval of length 2^-level and evaluates value and derivative at
    the midpoint; the even rule is D * delta.
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

    rows = []
    for x in (0.0, h):
        vals, ders = _exp_basis(lam, x)
        rows.append(vals)
        rows.append(ders)
    # collocation matrix: data functionals (f(0), f'(0), f(h), f'(h)) x basis
    M = np.array(rows)
    mid_vals, mid_ders = _exp_basis(lam, h / 2.0)
    w = np.linalg.solve(M.T, mid_vals)  # g(h/2)  = w  . data
    wd = np.linalg.solve(M.T, mid_ders)  # g'(h/2) = wd . data

    # normalized coordinates: v = h f' on input, output derivative is (h/2) g'
    def blk(wp, wv, wdp, wdv):
        return [[wp, wv / h], [h / 2.0 * wdp, h / 2.0 * wdv / h]]

    blocks = np.array(
        [
            blk(w[2], w[3], wd[2], wd[3]),  # index -1: right data point
            [[1.0, 0.0], [0.0, 0.5]],  # index 0
            blk(w[0], w[1], wd[0], wd[1]),  # index 1: left data point
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
        f = (lambda d: lambda x: libm_pow(x, d))(d)
        df = (lambda d: lambda x: d * libm_pow(x, d - 1))(d) if d else np.zeros_like
        elems.append((f"x^{d}", f, df))
    return tuple(elems)


def exponential_space(lam: float) -> tuple:
    """The elements (label, f, f') of span{1, x, e^(lam x), e^(-lam x)}."""
    return (
        ("1", np.ones_like, np.zeros_like),
        ("x", lambda x: x, np.ones_like),
        ("e^{lx}", lambda x: libm_exp(lam * x), lambda x: lam * libm_exp(lam * x)),
        ("e^{-lx}", lambda x: libm_exp(-lam * x), lambda x: -lam * libm_exp(-lam * x)),
    )


def interpolatory_check(mask: Mask) -> bool:
    """True iff every even-index block equals D*delta (exact comparison)."""
    return mask.interpolatory
