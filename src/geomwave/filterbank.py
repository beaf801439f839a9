"""Biorthogonal prediction-correction filter banks for linear Hermite data.

Each level has four filters {A, B, At, Bt}, a fixed function of the
predictor's mask A at that level (``filters_at``): the predictor A, the
detail-placement filter B with symbol z*I, the dual filter At with constant
symbol D^-1, and the dual wavelet filter Bt with blocks
Bt_k = (-1)^(1-k) D^-1 A_{1-k}^T.  Decomposition keeps the even subsamples
(un-normalized by D^-1) and stores the odd prediction residuals; reconstruction
adds the residuals back onto the prediction.  The linear pyramid is the
manifold pyramid of ``transform`` on flat R^m; ``dual_filter_details``
computes the same details with the analysis filters At and Bt alone, as an
independent reference.  Biorthogonality is certified numerically both on
periodic probes stacked by columns (operator form; exact, since blocks act
entrywise on coordinates) and as coefficient identities of the symbols
(symbol form), computed from the mask blocks: X^#(-z) Y(-z) only flips the
signs of the odd coefficients of X^#(z) Y(z), so their sum is the doubled
even part of one product, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SchemaError
from .predictors import MaskProvider
from .sequences import (
    HermiteSequence,
    Mask,
    apply_decomposition,
    apply_subdivision,
    diag_d,
    seq_sub,
    single_block_mask,
    sup_norm,
)
from .signals import real_signal, sample_signal
from .transform import ManifoldPyramid, decompose_manifold, reconstruct_manifold

__all__ = [
    "LevelFilters",
    "filters_at",
    "build_bank",
    "decompose_linear",
    "reconstruct_linear",
    "biorthogonality_residuals",
    "symbol_biorthogonality_residuals",
    "vanishing_moment_residual",
    "dual_filter_details",
]


@dataclass(frozen=True)
class LevelFilters:
    """The four filters of one level of a prediction-correction bank."""

    A: Mask
    B: Mask
    At: Mask  # dual filter (symbol D^-1)
    Bt: Mask  # dual wavelet filter


def filters_at(provider: MaskProvider, level: int) -> LevelFilters:
    """The four filters of ``level``, derived from the predictor's mask there."""
    A = provider.mask_at(level)
    B = single_block_mask(1, np.eye(2))
    At = single_block_mask(0, diag_d(-1))
    Dinv = diag_d(-1)
    lo = 1 - A.hi
    blocks = []
    for k in range(lo, 1 - A.lo + 1):
        blocks.append((-1.0) ** (1 - k) * Dinv @ A.block(1 - k).T)
    Bt = Mask(lo, np.array(blocks))
    return LevelFilters(A, B, At, Bt)


def build_bank(provider: MaskProvider) -> MaskProvider:
    """The predictor itself, which is all a filter bank is.  Kept only because
    ``perfbench/workloads.py`` calls it; ROADMAP item 4's benchmark change
    deletes it."""
    return provider


def decompose_linear(
    cN: HermiteSequence, provider: MaskProvider, levels: int
) -> ManifoldPyramid:
    """Prediction-correction decomposition of periodic Hermite data: the
    manifold pyramid on flat R^m.  Interpolatory masks reproduce constants,
    so on flat data every base point gives the same prediction; the left
    point skips computing the midpoint.  An interior window is a
    SchemaError."""
    return decompose_manifold(cN, provider, "leftpoint", levels)


def reconstruct_linear(pyr: ManifoldPyramid, provider: MaskProvider) -> HermiteSequence:
    """Invert decompose_linear.  The pyramid records its predictor; another
    one is a SchemaError naming both."""
    if provider != pyr.provider:
        raise SchemaError(f"bank {provider} is not the pyramid's {pyr.provider}")
    return reconstruct_manifold(pyr)


def _dual_decomp(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Apply the decomposition operator with the blockwise transpose of a
    filter, i.e. D_{M^T}."""
    return apply_decomposition(mask.transposed(), s)


def biorthogonality_residuals(
    filters: LevelFilters, probes: Sequence[HermiteSequence]
) -> tuple[float, float, float, float]:
    """Max sup-norm residuals of the four operator identities of a
    biorthogonal system, over the given periodic probes.  Probes of one length
    are stacked by columns and checked in one pass: each block acts entrywise
    on every coordinate, so the numbers of each column are exactly its own."""
    for c in probes:
        if len(c) < 4 * max(filters.A.width, filters.Bt.width):
            raise ValueError("probe too short for the filter support")
        if not c.periodic:
            raise ValueError("biorthogonality probes must be periodic")
    r = [0.0, 0.0, 0.0, 0.0]
    for length in dict.fromkeys(map(len, probes)):
        group = [s for s in probes if len(s) == length]
        c = HermiteSequence(
            np.hstack([s.points for s in group]), np.hstack([s.vectors for s in group])
        )
        sa = apply_subdivision(filters.A, c)
        sb = apply_subdivision(filters.B, c)
        r[0] = max(r[0], sup_norm(seq_sub(_dual_decomp(filters.At, sa), c)))
        r[1] = max(r[1], sup_norm(seq_sub(_dual_decomp(filters.Bt, sb), c)))
        r[2] = max(r[2], sup_norm(_dual_decomp(filters.At, sb)))
        r[3] = max(r[3], sup_norm(_dual_decomp(filters.Bt, sa)))
    return tuple(r)


def symbol_biorthogonality_residuals(
    filters: LevelFilters,
) -> tuple[float, float, float, float]:
    """Max-abs coefficients of the four symbol-form biorthogonality
    residuals: X^#(z) Y(z) + X^#(-z) Y(-z) minus 2I or 0.

    X^#(-z) Y(-z) is X^#(z) Y(z) with the coefficient at exponent k times
    (-1)^k.  A sign flip is exact in floating point and commutes with every
    rounded product and sum, so the two cancel exactly at odd exponents and
    the sum is exactly the doubled even-exponent part of X^#(z) Y(z)."""

    def residual(x: Mask, y: Mask, two_id: bool) -> float:
        # X^#(z) = sum_k X_k^T z^-k; the exponent range is widened to hold 0
        lo = min(y.lo - x.hi, 0)
        first = y.lo - x.hi - lo
        out = np.zeros((max(y.hi - x.lo, 0) - lo + 1, 2, 2))
        for i, a in enumerate(x.blocks[::-1].transpose(0, 2, 1)):
            for j, b in enumerate(y.blocks):
                out[first + i + j] += a @ b
        out[(lo + 1) % 2 :: 2] = 0.0  # the odd exponents cancel
        out = out + out
        if two_id:
            out[-lo] -= 2.0 * np.eye(2)
        return float(np.abs(out).max())

    A, B, At, Bt = filters.A, filters.B, filters.At, filters.Bt
    return (
        residual(At, A, True),
        residual(Bt, B, True),
        residual(At, B, False),
        residual(Bt, A, False),
    )


def vanishing_moment_residual(
    filters: LevelFilters,
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    level: int,
    window: tuple[int, int],
) -> float:
    """Sup norm of D_{Bt^T} applied to the normalized level-(n+1) samples of a
    real function f (an array function, as reproduction elements are) at the
    indices of ``window``; the operator returns only the outputs whose taps
    all lie in the window."""
    h = 2.0 ** (-level - 1)
    spec = real_signal("element", f, df, (window[0] * h, window[1] * h))
    return sup_norm(_dual_decomp(filters.Bt, sample_signal(spec, level + 1)))


def dual_filter_details(
    cN: HermiteSequence, provider: MaskProvider, levels: int
) -> tuple[HermiteSequence, ...]:
    """Details d^[n] = D_{Bt^T} c^[n+1] of the linear Hermite wavelet, with
    c^[n] = D_{At^T} c^[n+1] (the even subsample, times D^-1), d^[0] first.

    Only the analysis filters At and Bt enter, so this shares no code with
    the pyramid engine and checks it independently."""
    c = cN
    details = []
    for _ in range(levels):
        filters = filters_at(provider, c.level - 1)
        details.append(_dual_decomp(filters.Bt, c))
        c = _dual_decomp(filters.At, c)
    return tuple(reversed(details))
