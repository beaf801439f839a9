"""The plain biorthogonality checks.  Operator form: one pass of the four
identities per probe.  Symbol form: both products X^#(z) Y(z) and
X^#(-z) Y(-z) of a general Laurent-polynomial class.  The differential tests
require ``geomwave.filterbank.biorthogonality_residuals``, which checks the
probes of one length in one stacked pass, and
``symbol_biorthogonality_residuals``, which doubles the even part of one
product, to give the same residuals.  The registered check
``biorthogonality`` is the per-level loop, which certifies every level's
filters; ``geomwave.experiments.biorthogonality``, which certifies each
distinct filter set once, must give the same results."""

from dataclasses import replace
from typing import Sequence

import numpy as np

from geomwave import filterbank
from geomwave.experiments import CheckResult
from geomwave.filterbank import LevelFilters, filters_at
from geomwave.sequences import (
    HermiteSequence,
    Mask,
    apply_decomposition,
    apply_subdivision,
    periodic_sequence,
    seq_sub,
    sup_norm,
)


def biorthogonality(subject, cfg: dict) -> list[CheckResult]:
    """Operator and symbol form of the biorthogonality of one bank, with the
    library's residuals, at every level of (provider, levels) in turn; the
    probes and the ``perturb_mask`` deltas are drawn as the library draws
    them."""
    provider, levels = subject
    rng = np.random.default_rng(int(cfg["seed"]))
    probes = [
        periodic_sequence(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
        for _ in range(int(cfg["probes"]))
    ]
    perturb = float(cfg["perturb_mask"])
    worst_op = worst_sym = 0.0
    for level in levels:
        filt = filters_at(provider, level)
        if perturb > 0.0:
            delta = perturb * rng.standard_normal((2, 2))
            filt = replace(filt, Bt=filt.Bt.perturbed(0, delta))
        worst_op = max(worst_op, *filterbank.biorthogonality_residuals(filt, probes))
        worst_sym = max(worst_sym, *filterbank.symbol_biorthogonality_residuals(filt))
    note = "fault injection active" if perturb > 0.0 else ""
    return [
        CheckResult("", bool(w <= 1e-13), float(w), 1e-13, note)
        for w in (worst_op, worst_sym)
    ]


def biorthogonality_residuals(
    filters: LevelFilters, probes: Sequence[HermiteSequence]
) -> tuple[float, float, float, float]:
    """Max sup-norm residuals of the four operator identities of a
    biorthogonal system, over the given periodic probes."""

    def dual_decomp(mask, s):
        return apply_decomposition(mask.transposed(), s)

    r = [0.0, 0.0, 0.0, 0.0]
    for c in probes:
        if len(c) < 4 * max(filters.A.width, filters.Bt.width):
            raise ValueError("probe too short for the filter support")
        sa = apply_subdivision(filters.A, c)
        sb = apply_subdivision(filters.B, c)
        r[0] = max(r[0], sup_norm(seq_sub(dual_decomp(filters.At, sa), c)))
        r[1] = max(r[1], sup_norm(seq_sub(dual_decomp(filters.Bt, sb), c)))
        r[2] = max(r[2], sup_norm(dual_decomp(filters.At, sb)))
        r[3] = max(r[3], sup_norm(dual_decomp(filters.Bt, sa)))
    return tuple(r)


class MatLaurent:
    """Laurent polynomial with 2x2 matrix coefficients over a bounded
    exponent range."""

    def __init__(self, lo: int, coeffs: np.ndarray):
        self.lo = int(lo)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (2, 2):
            raise ValueError("coefficients must have shape (K, 2, 2)")

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @classmethod
    def from_mask(cls, mask: Mask) -> "MatLaurent":
        return cls(mask.lo, mask.blocks.copy())

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "MatLaurent":
        return cls(0, np.asarray(matrix, dtype=float)[None, :, :])

    def coeff(self, k: int) -> np.ndarray:
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return np.zeros((2, 2))

    def __add__(self, other: "MatLaurent") -> "MatLaurent":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = np.zeros((hi - lo + 1, 2, 2))
        out[self.lo - lo : self.hi - lo + 1] += self.coeffs
        out[other.lo - lo : other.hi - lo + 1] += other.coeffs
        return MatLaurent(lo, out)

    def __sub__(self, other: "MatLaurent") -> "MatLaurent":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "MatLaurent":
        return MatLaurent(self.lo, self.coeffs * scalar)

    def __matmul__(self, other: "MatLaurent") -> "MatLaurent":
        lo = self.lo + other.lo
        out = np.zeros((self.coeffs.shape[0] + other.coeffs.shape[0] - 1, 2, 2))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a @ b
        return MatLaurent(lo, out)

    def sharp(self) -> "MatLaurent":
        """P^#(z) = P^T(z^-1): transpose coefficients, negate exponents."""
        return MatLaurent(-self.hi, self.coeffs[::-1].transpose(0, 2, 1).copy())

    def neg_arg(self) -> "MatLaurent":
        """P(-z): coefficient at exponent k picks up (-1)^k."""
        signs = np.array([(-1.0) ** k for k in range(self.lo, self.hi + 1)])
        return MatLaurent(self.lo, self.coeffs * signs[:, None, None])

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max())


def laurent_symbol(mask: Mask) -> MatLaurent:
    """Symbol A(z) = sum_k A_k z^k of a mask."""
    return MatLaurent.from_mask(mask)


def symbol_biorthogonality_residuals(
    filters: LevelFilters,
) -> tuple[float, float, float, float]:
    """Max-abs coefficients of the four symbol-form biorthogonality
    residuals: X^#(z) Y(z) + X^#(-z) Y(-z) minus 2I or 0."""
    A = laurent_symbol(filters.A)
    B = laurent_symbol(filters.B)
    At = laurent_symbol(filters.At)
    Bt = laurent_symbol(filters.Bt)
    two_id = MatLaurent.constant(2.0 * np.eye(2))

    def pair(x: MatLaurent, y: MatLaurent) -> MatLaurent:
        return (x.sharp() @ y) + (x.sharp().neg_arg() @ y.neg_arg())

    return (
        (pair(At, A) - two_id).max_abs_coeff(),
        (pair(Bt, B) - two_id).max_abs_coeff(),
        pair(At, B).max_abs_coeff(),
        pair(Bt, A).max_abs_coeff(),
    )
