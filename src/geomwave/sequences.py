"""Block masks, finite realizations of bi-infinite Hermite sequences, and the
linear subdivision and decomposition operators.

A Hermite sequence attaches to every grid index a pair (p, v) of a value and a
first-derivative value in R^m.  Masks are finitely supported sequences of 2x2
coefficient blocks; a block acts on a pair as

    (a00*p + a01*v, a10*p + a11*v),

i.e. each scalar entry multiplies the identity on R^m.

Bi-infinite sequences are realized either periodically (index arithmetic mod L,
all operator identities exact) or on an interior window [a, b] where output
indices whose stencil leaves the window are flagged invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Mask",
    "HermiteSequence",
    "diag_d",
    "periodic_sequence",
    "interior_sequence",
    "apply_subdivision",
    "apply_decomposition",
    "sup_norm",
    "seq_sub",
]


def diag_d(power: int = 1) -> np.ndarray:
    """The matrix diag(1, 1/2) raised to an integer power (exact: powers of 2)."""
    return np.diag([1.0, 2.0 ** (-power)])


@dataclass(frozen=True)
class Mask:
    """Finitely supported sequence of 2x2 blocks on the support [lo, hi]."""

    lo: int
    blocks: np.ndarray  # shape (hi - lo + 1, 2, 2)

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 3 or b.shape[1:] != (2, 2):
            raise ValueError("mask blocks must have shape (K, 2, 2)")
        object.__setattr__(self, "blocks", b)

    @property
    def hi(self) -> int:
        return self.lo + self.blocks.shape[0] - 1

    @property
    def width(self) -> int:
        return self.blocks.shape[0]

    def block(self, k: int) -> np.ndarray:
        """Coefficient block at index k (zero outside the support)."""
        if self.lo <= k <= self.hi:
            return self.blocks[k - self.lo]
        return np.zeros((2, 2))

    def transposed(self) -> "Mask":
        """Blockwise transpose, same support."""
        return Mask(self.lo, self.blocks.transpose(0, 2, 1).copy())

    def perturbed(self, k: int, delta: np.ndarray) -> "Mask":
        """Copy with ``delta`` added to the block at index k."""
        if not self.lo <= k <= self.hi:
            raise ValueError(f"index {k} outside support [{self.lo}, {self.hi}]")
        blocks = self.blocks.copy()
        blocks[k - self.lo] += delta
        return Mask(self.lo, blocks)


def single_block_mask(k: int, blk: np.ndarray) -> Mask:
    """Mask supported on the single index k."""
    return Mask(k, np.asarray(blk, dtype=float)[None, :, :])


@dataclass(frozen=True)
class HermiteSequence:
    """Finite realization of a bi-infinite sequence of (value, derivative)
    pairs over R^m.

    Periodic mode: entries cover indices 0..L-1 with arithmetic mod L.
    Interior mode: entries cover the window [start, start + L - 1]; ``valid``
    flags indices whose value is meaningful (invalid entries hold NaN).
    The ``level`` tag associates the sequence with the grid 2^-level * Z.
    """

    points: np.ndarray  # (L, m)
    vectors: np.ndarray  # (L, m)
    periodic: bool = True
    start: int = 0
    valid: np.ndarray | None = None
    level: int = 0

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if p.shape != v.shape:
            raise ValueError(
                f"point/vector shape mismatch: {p.shape} vs {v.shape}"
            )
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "vectors", v)
        if self.valid is None:
            object.__setattr__(self, "valid", np.ones(len(p), dtype=bool))
        else:
            object.__setattr__(
                self, "valid", np.asarray(self.valid, dtype=bool).copy()
            )

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def periodic_sequence(points, vectors, level: int = 0) -> HermiteSequence:
    return HermiteSequence(points, vectors, periodic=True, level=level)


def interior_sequence(
    points, vectors, start: int, level: int = 0, valid=None
) -> HermiteSequence:
    return HermiteSequence(
        points, vectors, periodic=False, start=start, valid=valid, level=level
    )


def _apply_block(blk: np.ndarray, p: np.ndarray, v: np.ndarray):
    return blk[0, 0] * p + blk[0, 1] * v, blk[1, 0] * p + blk[1, 1] * v


def _check_periodic_length(mask: Mask, s: HermiteSequence):
    # Periodization of the bi-infinite operators is exact for any period;
    # wrap-around of the stencil folds coefficients but keeps identities.
    # Only degenerate lengths are rejected.
    if len(s) < 2:
        raise ValueError(f"periodic length {len(s)} too small (need >= 2)")


def apply_subdivision(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Subdivision (upsampling) operator: out_j = sum_k A_{j-2k} s_k."""
    L, m = len(s), s.dim
    if s.periodic:
        _check_periodic_length(mask, s)
        P = np.zeros((2 * L, m))
        V = np.zeros((2 * L, m))
        base = 2 * np.arange(L)
        for t in range(mask.lo, mask.hi + 1):
            bp, bv = _apply_block(mask.block(t), s.points, s.vectors)
            idx = (base + t) % (2 * L)
            P[idx] += bp
            V[idx] += bv
        return periodic_sequence(P, V, level=s.level + 1)

    a = s.start
    b = a + L - 1
    out_start = 2 * a + mask.lo
    out_len = 2 * (L - 1) + mask.width
    P = np.zeros((out_len, m))
    V = np.zeros((out_len, m))
    valid = np.zeros(out_len, dtype=bool)
    for t in range(mask.lo, mask.hi + 1):
        bp, bv = _apply_block(mask.block(t), s.points, s.vectors)
        idx = 2 * np.arange(L) + (t - mask.lo)
        P[idx] += bp
        V[idx] += bv
    for r in range(out_len):
        j = out_start + r
        kmin = -((mask.hi - j) // 2)  # ceil((j - hi)/2)
        kmax = (j - mask.lo) // 2
        valid[r] = (
            kmin >= a
            and kmax <= b
            and kmin <= kmax
            and s.valid[kmin - a : kmax - a + 1].all()
        )
    P[~valid] = np.nan
    V[~valid] = np.nan
    return interior_sequence(P, V, out_start, level=s.level + 1, valid=valid)


def apply_decomposition(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Decomposition (wavelet) operator: out_j = sum_i A_{i-2j} s_i."""
    L, m = len(s), s.dim
    if s.periodic:
        if L % 2 != 0:
            raise ValueError("periodic length must be even for decomposition")
        _check_periodic_length(mask, s)
        half = L // 2
        P = np.zeros((half, m))
        V = np.zeros((half, m))
        base = 2 * np.arange(half)
        for t in range(mask.lo, mask.hi + 1):
            idx = (base + t) % L
            bp, bv = _apply_block(mask.block(t), s.points[idx], s.vectors[idx])
            P += bp
            V += bv
        return periodic_sequence(P, V, level=s.level - 1)

    a = s.start
    b = a + L - 1
    j_lo = -((mask.hi - a) // 2)  # ceil((a - hi)/2): first j touching window
    j_hi = (b - mask.lo) // 2
    out_len = max(j_hi - j_lo + 1, 0)
    P = np.zeros((out_len, m))
    V = np.zeros((out_len, m))
    valid = np.zeros(out_len, dtype=bool)
    for r in range(out_len):
        j = j_lo + r
        i_lo, i_hi = 2 * j + mask.lo, 2 * j + mask.hi
        if i_lo >= a and i_hi <= b and s.valid[i_lo - a : i_hi - a + 1].all():
            valid[r] = True
            for i in range(i_lo, i_hi + 1):
                bp, bv = _apply_block(
                    mask.block(i - 2 * j), s.points[i - a], s.vectors[i - a]
                )
                P[r] += bp
                V[r] += bv
    P[~valid] = np.nan
    V[~valid] = np.nan
    return interior_sequence(P, V, j_lo, level=s.level - 1, valid=valid)


def sup_norm(s: HermiteSequence) -> float:
    """Max over valid entries of the max-abs over all 2m components."""
    if not s.valid.any():
        raise ValueError("sup_norm of a sequence with no valid entries")
    p = np.abs(s.points[s.valid]).max()
    v = np.abs(s.vectors[s.valid]).max()
    return float(max(p, v))


def _combine_valid(s: HermiteSequence, t: HermiteSequence) -> np.ndarray:
    if s.periodic != t.periodic or len(s) != len(t) or s.start != t.start:
        raise ValueError("sequences are not index-compatible")
    return s.valid & t.valid


def seq_sub(s: HermiteSequence, t: HermiteSequence) -> HermiteSequence:
    valid = _combine_valid(s, t)
    return replace(
        s, points=s.points - t.points, vectors=s.vectors - t.vectors, valid=valid
    )
