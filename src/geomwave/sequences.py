"""Block masks, finite realizations of bi-infinite Hermite sequences, and the
linear subdivision and decomposition operators.

A Hermite sequence attaches to every grid index a pair (p, v) of a value and a
first-derivative value on a manifold, R^m unless it names another one.  Masks
are finitely supported sequences of 2x2 coefficient blocks; a block acts on a
pair as

    (a00*p + a01*v, a10*p + a11*v),

i.e. each scalar entry multiplies the identity on R^m.

Bi-infinite sequences are realized either periodically (index arithmetic mod L,
all operator identities exact) or on an interior window [a, b] where output
indices whose stencil leaves the window are flagged invalid.  Both
realizations go through one loop over the mask's taps; only the rows each tap
reads and writes differ.  The operators are linear, so their outputs are data
on R^m whatever manifold their input lies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .manifolds import Euclidean, Manifold

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
    """Finitely supported sequence of 2x2 blocks on the support [lo, hi].

    ``interpolatory`` and ``odd_taps`` are computed from the blocks once, on
    first use, so the blocks must not be changed after construction (the
    masks of a ``MaskProvider`` are read-only)."""

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

    @cached_property
    def interpolatory(self) -> bool:
        """True iff every even-index block equals D*delta (exact comparison)."""
        D = diag_d()
        return all(
            np.array_equal(self.block(k), D if k == 0 else np.zeros((2, 2)))
            for k in range(self.lo, self.hi + 1)
            if k % 2 == 0
        )

    @cached_property
    def odd_taps(self) -> tuple:
        """``(t, a00, a01, a10, a11)`` for each odd index t whose block is
        nonzero, ascending, with the block entries as plain floats."""
        return tuple(
            (t, *(float(a) for a in self.block(t).ravel()))
            for t in range(self.lo, self.hi + 1)
            if t % 2 and self.block(t).any()
        )

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


# The valid flags of an all-valid sequence are a read-only zero-stride view
# of this one True, so they allocate nothing.
_TRUE = np.ones(1, dtype=bool)
_TRUE.flags.writeable = False


@dataclass(frozen=True)
class HermiteSequence:
    """Finite realization of a bi-infinite sequence of (value, derivative)
    pairs (p_i, v_i) on ``manifold``, in its ambient coordinates, with v_i
    tangent at p_i.  The manifold defaults to ``Euclidean(m)`` for data of
    width m.

    Periodic mode: entries cover indices 0..L-1 with arithmetic mod L.
    Interior mode (R^m only): entries cover the window [start, start + L - 1];
    ``valid`` flags indices whose value is meaningful (invalid entries hold
    NaN).  The ``level`` tag associates the sequence with the grid
    2^-level * Z.  A width other than the manifold's ambient dimension, and
    an interior window on any other manifold, are ValueErrors.
    """

    points: np.ndarray  # (L, m)
    vectors: np.ndarray  # (L, m)
    periodic: bool = True
    start: int = 0
    valid: np.ndarray | None = None
    level: int = 0
    manifold: Manifold | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        v = np.asarray(self.vectors, dtype=float)
        if p.shape != v.shape or p.ndim != 2:
            raise ValueError(
                f"points and vectors must share shape (L, m): {p.shape} vs {v.shape}"
            )
        M = self.manifold
        if M is None:
            M = Euclidean(p.shape[1])
        elif p.shape[1] != M.ambient_dim:
            raise ValueError(
                f"ambient dimension {p.shape[1]} != {M.ambient_dim} of {M.tag}"
            )
        if not self.periodic and not isinstance(M, Euclidean):
            raise ValueError(f"an interior window must be on R^m, not on {M.tag}")
        if self.valid is None:
            valid = np.ndarray(len(p), bool, _TRUE, 0, (0,))
        else:
            valid = np.asarray(self.valid, dtype=bool).copy()
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "manifold", M)

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


def apply_subdivision(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Subdivision (upsampling) operator: out_j = sum_k A_{j-2k} s_k."""
    # Tap t sends entry k to output j = 2k + t; output j has the taps
    # k in [ceil((j - hi)/2), (j - lo)//2].
    L = len(s)
    if s.periodic:
        base = 2 * np.arange(L)
        return _taps(mask, s, 0, 2 * L, s.level + 1,
                     lambda t: ((base + t) % (2 * L), slice(None)), None)

    out_start = 2 * s.start + mask.lo
    out_len = 2 * (L - 1) + mask.width

    def rows(t):
        return slice(t - mask.lo, t - mask.lo + 2 * L - 1, 2), slice(None)

    j = out_start + np.arange(out_len)
    taps = (j - mask.lo) // 2 + (mask.hi - j) // 2 + 1
    return _taps(mask, s, out_start, out_len, s.level + 1, rows, taps)


def apply_decomposition(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Decomposition (wavelet) operator: out_j = sum_i A_{i-2j} s_i."""
    # Tap t sends entry i to output j = (i - t)/2 when i - t is even;
    # output j has the taps i = 2j + lo .. 2j + hi.
    L = len(s)
    if s.periodic:
        if L % 2 != 0:
            raise ValueError("periodic length must be even for decomposition")
        base = 2 * np.arange(L // 2)
        return _taps(mask, s, 0, L // 2, s.level - 1,
                     lambda t: (slice(None), (base + t) % L), None)

    a = s.start
    j_lo = -((mask.hi - a) // 2)  # ceil((a - hi)/2): first j touching window
    out_len = max((a + L - 1 - mask.lo) // 2 - j_lo + 1, 0)

    def rows(t):
        w0 = (t - a) % 2  # first window row that tap t reads
        r0 = (a + w0 - t) // 2 - j_lo
        return slice(r0, r0 + (L - w0 + 1) // 2), slice(w0, None, 2)

    return _taps(mask, s, j_lo, out_len, s.level - 1, rows, mask.width)


def _taps(
    mask: Mask, s: HermiteSequence, start: int, out_len: int, level: int, rows, taps
) -> HermiteSequence:
    """The output of an operator.  For each tap t in ascending order, with
    (out, src) = rows(t), block t of the entries src is added onto the
    outputs out.  Periodic rows wrap around, so every output is valid.  An
    interior output is valid when it has at least one tap and read a valid
    window entry through each of its ``taps``; invalid outputs hold NaN."""
    if s.periodic and len(s) < 2:
        # wrap-around folds the stencil but keeps the identities exact for
        # any period; only degenerate lengths are refused
        raise ValueError(f"periodic length {len(s)} too small (need >= 2)")
    P = np.zeros((out_len, s.dim))
    V = np.zeros((out_len, s.dim))
    count = np.zeros(out_len, dtype=int)
    for t in range(mask.lo, mask.hi + 1):
        out, src = rows(t)
        bp, bv = _apply_block(mask.block(t), s.points[src], s.vectors[src])
        P[out] += bp
        V[out] += bv
        if not s.periodic:
            count[out] += s.valid[src]
    if s.periodic:
        return periodic_sequence(P, V, level=level)
    valid = (count == taps) & (taps > 0)
    P[~valid] = np.nan
    V[~valid] = np.nan
    return interior_sequence(P, V, start, level=level, valid=valid)


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
    """s - t, data on R^m like every linear operator's output."""
    valid = _combine_valid(s, t)
    return HermiteSequence(
        s.points - t.points, s.vectors - t.vectors, s.periodic, s.start, valid, s.level
    )
