"""Block masks, finite realizations of bi-infinite Hermite sequences, and the
linear subdivision and decomposition operators.

A Hermite sequence attaches to every grid index a pair (p, v) of a value and a
first-derivative value on a manifold, R^m unless it names another one.  Masks
are finitely supported sequences of 2x2 coefficient blocks; a block acts on a
pair as

    (a00*p + a01*v, a10*p + a11*v),

i.e. each scalar entry multiplies the identity on R^m.

Bi-infinite sequences are realized either periodically (index arithmetic mod L,
all operator identities exact) or on an interior window [a, b], where an
operator returns only the output indices whose taps all read window entries.
Both realizations go through one loop over the mask's taps; only the rows
each tap reads and writes differ.  The operators are linear, so their outputs
are data on R^m whatever manifold their input lies on.
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


@dataclass(frozen=True)
class HermiteSequence:
    """Finite realization of a bi-infinite sequence of (value, derivative)
    pairs (p_i, v_i) on ``manifold``, in its ambient coordinates, with v_i
    tangent at p_i.  The manifold defaults to ``Euclidean(m)`` for data of
    width m.

    Periodic mode: entries cover indices 0..L-1 with arithmetic mod L.
    Interior mode (R^m only): entries cover the window [start, start + L - 1],
    every one of them known.  The ``level`` tag associates the sequence with
    the grid 2^-level * Z.  A width other than the manifold's ambient
    dimension, and an interior window on any other manifold, are ValueErrors.
    """

    points: np.ndarray  # (L, m)
    vectors: np.ndarray  # (L, m)
    periodic: bool = True
    start: int = 0
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
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "manifold", M)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def periodic_sequence(points, vectors, level: int = 0) -> HermiteSequence:
    return HermiteSequence(points, vectors, periodic=True, level=level)


def _apply_block(blk: np.ndarray, p: np.ndarray, v: np.ndarray):
    return blk[0, 0] * p + blk[0, 1] * v, blk[1, 0] * p + blk[1, 1] * v


def apply_subdivision(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Subdivision (upsampling) operator: out_j = sum_k A_{j-2k} s_k.

    On a window [a, b] the output is j in [2a + hi - 1, 2b + lo + 1]: the j
    whose taps k in [ceil((j - hi)/2), (j - lo)//2] all lie in the window.
    With a one-tap mask every other output has no tap and is zero."""
    # Tap t sends entry k to output j = 2k + t.
    L = len(s)
    if s.periodic:
        base = 2 * np.arange(L)
        return _taps(mask, s, 0, 2 * L, s.level + 1,
                     lambda t: ((base + t) % (2 * L), slice(None)))

    out_len = max(2 * L + 2 - mask.width, 0)

    def rows(t):
        # window row i lands on output row 2i + c, and c <= 1: the rows
        # i0..i1-1 land in [0, out_len)
        c = t - mask.hi + 1
        i0, i1 = (1 - c) // 2, (out_len + 1 - c) // 2
        return slice(2 * i0 + c, 2 * i1 + c, 2), slice(i0, i1)

    return _taps(mask, s, 2 * s.start + mask.hi - 1, out_len, s.level + 1, rows)


def apply_decomposition(mask: Mask, s: HermiteSequence) -> HermiteSequence:
    """Decomposition (wavelet) operator: out_j = sum_i A_{i-2j} s_i.

    On a window [a, b] the output is j in [ceil((a - lo)/2), (b - hi)//2]:
    the j whose taps i = 2j + lo .. 2j + hi all lie in the window."""
    # Tap t sends entry i to output j = (i - t)/2 when i - t is even.
    L = len(s)
    if s.periodic:
        if L % 2 != 0:
            raise ValueError("periodic length must be even for decomposition")
        base = 2 * np.arange(L // 2)
        return _taps(mask, s, 0, L // 2, s.level - 1,
                     lambda t: (slice(None), (base + t) % L))

    a = s.start
    j0 = (a - mask.lo + 1) // 2
    out_len = max((a + L - 1 - mask.hi) // 2 - j0 + 1, 0)

    def rows(t):
        w0 = 2 * j0 + t - a  # window row that tap t reads for output j0
        return slice(None), slice(w0, w0 + 2 * out_len, 2)

    return _taps(mask, s, j0, out_len, s.level - 1, rows)


def _taps(
    mask: Mask, s: HermiteSequence, start: int, out_len: int, level: int, rows
) -> HermiteSequence:
    """The output of an operator.  For each tap t in ascending order, with
    (out, src) = rows(t), block t of the entries src is added onto the
    outputs out, which start at zero."""
    if s.periodic and len(s) < 2:
        # wrap-around folds the stencil but keeps the identities exact for
        # any period; only degenerate lengths are refused
        raise ValueError(f"periodic length {len(s)} too small (need >= 2)")
    P = np.zeros((out_len, s.dim))
    V = np.zeros((out_len, s.dim))
    for t in range(mask.lo, mask.hi + 1):
        out, src = rows(t)
        bp, bv = _apply_block(mask.block(t), s.points[src], s.vectors[src])
        P[out] += bp
        V[out] += bv
    return HermiteSequence(P, V, s.periodic, start, level)


def sup_norm(s: HermiteSequence) -> float:
    """Max over all entries of the max-abs over all 2m components."""
    if len(s) == 0:
        raise ValueError("sup_norm of an empty sequence")
    return float(max(np.abs(s.points).max(), np.abs(s.vectors).max()))


def seq_sub(s: HermiteSequence, t: HermiteSequence) -> HermiteSequence:
    """s - t, data on R^m like every linear operator's output."""
    if s.periodic != t.periodic or len(s) != len(t) or s.start != t.start:
        raise ValueError("sequences are not index-compatible")
    return HermiteSequence(
        s.points - t.points, s.vectors - t.vectors, s.periodic, s.start, s.level
    )
