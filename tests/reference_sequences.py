"""The plain subdivision and decomposition operators.  Periodic sequences get
one wrapped loop over the taps per operator.  Interior sequences get one
Python loop over the outputs for validity, and, for decomposition, one over
the taps of each valid output.  The differential tests require
``geomwave.sequences.apply_subdivision`` and ``apply_decomposition``, which
share one tap loop, to give bitwise the same sequences."""

import numpy as np

from geomwave.sequences import HermiteSequence, Mask, periodic_sequence


def interior_sequence(points, vectors, start, level=0):
    """An interior window on R^m.  The interior operators below also pass
    ``valid=``: the differential tests patch in a window type that keeps
    those flags, which the operators read back from their input."""
    return HermiteSequence(points, vectors, periodic=False, start=start, level=level)


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
