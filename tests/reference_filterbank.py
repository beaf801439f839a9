"""The plain operator-form biorthogonality check: one pass of the four
identities per probe.  The differential tests require
``geomwave.filterbank.biorthogonality_residuals``, which checks the probes of
one length in one stacked pass, to give the same residuals."""

from typing import Sequence

from geomwave.filterbank import LevelFilters
from geomwave.sequences import (
    HermiteSequence,
    apply_decomposition,
    apply_subdivision,
    seq_sub,
    sup_norm,
)


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
