"""The level-by-level manifold pyramid.  Each decomposition level halves the
data it was given, runs one full subdivision step on the halved data and
takes ominus against the odd rows; each reconstruction level runs one full
subdivision step, audits the detail bases and writes oplus into its odd
rows.  The differential tests require ``geomwave.transform``'s
``decompose_manifold``, which computes the finest level and then every
coarser level stacked, and ``reconstruct_manifold``, which interleaves plain
arrays, to give bitwise the same outputs and the same errors."""

import numpy as np

from geomwave.errors import BaseMismatchError, CutLocusError
from geomwave.sequences import Mask
from geomwave.transform import (
    _BASE_AUDIT_TOL,
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
    _density_error,
    ominus,
    oplus,
)


def subdivide_once(
    mask: Mask, c: ManifoldHermiteSeq, rule: str = "midpoint"
) -> ManifoldHermiteSeq:
    """One manifold subdivision step: the even outputs are D c_i, the odd
    outputs the stencil combined at the midpoint of (p_i, p_{i+1}) or at
    p_i."""
    if not mask.interpolatory:
        raise ValueError("manifold subdivision requires an interpolatory mask")
    M = c.manifold
    if rule == "leftpoint":
        m = c.points
    elif rule == "midpoint":
        m = M.midpoint(c.points, np.roll(c.points, -1, axis=0))
    else:
        raise ValueError(f"unknown base point rule {rule!r}")
    taps = mask.odd_taps
    src = np.arange(len(c))[:, None] + [(1 - tap[0]) // 2 for tap in taps]
    y, z = M.log_transport(
        m[:, None],
        np.take(c.points, src, axis=0, mode="wrap"),
        np.take(c.vectors, src, axis=0, mode="wrap"),
    )
    w0 = np.zeros_like(m)
    w1 = np.zeros_like(m)
    for k, (_, a00, a01, a10, a11) in enumerate(taps):
        w0 += a00 * y[:, k] + a01 * z[:, k]
        w1 += a10 * y[:, k] + a11 * z[:, k]
    del src, y, z
    P = np.empty((2 * len(c), M.ambient_dim))
    V = np.empty_like(P)
    P[::2] = c.points
    V[::2] = 0.5 * c.vectors
    P[1::2] = M.exp(m, w0)
    V[1::2] = M.transport(m, w1, P[1::2])
    return ManifoldHermiteSeq(M, P, V, level=c.level + 1)


def _halve(c: ManifoldHermiteSeq) -> ManifoldHermiteSeq:
    """c^[n]_i = D^-1 c^[n+1]_{2i}: point kept, tangent vector doubled."""
    return ManifoldHermiteSeq(
        c.manifold, c.points[::2].copy(), 2.0 * c.vectors[::2], level=c.level - 1
    )


def decompose(
    cN: ManifoldHermiteSeq, provider, rule: str, levels: int
) -> ManifoldPyramid:
    """The pyramid of valid input, one level at a time, finest first."""
    M = cN.manifold
    masks = [provider.mask_at(n) for n in range(cN.level - levels, cN.level)]
    c = cN
    details = []
    for mask in reversed(masks):
        n = c.level - 1
        coarse = _halve(c)
        try:
            pred = subdivide_once(mask, coarse, rule)
            bases, u0, u1 = ominus(
                M,
                (c.points[1::2], c.vectors[1::2]),
                (pred.points[1::2], pred.vectors[1::2]),
            )
        except CutLocusError as err:
            raise _density_error(err, n) from err
        details.append(TangentPairSeq(M, bases.copy(), u0, u1, level=n))
        del pred, bases
        c = coarse
    return ManifoldPyramid(c, tuple(reversed(details)), provider, rule)


def reconstruct(pyr: ManifoldPyramid) -> ManifoldHermiteSeq:
    """The samples of a pyramid, one level at a time, coarsest first."""
    M = pyr.coarse.manifold
    c = pyr.coarse
    masks = [pyr.provider.mask_at(c.level + k) for k in range(pyr.levels)]
    for d, mask in zip(pyr.details, masks):
        n = c.level
        if len(d) != len(c):
            raise ValueError(
                f"detail length {len(d)} != coarse length {len(c)} at level {n}"
            )
        try:
            pred = subdivide_once(mask, c, pyr.rule)
            P, V = pred.points, pred.vectors
            drift = M.dist(d.bases, P[1::2])
            bad = drift > _BASE_AUDIT_TOL
            if bad.any():
                i = int(np.argmax(bad))
                raise BaseMismatchError(
                    f"detail base at level {n}, index {i} is {drift[i]:g} "
                    "away from the recomputed prediction (corrupted pyramid "
                    "or wrong predictor/rule)"
                )
            P[1::2], V[1::2] = oplus(M, (P[1::2], V[1::2]), d.bases, d.u0, d.u1)
        except CutLocusError as err:
            raise _density_error(err, n) from err
        c = ManifoldHermiteSeq(M, P, V, level=n + 1)
    return c
