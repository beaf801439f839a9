"""Manifold-valued Hermite subdivision and the prediction-correction pyramid.

The manifold analogue of a linear subdivision operator pulls the stencil into
one tangent space (via log and parallel transport at a base point), applies
the 2x2 blocks there, and pushes the result back with exp.  Differences of
point-vector pairs live in a fiber of TM + TM: the ``ominus`` of two pairs is
a pair of tangent vectors at the reference point, and ``oplus`` adds such a
correction back.  Wavelet details are exactly these fiber elements, based at
the predicted odd points.

The stencil is local: odd output 2i+1 reads only the coarse rows its mask's
odd taps name, i and i + 1 for the two-tap masks shipped here.  So the
pyramid computes odd outputs in windows of at most _WINDOW_ROWS rows, with
the arithmetic of one call over a level and temporaries the size of a
window.  Decomposition predicts every level in one pass of windows, and
reconstruction each level in a pass of its own, or as one call if it fits
one window.  A level that its pass did not finish runs alone, as one call,
and names the error the level loop names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import (
    BaseMismatchError,
    CutLocusError,
    DensityError,
    GeomwaveError,
    SchemaError,
)
from .manifolds import Manifold, SO3Quat
from .predictors import MaskProvider
from .sequences import HermiteSequence, Mask, apply_subdivision

__all__ = [
    "ManifoldHermiteSeq",
    "TangentPairSeq",
    "ManifoldPyramid",
    "RULES",
    "manifold_subdivide_once",
    "oplus",
    "ominus",
    "decompose_manifold",
    "reconstruct_manifold",
    "proximity_numerator",
    "proximity_denominator",
    "detail_sup_norm",
]

RULES = ("midpoint", "leftpoint")

# Stored detail bases are recomputed during reconstruction; disagreement
# beyond this geodesic distance means the pyramid is corrupted.
_BASE_AUDIT_TOL = 1e-9

# The most odd outputs one kernel call computes (see _windows).  Chosen
# by a sweep of 2^11 ... 2^15 on R^3 at 2^16 samples: below 2^13 the
# per-call overhead costs time, and at 2^15 the temporaries raise the peak
# RSS to the one-call level (BENCH_windowed_levels.json).
_WINDOW_ROWS = 1 << 13


def ManifoldHermiteSeq(
    manifold: Manifold, points, vectors, level: int = 0
) -> HermiteSequence:
    """Periodic sequence of pairs (p_i, v_i) on M, with v_i tangent at p_i."""
    return HermiteSequence(points, vectors, level=level, manifold=manifold)


@dataclass(frozen=True)
class TangentPairSeq:
    """Sequence of detail coefficients: two tangent vectors per base point.
    Its place in a pyramid fixes the rest: the detail at index k of
    ``details`` is at the coarse level plus k, on the coarse sequence's
    manifold."""

    bases: np.ndarray  # (L, ambient_dim)
    u0: np.ndarray
    u1: np.ndarray

    def __len__(self):
        return self.bases.shape[0]


@dataclass(frozen=True)
class ManifoldPyramid:
    """The coarse sequence and the details of each finer level: details[k]
    is at level coarse.level + k, on coarse.manifold."""

    coarse: HermiteSequence
    details: tuple  # of TangentPairSeq, d^[0] first
    provider: MaskProvider
    rule: str

    @property
    def levels(self) -> int:
        return len(self.details)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _windows(whole: list) -> list[list]:
    """The pieces of ``whole`` cut into windows of at most _WINDOW_ROWS
    outputs, in order.  A window is a list of pieces ``(mask, step, first,
    stop)``, the outputs first..stop-1 of one block; a block split at a
    window's end goes on in the next window, and small blocks share one."""
    windows, window, room = [], [], _WINDOW_ROWS
    for mask, step, first, n in whole:
        while first < n:
            stop = min(n, first + room)
            window.append((mask, step, first, stop))
            room -= stop - first
            first = stop
            if room == 0:
                windows.append(window)
                window, room = [], _WINDOW_ROWS
    return windows + [window] if window else windows


def _pass(run, whole: list) -> list:
    """``run(window)`` for each window of ``whole`` (see _windows), in order,
    up to the first that raises a GeomwaveError: the results of the windows
    before it.  One call meets its errors stage by stage (every midpoint, then
    every log, ...), so the caller runs a level the pass did not finish alone."""
    done = []
    for window in _windows(whole):
        try:
            done.append(run(window))
        except GeomwaveError:
            break
    return done


def _wrapped(a: np.ndarray, window, shifts) -> np.ndarray:
    """Rows i + shift, for the outputs i of each piece of ``window``, of the
    piece's block ``a[::step]``, wrapped within the block: an (outputs,
    shifts, d) view of a tap-major buffer, so that each shift's rows are
    contiguous.  Each piece's rows are one or two slices of its block."""
    rows = sum([stop - first for _, _, first, stop in window])
    out = np.empty((len(shifts), rows, a.shape[1]))
    s = 0
    for _, step, first, stop in window:
        x = a[::step]
        n, r = len(x), stop - first
        for o, shift in zip(out, shifts):
            j = (first + shift) % n
            k = min(r, n - j)  # rows before the wrap
            o[s : s + k] = x[j : j + k]
            o[s + k : s + r] = x[: r - k]
        s += r
    return out.transpose(1, 0, 2)


def _odd_outputs(
    M: Manifold,
    points: np.ndarray,
    vectors: np.ndarray,
    window: list[tuple[Mask, int, int, int]],
    rule: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Odd outputs of one subdivision step for a window of periodic blocks.

    Piece ``(mask, step, first, stop)`` subdivides every step-th row of
    ``points`` and ``vectors`` with its vectors scaled by step (the data
    D^-k c of the coarser grid, for step = 2^k; scaling by a power of 2 is
    exact), and yields the odd outputs 2i+1 for i in first..stop-1; the
    outputs of the pieces are stacked in order.  Output 2i+1 reads only the
    rows i + (1 - t) // 2 of the mask's odd taps t, so a window gives
    bitwise the rows that the whole block gives, with errors indexed from
    the window's first output.  One midpoint, one gather, one
    ``log_transport``, one exp and one transport serve every piece; each
    piece's taps are summed over its own rows with its mask's coefficients.
    The gather copies rolled slices of each block into tap-major buffers, so
    every tap's rows are contiguous through ``log_transport`` and the tap
    sum."""
    for mask, _, _, _ in window:
        if not mask.interpolatory:
            raise ValueError("manifold subdivision requires an interpolatory mask")
    starts = [0, *accumulate([stop - first for _, _, first, stop in window])]
    # tap t feeds odd output 2i+1 from input i + (1 - t) // 2; the tap axis
    # holds every piece's taps in ascending t
    ts = sorted({tap[0] for mask, _, _, _ in window for tap in mask.odd_taps})
    if len(window) == 1:  # a view, not a copy: leftpoint bases cost nothing
        _, step, first, stop = window[0]
        here = points[first * step : stop * step : step]
    else:
        here = _wrapped(points, window, [0])[:, 0]
    if rule == "leftpoint":
        m = here
    else:
        m = M.midpoint(here, _wrapped(points, window, [1])[:, 0])
    # logical axes are (output, tap, coordinate), so errors name the output
    # first; the memory is tap-major, and log_transport keeps that layout
    shifts = [(1 - t) // 2 for t in ts]
    p, v = _wrapped(points, window, shifts), _wrapped(vectors, window, shifts)
    del here
    for (_, step, _, _), s, e in zip(window, starts, starts[1:]):
        if step > 1:
            v[s:e] *= step
    y, z = M.log_transport(m[:, None], p, v)
    del p, v
    w0 = np.zeros(m.shape)
    w1 = np.zeros(m.shape)
    for (mask, _, _, _), s, e in zip(window, starts, starts[1:]):
        y_b, z_b, w0_b, w1_b = y[s:e], z[s:e], w0[s:e], w1[s:e]
        for t, a00, a01, a10, a11 in mask.odd_taps:
            k = ts.index(t)
            for w, a, b in ((w0_b, a00, a01), (w1_b, a10, a11)):
                term = a * y_b[:, k]
                term += b * z_b[:, k]  # a y + b z with one temporary less
                w += term
    del y, z, y_b, z_b  # free the per-tap arrays before allocating the outputs
    P = M.exp(m, w0)
    return P, M.transport(m, w1, P)


def _refined(points, vectors) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of one subdivision step's rows, with the even rows the
    interpolatory copy D c_i = (p_i, v_i / 2); the odd rows are left for
    the caller to write."""
    P = np.empty((2 * len(points), points.shape[1]))
    V = np.empty_like(P)
    P[::2] = points
    V[::2] = 0.5 * vectors
    return P, V


def manifold_subdivide_once(
    mask: Mask, c: HermiteSequence, rule: str = "midpoint"
) -> HermiteSequence:
    """One step of the manifold Hermite subdivision operator built from a
    linear mask: stencil combined in the tangent space at a base point.

    Even outputs are the interpolatory copy D c_i.  Each odd output 2i+1 is
    based at the midpoint of (p_i, p_{i+1}) or at p_i (``rule``).  All odd
    outputs and all odd mask taps go through one array ``log_transport``,
    then one exp and one transport.  A rule not in RULES, an interior window,
    an empty sequence and a sample that is not finite, not on M, or whose
    vector is not tangent at its point (the first named) are SchemaErrors."""
    _refuse_entry(c, rule)
    _refuse_rows(c.manifold, "sample", c.points, c.vectors)
    M = c.manifold
    odd = _odd_outputs(M, c.points, c.vectors, [(mask, 1, 0, len(c))], rule)
    P, V = _refined(c.points, c.vectors)
    P[1::2], V[1::2] = odd
    return ManifoldHermiteSeq(M, P, V, c.level + 1)


def oplus(
    M: Manifold,
    a: tuple[np.ndarray, np.ndarray],
    b_base: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Add a tangent-pair correction to a point-vector pair.  The correction
    is first moved into the fiber at a's point, then everything is carried
    along the single geodesic to the new point (transporting u1 straight from
    its own base would pick up holonomy and break the exact inversion
    property)."""
    p, v = a
    u0p, u1p = M.transport(b_base, np.array((u0, u1)), p)
    q = M.exp(p, u0p)
    return q, M.transport(p, v + u1p, q)  # transport is linear in v


def ominus(
    M: Manifold,
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference of two point-vector pairs: a tangent pair based at b's
    point: (log_p(q), [u]_p - v) for a = (q, u), b = (p, v)."""
    q, u = a
    p, v = b
    y, z = M.log_transport(p, q, u)
    return p, y, z - v


def _density_error(err: CutLocusError, level: int) -> DensityError:
    """Locate a cut-locus failure at a pyramid level and at the odd output
    (the leading array index) where it happened."""
    index = err.index[0] if isinstance(err.index, tuple) else err.index
    return DensityError(err.args[0], level=level, index=index)


def _refuse_entry(c: HermiteSequence, rule: str):
    """The SchemaErrors every entry point shares: a rule not in RULES; an
    interior window, whose ends the periodic kernel would wrap together; and
    an empty sequence, which has no length to wrap by."""
    if rule not in RULES:
        raise SchemaError(f"unknown base point rule {rule!r}: expected one of {RULES}")
    if not c.periodic:
        raise SchemaError("the pyramid takes periodic samples, got an interior window")
    if len(c) == 0:
        raise SchemaError(
            "the pyramid takes at least one sample, got none: periodic indices "
            "are taken mod the length"
        )


def _refuse_rows(M: Manifold, what: str, *arrays: np.ndarray):
    """SchemaError naming, as ``what`` and its index, the first row of the
    arrays that is not a sample of M (``Manifold.first_fault``), and why."""
    fault = M.first_fault(*arrays)
    if fault:
        raise SchemaError(f"{what} {fault[0]} {fault[2]}")


def _refuse_details(M: Manifold, details, level: int):
    """_refuse_rows for each detail, coarsest first, at ``level`` and up: a
    failed reconstruction names a faulty detail rather than the NaN it makes."""
    for n, d in enumerate(details, level):
        _refuse_rows(M, f"detail at level {n}, index", d.bases, d.u0, d.u1)


def decompose_manifold(
    cN: HermiteSequence, provider: MaskProvider, rule: str, levels: int
) -> ManifoldPyramid:
    """Manifold prediction-correction decomposition of a closed curve.

    Refuses, with a SchemaError, what manifold_subdivide_once refuses; on
    SO(3), a cyclically consecutive pair of quaternions with a negative
    inner product, naming the first; and a level count that is negative or
    whose 2^levels does not divide the length."""
    _refuse_entry(cN, rule)
    _refuse_rows(cN.manifold, "sample", cN.points, cN.vectors)
    if isinstance(cN.manifold, SO3Quat):
        # q and -q are one rotation, but on S^3 a sign flip between neighbours
        # is a near-antipodal pair: refused here, not later as a density error
        inner = np.einsum("ij,ij->i", cN.points, np.roll(cN.points, -1, axis=0))
        if (inner < 0).any():
            i = int(np.argmax(inner < 0))
            raise SchemaError(
                f"samples {i} and {(i + 1) % len(cN)} have quaternion inner "
                f"product {inner[i]:.3g} < 0: q and -q are the same rotation, "
                "and the samples must have <q_i, q_(i+1 mod L)> >= 0"
            )
    if levels < 0 or len(cN) % (1 << levels) != 0:
        raise SchemaError(
            f"cannot decompose {len(cN)} samples over {levels} levels: "
            "need levels >= 0 and a length divisible by 2^levels"
        )
    N, M, P, V = cN.level, cN.manifold, cN.points, cN.vectors
    # coarsest mask first: a predictor that cannot be built fails before work
    masks = {n: provider.mask_at(n) for n in range(N - levels, N)}
    finest_first = list(reversed(masks))
    # the coarse data of level n is every 2^k-th sample, k = N - n, with its
    # vector scaled by 2^k (c^[n]_i = D^-1 c^[n+1]_{2i}), so every level's
    # prediction is one block of one kernel pass over the samples
    whole = [(masks[n], 1 << (N - n), 0, len(P) >> (N - n)) for n in finest_first]
    run = partial(_odd_outputs, M, P, V, rule=rule)
    odd = [_stack(arrays) for arrays in zip(*_pass(run, whole))]
    done = len(odd[0]) if odd else 0  # the outputs of the windows that passed
    starts = [0, *accumulate(stop for _, _, _, stop in whole)]
    details = []
    for n, piece, s, e in zip(finest_first, whole, starts, starts[1:]):
        h = piece[1] // 2  # the odd rows of c^[n+1] start at sample 2^(k-1)
        fine = (P[h :: 2 * h], h * V[h :: 2 * h] if h > 1 else V[1::2])
        try:  # finest first: the error named is the level loop's first
            pred = (odd[0][s:e], odd[1][s:e]) if e <= done else run([piece])
            bases, u0, u1 = ominus(M, fine, pred)
        except CutLocusError as err:
            raise _density_error(err, n) from err
        details.append(TangentPairSeq(bases, u0, u1))
    step = 1 << levels
    coarse = ManifoldHermiteSeq(M, P[::step].copy(), step * V[::step], N - levels)
    return ManifoldPyramid(coarse, tuple(reversed(details)), provider, rule)


def reconstruct_manifold(pyr: ManifoldPyramid) -> HermiteSequence:
    """Invert decompose_manifold with the pyramid's own predictor and rule.
    Per level: predict the odd rows, audit the stored detail bases, add the
    details with oplus, interleave.  A rule not in RULES, a coarse sequence
    that is an interior window or empty, and, when the audit fails or the
    result is not finite, a detail that is not a sample of M (a non-finite
    u0, say; the coarsest level and first index named) are SchemaErrors."""
    _refuse_entry(pyr.coarse, pyr.rule)
    M, N0 = pyr.coarse.manifold, pyr.coarse.level
    # copies, so that even a 0-level result shares no array with the pyramid
    P, V = pyr.coarse.points.copy(), pyr.coarse.vectors.copy()
    masks = [pyr.provider.mask_at(N0 + k) for k in range(pyr.levels)]
    for n, d, mask in zip(range(N0, N0 + pyr.levels), pyr.details, masks):
        if len(d) != len(P):
            raise ValueError(
                f"detail length {len(d)} != coarse length {len(P)} at level {n}"
            )
        for name in ("bases", "u0", "u1"):
            shape = getattr(d, name).shape
            if shape != P.shape:
                raise ValueError(
                    f"detail {name} shape {shape} != coarse shape {P.shape} "
                    f"at level {n}"
                )
        P2 = V2 = None

        def add_details(window):
            nonlocal P2, V2
            [(_, _, first, stop)] = window
            odd_p, odd_v = _odd_outputs(M, P, V, window, pyr.rule)
            bases = d.bases[first:stop]
            drift = M.dist(bases, odd_p)
            bad = ~(drift <= _BASE_AUDIT_TOL)  # a NaN drift fails the audit
            if bad.any():
                _refuse_details(M, pyr.details[: n - N0], N0)
                i = first + int(np.argmax(bad))
                raise BaseMismatchError(
                    f"detail base at level {n}, index {i} is {drift[i - first]:g} "
                    "away from the recomputed prediction (corrupted pyramid "
                    "or wrong predictor/rule)"
                )
            odd = oplus(M, (odd_p, odd_v), bases, d.u0[first:stop], d.u1[first:stop])
            del odd_p, odd_v, drift, bad
            if P2 is None:  # after the first window's temporaries are freed
                P2, V2 = _refined(P, V)
            P2[2 * first + 1 : 2 * stop : 2], V2[2 * first + 1 : 2 * stop : 2] = odd
            return stop - first

        whole = [(mask, 1, 0, len(P))]
        try:
            if len(P) <= _WINDOW_ROWS or sum(_pass(add_details, whole)) < len(P):
                P2 = V2 = None  # a failed pass's rows go before the one call
                add_details(whole)
        except CutLocusError as err:
            raise _density_error(err, n) from err
        P, V = P2, V2
    if not (np.isfinite(P).all() and np.isfinite(V).all()):
        _refuse_details(M, pyr.details, N0)
    return ManifoldHermiteSeq(M, P, V, level=N0 + pyr.levels)


def detail_sup_norm(d: TangentPairSeq) -> float:
    """Max-abs ambient component over both tangent slots."""
    return float(max(np.abs(d.u0).max(), np.abs(d.u1).max()))


def proximity_denominator(c: HermiteSequence) -> float:
    """||(delta p, v)||_inf^2, the scale the proximity numerator is held to."""
    dp = np.roll(c.points, -1, axis=0) - c.points
    denom = max(np.abs(dp).max(), np.abs(c.vectors).max())
    if denom == 0.0:
        raise ValueError("proximity ratio undefined for constant zero data")
    return float(denom**2)


def proximity_numerator(
    mask: Mask, c: HermiteSequence, rule: str = "midpoint"
) -> float:
    nonlinear = manifold_subdivide_once(mask, c, rule)  # refuses bad samples first
    linear = apply_subdivision(mask, c)
    return float(
        max(
            np.abs(linear.points - nonlinear.points).max(),
            np.abs(linear.vectors - nonlinear.vectors).max(),
        )
    )
