"""The round-sphere kernel, which calls numpy's ufuncs directly, against the
same formulas written with ``np.linalg.norm``, ``np.clip`` and ``np.all`` in
``reference_manifolds``: every result word for word and of the same type,
and every CutLocusError with the same index and message.  ``exp`` and
``log`` take one branch when no entry is zero and another, with the zero
masks, when some entry is; the cases reach both.  Each guard is gated by one
NaN-ignoring reduction, so the cases put NaN rows next to zero, equal and
near-antipodal rows, and give every op empty inputs too."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import CutLocusError
from geomwave.manifolds import SO3Quat, Sphere2
from random_cases import random_point, random_tangents
from reference_manifolds import RoundSphere

MANIFOLDS = {M.tag: M for M in (Sphere2(), SO3Quat())}

OPS = {
    "exp": lambda S, a: S.exp(a.p, a.v),
    "exp from the base": lambda S, a: S.exp(a.base, a.w),
    "log": lambda S, a: S.log(a.base, a.p),
    "transport": lambda S, a: S.transport(a.p, a.v, a.base),
    "log_transport": lambda S, a: S.log_transport(a.base, a.p, a.v),
    "midpoint": lambda S, a: S.midpoint(a.base, a.p),
    "dist": lambda S, a: S.dist(a.base, a.p),
    "check_point": lambda S, a: (S.check_point(a.p), S.check_point(a.base)),
    "project_point": lambda S, a: S.project_point(a.raw),
}


def outcome(call):
    """Type, shape, dtype and raw bytes of each result of a call, or the
    error it raises: a CutLocusError with its message and index, or the
    ValueError of a zero vector projected onto the sphere."""
    try:
        out = call()
    except CutLocusError as err:
        return ("CutLocusError", str(err), err.index)
    except ValueError as err:
        return ("ValueError", str(err))
    results = out if isinstance(out, tuple) else (out,)
    return [(type(x).__name__, np.asarray(x).dtype.str, np.shape(x),
             np.asarray(x).tobytes()) for x in results]


def signed(rng, x):
    """x with each zero entry's sign drawn at random."""
    return np.where(x == 0.0, np.copysign(0.0, rng.choice([-1.0, 1.0], x.shape)), x)


def arguments(M, rng, L, T, gap, stretch, reach, zeros, nan=False):
    """Inputs for every op, as full arrays: base points m of shape (L, d),
    a coordinate axis among them; the array compared against them (m, or
    m[:, None] against (L, T, d)); points p at angles up to 3 from it, with,
    if ``zeros``, equal pairs (one differing only in the signs of its zeros)
    and, unless ``gap`` is None, a pair at angle pi - gap; tangents v at p
    and w at the base with norms up to ``reach``, if ``zeros`` some of them
    zero vectors of signed zeros; and raw ambient vectors to project onto
    the sphere.  Points are scaled by ``stretch``, so they may sit a
    rounding error off the sphere.  With ``nan``, one row of each of p, v, w
    and the raw vectors, neither row 0 nor the pair near the cut locus, is
    all NaN.  With L = 0 the
    arrays are empty, and there are no first entries."""
    d = M.ambient_dim
    m = random_point(M, rng, (L,))
    if L:
        m[0] = signed(rng, np.eye(d)[rng.integers(d)])
    m *= stretch
    base = m if T is None else m[:, None]
    shape = (L,) if T is None else (L, T)
    at = np.broadcast_to(base, shape + (d,)).reshape(-1, d)
    p = M.exp(at, random_tangents(M, rng, at, 3.0))
    n = len(p)
    zeros, gap = zeros and n > 0, gap if n else None
    if zeros:
        for i in rng.choice(n, size=1 + n // 4, replace=False):
            p[i] = at[i]
        p[0] = signed(rng, at[0])  # equal to its base, zeros signed afresh
    far = None
    if gap is not None:
        i = far = rng.integers(n)
        e = random_tangents(M, rng, at[i], 1.0)
        e /= np.linalg.norm(e)
        p[i] = -at[i] if gap == 0.0 else (
            math.cos(math.pi - gap) * at[i] + math.sin(math.pi - gap) * e
        )
    v = random_tangents(M, rng, p, reach)
    w = random_tangents(M, rng, at, reach)
    for x in (v, w):
        if zeros:
            x[rng.choice(n, size=1 + n // 4, replace=False)] = 0.0
        x[:] = signed(rng, x)
    raw = rng.normal(size=(n, d))
    raw[rng.uniform(size=(n, d)) < 0.3] = 0.0  # some rows all zero
    if n:
        raw[0] = np.eye(d)[0]
    raw = signed(rng, raw)
    rows = [j for j in range(1, n) if j != far]
    if nan and rows:
        for x in (p, v, w, raw):
            x[rng.choice(rows)] = np.nan
    full = SimpleNamespace(
        base=base, **{k: x.reshape(shape + (d,)) for k, x in zip("pvw", (p, v, w))},
        raw=raw.reshape(shape + (d,)),
    )
    if not L:
        return (full,)
    first = SimpleNamespace(**{k: x[0] for k, x in vars(full).items()})
    return full, first


@settings(max_examples=150, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    L=st.integers(0, 6),
    T=st.sampled_from([None, 1, 3]),
    gap=st.sampled_from([None, 0.0, 1e-9, 1e-6, 2e-6, 1e-3]),
    stretch=st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10]),
    reach=st.sampled_from([2.0, math.pi - 2e-6, math.pi + 0.5]),
    zeros=st.booleans(),
    nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_kernel_bitwise_equals_reference(
    tag, L, T, gap, stretch, reach, zeros, nan, seed
):
    """exp, log, transport, log_transport, midpoint, dist, check_point and
    project_point, on whole arrays and on their first entries: the same
    words, types and errors as the np.linalg.norm formulas, with or without
    equal points, zero tangents and a NaN row, with signed zeros and pairs
    near the cut locus, and on empty arrays."""
    M = MANIFOLDS[tag]
    R = RoundSphere(M.ambient_dim)
    rng = np.random.default_rng(seed)
    for args in arguments(M, rng, L, T, gap, stretch, reach, zeros, nan):
        for name, op in OPS.items():
            got = outcome(lambda: op(M, args))
            assert got == outcome(lambda: op(R, args)), name


def one_zero_row(M, kind):
    """(5, d) inputs in which only row 2 is zero: its p is equal to its
    base (``kind`` "equal") or, with the base a coordinate axis, that axis
    scaled by 1 - 2^-53, so that log's residual is exactly zero although
    the points differ ("collinear"); its tangents v and w are zero, and its
    raw vector too.  Every other p is at an angle in [0.5, 2] from its base,
    and every other tangent has a norm in [0.5, 2]."""
    rng, L, row, d = np.random.default_rng(5), 5, 2, M.ambient_dim

    def tangents(at):
        t = M.project_tangent(at, rng.normal(size=at.shape))
        size = rng.uniform(0.5, 2.0, size=(L, 1))
        return t * (size / np.linalg.norm(t, axis=-1, keepdims=True))

    base = random_point(M, rng, (L,))
    p = M.exp(base, tangents(base))
    if kind == "equal":
        p[row] = base[row]
    else:
        base[row] = np.eye(d)[0]
        p[row] = (1.0 - 2.0**-53) * base[row]
    v, w, raw = tangents(p), tangents(base), rng.normal(size=(L, d))
    for x in (v, w, raw):
        x[row] = 0.0
    return SimpleNamespace(base=base, p=p, v=v, w=w, raw=raw)


@pytest.mark.parametrize("kind", ["equal", "collinear"])
@pytest.mark.parametrize("tag", sorted(MANIFOLDS))
def test_one_zero_row_bitwise_equals_reference(tag, kind):
    """With exactly one zero row among L, exp and log apply their zero masks
    to that row alone; every op gives the reference's words, types and
    errors."""
    M = MANIFOLDS[tag]
    R = RoundSphere(M.ambient_dim)
    args = one_zero_row(M, kind)
    zero_rows = [
        np.flatnonzero(np.all(x == 0.0, axis=-1))
        for x in (args.v, args.w, R.log(args.base, args.p))
    ]
    assert all(list(rows) == [2] for rows in zero_rows)
    for name, op in OPS.items():
        got = outcome(lambda: op(M, args))
        assert got == outcome(lambda: op(R, args)), name


def nan_next_to(M, kind):
    """(4, d) inputs in which row 1 is all NaN and row 2 is special: zero
    tangents v and w ("zero"), p equal to its base ("equal"), or p the
    antipode of its base and v, w of norm pi ("antipodal").  Every other p
    is at an angle in [0.5, 2] from its base, and every other tangent has a
    norm in [0.5, 2]."""
    rng, d = np.random.default_rng(9), M.ambient_dim

    def tangents(at):
        t = M.project_tangent(at, rng.normal(size=at.shape))
        size = rng.uniform(0.5, 2.0, size=(4, 1))
        return t * (size / np.linalg.norm(t, axis=-1, keepdims=True))

    base = random_point(M, rng, (4,))
    p = M.exp(base, tangents(base))
    v, w, raw = tangents(p), tangents(base), rng.normal(size=(4, d))
    if kind == "zero":
        v[2] = w[2] = 0.0
    elif kind == "equal":
        p[2] = base[2]
    else:
        p[2] = -base[2]
        v[2] *= math.pi / np.linalg.norm(v[2])
        w[2] *= math.pi / np.linalg.norm(w[2])
    for x in (p, v, w, raw):
        x[1] = np.nan
    return SimpleNamespace(base=base, p=p, v=v, w=w, raw=raw)


@pytest.mark.parametrize("kind", ["zero", "equal", "antipodal"])
@pytest.mark.parametrize("tag", sorted(MANIFOLDS))
def test_nan_row_hides_no_mask_and_no_error(tag, kind):
    """A NaN row next to zero tangents, an equal pair or an antipodal pair:
    the guards ignore the NaN, so exp and log still take their zero masks,
    and exp, log and transport still raise their CutLocusError at row 2;
    every op gives the reference's words, types and errors."""
    M = MANIFOLDS[tag]
    R = RoundSphere(M.ambient_dim)
    args = nan_next_to(M, kind)
    for name, op in OPS.items():
        got = outcome(lambda: op(M, args))
        assert got == outcome(lambda: op(R, args)), name
    if kind == "antipodal":
        for name in ("exp", "exp from the base", "log", "transport", "log_transport"):
            assert outcome(lambda: OPS[name](M, args))[::2] == ("CutLocusError", 2)
    elif kind == "zero":
        assert M.exp(args.p, args.v)[2].tobytes() == args.p[2].tobytes()
    else:
        assert M.log(args.base, args.p)[2].tobytes() == bytes(8 * M.ambient_dim)


@pytest.mark.parametrize("T", [None, 3])
@pytest.mark.parametrize("tag", sorted(MANIFOLDS))
def test_empty_inputs_bitwise_equal_reference(tag, T):
    """Every op on (0, d) inputs, or on (0, T, d) inputs against (0, 1, d)
    bases: empty results of the reference's shapes and types, no error."""
    M = MANIFOLDS[tag]
    R = RoundSphere(M.ambient_dim)
    [args] = arguments(M, np.random.default_rng(0), 0, T, None, 1.0, 2.0, True, True)
    for name, op in OPS.items():
        got = outcome(lambda: op(M, args))
        assert got == outcome(lambda: op(R, args)), name
        assert got[0] not in ("CutLocusError", "ValueError"), name
