"""The geometry kernel's reductions over the coordinate axis, which build
their products column-major and then reduce with ``axis=-1``, against the
row-major forms word for word:

- ``_norm(x)`` against ``np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))``;
- ``Euclidean.dist(p, q)`` against ``np.linalg.norm(q - p, axis=-1)``,
  for float arrays, lists and integers;
- the equal-row mask of the round sphere's ``_log`` against
  ``np.logical_and.reduce(p == q, axis=-1, keepdims=True)``: an equal row's
  log is exactly zero, and the whole result is that of
  ``reference_manifolds``, which builds the mask with ``np.all(p == q)``.

Each row is summed x0^2 + x1^2 + ... in the same order either way, so the
words agree for every d below 8, where numpy's row-major sum is still
sequential.  The one exception is a NaN's sign: in a row that holds NaNs
of both signs (inf - inf gives a negative one), numpy's vector loops and
its scalar loop propagate different ones, so the tests compare every NaN
as one NaN.  The arrays come in the layouts the kernel sees: C- and
F-ordered, every third row of a larger array, and the tap-major buffers of
the subdivision step viewed as (rows, taps, d); their entries include
signed zeros, infinities, NaN and squares that overflow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.errors import CutLocusError
from geomwave.manifolds import Euclidean, _norm, _RoundSphere
from reference_manifolds import RoundSphere

LAYOUTS = ("C", "F", "strided", "tap-major")
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e-320, 1.0])


def entries(rng, shape, special):
    """Normal entries of ``shape``, each replaced with probability
    ``special`` by a signed zero, an infinity, NaN, a value whose square
    overflows or underflows, or 1."""
    x = rng.normal(size=shape)
    hit = rng.random(shape) < special
    return np.where(hit, rng.choice(SPECIALS, shape), x)


def laid_out(x, layout, taps):
    """The (rows, d) values ``x`` as an array of the given layout; tap-major
    arrays have the shape (rows // taps, taps, d) and the memory
    (taps, rows // taps, d)."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        big = np.full((3 * len(x), x.shape[1]), 7.0)
        big[::3] = x
        return big[::3]
    rows = len(x) // taps
    return x[: rows * taps].reshape(taps, rows, x.shape[1]).transpose(1, 0, 2)


def words(a):
    """Type, shape and raw words of a result, with every NaN made one NaN."""
    kind = type(a).__name__
    a = np.asarray(a)
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return kind, a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


@st.composite
def pairs(draw):
    """Two arrays of one layout, shape and d, with equal rows sprinkled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    d = draw(st.integers(1, 6), label="d")
    rows = draw(st.integers(0, 300), label="rows")
    layout = draw(st.sampled_from(LAYOUTS), label="layout")
    taps = draw(st.integers(1, 4), label="taps")
    special = draw(st.sampled_from([0.0, 0.05, 0.5]), label="special")
    p = entries(rng, (rows, d), special)
    q = entries(rng, (rows, d), special)
    same = rng.random(rows) < 0.3
    q[same] = p[same]
    q = np.where(q == 0.0, np.copysign(0.0, rng.choice([-1.0, 1.0], q.shape)), q)
    return laid_out(p, layout, taps), laid_out(q, layout, taps)


@settings(max_examples=200, deadline=None)
@given(pq=pairs())
def test_norm_words_equal_row_major(pq):
    with np.errstate(all="ignore"):  # squares of 1e200, inf - inf
        for x in pq:
            want = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
            assert words(_norm(x)) == words(want)


@settings(max_examples=200, deadline=None)
@given(pq=pairs())
def test_euclidean_dist_words_equal_linalg_norm(pq):
    p, q = pq
    M = Euclidean(p.shape[-1])
    with np.errstate(all="ignore"):
        assert words(M.dist(p, q)) == words(np.linalg.norm(q - p, axis=-1))
        if p.ndim == 2 and len(p):  # a single point gives a scalar
            want = np.linalg.norm(q[0] - p[0], axis=-1)
            assert words(M.dist(p[0], q[0])) == words(want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),  # tolist() of no rows loses d
    d=st.integers(1, 6),
    bound=st.sampled_from([3, 10**6, 2**62]),
)
def test_euclidean_dist_of_lists_and_integers(seed, rows, d, bound):
    """Integer and list inputs give np.linalg.norm's float result: the
    integer difference, wrapped as numpy wraps it, is cast to float before
    it is squared."""
    rng = np.random.default_rng(seed)
    p = rng.integers(-bound, bound, size=(rows, d))
    q = rng.integers(-bound, bound, size=(rows, d))
    M = Euclidean(d)
    for a, b in ((p, q), (p.tolist(), q.tolist()), (p.astype(float).tolist(), q)):
        assert words(M.dist(a, b)) == words(np.linalg.norm(np.asarray(b) - a, axis=-1))


@settings(max_examples=200, deadline=None)
@given(pq=pairs())
def test_log_equal_row_mask_is_row_major(pq):
    p, q = pq
    reference = RoundSphere(p.shape[-1])
    with np.errstate(all="ignore"):
        try:
            y, c = _RoundSphere()._log(p, q)
        except CutLocusError as err:
            with pytest.raises(CutLocusError) as ref:
                reference._log(p, q)
            assert (err.index, str(err)) == (ref.value.index, str(ref.value))
            return
        assert [words(y), words(c)] == [words(a) for a in reference._log(p, q)]
    equal = np.logical_and.reduce(p == q, axis=-1, keepdims=True)
    assert not y[np.broadcast_to(equal, y.shape)].view(np.uint64).any()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_equal_rows_log_to_zero(layout):
    """Rows equal entry for entry, signed zeros included, log to +0.0 in
    every layout, beside rows that do not."""
    rng = np.random.default_rng(3)
    p = rng.normal(size=(24, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    q = p + 1e-3 * rng.normal(size=p.shape)
    q[::2] = p[::2]
    p[0], q[0] = [0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]
    P, Q = laid_out(p, layout, 2), laid_out(q, layout, 2)
    y = _RoundSphere()._log(P, Q)[0]
    zero = ~y.view(np.uint64).any(axis=-1)
    assert np.array_equal(zero, np.logical_and.reduce(P == Q, axis=-1))
