"""Differential tests: the one tap loop of
``geomwave.sequences.apply_subdivision`` and ``apply_decomposition`` against
the separate periodic loops and the per-output interior loops of
``reference_sequences``, compared bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_sequences
from geomwave.sequences import (
    Mask,
    apply_decomposition,
    apply_subdivision,
    interior_sequence,
    periodic_sequence,
)

OPERATORS = [
    (apply_subdivision, reference_sequences.apply_subdivision),
    (apply_decomposition, reference_sequences.apply_decomposition),
]
# Signed zeros and ordinary magnitudes: sums stay finite, so every NaN of an
# output is one the operator put at an invalid entry.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def outcome(op, mask, s):
    """The operator's output, or the message of the ValueError it raised."""
    try:
        return op(mask, s)
    except ValueError as err:
        return str(err)


def assert_bitwise_equal(new, ref):
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
        return
    assert (new.start, new.level, new.periodic) == (ref.start, ref.level, ref.periodic)
    assert np.array_equal(new.valid, ref.valid)
    for a, b in ((new.points, ref.points), (new.vectors, ref.vectors)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    lo=st.integers(-4, 2),
    width=st.integers(1, 7),
    length=st.integers(1, 20),
    start=st.integers(-7, 6),
    m=st.integers(1, 3),
    level=st.integers(-3, 6),
    validity=st.sampled_from(["random", "all", "none"]),
    nan_invalid=st.booleans(),
    periodic=st.booleans(),
)
def test_interior_operators_match_reference(
    data, lo, width, length, start, m, level, validity, nan_invalid, periodic
):
    """Interior windows, and periodic sequences of any length, including the
    odd and too-short ones both sides refuse with the same message."""
    blocks = data.draw(hnp.arrays(float, (width, 2, 2), elements=VALUES))
    points = data.draw(hnp.arrays(float, (length, m), elements=VALUES))
    vectors = data.draw(hnp.arrays(float, (length, m), elements=VALUES))
    if validity == "random":
        valid = data.draw(hnp.arrays(bool, length))
    else:
        valid = np.full(length, validity == "all")
    if periodic:
        s = periodic_sequence(points, vectors, level=level)
    else:
        if nan_invalid:  # as the operators leave their own invalid outputs
            points[~valid] = np.nan
            vectors[~valid] = np.nan
        s = interior_sequence(points, vectors, start, level=level, valid=valid)
    mask = Mask(lo, blocks)
    for new, ref in OPERATORS:
        assert_bitwise_equal(outcome(new, mask, s), outcome(ref, mask, s))


@pytest.mark.parametrize("start", [-3, 0, 1, 4])
def test_one_tap_mask(start):
    """A one-tap mask: subdivision leaves every other output without a tap
    (invalid), and decomposition of a one-entry window has no output when
    the entry's index minus lo is odd."""
    mask = Mask(2, np.array([[[1.5, -0.5], [0.25, 2.0]]]))
    pair = interior_sequence([[0.75], [0.5]], [[-1.25], [1.0]], start)
    one = interior_sequence([[0.75]], [[-1.25]], start)
    for new, ref in OPERATORS:
        for s in (pair, one):
            assert_bitwise_equal(new(mask, s), ref(mask, s))
    assert apply_subdivision(mask, pair).valid.tolist() == [True, False, True]
    assert len(apply_decomposition(mask, one)) == (start % 2 == 0)
