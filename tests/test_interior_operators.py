"""Differential tests: the one tap loop of
``geomwave.sequences.apply_subdivision`` and ``apply_decomposition`` against
the separate periodic loops and the per-output interior loops of
``reference_sequences``, compared bitwise.  The reference flags the outputs
of an interior window valid or not; the operators return only the valid
run."""

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_sequences
from geomwave.sequences import (
    HermiteSequence,
    Mask,
    apply_decomposition,
    apply_subdivision,
    periodic_sequence,
)

OPERATORS = [
    (apply_subdivision, reference_sequences.apply_subdivision),
    (apply_decomposition, reference_sequences.apply_decomposition),
]
# Signed zeros and ordinary magnitudes: sums stay finite.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@dataclass(frozen=True)
class Flagged:
    """An interior window with a valid flag per entry: what the reference
    operators read and return."""

    points: np.ndarray
    vectors: np.ndarray
    start: int
    level: int
    valid: np.ndarray
    periodic = False

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def flagged(points, vectors, start, level=0, valid=None):
    return Flagged(points, vectors, start, level, valid)


def outcome(op, mask, s):
    """The operator's output, or the message of the ValueError it raised."""
    try:
        return op(mask, s)
    except ValueError as err:
        return str(err)


def reference(op, mask, s):
    """The reference operator's outcome; an interior window enters it with
    every entry flagged valid, and leaves it flagged."""
    if s.periodic:
        return outcome(op, mask, s)
    window = Flagged(s.points, s.vectors, s.start, s.level, np.ones(len(s), bool))
    with mock.patch.object(reference_sequences, "interior_sequence", flagged):
        return op(mask, window)


def tapless(op, mask, j):
    """The outputs j that no tap reaches: only a one-tap mask's subdivision
    has them, between and around its taps."""
    if op is apply_decomposition:
        return np.zeros(len(j), bool)
    return (j - mask.lo) // 2 < -((mask.hi - j) // 2)


def assert_matches_reference(op, mask, new, ref):
    """Periodic outputs equal the reference's bitwise.  An interior output
    holds the reference's valid entries bitwise at their indices, and
    besides them only the tapless outputs, as exact zeros."""
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
        return
    assert (new.level, new.periodic) == (ref.level, ref.periodic)
    if new.periodic:
        assert new.start == ref.start
        for a, b in ((new.points, ref.points), (new.vectors, ref.vectors)):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return
    j = new.start + np.arange(len(new))
    known = np.isin(j, ref.start + np.flatnonzero(ref.valid))
    assert known.sum() == ref.valid.sum()  # the whole valid run is kept
    assert np.array_equal(~known, tapless(op, mask, j))
    for a, b in ((new.points, ref.points), (new.vectors, ref.vectors)):
        assert a.shape[1] == b.shape[1]
        assert a[known].tobytes() == b[ref.valid].tobytes()
        assert a[~known].tobytes() == np.zeros_like(a[~known]).tobytes()


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    lo=st.integers(-4, 2),
    width=st.integers(1, 7),
    length=st.integers(1, 20),
    start=st.integers(-7, 6),
    m=st.integers(1, 3),
    level=st.integers(-3, 6),
    periodic=st.booleans(),
)
def test_interior_operators_match_reference(
    data, lo, width, length, start, m, level, periodic
):
    """Interior windows, and periodic sequences of any length, including the
    odd and too-short ones both sides refuse with the same message."""
    blocks = data.draw(hnp.arrays(float, (width, 2, 2), elements=VALUES))
    points = data.draw(hnp.arrays(float, (length, m), elements=VALUES))
    vectors = data.draw(hnp.arrays(float, (length, m), elements=VALUES))
    if periodic:
        s = periodic_sequence(points, vectors, level=level)
    else:
        s = HermiteSequence(points, vectors, periodic=False, start=start, level=level)
    mask = Mask(lo, blocks)
    for new, ref in OPERATORS:
        assert_matches_reference(
            new, mask, outcome(new, mask, s), reference(ref, mask, s)
        )


@pytest.mark.parametrize("start", [-3, 0, 1, 4])
def test_one_tap_mask(start):
    """A one-tap mask: subdivision of a pair gives [2a + 1, 2a + 5], whose
    outputs between and around the two taps have no tap and are exact
    zeros; decomposition of a one-entry window has no output when the
    entry's index minus lo is odd."""
    mask = Mask(2, np.array([[[1.5, -0.5], [0.25, 2.0]]]))
    P, V = [[0.75], [0.5]], [[-1.25], [1.0]]
    pair = HermiteSequence(P, V, periodic=False, start=start)
    one = HermiteSequence([[0.75]], [[-1.25]], periodic=False, start=start)
    for new, ref in OPERATORS:
        for s in (pair, one):
            assert_matches_reference(new, mask, new(mask, s), reference(ref, mask, s))
    out = apply_subdivision(mask, pair)
    assert (out.start, len(out)) == (2 * start + 1, 5)
    for a in (out.points, out.vectors):
        assert a[::2].tobytes() == np.zeros((3, 1)).tobytes()
    assert out.points[1::2].tolist() == [[1.75], [0.25]]
    assert out.vectors[1::2].tolist() == [[-2.3125], [2.125]]
    assert len(apply_decomposition(mask, one)) == (start % 2 == 0)
