"""Symmetry oracles for the whole pyramid.

The construction is built only from exp, log, transport and the geodesic
midpoint.  These do not see where the grid starts, and they commute with
every orthogonal map of the ambient space that keeps the manifold, so
``decompose_manifold`` and ``reconstruct_manifold`` must too:

* a cyclic shift of the input by r * 2^K samples (K levels) shifts the coarse
  sequence by r entries and the level-n details by r * 2^K / 2^(N-n)
  entries, bitwise, and reconstruction shifts back;
* an orthogonal Q (O(3) on sphere2 and euclidean:3, O(4) on the quaternions
  of so3-quat) maps the pyramid of the data to the pyramid of Q times the
  data, and the reconstruction of Q times a pyramid to Q times its
  reconstruction, up to rounding;
* with the midpoint rule, time reversal (sample i to sample -i mod L, its
  vector negated) maps coarse entry j to entry -j, its vector negated, and
  detail entry j to entry -j-1, its u1 negated, up to rounding, and
  reconstruction reverses back.  The left point of an interval is not a
  symmetric base point, so the leftpoint rule is not reversible.

Unlike the differential tests against ``reference_transform``, these need
no second implementation, so they also catch a fault in the geometry kernel
that a reference sharing ``manifolds.py`` would repeat.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import (
    RULES,
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
    decompose_manifold,
    reconstruct_manifold,
)

PRESETS = [
    ("sphere2", "wobble"), ("so3-quat", "quatcurve"), ("euclidean:3", "trigblend")
]
PROVIDERS = [cubic_provider(), exponential_provider(1.0)]
# Largest deviation from exact equivariance, over 1,500 random draws of these
# cases, was 1.1e-15 (decompose, sphere2); the bound leaves a factor of ~3.6.
ISOMETRY_TOL = 4e-15


# Largest deviation from exact time reversal, over all 108 midpoint-rule
# cases that pyramid_cases draws, was 3.8e-15 (euclidean:3, exp(1)); the
# bound leaves a factor of ~2.6.
REVERSAL_TOL = 1e-14


@st.composite
def pyramid_cases(draw, rules=RULES):
    """(samples, provider, rule, levels): a preset sampled at 2^3..2^9
    samples, so that the coarsest level keeps at least 8."""
    tag, name = draw(st.sampled_from(PRESETS))
    levels = draw(st.integers(1, 4))
    level = draw(st.integers(levels + 3, 9))
    cN = sample_signal(get_preset(tag, name), level)
    return cN, draw(st.sampled_from(PROVIDERS)), draw(st.sampled_from(rules)), levels


def _rows_of(pyr: ManifoldPyramid):
    """Every array of a pyramid with one row per entry, coarse first."""
    yield pyr.coarse.points
    yield pyr.coarse.vectors
    for d in pyr.details:
        yield from (d.bases, d.u0, d.u1)


def _map(f, pyr: ManifoldPyramid) -> ManifoldPyramid:
    """The pyramid with f applied to every point and vector array."""
    M, c = pyr.coarse.manifold, pyr.coarse
    return ManifoldPyramid(
        ManifoldHermiteSeq(M, f(c.points), f(c.vectors), level=c.level),
        tuple(
            TangentPairSeq(f(d.bases), f(d.u0), f(d.u1))
            for d in pyr.details
        ),
        pyr.provider,
        pyr.rule,
    )


@settings(max_examples=100, deadline=None)
@given(pyramid_cases(), st.data())
def test_cyclic_shift_commutes_bitwise(case, data):
    cN, provider, rule, levels = case
    r = data.draw(st.integers(1, (len(cN) >> levels) - 1), label="r")
    shift = r << levels
    shifted = ManifoldHermiteSeq(
        cN.manifold,
        np.roll(cN.points, shift, axis=0),
        np.roll(cN.vectors, shift, axis=0),
        level=cN.level,
    )
    pyr = decompose_manifold(cN, provider, rule, levels)
    spyr = decompose_manifold(shifted, provider, rule, levels)
    assert np.array_equal(np.roll(pyr.coarse.points, r, axis=0), spyr.coarse.points)
    assert np.array_equal(np.roll(pyr.coarse.vectors, r, axis=0), spyr.coarse.vectors)
    pairs = zip(pyr.details, spyr.details, strict=True)
    for n, (d, sd) in enumerate(pairs, pyr.coarse.level):
        k = shift >> (cN.level - n)
        for x, y in ((d.bases, sd.bases), (d.u0, sd.u0), (d.u1, sd.u1)):
            assert np.array_equal(np.roll(x, k, axis=0), y), n
    rec, srec = reconstruct_manifold(pyr), reconstruct_manifold(spyr)
    assert np.array_equal(np.roll(rec.points, shift, axis=0), srec.points)
    assert np.array_equal(np.roll(rec.vectors, shift, axis=0), srec.vectors)


@settings(max_examples=100, deadline=None)
@given(pyramid_cases(), st.integers(0, 2**32 - 1))
def test_orthogonal_map_commutes(case, seed):
    cN, provider, rule, levels = case
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(cN.dim, cN.dim)))
    Q = q * np.sign(np.diag(r))  # Haar-distributed on O(d)

    def rotate(x):
        return x @ Q.T

    pyr = decompose_manifold(cN, provider, rule, levels)
    rotated = ManifoldHermiteSeq(
        cN.manifold, rotate(cN.points), rotate(cN.vectors), level=cN.level
    )
    qpyr = decompose_manifold(rotated, provider, rule, levels)
    for x, y in zip(_rows_of(_map(rotate, pyr)), _rows_of(qpyr), strict=True):
        assert np.abs(x - y).max() <= ISOMETRY_TOL
    rec = reconstruct_manifold(pyr)
    qrec = reconstruct_manifold(_map(rotate, pyr))
    assert np.abs(rotate(rec.points) - qrec.points).max() <= ISOMETRY_TOL
    assert np.abs(rotate(rec.vectors) - qrec.vectors).max() <= ISOMETRY_TOL


def _backwards(x):
    """Row -i mod L in row i: the samples of a closed curve run backwards."""
    return np.roll(x[::-1], 1, axis=0)


@settings(max_examples=100, deadline=None)
@given(pyramid_cases(rules=("midpoint",)))
def test_time_reversal_commutes_midpoint(case):
    cN, provider, rule, levels = case
    M = cN.manifold
    back = ManifoldHermiteSeq(
        M, _backwards(cN.points), -_backwards(cN.vectors), level=cN.level
    )
    pyr = decompose_manifold(cN, provider, rule, levels)
    c = pyr.coarse
    reversed_pyr = ManifoldPyramid(
        ManifoldHermiteSeq(
            M, _backwards(c.points), -_backwards(c.vectors), level=c.level
        ),
        tuple(  # entry -j-1 mod len of a detail is entry len-1-j
            TangentPairSeq(d.bases[::-1], d.u0[::-1], -d.u1[::-1])
            for d in pyr.details
        ),
        provider,
        rule,
    )
    bpyr = decompose_manifold(back, provider, rule, levels)
    for x, y in zip(_rows_of(reversed_pyr), _rows_of(bpyr), strict=True):
        assert np.abs(x - y).max() <= REVERSAL_TOL
    rec = reconstruct_manifold(pyr)
    brec = reconstruct_manifold(reversed_pyr)
    assert np.abs(_backwards(rec.points) - brec.points).max() <= REVERSAL_TOL
    assert np.abs(-_backwards(rec.vectors) - brec.vectors).max() <= REVERSAL_TOL
