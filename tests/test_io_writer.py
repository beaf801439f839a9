"""Differential tests: the streamed geomwave/1 writer of ``geomwave.io``
against the plain ``json.dump`` writer in ``reference_writer``, on drawn
arrays that reach every spelling ``json`` gives a float."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_writer
from geomwave.errors import SchemaError
from geomwave.io import read_pyramid, read_samples, write_pyramid, write_samples
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import interior_sequence
from geomwave.transform import (
    RULES,
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
)

MANIFOLDS = [Euclidean(3), Sphere2(), SO3Quat()]
# Signed zeros, the ends of the double range, integral floats, and each side
# of the points where repr switches between fixed and exponent form.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, 3.0, -3.0,
    1e-4, 9.999999999999999e-05, 1e-5, 1e15, 999999999999999.9, 1e16, -1e16,
    1e20, 1.0 / 3.0, 0.1,
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def values(finite):
    pools = [st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False)]
    return st.one_of(*pools, *([] if finite else [st.sampled_from(NON_FINITE)]))


def texts(write, reference, obj, folder):
    """The text of obj as written by the library and by the reference."""
    new, ref = folder / "new.json", folder / "ref.json"
    write(obj, str(new))
    reference(obj, str(ref))
    return new.read_text(), ref.read_text()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    tag=st.sampled_from([M.tag for M in MANIFOLDS] + ["interior"]),
    length=st.integers(1, 5),
    level=st.integers(0, 30),
    finite=st.booleans(),
)
def test_samples_text_matches_reference(
    tmp_path_factory, data, tag, length, level, finite
):
    M = next((M for M in MANIFOLDS if M.tag == tag), Euclidean(2))
    shape = (length, M.ambient_dim)
    P, V = (data.draw(hnp.arrays(float, shape, elements=values(finite))) for _ in "pv")
    if tag == "interior":
        seq = interior_sequence(P, V, start=-length, level=level)
    else:
        seq = ManifoldHermiteSeq(M, P, V, level=level)
    folder = tmp_path_factory.mktemp("samples")
    new, ref = texts(write_samples, reference_writer.write_samples, seq, folder)
    assert new == ref


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    M=st.sampled_from(MANIFOLDS),
    length=st.integers(1, 3),
    levels=st.integers(0, 2),
    lam=st.one_of(st.none(), st.sampled_from(EDGES[2:]), st.floats(0.01, 50.0)),
    rule=st.sampled_from(RULES),
    finite=st.booleans(),
)
def test_pyramid_text_matches_reference(
    tmp_path_factory, data, M, length, levels, lam, rule, finite
):
    def draw(rows):
        shape = (rows, M.ambient_dim)
        return data.draw(hnp.arrays(float, shape, elements=values(finite)))

    coarse = ManifoldHermiteSeq(M, draw(length), draw(length), level=3)
    details = tuple(
        TangentPairSeq(M, *(draw(length << n) for _ in range(3)), level=3 + n)
        for n in range(levels)
    )
    provider = cubic_provider() if lam is None else exponential_provider(lam)
    pyr = ManifoldPyramid(coarse, details, provider, rule)
    folder = tmp_path_factory.mktemp("pyramid")
    new, ref = texts(write_pyramid, reference_writer.write_pyramid, pyr, folder)
    assert new == ref


@pytest.mark.parametrize("length", [511, 512, 513, 1100])
def test_entry_lists_across_write_chunks_match_reference(tmp_path, length):
    rng = np.random.default_rng(length)

    def draw(rows):
        return rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-30, 30, (rows, 4))

    M = SO3Quat()
    coarse = ManifoldHermiteSeq(M, draw(length), draw(length), level=2)
    detail = TangentPairSeq(M, draw(2 * length), draw(2 * length), draw(2 * length), 2)
    pyr = ManifoldPyramid(coarse, (detail,), exponential_provider(1.0), "leftpoint")
    for write, reference, obj in (
        (write_samples, reference_writer.write_samples, coarse),
        (write_pyramid, reference_writer.write_pyramid, pyr),
    ):
        new, ref = texts(write, reference, obj, tmp_path)
        assert new == ref


@pytest.mark.parametrize(
    "bad,spelling", zip(NON_FINITE, ["NaN", "Infinity", "-Infinity"])
)
def test_non_finite_values_written_as_json_and_refused(tmp_path, bad, spelling):
    M = Euclidean(3)
    P, V = np.zeros((3, 3)), np.ones((3, 3))
    V[1, 2] = bad
    coarse = ManifoldHermiteSeq(M, P, V, level=1)
    detail = TangentPairSeq(M, np.ones((3, 3)), V, V, level=1)
    pyr = ManifoldPyramid(coarse, (detail,), cubic_provider(), "midpoint")
    for write, reference, read, obj, where in (
        (write_samples, reference_writer.write_samples, read_samples, coarse, "data"),
        (write_pyramid, reference_writer.write_pyramid, read_pyramid, pyr, "coarse"),
    ):
        new, ref = texts(write, reference, obj, tmp_path)
        assert new == ref and f"    {spelling}\n" in new
        path = str(tmp_path / "new.json")
        with pytest.raises(SchemaError) as exc:
            read(path)
        assert str(exc.value) == f"{path}.{where}[1].v[2]: non-finite value"
