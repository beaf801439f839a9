"""Differential tests: the streamed geomwave/1 writer of ``geomwave.io``
against the plain ``json.dump`` writer in ``reference_writer``, on drawn
flat arrays that reach every spelling ``json`` gives a finite float.  The
library's writers refuse, before writing, every row its readers refuse;
files with such rows are written by the reference writer."""

from dataclasses import replace

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
from geomwave.sequences import interior_sequence, periodic_sequence
from geomwave.transform import (
    RULES,
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
)

# Every finite row is a sample of a flat space, so any drawn value is written.
MANIFOLDS = [Euclidean(3), Euclidean(4)]
# Signed zeros, the ends of the double range, integral floats, and each side
# of the points where repr switches between fixed and exponent form.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, 3.0, -3.0,
    1e-4, 9.999999999999999e-05, 1e-5, 1e15, 999999999999999.9, 1e16, -1e16,
    1e20, 1.0 / 3.0, 0.1,
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
VALUES = st.one_of(
    st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


def texts(write, reference, obj, folder):
    """The text of obj as written by the library and by the reference."""
    new, ref = folder / "new.json", folder / "ref.json"
    write(obj, str(new))
    reference(obj, str(ref))
    return new.read_text(), ref.read_text()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    tag=st.sampled_from([M.tag for M in MANIFOLDS] + ["flat"]),
    length=st.integers(1, 5),
    level=st.integers(0, 30),
)
def test_samples_text_matches_reference(tmp_path_factory, data, tag, length, level):
    M = next((M for M in MANIFOLDS if M.tag == tag), Euclidean(2))
    shape = (length, M.ambient_dim)
    P, V = (data.draw(hnp.arrays(float, shape, elements=VALUES)) for _ in "pv")
    if tag == "flat":
        seq = periodic_sequence(P, V, level=level)
    else:
        seq = ManifoldHermiteSeq(M, P, V, level=level)
    folder = tmp_path_factory.mktemp("samples")
    new, ref = texts(write_samples, reference_writer.write_samples, seq, folder)
    assert new == ref


def test_interior_samples_refused_before_writing(tmp_path):
    """No reader takes an interior window, so the writer refuses one and
    leaves no file."""
    path = tmp_path / "s.json"
    seq = interior_sequence(np.zeros((3, 1)), np.ones((3, 1)), start=-1, level=2)
    with pytest.raises(SchemaError) as exc:
        write_samples(seq, str(path))
    assert str(exc.value) == (
        f"{path}: only periodic samples can be written, got an interior window"
    )
    assert not path.exists()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    M=st.sampled_from(MANIFOLDS),
    length=st.integers(1, 3),
    levels=st.integers(0, 2),
    lam=st.one_of(st.none(), st.sampled_from(EDGES[2:]), st.floats(0.01, 50.0)),
    rule=st.sampled_from(RULES),
)
def test_pyramid_text_matches_reference(
    tmp_path_factory, data, M, length, levels, lam, rule
):
    def draw(rows):
        shape = (rows, M.ambient_dim)
        return data.draw(hnp.arrays(float, shape, elements=VALUES))

    coarse = ManifoldHermiteSeq(M, draw(length), draw(length), level=3)
    details = tuple(
        TangentPairSeq(*(draw(length << n) for _ in range(3)))
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

    M = Euclidean(4)
    coarse = ManifoldHermiteSeq(M, draw(length), draw(length), level=2)
    detail = TangentPairSeq(draw(2 * length), draw(2 * length), draw(2 * length))
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
    """The reference writer spells a non-finite value as json does, and the
    reader refuses it; the library's writer refuses the row and leaves no
    file."""
    M = Euclidean(3)
    P, V = np.zeros((3, 3)), np.ones((3, 3))
    V[1, 2] = bad
    coarse = ManifoldHermiteSeq(M, P, V, level=1)
    detail = TangentPairSeq(np.ones((3, 3)), V, V)
    pyr = ManifoldPyramid(coarse, (detail,), cubic_provider(), "midpoint")
    new, ref = str(tmp_path / "new.json"), str(tmp_path / "ref.json")
    for write, reference, read, obj, where in (
        (write_samples, reference_writer.write_samples, read_samples, coarse, "data"),
        (write_pyramid, reference_writer.write_pyramid, read_pyramid, pyr, "coarse"),
    ):
        reference(obj, ref)
        with open(ref) as fh:
            assert f"    {spelling}\n" in fh.read()
        with pytest.raises(SchemaError) as exc:
            read(ref)
        assert str(exc.value) == f"{ref}.{where}[1].v[2]: non-finite value"
        with pytest.raises(SchemaError) as exc:
            write(obj, new)
        assert str(exc.value) == f"{new}.{where}[1].v: entry is not finite"
        assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("M", [Sphere2(), SO3Quat()], ids=lambda M: M.tag)
def test_writers_refuse_the_rows_the_readers_refuse(tmp_path, M):
    """An off-M point or a non-tangent vector, in the samples, the coarse
    pair or any detail level, is refused by the writer with the message the
    reader gives for the same row of the reference writer's file."""
    rng = np.random.default_rng(3)

    def rows(n, tangents):
        P = M.project_point(rng.normal(size=(n, M.ambient_dim)))
        V = [M.project_tangent(P, rng.normal(size=P.shape)) for _ in range(tangents)]
        return [P, *V]

    def pyramid(coarse, details):
        return ManifoldPyramid(coarse, tuple(details), cubic_provider(), "midpoint")

    P, V = rows(4, 1)
    coarse = ManifoldHermiteSeq(M, P, V, level=2)
    details = [TangentPairSeq(*rows(4 << n, 2)) for n in range(2)]
    off, bent = P.copy(), V.copy()
    off[2] *= 1.5
    bent[3] += 0.25 * P[3]
    base = details[1].bases.copy()
    base[5] *= 0.5
    u1 = details[0].u1.copy()
    u1[1] += details[0].bases[1]
    cases = [
        (write_samples, reference_writer.write_samples, read_samples,
         ManifoldHermiteSeq(M, off, V, level=2), ".data[2].p"),
        (write_samples, reference_writer.write_samples, read_samples,
         ManifoldHermiteSeq(M, P, bent, level=2), ".data[3].v"),
        (write_pyramid, reference_writer.write_pyramid, read_pyramid,
         pyramid(ManifoldHermiteSeq(M, P, bent, level=2), details), ".coarse[3].v"),
        (write_pyramid, reference_writer.write_pyramid, read_pyramid,
         pyramid(coarse, [details[0], replace(details[1], bases=base)]),
         ".details[1][5].base"),
        (write_pyramid, reference_writer.write_pyramid, read_pyramid,
         pyramid(coarse, [replace(details[0], u1=u1), details[1]]),
         ".details[0][1].u1"),
    ]
    new, ref = str(tmp_path / "new.json"), str(tmp_path / "ref.json")
    for write, reference, read, obj, where in cases:
        reference(obj, ref)
        with pytest.raises(SchemaError) as read_err:
            read(ref)
        with pytest.raises(SchemaError) as write_err:
            write(obj, new)
        assert str(read_err.value).startswith(f"{ref}{where}: ")
        assert str(write_err.value) == str(read_err.value).replace(ref, new)
        assert not (tmp_path / "new.json").exists()
