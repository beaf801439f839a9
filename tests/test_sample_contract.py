"""``Manifold.first_fault``, the one test of whether rows (p, v, ...) are
samples of M, against a plain per-row loop; and the file writer, the file
reader and the pyramid, which all ask it, naming the same faulty row."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writer
from geomwave.errors import SchemaError
from geomwave.io import read_samples, write_samples
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider
from geomwave.transform import ManifoldHermiteSeq, decompose_manifold

MANIFOLDS = {"euclidean:3": Euclidean(3), "sphere2": Sphere2(), "so3-quat": SO3Quat()}
TOL = 1e-9
# how far past (+) or short of (-) the tolerance a near-miss fault lands
NEAR = (-1e-12, 1e-12)


def loop_fault(M, arrays):
    """The first faulty row, one row and one number at a time: a non-finite
    value, then (on a sphere) a point whose norm is off 1, then a vector
    whose inner product with its point is off 0, by more than TOL."""
    curved = not isinstance(M, Euclidean)
    for i, rows in enumerate(zip(*(a.tolist() for a in arrays))):
        for k, row in enumerate(rows):
            if not all(math.isfinite(x) for x in row):
                return i, k, "is not finite"
        p = rows[0]
        norm = math.sqrt(math.fsum(x * x for x in p))
        if curved and abs(norm - 1.0) > TOL:
            return i, 0, f"is not on {M.tag} (|p| = {norm:.6g})"
        for k, v in enumerate(rows[1:], start=1):
            dot = abs(math.fsum(x * y for x, y in zip(p, v)))
            if curved and dot > TOL:
                return i, k, f"has a non-tangent vector (|<p, v>| = {dot:.3g})"
    return None


def samples(M, rng, L, tangents):
    """L points of M, each with ``tangents`` tangent vectors; on SO(3) a
    lift with no sign flip between cyclic neighbours."""
    P = M.project_point(rng.normal(size=(L, M.ambient_dim)))
    if isinstance(M, SO3Quat):
        for i in range(1, L):
            P[i] *= np.sign(P[i] @ P[i - 1]) or 1.0
    V = [M.project_tangent(P, rng.normal(size=P.shape)) for _ in range(tangents)]
    return [P, *V]


FAULTS = st.sampled_from(["nan", "inf", "off", "near-off", "normal", "near-normal"])


@st.composite
def faulty_samples(draw, tangents):
    """(M, arrays): L rows on M, with up to three rows given a fault: a NaN
    or an infinity in one array; the point scaled off M, by a factor 3 or
    to within 1e-12 of the tolerance; or a multiple of the point, of size 3
    or within 1e-12 of the tolerance, added to one vector."""
    M = MANIFOLDS[draw(st.sampled_from(sorted(MANIFOLDS)), label="tag")]
    L = draw(st.integers(1, 24), label="L")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    arrays = samples(M, rng, L, tangents)
    for _ in range(draw(st.integers(0, 3), label="faults")):
        i = draw(st.integers(0, L - 1), label="row")
        fault = draw(FAULTS, label="fault")
        near = 1.0 + TOL + draw(st.sampled_from(NEAR), label="near")
        if fault in ("nan", "inf"):
            k = draw(st.integers(0, tangents), label="array")
            j = draw(st.integers(0, M.ambient_dim - 1), label="coordinate")
            arrays[k][i, j] = np.nan if fault == "nan" else -np.inf
        elif fault in ("off", "near-off"):
            arrays[0][i] *= 3.0 if fault == "off" else near
        else:
            k = draw(st.integers(1, tangents), label="array")
            size = 3.0 if fault == "normal" else near - 1.0
            arrays[k][i] += size * arrays[0][i]
    return M, arrays


@settings(max_examples=300, deadline=None)
@given(case=faulty_samples(tangents=2))
def test_first_fault_equals_row_loop(case):
    """On (L, d) arrays of a point and two tangents, with NaN, infinite,
    off-M and non-tangent rows, some within 1e-12 of the tolerance, the
    first fault and its reason are the per-row loop's."""
    M, arrays = case
    assert M.first_fault(*arrays) == loop_fault(M, arrays)


def refusal(call):
    """The SchemaError message of call(), or None if it returns."""
    try:
        call()
    except SchemaError as err:
        return str(err)
    return None


@settings(max_examples=150, deadline=None)
@given(case=faulty_samples(tangents=1))
def test_reader_and_pyramid_name_the_same_row(case):
    """A samples file (written by the reference writer) is refused at the
    row at which decompose_manifold refuses the same samples, the row the
    per-row loop names, and write_samples refuses that row and writes
    nothing; samples without a fault are written, read back and
    decomposed."""
    M, (P, V) = case
    seq = ManifoldHermiteSeq(M, P, V, level=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.json")
        reference_writer.write_samples(seq, path)
        read = refusal(lambda: read_samples(path))
        written = os.path.join(tmp, "written.json")
        write = refusal(lambda: write_samples(seq, written))
        assert os.path.exists(written) == (write is None)
    pyramid = refusal(lambda: decompose_manifold(seq, cubic_provider(), "midpoint", 0))
    want = loop_fault(M, [P, V])
    if want is None:
        assert read is None and write is None
        assert pyramid is None or pyramid.startswith("samples ")  # a sign flip
    else:
        assert re.match(rf"{re.escape(path)}\.data\[{want[0]}\]", read), read
        assert write.startswith(f"{written}.data[{want[0]}]."), write
        assert write.endswith(want[2]), write
        assert pyramid == f"sample {want[0]} {want[2]}"


@pytest.mark.parametrize("tag", sorted(MANIFOLDS))
def test_valid_rows_have_no_fault(tag):
    """Rows on M with tangent vectors, and an empty array, have no fault."""
    M = MANIFOLDS[tag]
    arrays = samples(M, np.random.default_rng(5), 64, 3)
    assert M.first_fault(*arrays) is None
    assert M.first_fault(np.empty((0, M.ambient_dim))) is None
