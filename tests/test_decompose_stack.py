"""The one-pass decomposition and the array-loop reconstruction against the
level-by-level reference: bitwise equal outputs, the same errors, no higher
memory peak, also when a level runs in several kernel windows or a window
spans levels, and the refusal of an unknown base point rule; and no public
function of the pyramid writing into the arrays it is given."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomwave import transform
from geomwave.errors import (
    BaseMismatchError,
    CutLocusError,
    DensityError,
    GeomwaveError,
    SchemaError,
)
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import HermiteSequence, Mask, diag_d
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import (
    RULES,
    ManifoldHermiteSeq,
    ManifoldPyramid,
    decompose_manifold,
    manifold_subdivide_once,
    ominus,
    oplus,
    reconstruct_manifold,
)
import reference_transform

MANIFOLDS = {
    "euclidean:1": Euclidean(1),
    "euclidean:2": Euclidean(2),
    "euclidean:3": Euclidean(3),
    "sphere2": Sphere2(),
    "so3-quat": SO3Quat(),
}


def outcome(decompose, cN, provider, rule, levels):
    """Every array of the pyramid as raw 64-bit words (so -0.0 != 0.0),
    with the coarse level and the rule; or the DensityError's type, level,
    index and message."""
    try:
        pyr = decompose(cN, provider, rule, levels)
    except DensityError as err:
        return (type(err), err.level, err.index, str(err))
    arrays = [pyr.coarse.points, pyr.coarse.vectors]
    for d in pyr.details:
        arrays += [d.bases, d.u0, d.u1]
    return words(arrays), pyr.coarse.level, pyr.rule


def words(arrays):
    """Each array's shape and raw 64-bit words."""
    return [(a.shape, np.ascontiguousarray(a).view(np.uint64).tobytes())
            for a in arrays]


def reconstruction(reconstruct, pyr):
    """The reconstruction as raw 64-bit words, with its level and manifold;
    or the error's type, level, index and message."""
    try:
        c = reconstruct(pyr)
    except (DensityError, BaseMismatchError, ValueError) as err:
        where = (getattr(err, "level", None), getattr(err, "index", None))
        return (type(err), *where, str(err))
    return words([c.points, c.vectors]), c.level, c.manifold.tag


def closed_curve(M, rng, L, amp, vscale):
    """L samples of a random closed trigonometric curve, mapped onto M, with
    random tangent vectors.  A large ``amp`` makes coarse samples far apart,
    up to antipodal on the spheres."""
    t = np.arange(L)[:, None] / L
    d = M.ambient_dim
    x = rng.normal(size=d) + amp * sum(
        rng.normal(size=d) * np.cos(2 * np.pi * k * t + rng.uniform(0, 2 * np.pi))
        for k in (1, 2)
    )
    P = M.project_point(x)
    if isinstance(M, SO3Quat):
        # a lift without sign flips between neighbours, as decompose requires
        for i in range(1, L):
            if P[i] @ P[i - 1] < 0:
                P[i] = -P[i]
    V = M.project_tangent(P, vscale * rng.normal(size=(L, d)))
    return P, V


PROVIDERS = st.one_of(
    st.just(("cubic", None)),
    st.tuples(st.just("exp"), st.sampled_from([0.5, 1.0, 3.0, 4.25])),
)


def provider_of(kind):
    name, lam = kind
    return cubic_provider() if name == "cubic" else exponential_provider(lam)


@settings(max_examples=120, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    kind=PROVIDERS,
    rule=st.sampled_from(RULES),
    log2_length=st.integers(0, 9),
    data=st.data(),
)
def test_pyramid_bitwise_equals_level_loop(tag, kind, rule, log2_length, data):
    """Every array of the pyramid, and every density error, is the
    level-by-level reference's, on smooth and on sparse data."""
    M = MANIFOLDS[tag]
    L = 1 << log2_length
    levels = data.draw(st.integers(0, log2_length), label="levels")
    amp = data.draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]), label="amp")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    P, V = closed_curve(M, rng, L, amp, data.draw(st.sampled_from([0.0, 0.1, 2.0])))
    assume(not isinstance(M, SO3Quat) or P[-1] @ P[0] >= 0)
    cN = ManifoldHermiteSeq(M, P, V, level=log2_length)
    provider = provider_of(kind)
    got = outcome(decompose_manifold, cN, provider, rule, levels)
    assert got == outcome(reference_transform.decompose, cN, provider, rule, levels)


@settings(max_examples=120, deadline=None)
@given(
    kind=PROVIDERS,
    rule=st.sampled_from(RULES),
    log2_length=st.integers(2, 9),
    data=st.data(),
)
def test_injected_antipode_same_density_error(kind, rule, log2_length, data):
    """On S^2, a sample replaced by the antipode of the sample 2^k places
    on fails where the reference fails, with its type, level, index and
    message (or passes where it passes)."""
    M = Sphere2()
    L = 1 << log2_length
    levels = data.draw(st.integers(1, log2_length), label="levels")
    k = data.draw(st.integers(1, levels), label="k")
    j = data.draw(st.integers(0, L - 1), label="j")
    if data.draw(st.booleans(), label="on the 2^k grid"):
        j -= j % (1 << k)  # then j and j + 2^k are neighbours at some level
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    P, V = closed_curve(M, rng, L, 0.3, 0.1)
    P[j] = -P[(j + (1 << k)) % L]
    V[j] = M.project_tangent(P[j], V[j])
    cN = ManifoldHermiteSeq(M, P, V, level=log2_length)
    provider = provider_of(kind)
    got = outcome(decompose_manifold, cN, provider, rule, levels)
    assert got == outcome(reference_transform.decompose, cN, provider, rule, levels)


@settings(max_examples=60, deadline=None)
@given(
    kind=PROVIDERS,
    rule=st.sampled_from(RULES),
    log2_length=st.integers(3, 9),
    data=st.data(),
)
def test_quaternion_great_circle_same_density_error(kind, rule, log2_length, data):
    """On S^3, unit quaternions walking a great circle in steps of pi/2^k,
    k >= 2: neighbours stay within pi/4 (no sign flip), and samples 2^k
    apart are antipodal.  Decompose fails where the reference fails."""
    L = 1 << log2_length
    k = data.draw(st.integers(2, log2_length - 1), label="k")
    levels = data.draw(st.integers(1, log2_length), label="levels")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    e, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    theta = np.arange(L)[:, None] * math.pi / (1 << k)
    P = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 1]
    M = SO3Quat()
    V = M.project_tangent(P, 0.1 * rng.normal(size=(L, 4)))
    cN = ManifoldHermiteSeq(M, P, V, level=log2_length)
    provider = provider_of(kind)
    got = outcome(decompose_manifold, cN, provider, rule, levels)
    assert got == outcome(reference_transform.decompose, cN, provider, rule, levels)


@pytest.mark.parametrize("kind", [("cubic", None), ("exp", 1.0)], ids=["cubic", "exp1"])
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("tag", ["euclidean:3", "sphere2"])
def test_benchmark_size_bitwise_equals_level_loop(tag, rule, kind):
    """At 2^12 samples over 8 levels, the size the benchmarks run, the
    pyramid and its reconstruction are the reference's word for word.  The
    vectors are small enough that their 2^8-fold coarse scaling keeps the
    odd-output stencils off the cut locus."""
    M = MANIFOLDS[tag]
    P, V = closed_curve(M, np.random.default_rng(2024), 1 << 12, 0.3, 1e-3)
    cN = ManifoldHermiteSeq(M, P, V, level=12)
    provider = provider_of(kind)
    got = outcome(decompose_manifold, cN, provider, rule, 8)
    assert got[0] is not DensityError
    assert got == outcome(reference_transform.decompose, cN, provider, rule, 8)
    pyr = decompose_manifold(cN, provider, rule, 8)
    got = reconstruction(reconstruct_manifold, pyr)
    assert got[0] is not DensityError
    assert got == reconstruction(reference_transform.reconstruct, pyr)


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    rule=st.sampled_from(RULES),
    log2_length=st.integers(0, 3),
    data=st.data(),
)
def test_wide_mask_step_bitwise_equals_reference(tag, rule, log2_length, data):
    """An interpolatory mask on [-5, 5] has odd taps reading inputs i - 2
    to i + 3; on sequences as short as one sample those shifts wrap around
    more than once.  One step, or its cut-locus error, is the reference's
    (``np.take(..., mode="wrap")``) word for word."""
    M = MANIFOLDS[tag]
    L = 1 << log2_length
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = np.zeros((11, 2, 2))
    blocks[5] = diag_d()
    blocks[::2] = 0.3 * rng.normal(size=(6, 2, 2))  # the odd taps -5, ..., 5
    mask = Mask(-5, blocks)
    P, V = closed_curve(M, rng, L, 0.3, 0.1)
    c = ManifoldHermiteSeq(M, P, V, level=log2_length)

    def step(subdivide):
        try:
            out = subdivide(mask, c, rule)
        except CutLocusError as err:
            return type(err), err.index, str(err)
        return words([out.points, out.vectors])

    assert step(manifold_subdivide_once) == step(reference_transform.subdivide_once)


FAULTS = ("none", "antipode", "base", "size", "detail")


def faulty(pyr, fault, k, j, scale, rng):
    """The pyramid with one fault: coarse sample j replaced by the antipode
    of sample j + 1 ("antipode"); or, in the details of level k from the
    coarsest, base j moved by about ``scale`` ("base"), the last entry
    dropped ("size"), or a random tangent vector of size about ``scale``
    added to u0 at entry j ("detail")."""
    M, c = pyr.coarse.manifold, pyr.coarse
    if fault == "antipode":
        P, V = c.points.copy(), c.vectors.copy()
        P[j] = -P[(j + 1) % len(P)]
        V[j] = M.project_tangent(P[j], V[j])
        return dataclasses.replace(pyr, coarse=ManifoldHermiteSeq(M, P, V, c.level))
    if fault == "none":
        return pyr
    d = pyr.details[k]
    noise = scale * rng.normal(size=M.ambient_dim)
    if fault == "base":
        bases = d.bases.copy()
        bases[j] = M.project_point(bases[j] + noise)
        d = dataclasses.replace(d, bases=bases)
    elif fault == "size":
        d = dataclasses.replace(d, bases=d.bases[:-1], u0=d.u0[:-1], u1=d.u1[:-1])
    else:
        u0 = d.u0.copy()
        u0[j] += M.project_tangent(d.bases[j], noise)
        d = dataclasses.replace(d, u0=u0)
    details = list(pyr.details)
    details[k] = d
    return dataclasses.replace(pyr, details=tuple(details))


@settings(max_examples=150, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    kind=PROVIDERS,
    rule=st.sampled_from(RULES),
    fault=st.sampled_from(FAULTS),
    data=st.data(),
)
def test_reconstruction_bitwise_equals_level_loop(tag, kind, rule, fault, data):
    """The reconstruction of a pyramid, intact or with one fault, is the
    level-by-level reference's, word for word; and every DensityError,
    BaseMismatchError and ValueError it raises is the reference's, with
    its level, index and message."""
    M = MANIFOLDS[tag]
    lo = 0 if fault in ("none", "antipode") else 1  # a detail fault needs a level
    log2_length = data.draw(st.integers(lo, 9), label="log2_length")
    L = 1 << log2_length
    levels = data.draw(st.integers(lo, log2_length), label="levels")
    amp = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="amp")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    P, V = closed_curve(M, rng, L, amp, data.draw(st.sampled_from([0.0, 0.1, 2.0])))
    assume(not isinstance(M, SO3Quat) or P[-1] @ P[0] >= 0)
    cN = ManifoldHermiteSeq(M, P, V, level=log2_length)
    try:
        pyr = decompose_manifold(cN, provider_of(kind), rule, levels)
    except DensityError:
        assume(False)
    k = data.draw(st.integers(0, max(levels - 1, 0)), label="k")
    size = len(pyr.coarse) if fault == "antipode" else L >> (levels - k)
    j = data.draw(st.integers(0, size - 1), label="j")
    scale = data.draw(st.sampled_from([1e-12, 1e-3, 0.1, 3.0]), label="scale")
    pyr = faulty(pyr, fault, k, j, scale, rng)
    got = reconstruction(reconstruct_manifold, pyr)
    assert got == reconstruction(reference_transform.reconstruct, pyr)


@pytest.mark.parametrize(
    "fault,error,level",
    [("antipode", DensityError, 4), ("base", BaseMismatchError, 5),
     ("size", ValueError, 5)],
)
def test_each_fault_fails_as_the_level_loop(fault, error, level):
    """On `wobble` at 2^8 samples over 4 levels, an antipodal coarse sample,
    a moved detail base and a short detail each raise their error at the
    level they are in, as the reference does."""
    c = sample_signal(get_preset("sphere2", "wobble"), 8)
    pyr = decompose_manifold(c, cubic_provider(), "midpoint", 4)
    pyr = faulty(pyr, fault, 1, 3, 0.1, np.random.default_rng(0))
    got = reconstruction(reconstruct_manifold, pyr)
    assert got == reconstruction(reference_transform.reconstruct, pyr)
    assert got[0] is error and f"level {level}" in got[3]


@pytest.mark.parametrize("rule", RULES)
def test_finer_ominus_failure_named_before_coarser_subdivision(rule):
    """On the equator, at level 5 with 3 levels: samples 8 apart are
    antipodal, so the level-2 subdivision fails; sample 18 is the antipode
    of its level-3 prediction, so the level-3 ominus fails first.  Both
    pyramids name level 3."""
    theta = np.arange(32) * math.pi / 8
    theta[18] += math.pi
    P = np.stack([np.cos(theta), np.sin(theta), np.zeros(32)], axis=1)
    cN = ManifoldHermiteSeq(Sphere2(), P, np.zeros_like(P), level=5)
    got = outcome(decompose_manifold, cN, cubic_provider(), rule, 3)
    assert got == outcome(reference_transform.decompose, cN, cubic_provider(), rule, 3)
    assert got[:3] == (DensityError, 3, 4)
    assert "antipodal" in got[3]
    # the coarser failure on its own: level 2, in the subdivision
    coarse = ManifoldHermiteSeq(Sphere2(), P[::4], np.zeros((8, 3)), level=3)
    with pytest.raises(DensityError) as exc:
        decompose_manifold(coarse, cubic_provider(), rule, 1)
    assert (exc.value.level, exc.value.index) == (2, 0)


@pytest.mark.parametrize("rule", RULES)
def test_kernel_failure_reruns_only_unfinished_levels(rule, monkeypatch):
    """On the equator at level 5 with 3 levels, samples 8 apart are
    antipodal, so the level-2 subdivision fails.  With kernel windows of 8
    outputs, the pass fails in its last window, levels 4 and 3 take their
    predictions from the windows that passed, and level 2 alone runs again,
    as one kernel call: the error is the level loop's, level 2 at index 0."""
    theta = np.arange(32) * math.pi / 8
    P = np.stack([np.cos(theta), np.sin(theta), np.zeros(32)], axis=1)
    cN = ManifoldHermiteSeq(Sphere2(), P, np.zeros_like(P), level=5)
    monkeypatch.setattr(transform, "_WINDOW_ROWS", 8)
    windows = kernel_windows(monkeypatch)
    got = outcome(decompose_manifold, cN, cubic_provider(), rule, 3)
    assert got == outcome(reference_transform.decompose, cN, cubic_provider(), rule, 3)
    assert got[:3] == (DensityError, 2, 0)
    assert windows == [
        [(2, 0, 8)], [(2, 8, 16)], [(4, 0, 8)], [(8, 0, 4)],  # the pass
        [(8, 0, 4)],  # the level it did not finish
    ]


@pytest.mark.parametrize("rule", RULES)
def test_finer_ominus_failure_named_first_in_windows(rule, monkeypatch):
    """The two decompositions of
    test_finer_ominus_failure_named_before_coarser_subdivision, with kernel
    windows of 8 outputs.  The 3-level pass fails in its last window, at
    level 2; the ominus of level 3, whose prediction came from a window that
    passed, fails first, at index 4, so level 2 never runs alone.  The
    1-level pass of the coarse data is one window that fails, so its level
    runs again."""
    monkeypatch.setattr(transform, "_WINDOW_ROWS", 8)
    windows = kernel_windows(monkeypatch)
    test_finer_ominus_failure_named_before_coarser_subdivision(rule)
    assert windows == [
        [(2, 0, 8)], [(2, 8, 16)], [(4, 0, 8)], [(8, 0, 4)],  # the 3-level pass
        [(2, 0, 4)], [(2, 0, 4)],  # the coarse data's pass and its level
    ]


@pytest.mark.parametrize("rule", RULES)
def test_reconstruct_failure_in_later_window_reruns_the_level_once(rule, monkeypatch):
    """With kernel windows of 8 outputs, a moved detail base at index 20 of
    the 32-row level 5 fails the audit in that level's third window; the
    level then runs once more, as one call over its 32 rows, and names the
    reference's BaseMismatchError."""
    c = sample_signal(get_preset("sphere2", "wobble"), 8)
    pyr = decompose_manifold(c, cubic_provider(), rule, 3)  # 32 coarse samples
    pyr = faulty(pyr, "base", 0, 20, 0.1, np.random.default_rng(0))
    monkeypatch.setattr(transform, "_WINDOW_ROWS", 8)
    windows = kernel_windows(monkeypatch)
    got = named_error(reconstruct_manifold, pyr)
    assert got[0] is BaseMismatchError and "level 5, index 20 " in got[3]
    assert windows == [[(1, 0, 8)], [(1, 8, 16)], [(1, 16, 24)], [(1, 0, 32)]]
    assert got == named_error(reference_transform.reconstruct, pyr)


@pytest.mark.parametrize("rule", RULES)
def test_reconstruct_failure_in_one_window_level_runs_once(rule, monkeypatch):
    """Every level of a 2^8 pyramid over 4 levels fits one window, so each
    runs as one kernel call: a moved detail base at index 3 of level 7 fails
    that level's one call, which is not run again, and names the reference's
    BaseMismatchError."""
    c = sample_signal(get_preset("sphere2", "wobble"), 8)
    pyr = decompose_manifold(c, cubic_provider(), rule, 4)
    pyr = faulty(pyr, "base", 3, 3, 0.1, np.random.default_rng(0))
    windows = kernel_windows(monkeypatch)
    got = named_error(reconstruct_manifold, pyr)
    assert got[0] is BaseMismatchError and "level 7, index 3 " in got[3]
    assert windows == [[(1, 0, 16)], [(1, 0, 32)], [(1, 0, 64)], [(1, 0, 128)]]
    assert got == named_error(reference_transform.reconstruct, pyr)


@pytest.mark.parametrize("rule", RULES)
def test_reconstruct_failure_peak_memory_no_higher_than_level_loop(rule, monkeypatch):
    """With kernel windows of 512 outputs, a moved detail base at index
    2045 of the 2,048-row finest level of a 2^12 `wobble` pyramid fails the
    level's pass in its last window.  The one call over the level then runs
    without the rows the pass wrote, so the tracemalloc peak is no higher
    than the level-by-level reference's."""
    c = sample_signal(get_preset("sphere2", "wobble"), 12)
    pyr = decompose_manifold(c, cubic_provider(), rule, 8)
    pyr = faulty(pyr, "base", 7, 2045, 0.1, np.random.default_rng(0))
    monkeypatch.setattr(transform, "_WINDOW_ROWS", 512)
    peaks = []
    for reconstruct in (reconstruct_manifold, reference_transform.reconstruct):
        assert named_error(reconstruct, pyr)[0] is BaseMismatchError  # caches warm
        tracemalloc.start()
        try:
            named_error(reconstruct, pyr)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("rule", RULES)
def test_peak_memory_no_higher_than_level_loop(rule):
    """The tracemalloc peak of decompose on R^3 at 2^14 samples over 8
    levels is no higher than the level-by-level reference's."""
    rng = np.random.default_rng(7)
    cN = ManifoldHermiteSeq(
        Euclidean(3), rng.normal(size=(1 << 14, 3)), rng.normal(size=(1 << 14, 3)),
        level=14,
    )
    provider = cubic_provider()
    peaks = []
    for decompose in (decompose_manifold, reference_transform.decompose):
        decompose(cN, provider, rule, 8)  # masks built, caches warm
        tracemalloc.start()
        try:
            decompose(cN, provider, rule, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("rule", RULES)
def test_reconstruct_peak_memory_no_higher_than_level_loop(rule):
    """The tracemalloc peak of reconstruct on R^3 at 2^14 samples over 8
    levels is no higher than the level-by-level reference's."""
    rng = np.random.default_rng(7)
    cN = ManifoldHermiteSeq(
        Euclidean(3), rng.normal(size=(1 << 14, 3)), rng.normal(size=(1 << 14, 3)),
        level=14,
    )
    pyr = decompose_manifold(cN, cubic_provider(), rule, 8)
    peaks = []
    for reconstruct in (reconstruct_manifold, reference_transform.reconstruct):
        reconstruct(pyr)  # caches warm
        tracemalloc.start()
        try:
            reconstruct(pyr)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("rule", RULES)
def test_peak_memory_at_2_16_no_higher_than_level_loop(rule):
    """At 2^16 samples over 8 levels on R^3, where the finer levels run in
    several kernel windows, the tracemalloc peaks of decompose and of
    reconstruct are no higher than the level-by-level reference's."""
    rng = np.random.default_rng(7)
    cN = ManifoldHermiteSeq(
        Euclidean(3), rng.normal(size=(1 << 16, 3)), rng.normal(size=(1 << 16, 3)),
        level=16,
    )
    provider = cubic_provider()
    pyr = decompose_manifold(cN, provider, rule, 8)
    pairs = [
        ((decompose_manifold, reference_transform.decompose), (cN, provider, rule, 8)),
        ((reconstruct_manifold, reference_transform.reconstruct), (pyr,)),
    ]
    for functions, args in pairs:
        peaks = []
        for f in functions:
            f(*args)  # caches warm
            tracemalloc.start()
            try:
                f(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], (functions[0].__name__, peaks)


def kernel_windows(monkeypatch):
    """Record the pieces (step, first, stop) of every odd-output kernel
    call from here on."""
    windows = []
    odd_outputs = transform._odd_outputs

    def counted(M, points, vectors, window, rule):
        windows.append([piece[1:] for piece in window])
        return odd_outputs(M, points, vectors, window, rule)

    monkeypatch.setattr(transform, "_odd_outputs", counted)
    return windows


@pytest.mark.parametrize("rows", [8, 24])
@pytest.mark.parametrize("kind", [("cubic", None), ("exp", 1.0)], ids=["cubic", "exp1"])
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("tag", ["euclidean:3", "sphere2", "so3-quat"])
def test_windows_bitwise_equal_level_loop(tag, rule, kind, rows, monkeypatch):
    """With kernel windows of 8 or 24 outputs, a pyramid of 2^7 samples over
    5 levels and its reconstruction are the level-by-level reference's word
    for word.  The levels' 64 + 32 + 16 + 8 + 4 outputs run in one pass of
    windows, finest first, that, of 24, straddle the levels; every window
    that ends a level wraps around to its first row."""
    M = MANIFOLDS[tag]
    P, V = closed_curve(M, np.random.default_rng(11), 1 << 7, 0.3, 0.1)
    assert not isinstance(M, SO3Quat) or P[-1] @ P[0] >= 0
    cN = ManifoldHermiteSeq(M, P, V, level=7)
    provider = provider_of(kind)
    monkeypatch.setattr(transform, "_WINDOW_ROWS", rows)
    windows = kernel_windows(monkeypatch)
    got = outcome(decompose_manifold, cN, provider, rule, 5)
    if rows == 24:
        assert windows == [
            [(2, 0, 24)], [(2, 24, 48)], [(2, 48, 64), (4, 0, 8)], [(4, 8, 32)],
            [(8, 0, 16), (16, 0, 8)], [(32, 0, 4)],
        ]
    else:
        assert len(windows) == 16 and all(len(w) == 1 for w in windows)
    assert got[0] is not DensityError
    assert got == outcome(reference_transform.decompose, cN, provider, rule, 5)
    pyr = decompose_manifold(cN, provider, rule, 5)
    got = reconstruction(reconstruct_manifold, pyr)
    assert got[0] is not DensityError
    assert got == reconstruction(reference_transform.reconstruct, pyr)


def test_one_kernel_call_per_pass_within_a_window(monkeypatch):
    """Decompose makes one kernel call per _WINDOW_ROWS odd outputs of all
    its levels together, rounded up, and reconstruct the same per level: a
    2^8 pyramid over 4 levels is one decompose call, and over 8 levels at
    2 and 4 times _WINDOW_ROWS samples the levels share windows."""
    rows = transform._WINDOW_ROWS
    windows = kernel_windows(monkeypatch)
    for L, levels, calls in ((1 << 8, 4, 1), (2 * rows, 8, 2), (4 * rows, 8, 4)):
        rng = np.random.default_rng(3)
        cN = ManifoldHermiteSeq(Euclidean(3), rng.normal(size=(L, 3)),
                                rng.normal(size=(L, 3)), level=L.bit_length() - 1)
        outputs = [L >> k for k in range(1, levels + 1)]
        pyr = decompose_manifold(cN, cubic_provider(), "leftpoint", levels)
        assert len(windows) == -(-sum(outputs) // rows) == calls
        windows.clear()
        reconstruct_manifold(pyr)
        assert len(windows) == sum(-(-n // rows) for n in outputs)
        windows.clear()


def named_error(f, *args):
    """The type, level, index and message of the error f raises, or None."""
    try:
        f(*args)
    except GeomwaveError as err:
        where = (getattr(err, "level", None), getattr(err, "index", None))
        return (type(err), *where, str(err))
    return None


@pytest.mark.parametrize("rule", RULES)
def test_errors_in_later_windows_named_as_in_one_window(rule, monkeypatch):
    """With kernel windows of 8 outputs, an error met in a later window is
    named as one window over the whole level names it, and as the reference
    names it: an antipodal sample pair in decompose and in the coarse data
    of reconstruct (DensityError), a moved detail base (BaseMismatchError),
    both at once, where the whole level meets the antipode in its kernel
    before it audits the base of an earlier window, and a NaN u0 (the
    SchemaError naming the faulty detail)."""
    M = Sphere2()
    P, V = closed_curve(M, np.random.default_rng(5), 1 << 8, 0.3, 0.1)
    P[100] = -P[102]  # neighbours at level 7, output 50 of 128
    V[100] = M.project_tangent(P[100], V[100])
    cA = ManifoldHermiteSeq(M, P, V, level=8)
    c = sample_signal(get_preset("sphere2", "wobble"), 8)
    pyr = decompose_manifold(c, cubic_provider(), rule, 3)  # 32 coarse samples
    rng = np.random.default_rng(0)
    both = faulty(faulty(pyr, "base", 0, 2, 0.1, rng), "antipode", 0, 20, 0, rng)
    u0 = pyr.details[1].u0.copy()
    u0[20] = np.nan
    details = (pyr.details[0], dataclasses.replace(pyr.details[1], u0=u0),
               pyr.details[2])
    cases = [
        (decompose_manifold, reference_transform.decompose,
         (cA, cubic_provider(), rule, 3)),
        (reconstruct_manifold, reference_transform.reconstruct,
         (faulty(pyr, "antipode", 0, 20, 0, rng),)),
        (reconstruct_manifold, reference_transform.reconstruct,
         (faulty(pyr, "base", 0, 20, 0.1, rng),)),
        (reconstruct_manifold, reference_transform.reconstruct, (both,)),
        (reconstruct_manifold, None, (dataclasses.replace(pyr, details=details),)),
    ]
    one_window = [named_error(f, *args) for f, _, args in cases]
    monkeypatch.setattr(transform, "_WINDOW_ROWS", 8)
    windowed = [named_error(f, *args) for f, _, args in cases]
    assert windowed == one_window
    assert [e[:3] for e in windowed] == [
        (DensityError, 7, 50), (DensityError, 5, 20), (BaseMismatchError, None, None),
        (DensityError, 5, 20), (SchemaError, None, None),
    ]
    assert "index 20 " in windowed[2][3] and "index 2 " not in windowed[3][3]
    assert windowed[4][3] == "detail at level 6, index 20 is not finite"
    for (_, reference, args), error in zip(cases, windowed):
        if reference is not None:
            assert named_error(reference, *args) == error


def test_round_trip_builds_two_sequences(monkeypatch):
    """A 4-level decompose and reconstruct build one HermiteSequence each:
    the coarse data and the result, none per level."""
    built = []
    init = HermiteSequence.__post_init__

    def counted(self):
        built.append(len(self.points))
        init(self)

    c = sample_signal(get_preset("sphere2", "wobble"), 8)
    monkeypatch.setattr(HermiteSequence, "__post_init__", counted)
    reconstruct_manifold(decompose_manifold(c, cubic_provider(), "midpoint", 4))
    assert built == [16, 256]


def test_unknown_rule_refused_at_entry():
    """An unknown rule is a SchemaError naming it and RULES, at any level
    count, in both directions and in one subdivision step, before any work."""
    c = sample_signal(get_preset("sphere2", "wobble"), 4)
    want = f"unknown base point rule 'bogus': expected one of {RULES}"
    for levels in (0, 2):
        with pytest.raises(SchemaError) as exc:
            decompose_manifold(c, cubic_provider(), "bogus", levels)
        assert str(exc.value) == want
        assert exc.value.exit_code == 2
    with pytest.raises(SchemaError) as exc:
        manifold_subdivide_once(cubic_provider().mask_at(4), c, "bogus")
    assert str(exc.value) == want
    pyr = decompose_manifold(c, cubic_provider(), "midpoint", 2)
    forged = ManifoldPyramid(pyr.coarse, pyr.details, pyr.provider, "bogus")
    with pytest.raises(SchemaError, match="^unknown base point rule 'bogus'"):
        reconstruct_manifold(forged)


def pyramid_arrays(pyr):
    """The coarse arrays, then each level's bases, u0 and u1."""
    arrays = [pyr.coarse.points, pyr.coarse.vectors]
    for d in pyr.details:
        arrays += [d.bases, d.u0, d.u1]
    return arrays


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from(["euclidean:3", "sphere2", "so3-quat"]),
    kind=st.sampled_from([("cubic", None), ("exp", 1.0)]),
    rule=st.sampled_from(RULES),
    log2_length=st.integers(1, 7),
    data=st.data(),
)
def test_public_functions_leave_inputs_unchanged(tag, kind, rule, log2_length, data):
    """decompose_manifold, reconstruct_manifold, manifold_subdivide_once,
    oplus, ominus and Manifold.transport leave every array they are given
    bitwise unchanged, also after the results they own are written into."""
    M = MANIFOLDS[tag]
    L = 1 << log2_length
    levels = data.draw(st.integers(0, log2_length), label="levels")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    P, V = closed_curve(M, rng, L, 0.3, 0.1)
    assume(not isinstance(M, SO3Quat) or P[-1] @ P[0] >= 0)
    Q, U = np.roll(P, 1, axis=0), np.roll(V, 1, axis=0)
    inputs = [P, V, Q, U]
    before = words(inputs)

    def spoil(*results):
        """Write into every result, as a caller that owns it may."""
        for a in results:
            a[...] = np.nan

    cN = ManifoldHermiteSeq(M, P, V, level=log2_length)
    provider = provider_of(kind)
    try:
        pyr = decompose_manifold(cN, provider, rule, levels)
    except DensityError:
        assume(False)
    held = words(pyramid_arrays(pyr))
    c = reconstruct_manifold(pyr)
    assert words(pyramid_arrays(pyr)) == held
    spoil(c.points, c.vectors)
    assert words(pyramid_arrays(pyr)) == held
    spoil(*pyramid_arrays(pyr))
    c = manifold_subdivide_once(provider.mask_at(log2_length), cN, rule)
    spoil(c.points, c.vectors)
    bases, u0, u1 = ominus(M, (Q, U), (P, V))
    differences = words([bases, u0, u1])
    q, u = oplus(M, (P, V), bases, u0, u1)
    assert words([bases, u0, u1]) == differences
    spoil(q, u, u0, u1)  # bases is b's own point, P
    M.transport(P, V, Q)  # may be V itself, so it is not written into
    assert words(inputs) == before
