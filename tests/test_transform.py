"""Manifold subdivision, fiber algebra, pyramid round trips, proximity."""

import dataclasses
import math
import re

import numpy as np
import pytest

from geomwave import transform
from geomwave.errors import BaseMismatchError, DensityError, SchemaError
from geomwave.experiments import default_config, geometry_and_fiber
from geomwave.filterbank import build_bank, decompose_linear, dual_filter_details
from geomwave.manifolds import Euclidean, SO3Quat, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.sequences import HermiteSequence, interior_sequence, periodic_sequence
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import (
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
    decompose_manifold,
    manifold_subdivide_once,
    ominus,
    oplus,
    proximity_denominator,
    proximity_numerator,
    reconstruct_manifold,
)
from fiber_ratio import ominus_lipschitz_ratio
from random_cases import random_point, random_tangent

CURVED = [Sphere2(), SO3Quat()]


def smooth_sequence(M, rng, length=8, step=0.25, level=0):
    """A dense random sequence built by short geodesic steps."""
    P = [random_point(M, rng)]
    V = []
    for _ in range(length - 1):
        P.append(M.exp(P[-1], random_tangent(M, rng, P[-1], scale=step)))
    # close up softly: points are arbitrary but consecutive gaps stay small
    for p in P:
        V.append(random_tangent(M, rng, p, scale=step))
    return ManifoldHermiteSeq(M, np.array(P), np.array(V), level=level)


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
@pytest.mark.parametrize("rule", ["midpoint", "leftpoint"])
def test_even_interpolation_exact(M, rule, rng):
    c = smooth_sequence(M, rng)
    out = manifold_subdivide_once(cubic_provider().mask_at(0), c, rule)
    assert np.abs(out.points[::2] - c.points).max() <= 1e-15
    assert np.abs(out.vectors[::2] - 0.5 * c.vectors).max() <= 1e-13
    assert out.level == c.level + 1
    assert len(out) == 2 * len(c)


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
def test_constant_data_reproduced(M, rng):
    p = random_point(M, rng)
    c = ManifoldHermiteSeq(M, np.tile(p, (6, 1)), np.zeros((6, M.ambient_dim)))
    out = manifold_subdivide_once(cubic_provider().mask_at(0), c)
    assert np.abs(out.points - p).max() <= 1e-14
    assert np.abs(out.vectors).max() <= 1e-14


def test_non_interpolatory_mask_rejected(rng):
    mask = cubic_provider().mask_at(0).perturbed(0, np.array([[0.1, 0], [0, 0]]))
    c = smooth_sequence(Sphere2(), rng)
    with pytest.raises(ValueError):
        manifold_subdivide_once(mask, c)


def test_shift_commutation_manifold(rng):
    """T(L c) = L^2 (T c): rotating the input by one slot rotates the output
    by two."""
    M = Sphere2()
    c = smooth_sequence(M, rng)
    shifted = ManifoldHermiteSeq(
        M, np.roll(c.points, -1, axis=0), np.roll(c.vectors, -1, axis=0)
    )
    mask = cubic_provider().mask_at(0)
    a = manifold_subdivide_once(mask, shifted)
    b = manifold_subdivide_once(mask, c)
    assert np.abs(a.points - np.roll(b.points, -2, axis=0)).max() <= 1e-13
    assert np.abs(a.vectors - np.roll(b.vectors, -2, axis=0)).max() <= 1e-13


def test_locality(rng):
    """Perturbing one input entry only moves outputs inside the stencil."""
    M = Sphere2()
    c = smooth_sequence(M, rng, length=12)
    mask = cubic_provider().mask_at(0)
    base = manifold_subdivide_once(mask, c)
    k = 5
    P2, V2 = c.points.copy(), c.vectors.copy()
    P2[k] = M.exp(c.points[k], random_tangent(M, rng, c.points[k], scale=1e-3))
    V2[k] = M.transport(c.points[k], c.vectors[k], P2[k])  # tangent at P2[k]
    moved = manifold_subdivide_once(mask, ManifoldHermiteSeq(M, P2, V2))
    diff = np.abs(moved.points - base.points).max(axis=1)
    affected = set(np.nonzero(diff > 1e-12)[0])
    # entry k feeds outputs j with j - 2k in [-1, 1]
    allowed = {(2 * k - 1) % len(base), 2 * k, (2 * k + 1) % len(base)}
    assert affected <= allowed


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
def test_fiber_algebra_identities(M):
    """a (+) (at (-) a) = at, and (a (+) b) (-) a = b for b based at a's
    point, to 1e-11 (the registered check, on 300 cases)."""
    cfg = dict(default_config(), seed=12345, cases=300)
    _, fiber = geometry_and_fiber(M, cfg)
    assert fiber.passed, fiber


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
def test_same_fiber_remark_exact(M, rng):
    """When the correction already lives in the fiber at a's point, the
    round trip is exact to 1e-12 (no transports besides p -> p)."""
    for _ in range(100):
        p = random_point(M, rng)
        a = (p, random_tangent(M, rng, p, scale=0.5))
        u0 = random_tangent(M, rng, p, scale=0.5)
        u1 = random_tangent(M, rng, p, scale=0.5)
        q, v = oplus(M, a, p, u0, u1)
        _, r0, r1 = ominus(M, (q, v), a)
        assert np.abs(r0 - u0).max() <= 1e-12
        assert np.abs(r1 - u1).max() <= 1e-12


def test_oplus_ominus_euclidean(rng):
    M = Euclidean(3)
    p, v, u0, u1 = rng.normal(size=(4, 3))
    q, w = oplus(M, (p, v), p, u0, u1)
    assert np.allclose(q, p + u0) and np.allclose(w, v + u1)
    base, r0, r1 = ominus(M, (q, w), (p, v))
    assert np.allclose(base, p)
    assert np.allclose(r0, u0) and np.allclose(r1, u1)


def test_ominus_trivial_cases():
    M = Sphere2()
    p = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.3, 0.0])
    base, u0, u1 = ominus(M, (p, v), (p, v))
    assert np.abs(u0).max() == 0.0 and np.abs(u1).max() <= 1e-15
    q = np.array([0.0, 1.0, 0.0])
    base, u0, u1 = ominus(M, (q, np.zeros(3)), (p, np.zeros(3)))
    assert np.allclose(u0, [0.0, math.pi / 2, 0.0], atol=1e-15)
    assert np.abs(u1).max() <= 1e-15


@pytest.mark.parametrize("preset,tag", [("wobble", "sphere2"), ("quatcurve", "so3-quat")])
@pytest.mark.parametrize("rule", ["midpoint", "leftpoint"])
def test_manifold_roundtrip(preset, tag, rule):
    cN = sample_signal(get_preset(tag, preset), 6)
    M = cN.manifold
    pyr = decompose_manifold(cN, cubic_provider(), rule, 3)
    rec = reconstruct_manifold(pyr)
    assert max(M.dist(a, b) for a, b in zip(rec.points, cN.points)) <= 1e-10
    assert np.abs(rec.vectors - cN.vectors).max() <= 1e-10
    assert rec.level == cN.level


def test_manifold_roundtrip_exponential_predictor():
    cN = sample_signal(get_preset("sphere2", "wobble"), 6)
    M = cN.manifold
    pyr = decompose_manifold(cN, exponential_provider(1.0), "midpoint", 3)
    rec = reconstruct_manifold(pyr)
    assert max(M.dist(a, b) for a, b in zip(rec.points, cN.points)) <= 1e-10


def test_zero_details_reconstruct_to_iterated_subdivision(rng):
    c0 = sample_signal(get_preset("sphere2", "wobble"), 4)
    mask = cubic_provider().mask_at(4)
    pred = manifold_subdivide_once(mask, c0, "midpoint")
    bases = pred.points[1::2].copy()
    zeros = np.zeros_like(bases)
    pyr = ManifoldPyramid(
        c0,
        (TangentPairSeq(bases, zeros, zeros),),
        cubic_provider(),
        "midpoint",
    )
    rec = reconstruct_manifold(pyr)
    assert np.abs(rec.points - pred.points).max() <= 1e-13
    assert np.abs(rec.vectors - pred.vectors).max() <= 1e-13


def test_interior_window_refused_by_the_pyramid():
    window = interior_sequence(np.zeros((16, 1)), np.ones((16, 1)), start=-3, level=4)
    with pytest.raises(SchemaError, match="got an interior window"):
        decompose_manifold(window, cubic_provider(), "midpoint", 2)
    with pytest.raises(SchemaError, match="got an interior window"):
        decompose_linear(window, build_bank(cubic_provider()), 2)


def _zero_pyramid(c: HermiteSequence, levels: int) -> ManifoldPyramid:
    """A hand-built pyramid over the coarse sequence c, with all-zero details
    of the lengths each level doubles to."""
    details = []
    for k in range(levels):
        zeros = np.zeros((len(c) << k, c.dim))
        details.append(TangentPairSeq(zeros, zeros, zeros))
    return ManifoldPyramid(c, tuple(details), cubic_provider(), "midpoint")


ENTRY_POINTS = {
    "decompose_manifold": lambda c: decompose_manifold(
        c, cubic_provider(), "midpoint", 2
    ),
    "manifold_subdivide_once": lambda c: manifold_subdivide_once(
        cubic_provider().mask_at(c.level), c
    ),
    "reconstruct_manifold": lambda c: reconstruct_manifold(_zero_pyramid(c, 2)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("M", [*CURVED, Euclidean(2)], ids=lambda M: M.tag)
def test_empty_sequence_refused(entry, M):
    """A periodic sequence of no samples is a SchemaError where it enters,
    not a ZeroDivisionError when the kernel takes an index mod 0."""
    empty = np.zeros((0, M.ambient_dim))
    c = ManifoldHermiteSeq(M, empty, empty, level=2)
    with pytest.raises(SchemaError, match="at least one sample, got none"):
        ENTRY_POINTS[entry](c)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_interior_window_refused_at_every_entry(entry):
    """A 6-entry R^2 window at start 3 is refused where it enters, rather
    than subdivided as if row 5 neighboured row 0."""
    rng = np.random.default_rng(7)
    window = interior_sequence(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), 3, 2)
    with pytest.raises(SchemaError, match="got an interior window"):
        ENTRY_POINTS[entry](window)
    if entry == "manifold_subdivide_once":
        with pytest.raises(SchemaError, match="got an interior window"):
            proximity_numerator(cubic_provider().mask_at(2), window)


def test_euclidean_reduction_matches_linear(rng):
    m = 3
    data = periodic_sequence(
        rng.normal(size=(32, m)), rng.normal(size=(32, m)), level=3
    )
    bank = build_bank(cubic_provider())
    ref = dual_filter_details(data, bank, 3)
    lin = decompose_linear(data, bank, 3)
    man = decompose_manifold(data, cubic_provider(), "midpoint", 3)
    for dr, dl, dm in zip(ref, lin.details, man.details):
        for d in (dl, dm):
            assert np.abs(dr.points - d.u0).max() <= 1e-13
            assert np.abs(dr.vectors - d.u1).max() <= 1e-13
    rec = reconstruct_manifold(man)
    assert np.abs(rec.points - data.points).max() <= 1e-13
    assert np.abs(rec.vectors - data.vectors).max() <= 1e-13
    # proximity numerator vanishes identically in flat space
    assert proximity_numerator(cubic_provider().mask_at(0), data) <= 1e-14


def test_density_error_names_level():
    M = Sphere2()
    P = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    c = ManifoldHermiteSeq(M, P, np.zeros_like(P), level=1)
    with pytest.raises(DensityError) as exc:
        decompose_manifold(c, cubic_provider(), "midpoint", 1)
    assert exc.value.exit_code == 3
    assert "level" in str(exc.value)


def _nan_points_on_sphere(P, V):
    P[[9, 5], 1] = np.nan
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _inf_vectors_through_linear(P, V):
    V[[9, 5], 2] = np.inf
    data = periodic_sequence(P, V, level=4)
    return decompose_linear(data, build_bank(cubic_provider()), 2)


def _off_sphere_points(P, V):
    P[[9, 5]] *= 2.0
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _non_tangent_vectors(P, V):
    V[[9, 5]] += 0.5 * P[[9, 5]]
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _step(M, P, V):
    """One manifold subdivision step of the level-4 samples (P, V) on M."""
    c = ManifoldHermiteSeq(M, P, V, level=4)
    return manifold_subdivide_once(cubic_provider().mask_at(4), c)


def _nan_points_through_proximity(P, V):
    P[[9, 5], 1] = np.nan
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return proximity_numerator(cubic_provider().mask_at(4), c)


def _off_sphere_points_subdivided(P, V):
    P[[9, 5]] *= 2.0
    return _step(Sphere2(), P, V)


def _non_tangent_vectors_subdivided(P, V):
    V[[9, 5]] += 0.5 * P[[9, 5]]
    return _step(Sphere2(), P, V)


@pytest.mark.parametrize(
    "decompose,message",
    [
        (_nan_points_on_sphere, "sample 5 is not finite"),
        (_inf_vectors_through_linear, "sample 5 is not finite"),
        (_off_sphere_points, "sample 5 is not on sphere2 (|p| = 2)"),
        (_non_tangent_vectors, "sample 5 has a non-tangent vector (|<p, v>| = 0.5)"),
        (_nan_points_through_proximity, "sample 5 is not finite"),
        (_off_sphere_points_subdivided, "sample 5 is not on sphere2 (|p| = 2)"),
        (_non_tangent_vectors_subdivided,
         "sample 5 has a non-tangent vector (|<p, v>| = 0.5)"),
    ],
    ids=["nan-point-sphere2", "inf-vector-linear", "off-sphere", "non-tangent",
         "nan-point-proximity", "off-sphere-step", "non-tangent-step"],
)
def test_non_finite_sample_rejected(decompose, message):
    """Samples that are not finite, off the manifold or with non-tangent
    vectors are refused where they enter the pyramid, one subdivision step
    or the proximity numerator, naming the first bad sample, instead of
    computing NaN or wrong outputs."""
    c = sample_signal(get_preset("sphere2", "wobble"), 4)
    with pytest.raises(SchemaError) as exc:
        decompose(c.points.copy(), c.vectors.copy())
    assert str(exc.value) == message
    assert exc.value.exit_code == 2


def _mixed_faults(P, V):
    P[9, 1] = np.nan  # not finite, later than the off-sphere sample
    P[5] *= 2.0
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _non_finite_and_off_sphere(P, V):
    P[3] *= 2.0
    P[3, 0] = np.inf  # both: the non-finite message wins
    V[7] += 0.5 * P[7]
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _off_so3_before_sign_flip(P, V):
    P[1::2] *= -1.0  # the sign check alone would name samples 0 and 1
    V[1::2] *= -1.0
    P[6] *= 2.0
    c = ManifoldHermiteSeq(SO3Quat(), P, V, level=4)
    return decompose_manifold(c, cubic_provider(), "midpoint", 2)


def _mixed_faults_subdivided(P, V):
    P[9, 1] = np.nan
    P[5] *= 2.0
    return _step(Sphere2(), P, V)


def _non_finite_and_off_sphere_through_proximity(P, V):
    P[3] *= 2.0
    P[3, 0] = np.inf
    V[7] += 0.5 * P[7]
    c = ManifoldHermiteSeq(Sphere2(), P, V, level=4)
    return proximity_numerator(cubic_provider().mask_at(4), c)


def _off_so3_among_sign_flips_subdivided(P, V):
    P[1::2] *= -1.0  # valid for one subdivision step on S^3
    V[1::2] *= -1.0
    P[6] *= 2.0
    return _step(SO3Quat(), P, V)


@pytest.mark.parametrize(
    "tag,preset,decompose,message",
    [
        ("sphere2", "wobble", _mixed_faults, "sample 5 is not on sphere2 (|p| = 2)"),
        ("sphere2", "wobble", _non_finite_and_off_sphere, "sample 3 is not finite"),
        ("so3-quat", "quatcurve", _off_so3_before_sign_flip,
         "sample 6 is not on so3-quat (|p| = 2)"),
        ("sphere2", "wobble", _mixed_faults_subdivided,
         "sample 5 is not on sphere2 (|p| = 2)"),
        ("sphere2", "wobble", _non_finite_and_off_sphere_through_proximity,
         "sample 3 is not finite"),
        ("so3-quat", "quatcurve", _off_so3_among_sign_flips_subdivided,
         "sample 6 is not on so3-quat (|p| = 2)"),
    ],
    ids=["first-sample-named", "non-finite-first", "off-M-before-sign",
         "first-sample-named-step", "non-finite-first-proximity",
         "off-M-among-sign-flips-step"],
)
def test_sample_faults_named_in_order(tag, preset, decompose, message):
    """Among several faulty samples the first is named; a sample both
    non-finite and off M is named as not finite; a sample off M is named
    before a quaternion sign flip, which one subdivision step accepts.  The
    same holds for the pyramid, one subdivision step and the proximity
    numerator."""
    c = sample_signal(get_preset(tag, preset), 4)
    with pytest.raises(SchemaError) as exc:
        decompose(c.points.copy(), c.vectors.copy())
    assert str(exc.value) == message


def test_zero_level_reconstruction_is_a_copy():
    """A 0-level pyramid reconstructs to new arrays: writing into the result
    leaves the pyramid, and so the decomposed samples, unchanged."""
    c = sample_signal(get_preset("sphere2", "wobble"), 4)
    pyr = decompose_manifold(c, cubic_provider(), "midpoint", 0)
    before = pyr.coarse.points.copy(), pyr.coarse.vectors.copy()
    out = reconstruct_manifold(pyr)
    assert np.array_equal(out.points, before[0])
    assert np.array_equal(out.vectors, before[1])
    out.points[:] = 0.0
    out.vectors[:] = 0.0
    assert np.array_equal(pyr.coarse.points, before[0])
    assert np.array_equal(pyr.coarse.vectors, before[1])


def test_flipped_quaternion_signs_rejected():
    """Negating every odd quaternion sample gives the same rotations, but not
    a lift the pyramid can use: it is refused where it enters, naming the
    first cyclically consecutive pair, and not reported as a density error
    later.  A loop whose lift closes at -q_0 is refused the same way."""
    c = sample_signal(get_preset("so3-quat", "quatcurve"), 8)
    rec = reconstruct_manifold(decompose_manifold(c, cubic_provider(), "midpoint", 4))
    assert np.abs(rec.points - c.points).max() <= 1e-10
    assert np.abs(rec.vectors - c.vectors).max() <= 1e-10
    sign = np.where(np.arange(len(c)) % 2 == 1, -1.0, 1.0)[:, None]
    flipped = ManifoldHermiteSeq(
        c.manifold, sign * c.points, sign * c.vectors, level=c.level
    )
    with pytest.raises(SchemaError, match="same rotation") as exc:
        decompose_manifold(flipped, cubic_provider(), "midpoint", 4)
    assert str(exc.value).startswith("samples 0 and 1 have quaternion inner product")
    assert exc.value.exit_code == 2
    # a full turn about one axis: every step is short, the closing one is not
    t = np.arange(16) / 16
    P = np.stack([np.cos(np.pi * t), np.sin(np.pi * t), 0 * t, 0 * t], axis=1)
    turn = ManifoldHermiteSeq(SO3Quat(), P, np.zeros_like(P), level=4)
    with pytest.raises(SchemaError, match="^samples 15 and 0 have"):
        decompose_manifold(turn, cubic_provider(), "midpoint", 1)


def test_base_audit_aborts_on_corruption():
    cN = sample_signal(get_preset("sphere2", "wobble"), 5)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    M = cN.manifold
    d0 = pyr.details[0]
    bad_base = d0.bases.copy()
    bad_base[1] = M.exp(bad_base[1], np.array([0.0, 0.0, 1e-4]))
    bad_base[1] /= np.linalg.norm(bad_base[1])
    corrupted = ManifoldPyramid(
        pyr.coarse,
        (TangentPairSeq(bad_base, d0.u0, d0.u1),) + pyr.details[1:],
        pyr.provider,
        pyr.rule,
    )
    with pytest.raises(BaseMismatchError):
        reconstruct_manifold(corrupted)
    # wrong rule also trips the audit
    with pytest.raises(BaseMismatchError):
        reconstruct_manifold(dataclasses.replace(pyr, rule="leftpoint"))


@pytest.mark.parametrize("rule", ["midpoint", "leftpoint"])
def test_density_error_names_level_and_index(rule):
    """Coarse points 3 and 4 are antipodal; every other gap is short."""
    M = Sphere2()
    angles = np.array([0.0, 0.5, 1.0, 1.5, 1.5 + math.pi, 2.0 + math.pi,
                       2.5 + math.pi, 3.0 + math.pi])
    fine = np.repeat(angles, 2)
    fine[1::2] += 0.1  # odd samples: anywhere nearby
    P = np.stack([np.cos(fine), np.sin(fine), np.zeros_like(fine)], axis=1)
    c = ManifoldHermiteSeq(M, P, np.zeros_like(P), level=4)
    with pytest.raises(DensityError) as exc:
        decompose_manifold(c, cubic_provider(), rule, 1)
    assert (exc.value.level, exc.value.index) == (3, 3)
    assert "(level 3, index 3)" in str(exc.value)


def test_base_mismatch_names_first_index():
    cN = sample_signal(get_preset("sphere2", "wobble"), 5)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    M = cN.manifold
    d0 = pyr.details[0]
    bases = d0.bases.copy()
    for i in (5, 3):
        bases[i] = M.exp(bases[i], M.project_tangent(bases[i], [0.0, 0.0, 1e-4]))
    corrupted = ManifoldPyramid(
        pyr.coarse,
        (TangentPairSeq(bases, d0.u0, d0.u1),) + pyr.details[1:],
        pyr.provider,
        pyr.rule,
    )
    with pytest.raises(BaseMismatchError) as exc:
        reconstruct_manifold(corrupted)
    assert f"level {pyr.coarse.level}, index 3 " in str(exc.value)


@pytest.mark.parametrize("where, index", [("coarse points", 0), ("detail base 3", 3)])
def test_base_audit_refuses_nan(where, index):
    """A NaN drift fails the base audit: NaN coarse points predict NaN odd
    points, and a NaN stored base is NaN away from its prediction.  Either
    is a BaseMismatchError naming the coarsest level, not a reconstruction
    to NaN."""
    cN = sample_signal(get_preset("sphere2", "wobble"), 4)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    points, d0 = pyr.coarse.points.copy(), pyr.details[0]
    bases = d0.bases.copy()
    if where == "coarse points":
        points[:] = np.nan
    else:
        bases[index] = np.nan
    corrupted = dataclasses.replace(
        pyr,
        coarse=ManifoldHermiteSeq(cN.manifold, points, pyr.coarse.vectors, 2),
        details=(dataclasses.replace(d0, bases=bases),) + pyr.details[1:],
    )
    with pytest.raises(BaseMismatchError) as exc:
        reconstruct_manifold(corrupted)
    assert str(exc.value).startswith(f"detail base at level 2, index {index} is nan ")


@pytest.mark.parametrize("slot", ["u0", "u1"])
@pytest.mark.parametrize("k, level", [(1, 3), (0, 2)], ids=["finest", "coarser"])
def test_non_finite_detail_named_at_its_level(k, level, slot):
    """A NaN in u0 or u1 of entry 3 of a detail is a SchemaError naming that
    detail's level and index: at the finest level, not a reconstruction to
    NaN; at a coarser level, not a base mismatch one level finer."""
    cN = sample_signal(get_preset("sphere2", "wobble"), 4)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    d = pyr.details[k]
    u = getattr(d, slot).copy()
    u[3] = np.nan
    details = list(pyr.details)
    details[k] = dataclasses.replace(d, **{slot: u})
    with pytest.raises(SchemaError) as exc:
        reconstruct_manifold(dataclasses.replace(pyr, details=tuple(details)))
    assert type(exc.value) is SchemaError
    assert str(exc.value) == f"detail at level {level}, index 3 is not finite"


def test_detail_of_wrong_width_or_level_refused(monkeypatch):
    """A sphere2 detail whose bases have width 4, and the level-5 detail put
    where level 4 is rebuilt, are ValueErrors naming level 4, raised before
    any kernel call."""
    cN = sample_signal(get_preset("sphere2", "wobble"), 6)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    d0 = pyr.details[0]
    wide = dataclasses.replace(d0, bases=np.hstack([d0.bases, d0.bases[:, :1]]))
    late = pyr.details[1]
    monkeypatch.setattr(transform, "_odd_outputs", None)  # any call fails
    for d, message in (
        (wide, "detail bases shape (16, 4) != coarse shape (16, 3) at level 4"),
        (late, "detail length 32 != coarse length 16 at level 4"),
    ):
        bad = dataclasses.replace(pyr, details=(d,) + pyr.details[1:])
        with pytest.raises(ValueError, match=re.escape(message)):
            reconstruct_manifold(bad)


def test_proximity_ratio_and_errors(rng):
    mask = cubic_provider().mask_at(0)
    c = sample_signal(get_preset("sphere2", "wobble"), 5)
    r = proximity_numerator(mask, c) / proximity_denominator(c)
    assert r >= 0.0 and math.isfinite(r)
    M = Sphere2()
    p = random_point(M, rng)
    const = ManifoldHermiteSeq(M, np.tile(p, (4, 1)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        proximity_denominator(const)


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
def test_ominus_lipschitz_near_one(M, rng):
    """For configurations entirely at perturbation scale eps <= 1e-3 (distance
    and both derivative slots, as arise between fine-scale data and its
    prediction), the fiber difference linearizes to the flat difference."""
    for _ in range(100):
        eps = float(rng.uniform(1e-5, 1e-3))
        p = random_point(M, rng)
        b = (p, random_tangent(M, rng, p, scale=eps * float(rng.uniform(0.1, 1.0))))
        q = M.exp(p, random_tangent(M, rng, p, scale=eps * float(rng.uniform(0.1, 1.0))))
        u = random_tangent(M, rng, q, scale=eps * float(rng.uniform(0.1, 1.0)))
        r = ominus_lipschitz_ratio(M, (q, u), b)
        assert 0.9 <= r <= 1.1


@pytest.mark.parametrize("M", CURVED, ids=lambda M: M.tag)
def test_ominus_lipschitz_converges_to_one(M, rng):
    p = random_point(M, rng)
    dirs = [random_tangent(M, rng, p, scale=1.0) for _ in range(3)]
    prev_dev = None
    for k in range(3, 9):
        eps = 2.0**-k
        b = (p, eps * dirs[0])
        q = M.exp(p, eps * dirs[1])
        u = M.transport(p, eps * dirs[2], q)
        dev = abs(ominus_lipschitz_ratio(M, (q, u), b) - 1.0)
        if prev_dev is not None:
            assert dev <= prev_dev + 1e-6
        prev_dev = dev
    assert prev_dev <= 1e-3


def test_ominus_lipschitz_euclidean_exactly_one(rng):
    M = Euclidean(3)
    a = (rng.normal(size=3), rng.normal(size=3))
    b = (a[0] + 1e-4 * rng.normal(size=3), a[1] + 1e-4 * rng.normal(size=3))
    assert ominus_lipschitz_ratio(M, b, a) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ominus_lipschitz_ratio(M, a, a)

