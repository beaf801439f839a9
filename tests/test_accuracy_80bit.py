"""The double-precision kernel against ``reference_80bit``, in absolute
terms, as a function of how close a pair comes to the cut locus; and the
guard that keeps these tests from skipping where they must run."""

import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_80bit
from geomwave.manifolds import SO3Quat, Sphere2
from random_cases import random_point, random_tangents
from reference_80bit import error_in_eps, requires_80bit

MANIFOLDS = {M.tag: M for M in (Sphere2(), SO3Quat())}
EPS = float(np.finfo(float).eps)


def pairs_at(M, rng, n, angle):
    """n pairs (p, q) of points of M at the given angle, built from a unit
    tangent at p projected twice, so that q is on M to rounding."""
    p = random_point(M, rng, (n,))
    e = M.project_tangent(p, random_tangents(M, rng, p, 1.0))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    return p, math.cos(angle) * p + math.sin(angle) * e


@requires_80bit
@settings(max_examples=100, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    log_delta=st.floats(math.log(2e-6), math.log(3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_midpoint_within_rounding_of_80bit_chord(tag, log_delta, seed):
    """On 64 pairs at angle pi - delta, delta from 2e-6 (twice the cut-locus
    margin) to 3, the chord midpoint is within eps (1 + 1/|p + q|) of the
    extended-precision chord of the normalized inputs, |p + q| being
    2 sin(delta/2): the rounding of p + q, magnified by the normalization.
    The largest ratio of error to bound measured over 400,000 pairs at 80
    values of delta was 0.73 on sphere2 and 0.70 on so3-quat.  On 20,000
    sphere2 pairs each, the error was 3.3e-16 at delta = 1, 1.3e-12 at
    1e-4 and 7.6e-11 at 2e-6; exp(p, log(p, q) / 2) read 7.0e-16, 5.0e-12
    and 2.4e-10 there, above this bound at all three.  The comparison
    means something only if the reference's eps is far below a double's,
    so the test does not apply where np.longdouble is a double."""
    M = MANIFOLDS[tag]
    delta = math.exp(log_delta)
    p, q = pairs_at(M, np.random.default_rng(seed), 64, math.pi - delta)
    err = float(np.abs(M.midpoint(p, q) - reference_80bit.midpoint(p, q)).max())
    assert err <= EPS * (1.0 + 1.0 / (2.0 * math.sin(delta / 2.0)))


@requires_80bit
@settings(max_examples=100, deadline=None)
@given(
    tag=st.sampled_from(sorted(MANIFOLDS)),
    log_delta=st.floats(math.log(2e-6), math.log(3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_transport_within_eps_over_delta_squared_of_80bit(tag, log_delta, seed):
    """On 64 pairs (p, q) at angle pi - delta, delta from 2e-6 to 3, and
    tangents v at p with |v| <= 1, ``transport(p, v, q)`` and the transport
    of ``log_transport(q, p, v)`` are within 16 eps (1 + 1/delta^2) of the
    extended-precision rotation, and its log within 16 eps (1 + 1/delta).
    The divisor 1 + <p, q> = 2 sin^2(delta/2) of the closed form carries
    the rounding of <p, q>, and the points' distance from the sphere,
    magnified by 1/delta^2.  The largest error
    measured over 4,800 sets of 64 pairs at 80 values of delta was
    7.9 eps/delta^2 (sphere2) and 7.4 (so3-quat), which is 2e-4 at
    delta = 2e-6, and 8.0 eps/delta for the log.  The angle form of
    transport (ROADMAP item 4) should bring the transport to about
    eps/delta; this bound is the table to improve on."""
    M = MANIFOLDS[tag]
    delta = math.exp(log_delta)
    rng = np.random.default_rng(seed)
    p, q = pairs_at(M, rng, 64, math.pi - delta)
    v = M.project_tangent(p, random_tangents(M, rng, p, 1.0))
    bound = 16.0 * (1.0 + 1.0 / delta**2)
    want = reference_80bit.transport(p, v, q)
    assert error_in_eps(M.transport(p, v, q), want) <= bound
    y, z = M.log_transport(q, p, v)
    assert error_in_eps(z, want) <= bound
    assert error_in_eps(y, reference_80bit.log(q, p)) <= 16.0 * (1.0 + 1.0 / delta)


def test_80bit_tests_run_on_x86_64_linux():
    """The tests against ``reference_80bit`` are the only check of the
    kernel's and the presets' values, so where np.longdouble is known to be
    the 80-bit format they must run, not skip."""
    if not (sys.platform.startswith("linux") and platform.machine() == "x86_64"):
        pytest.skip("np.longdouble's width is not known on this platform")
    assert reference_80bit.WIDE, np.finfo(np.longdouble)
