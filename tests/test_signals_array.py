"""The array presets, the reproduction elements and the sampler against
their scalar forms: the same closed forms evaluated one t at a time in
``np.longdouble``, each within a bound of a few double eps.  The verify
report and the decay reports are unchanged, up to the rounding of the
samples, with those forms rounded to double patched in.  Also the sampler's
one call of the curve, and its refusal of wrong shapes and non-finite
samples."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomwave import experiments
from geomwave.errors import SchemaError
from geomwave.filterbank import filters_at, vanishing_moment_residual
from geomwave.manifolds import Euclidean, Sphere2
from geomwave.predictors import (
    cubic_provider,
    exponential_provider,
    exponential_space,
    poly_space,
)
from geomwave.signals import SignalSpec, get_preset, sample_signal
from reference_80bit import DOUBLE_EPS, error_in_eps, requires_80bit

PRESETS = [
    ("sphere2", "greatcircle"),
    ("sphere2", "wobble"),
    ("so3-quat", "quatcurve"),
    ("euclidean:1", "poly2"),
    ("euclidean:1", "poly3"),
    ("euclidean:1", "poly4"),
    ("euclidean:1", "exp"),
    ("euclidean:3", "trigblend"),
]

# each preset's bound, in eps times max(1, |x|) for a sample x (the norm of
# a point or a velocity), and the largest error measured over 300 draws of
# 200 t each (wobble: 200,000 t at each of 25 (a1, a2) in {-1, ..., 1}^2)
BOUNDS = {
    "greatcircle": 4.0,  # 2.1
    "wobble": 64.0,  # 43
    "quatcurve": 12.0,  # 7.1
    "poly2": 4.0,  # 0.6
    "poly3": 4.0,  # 1.0
    "poly4": 4.0,  # 2.1
    "exp": 8.0,  # 4.9: |lam t| up to 10 times the rounding of lam t
    "trigblend": 6.0,  # 3.4
}
# the bound of the reproduction elements on [-2, 2] (measured 4.5)
ELEMENT_BOUND = 8.0


@st.composite
def preset_params(draw):
    """A preset with drawn parameters where it has any."""
    tag, name = draw(st.sampled_from(PRESETS))
    params = {}
    if name == "wobble":
        params = {"a1": draw(st.floats(-1.0, 1.0)), "a2": draw(st.floats(-1.0, 1.0))}
    elif name == "exp":
        params = {"lam": draw(st.floats(-5.0, 5.0))}
    return tag, name, params


def on(a, b):
    """Arrays of 1 to 40 values t in [a, b]."""
    return hnp.arrays(float, st.integers(1, 40), elements=st.floats(a, b))


def scalar_rows(fn, t):
    """``fn`` called on each value of t alone, in extended precision, its
    results stacked: one array, or a tuple of arrays for a curve."""
    rows = [fn(x) for x in np.asarray(t, np.longdouble)]
    if isinstance(rows[0], tuple):
        return tuple(np.array(column) for column in zip(*rows))
    return np.array(rows)


def scalar_curve(curve):
    """The curve evaluated one t at a time in extended precision and
    rounded to double: the scalar form of a preset."""

    def one_by_one(t):
        P, V = scalar_rows(curve, np.atleast_1d(t))
        P, V = P.astype(float), V.astype(float)
        return (P, V) if np.ndim(t) else (P[0], V[0])

    return one_by_one


def scalar_element(g):
    """A reproduction element evaluated one x at a time in extended
    precision and rounded to double."""
    return lambda x: scalar_rows(g, np.atleast_1d(x)).astype(float).reshape(np.shape(x))


@requires_80bit
@settings(max_examples=300, deadline=None)
@given(preset=preset_params(), data=st.data())
def test_array_presets_match_scalar_presets(preset, data):
    """Each preset's points and velocities, at drawn t in its sampling domain
    (an array and one scalar), are within ``BOUNDS`` of the scalar forms.
    The domain matters: at |t| up to 8 the rounding of 2 pi t alone reaches
    hundreds of eps."""
    tag, name, params = preset
    spec = get_preset(tag, name, **params)
    a, b = (0.0, 1.0) if spec.periodic else spec.domain
    t = data.draw(on(a, b))
    bound = BOUNDS[name]
    for got, one, want in zip(spec.curve(t), spec.curve(t[0]), scalar_rows(spec.curve, t)):
        assert error_in_eps(got, want) <= bound
        assert one.shape == (spec.manifold.ambient_dim,)
        assert error_in_eps(one, want[0]) <= bound


@requires_80bit
@settings(max_examples=200, deadline=None)
@given(degree=st.integers(0, 6), lam=st.floats(-5.0, 5.0), x=on(-2.0, 2.0))
def test_array_elements_match_scalar_elements(degree, lam, x):
    """The elements of ``poly_space(degree)`` and ``exponential_space(lam)``
    keep the shape of x, an array or a scalar, and are within
    ``ELEMENT_BOUND`` of their scalar forms."""
    for space in (poly_space(degree), exponential_space(lam)):
        for _, f, df in space:
            for g in (f, df):
                want = scalar_rows(g, x)
                assert g(x).shape == x.shape and np.shape(g(x[0])) == ()
                assert error_in_eps(g(x)[:, None], want[:, None]) <= ELEMENT_BOUND
                assert error_in_eps(g(x[0])[None], want[:1]) <= ELEMENT_BOUND


@requires_80bit
@settings(max_examples=60, deadline=None)
@given(preset=preset_params(), level=st.integers(-2, 9))
def test_sampler_matches_per_sample_sampler(preset, level):
    """``sample_signal``'s points and velocities times 2^-level are within
    ``BOUNDS`` of the scalar form evaluated at each grid t."""
    tag, name, params = preset
    spec = get_preset(tag, name, **params)
    if spec.periodic and level < 0:
        with pytest.raises(SchemaError, match="needs level >= 0"):
            sample_signal(spec, level)
        return
    s = sample_signal(spec, level)
    assert s.level == level and s.periodic == spec.periodic
    h = 2.0**-level
    P, V = scalar_rows(spec.curve, (s.start + np.arange(len(s))) * h)
    assert error_in_eps(s.points, P) <= BOUNDS[name]
    assert error_in_eps(s.vectors, h * V) <= BOUNDS[name]


# the residual's bound, in eps times the largest sample, and the largest
# difference measured over every case this test can draw
RESIDUAL_BOUND = 4.0  # 0.48


@requires_80bit
@settings(max_examples=60, deadline=None)
@given(
    lam=st.one_of(st.none(), st.sampled_from([0.5, 1.0, -2.0])),
    level=st.integers(0, 6),
    width=st.integers(6, 20),
)
def test_vanishing_moment_residual_matches_per_sample_sampler(lam, level, width):
    """The residual of each reproduction element is the residual of its
    scalar form, up to the rounding of the samples: within
    ``RESIDUAL_BOUND`` eps of the largest sample in the window."""
    provider = cubic_provider() if lam is None else exponential_provider(lam)
    filters = filters_at(provider, level)
    window = (-width, width)
    h = 2.0 ** (-level - 1)
    x = np.arange(window[0], window[1] + 1) * h
    for _, f, df in provider.reproduction_space():
        scale = max(1.0, np.max(np.abs(f(x))), h * np.max(np.abs(df(x))))
        got = vanishing_moment_residual(filters, f, df, level, window)
        want = vanishing_moment_residual(
            filters, scalar_element(f), scalar_element(df), level, window
        )
        assert abs(got - want) <= RESIDUAL_BOUND * DOUBLE_EPS * scale


def scalar_registry():
    """``experiments.REGISTRY`` with every preset and reproduction element
    replaced by its scalar form."""
    out = []
    for names, check, subject in experiments.REGISTRY:
        if check is experiments.vanishing_moments:
            provider, windows, elements = subject
            elements = tuple(
                (label, scalar_element(f), scalar_element(df))
                for label, f, df in elements
            )
            subject = (provider, windows, elements)
        elif isinstance(subject, tuple) and isinstance(subject[0], SignalSpec):
            spec = subject[0]
            subject = (replace(spec, curve=scalar_curve(spec.curve)),) + subject[1:]
        out.append((names, check, subject))
    return tuple(out)


# a residual's bound against the scalar forms' residual, times max(1, |r|),
# and the largest measured, seeds 0-3: 1.0e-13 (the proximity numerator
# exponent, 3.84); the reconstruction residuals moved by 7e-17
VERIFY_RTOL = 1e-11


@requires_80bit
@pytest.mark.parametrize("seed", range(4))
def test_verify_checks_unchanged_with_scalar_presets(seed, monkeypatch):
    """The same checks, verdicts, thresholds and notes; the residuals agree
    to ``VERIFY_RTOL``."""
    array = experiments.verify_suite({"seed": seed}).checks
    monkeypatch.setattr(experiments, "REGISTRY", scalar_registry())
    scalar = experiments.verify_suite({"seed": seed}).checks
    assert [c.name for c in scalar] == [c.name for c in array]
    for a, b in zip(array, scalar):
        assert replace(a, residual=None) == replace(b, residual=None)
        assert (a.residual is None) == (b.residual is None)
        if a.residual is not None:
            tol = VERIFY_RTOL * max(1.0, abs(a.residual))
            assert abs(a.residual - b.residual) <= tol, a.name


# bounds against the report of the scalar forms: the detail norms, in eps
# (the samples have norms near 1), and the fitted slope and constant,
# relative; measured 2.0 eps (trigblend) and 6.9e-11 (wobble's slope)
NORM_BOUND = 16.0
FIT_RTOL = 1e-8


@requires_80bit
@pytest.mark.parametrize(
    "tag,name,kind,levels",
    [
        ("sphere2", "wobble", "cubic", (3, 8)),
        ("sphere2", "greatcircle", "exp", (2, 6)),
        ("so3-quat", "quatcurve", "exp", (3, 8)),
        ("euclidean:3", "trigblend", "cubic", (3, 8)),
        ("euclidean:1", "exp", "exp", (0, 6)),
        ("euclidean:1", "poly4", "cubic", (0, 6)),
    ],
)
def test_decay_reports_unchanged_with_scalar_presets(tag, name, kind, levels):
    """The same levels, fit range and annihilation verdict; the norms within
    ``NORM_BOUND`` eps, the slope and the constant within ``FIT_RTOL``."""
    provider = cubic_provider() if kind == "cubic" else exponential_provider(1.0)
    spec = get_preset(tag, name)
    array = experiments.decay_experiment(spec, provider, "midpoint", *levels)
    scalar_spec = replace(spec, curve=scalar_curve(spec.curve))
    scalar = experiments.decay_experiment(scalar_spec, provider, "midpoint", *levels)
    assert array.levels == scalar.levels and array.fit_range == scalar.fit_range
    assert array.exact_annihilation == scalar.exact_annihilation
    diffs = np.abs(np.subtract(array.sup_norms, scalar.sup_norms))
    assert np.max(diffs) <= NORM_BOUND * DOUBLE_EPS
    for a, b in [
        (array.fitted_slope, scalar.fitted_slope),
        (array.constant_estimate, scalar.constant_estimate),
    ]:
        assert (a is None) == (b is None)
        assert a is None or math.isclose(a, b, rel_tol=FIT_RTOL)


@pytest.mark.parametrize("tag,name", PRESETS)
def test_sampler_calls_curve_once(tag, name):
    """One call on the whole grid, for periodic and interior presets."""
    spec = get_preset(tag, name)
    shapes = []

    def counted(t):
        shapes.append(np.shape(t))
        return spec.curve(t)

    got = sample_signal(replace(spec, curve=counted), 5)
    want = sample_signal(spec, 5)
    assert shapes == [(len(want) + spec.periodic,)]
    assert got.points.tobytes() == want.points.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize(
    "periodic,message",
    [
        (True, "f maps t of shape (5,) to shape (1, 5), not (5, 1)"),
        (False, "f maps t of shape (9,) to shape (1, 9), not (9, 1)"),
    ],
)
def test_sampler_refuses_scalar_style_output(periodic, message):
    """A lambda written for one scalar t maps an (L,) array to (1, L): it is
    refused, naming the preset and the shape, instead of sampling one point
    of dimension L.  A periodic grid runs to t = 1 for the closing check."""
    spec = SignalSpec(
        "scalar-style", Euclidean(1),
        lambda t: (np.array([t]), np.array([1.0 + 0.0 * t])),
        domain=(0.0, 2.0), periodic=periodic,
    )
    with pytest.raises(SchemaError, match=re.escape(f"preset scalar-style: {message}")):
        sample_signal(spec, 2)
    flat_df = SignalSpec(
        "flat-df", Sphere2(),
        lambda t: (
            np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1), np.zeros(len(t))
        ),
    )
    message = "preset flat-df: df maps t of shape (9,) to shape (9,), not (9, 3)"
    with pytest.raises(SchemaError, match=re.escape(message)):
        sample_signal(flat_df, 3)


def decay(spec):
    return experiments.decay_experiment(spec, cubic_provider(), "midpoint", 0, 6)


@pytest.mark.parametrize(
    "name,params,run,message",
    [
        ("wobble", {"a1": math.nan}, lambda s: sample_signal(s, 3),
         "level 3: sample 0 is not finite"),
        ("exp", {"lam": math.nan}, decay, "level 6: sample -128 is not finite"),
        ("exp", {"lam": 400.0}, decay, "level 6: sample 113 is not finite"),
    ],
    ids=["nan-wobble", "nan-exp-decay", "overflowing-exp-decay"],
)
def test_sampler_refuses_non_finite_samples(name, params, run, message):
    """A sample that is not finite (a NaN parameter, an exponential past
    float range) is refused, naming the preset, the level and the first
    such sample, before the closing check, which a NaN gap passes, and
    without numpy's overflow warning."""
    tag = "sphere2" if name == "wobble" else "euclidean:1"
    with pytest.raises(SchemaError, match=re.escape(f"preset {name}: {message}")):
        run(get_preset(tag, name, **params))
