"""Differential tests against ``reference_signals``: the array presets and
reproduction elements against their scalar forms at drawn t and drawn
parameters, and the one array sampler against the per-sample sampler, all
compared with ``==``.  The verify report and the decay reports are the same
with the scalar forms patched in."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_signals
from geomwave import experiments
from geomwave.errors import SchemaError
from geomwave.filterbank import build_bank, vanishing_moment_residual
from geomwave.manifolds import Euclidean, Sphere2
from geomwave.predictors import (
    cubic_provider,
    exponential_provider,
    exponential_space,
    poly_space,
)
from geomwave.signals import SignalSpec, get_preset, sample_signal

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

T = hnp.arrays(
    float,
    st.integers(1, 40),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -2.0, 2.0]),
        st.floats(-8.0, 8.0),
    ),
)


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


def scalar_rows(fn, t):
    return np.array([fn(x) for x in t], dtype=float)


@settings(max_examples=300, deadline=None)
@given(preset=preset_params(), t=T)
def test_array_presets_match_scalar_presets(preset, t):
    tag, name, params = preset
    spec = get_preset(tag, name, **params)
    ref = reference_signals.get_preset(tag, name, **params)
    scalar = [ref.curve(x) for x in t]
    for got, one, rows in zip(spec.curve(t), spec.curve(t[0]), zip(*scalar)):
        rows = np.array(rows, dtype=float)
        assert np.array_equal(got, rows)
        assert one.shape == rows[0].shape and np.array_equal(one, rows[0])


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


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(0, 6), lam=st.floats(-5.0, 5.0), t=T)
def test_array_elements_match_scalar_elements(degree, lam, t):
    spaces = [
        (poly_space(degree), reference_signals.poly_space(degree)),
        (exponential_space(lam), reference_signals.exponential_space(lam)),
    ]
    for space, ref in spaces:
        assert [e[0] for e in space] == [e[0] for e in ref]
        for (_, f, df), (_, rf, rdf) in zip(space, ref):
            for got, want in ((f, rf), (df, rdf)):
                assert got(t).shape == t.shape
                assert np.array_equal(got(t), scalar_rows(want, t))
                assert np.shape(got(t[0])) == () and got(t[0]) == want(t[0])


@settings(max_examples=60, deadline=None)
@given(preset=preset_params(), level=st.integers(-2, 9))
def test_sampler_matches_per_sample_sampler(preset, level):
    """Points and vectors are bitwise the same, signed zeros included."""
    tag, name, params = preset
    spec = get_preset(tag, name, **params)
    ref = reference_signals.get_preset(tag, name, **params)
    if spec.periodic and level < 0:
        with pytest.raises(SchemaError, match="needs level >= 0"):
            sample_signal(spec, level)
        return
    got, want = sample_signal(spec, level), reference_signals.sample_signal(ref, level)
    assert type(got) is type(want) and got.level == want.level
    assert got.points.tobytes() == want.points.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()
    if not spec.periodic:
        assert got.start == want.start


@settings(max_examples=60, deadline=None)
@given(
    lam=st.one_of(st.none(), st.sampled_from([0.5, 1.0, -2.0])),
    level=st.integers(0, 6),
    width=st.integers(6, 20),
)
def test_vanishing_moment_residual_matches_per_sample_sampler(lam, level, width):
    provider = cubic_provider() if lam is None else exponential_provider(lam)
    filters = build_bank(provider).filters_at(level)
    ref = (
        reference_signals.poly_space(3)
        if lam is None
        else reference_signals.exponential_space(lam)
    )
    for (_, f, df), (_, rf, rdf) in zip(provider.reproduction_space(), ref):
        window = (-width, width)
        assert vanishing_moment_residual(
            filters, f, df, level, window
        ) == reference_signals.vanishing_moment_residual(
            filters, rf, rdf, level, window
        )


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


def reference_registry():
    """``experiments.REGISTRY`` with every preset and reproduction element
    replaced by its scalar form."""
    out = []
    for names, check, subject in experiments.REGISTRY:
        if check is experiments.vanishing_moments:
            provider, windows, elements = subject
            space = (
                reference_signals.poly_space(3)
                if provider.kind == "cubic"
                else reference_signals.exponential_space(provider.lam)
            )
            scalar = {e[0]: e for e in space}
            subject = (provider, windows, tuple(scalar[e[0]] for e in elements))
        elif isinstance(subject, tuple) and isinstance(subject[0], SignalSpec):
            spec, rest = subject[0], subject[1:]
            tag, name = spec.manifold.tag, spec.name
            subject = (reference_signals.get_preset(tag, name),) + rest
        out.append((names, check, subject))
    return tuple(out)


def patch_scalar_forms(monkeypatch):
    monkeypatch.setattr(experiments, "REGISTRY", reference_registry())
    monkeypatch.setattr(experiments, "sample_signal", reference_signals.sample_signal)
    monkeypatch.setattr(
        experiments,
        "vanishing_moment_residual",
        reference_signals.vanishing_moment_residual,
    )


@pytest.mark.parametrize("seed", range(4))
def test_verify_checks_unchanged_with_scalar_presets(seed, monkeypatch):
    array = experiments.verify_suite({"seed": seed}).checks
    patch_scalar_forms(monkeypatch)
    scalar = experiments.verify_suite({"seed": seed}).checks
    assert [c.name for c in scalar] == [c.name for c in array]
    assert array == scalar


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
def test_decay_reports_unchanged_with_scalar_presets(
    tag, name, kind, levels, monkeypatch
):
    provider = cubic_provider() if kind == "cubic" else exponential_provider(1.0)
    decay = experiments.decay_experiment
    array = decay(get_preset(tag, name), provider, "midpoint", *levels)
    patch_scalar_forms(monkeypatch)
    ref = reference_signals.get_preset(tag, name)
    assert array == decay(ref, provider, "midpoint", *levels)
