"""Signal presets, sampling, file formats, config parsing, decay reports."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from geomwave.errors import CutLocusError, SchemaError
from geomwave.experiments import (
    decay_experiment,
    default_config,
    parse_config,
    verify_suite,
)
from geomwave.io import (
    read_pyramid,
    read_samples,
    write_decay_csv,
    write_pyramid,
    write_report,
    write_samples,
)
from geomwave.manifolds import Euclidean, Sphere2
from geomwave.predictors import cubic_provider, exponential_provider
from geomwave.signals import SignalSpec, get_preset, preset_names, sample_signal
from geomwave.transform import (
    ManifoldHermiteSeq,
    ManifoldPyramid,
    TangentPairSeq,
    decompose_manifold,
    reconstruct_manifold,
)

ALL_PRESETS = [
    ("sphere2", "greatcircle"),
    ("sphere2", "wobble"),
    ("so3-quat", "quatcurve"),
    ("euclidean:1", "poly2"),
    ("euclidean:1", "poly3"),
    ("euclidean:1", "poly4"),
    ("euclidean:1", "exp"),
    ("euclidean:3", "trigblend"),
]


def load(path):
    return json.loads(Path(path).read_text())


def save(obj, path):
    Path(path).write_text(json.dumps(obj))


@pytest.mark.parametrize("tag,name", ALL_PRESETS)
def test_preset_derivatives_match_central_differences(tag, name):
    spec = get_preset(tag, name)
    (a, b), h = spec.domain, 1e-6
    for t in (a + (b - a) * (i + 0.5) / 9 for i in range(9)):
        fd = (spec.curve(t + h)[0] - spec.curve(t - h)[0]) / (2 * h)
        assert np.abs(fd - spec.curve(t)[1]).max() <= 1e-8, (name, t)


@pytest.mark.parametrize("tag,name", [p for p in ALL_PRESETS if ":" not in p[0]])
def test_manifold_presets_stay_on_manifold(tag, name):
    spec = get_preset(tag, name)
    for t in np.linspace(0.0, 1.0, 17):
        p, v = spec.curve(float(t))
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12
        assert abs(float(np.dot(p, v))) <= 1e-12, (name, t)


def test_sampling_definition_interior():
    spec = SignalSpec(
        "linear", Euclidean(1),
        lambda t: (t[:, None], np.ones((len(t), 1))),
        domain=(0.0, 2.0), periodic=False,
    )
    s = sample_signal(spec, 1)
    assert not s.periodic
    assert np.allclose(s.points[:, 0], np.arange(len(s)) / 2.0)
    assert np.allclose(s.vectors[:, 0], 0.5)


def test_sampling_periodic_closure_enforced():
    bad = SignalSpec("open", Euclidean(1), lambda t: (t[:, None], np.ones((len(t), 1))))
    with pytest.raises(ValueError):
        sample_signal(bad, 3)


def test_sampled_polynomial_has_zero_details():
    spec = get_preset("euclidean:1", "poly3")
    rep = decay_experiment(spec, cubic_provider(), nmin=2, nmax=6)
    assert rep.exact_annihilation
    assert max(rep.sup_norms) <= 1e-12
    assert rep.fitted_slope is None


def test_unknown_preset_rejected():
    with pytest.raises(SchemaError):
        get_preset("sphere2", "nonexistent")
    assert "wobble" in preset_names()


def test_decay_report_fields():
    rep = decay_experiment(get_preset("sphere2", "wobble"), cubic_provider(), nmin=3, nmax=7)
    assert rep.levels == (3, 4, 5, 6)
    assert len(rep.sup_norms) == 4 and len(rep.log2_ratios) == 3
    assert rep.fitted_slope is not None and rep.constant_estimate > 0
    for a, b, lr in zip(rep.sup_norms, rep.sup_norms[1:], rep.log2_ratios):
        assert 2.0**lr == pytest.approx(b / a)
    # determinism
    rep2 = decay_experiment(get_preset("sphere2", "wobble"), cubic_provider(), nmin=3, nmax=7)
    assert rep.sup_norms == rep2.sup_norms and rep.fitted_slope == rep2.fitted_slope


def test_samples_roundtrip_bitwise(tmp_path):
    cN = sample_signal(get_preset("sphere2", "wobble"), 4)
    path = str(tmp_path / "s.json")
    write_samples(cN, path)
    back = read_samples(path)
    assert np.array_equal(back.points, cN.points)
    assert np.array_equal(back.vectors, cN.vectors)
    assert back.level == cN.level and back.manifold.tag == "sphere2"


def test_pyramid_roundtrip_bitwise(tmp_path):
    cN = sample_signal(get_preset("so3-quat", "quatcurve"), 5)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 2)
    path = str(tmp_path / "p.json")
    write_pyramid(pyr, path)
    back = read_pyramid(path)
    assert np.array_equal(back.coarse.points, pyr.coarse.points)
    assert back.rule == "midpoint" and back.provider.kind == "cubic"
    for a, b in zip(back.details, pyr.details):
        assert np.array_equal(a.bases, b.bases)
        assert np.array_equal(a.u0, b.u0)
        assert np.array_equal(a.u1, b.u1)
    rec = reconstruct_manifold(back)
    assert np.abs(rec.points - cN.points).max() <= 1e-10


def test_schema_errors_are_path_addressed(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"schema": "geomwave/1", "manifold": "sphere2", "level": 2,
                   "boundary": "periodic",
                   "data": [{"p": [1.0, 0.0, 0.0]}]}, fh)
    with pytest.raises(SchemaError) as exc:
        read_samples(path)
    assert "data[0]" in str(exc.value) and "v" in str(exc.value)

    with open(path, "w") as fh:
        json.dump({"schema": "geomwave/2"}, fh)
    with pytest.raises(SchemaError) as exc:
        read_samples(path)
    assert "schema" in str(exc.value)

    with open(path, "w") as fh:
        fh.write("{ not json")
    with pytest.raises(SchemaError):
        read_samples(path)
    with pytest.raises(SchemaError):
        read_samples(str(tmp_path / "missing.json"))


def test_non_unit_point_rejected_with_index(tmp_path):
    cN = sample_signal(get_preset("sphere2", "greatcircle"), 3)
    path = str(tmp_path / "s.json")
    write_samples(cN, path)
    obj = load(path)
    obj["data"][5]["p"] = [0.9, 0.0, 0.0]
    save(obj, path)
    with pytest.raises(SchemaError) as exc:
        read_samples(path)
    assert "data[5]" in str(exc.value)


def test_pyramid_metadata_validation(tmp_path):
    cN = sample_signal(get_preset("sphere2", "wobble"), 4)
    pyr = decompose_manifold(cN, cubic_provider(), "midpoint", 1)
    path = str(tmp_path / "p.json")
    write_pyramid(pyr, path)
    obj = load(path)
    obj["predictor"] = {"kind": "quintic"}
    save(obj, path)
    with pytest.raises(SchemaError) as exc:
        read_pyramid(path)
    assert "predictor" in str(exc.value)
    write_pyramid(pyr, path)
    obj = load(path)
    obj["rule"] = "endpoint"
    save(obj, path)
    with pytest.raises(SchemaError):
        read_pyramid(path)
    # an exp predictor whose lambda is not finite or is zero
    for lam, message in [
        (math.nan, "got nan"), (math.inf, "got inf"), (0.0, "got 0.0"),
        (-(10**400), "integer too large for a float"),
    ]:
        obj = load(path)
        obj["rule"] = "midpoint"
        obj["predictor"] = {"kind": "exp", "lambda": lam}
        save(obj, path)
        with pytest.raises(SchemaError) as exc:
            read_pyramid(path)
        assert str(exc.value).startswith(f"{path}.predictor.lambda: ")
        assert message in str(exc.value)


def test_decay_csv_format(tmp_path):
    rep = decay_experiment(get_preset("sphere2", "wobble"), cubic_provider(), nmin=3, nmax=6)
    path = str(tmp_path / "d.csv")
    write_decay_csv(rep, path)
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == "level,sup_norm,log2_ratio"
    assert len(lines) == 1 + 3 + 3
    assert lines[-3] == f"constant_estimate,{rep.constant_estimate!r},"
    assert lines[-2].startswith("fitted_slope,")
    assert lines[-1].startswith("fit_range,")
    # numeric payload round-trips through repr
    level, sup, _ = lines[1].split(",")
    assert float(sup) == rep.sup_norms[0]
    # an annihilated signal leaves the three footers blank
    rep = decay_experiment(get_preset("euclidean:1", "poly3"), cubic_provider(), nmin=3, nmax=6)
    write_decay_csv(rep, path)
    lines = Path(path).read_text().strip().splitlines()
    assert lines[-3:] == [
        "constant_estimate,,", "fitted_slope,exact annihilation,", "fit_range,,"
    ]


def test_report_json(tmp_path):
    rep = verify_suite({"probes": 2, "cases": 5})
    path = str(tmp_path / "r.json")
    write_report(rep, path)
    obj = load(path)
    assert obj["schema"] == "geomwave/1"
    assert isinstance(obj["passed"], bool)
    assert len(obj["checks"]) == len(rep.checks)


def test_parse_config():
    cfg = parse_config(
        """
        # comment
        [tuning]
        probes = 7
        cases = 11   # trailing comment
        perturb_mask = 1e-3
        sparse_sphere = true
        """
    )
    assert cfg["probes"] == 7 and cfg["cases"] == 11
    assert cfg["perturb_mask"] == pytest.approx(1e-3)
    assert cfg["sparse_sphere"] is True
    assert cfg["seed"] == default_config()["seed"]
    with pytest.raises(SchemaError):
        parse_config("unknown_key = 1")
    with pytest.raises(SchemaError):
        parse_config("probes 7")
    with pytest.raises(SchemaError):
        parse_config("sparse_sphere = maybe")
    # values that do not parse, or check nothing, are refused naming the line
    for bad in ("probes = 1.5", "levels = -1", "seed = -3", "seed = x", "probes = 0",
                "cases = 0", "perturb_mask = -1e-3", "perturb_mask = nan"):
        with pytest.raises(SchemaError, match=f"config line 2: {bad.split()[0]} must"):
            parse_config("cases = 5\n" + bad)


# The checks of a default verify run, in report order, with their thresholds;
# the benchmark's known failures and users' reports refer to these names.
_VERIFY_CHECKS = [
    ("biorthogonality operator form [cubic]", 1e-13),
    ("biorthogonality symbol form [cubic]", 1e-13),
    ("biorthogonality operator form [exp(1.0)]", 1e-13),
    ("biorthogonality symbol form [exp(1.0)]", 1e-13),
    ("linear perfect reconstruction [cubic]", 1e-12),
    ("linear perfect reconstruction [exp(1.0)]", 1e-12),
    ("vanishing moments cubic (degree <= 3)", 1e-12),
    ("vanishing moments exponential", 1e-10),
    ("geometry kernel [sphere2]", 1e-11),
    ("fiber algebra [sphere2]", 1e-11),
    ("geometry kernel [so3-quat]", 1e-11),
    ("fiber algebra [so3-quat]", 1e-11),
    ("geometry kernel [euclidean:3]", 1e-11),
    ("fiber algebra [euclidean:3]", 1e-11),
    ("manifold perfect reconstruction [sphere2]", 1e-10),
    ("manifold perfect reconstruction [so3-quat]", 1e-10),
    ("euclidean reduction (details agree)", 1e-13),
    ("proximity ratio boundedness [sphere2]", 10.0),
    ("proximity numerator exponent [sphere2]", 1.7),
]


def test_verify_check_list_is_pinned():
    rep = verify_suite()
    assert [(c.name, c.threshold) for c in rep.checks] == _VERIFY_CHECKS
    assert rep.passed


def test_verify_suite_fault_injection():
    clean = verify_suite({"probes": 2, "cases": 5})
    names_failing = {c.name for c in clean.checks if not c.passed}
    faulty = verify_suite({"probes": 2, "cases": 5, "perturb_mask": 1e-3})
    broken = {c.name for c in faulty.checks if not c.passed} - names_failing
    assert broken  # biorthogonality checks now fail
    assert all("biorthogonality" in n for n in broken)


def test_verify_suite_density_failure_is_structured():
    rep = verify_suite({"probes": 2, "cases": 5, "sparse_sphere": True})
    entry = [c for c in rep.checks if "sphere2" in c.name and "reconstruction" in c.name]
    assert len(entry) == 1 and not entry[0].passed
    assert "density" in entry[0].note


def test_verify_suite_reports_transport_fault(monkeypatch):
    """S^2 transport scaled by 0.9 is a first-order proximity fault: the
    round trip fails its base audit and the numerator exponent drops to 1.
    Both come back as failed checks, not as an exception."""
    transport = Sphere2.transport
    monkeypatch.setattr(
        Sphere2, "transport", lambda self, p, v, q: 0.9 * transport(self, p, v, q)
    )
    rep = verify_suite({"probes": 2, "cases": 5})
    failed = {c.name: c for c in rep.checks if not c.passed}
    assert not rep.passed
    rt = failed["manifold perfect reconstruction [sphere2]"]
    assert rt.residual is None and "BaseMismatchError" in rt.note
    exponent = failed["proximity numerator exponent [sphere2]"]
    assert exponent.residual < 1.7
    # the boundedness check alone cannot see this fault (growth 2^3 < 10)
    assert "proximity ratio boundedness [sphere2]" not in failed
    assert "manifold perfect reconstruction [so3-quat]" not in failed


def test_verify_suite_reports_flat_log_fault(monkeypatch):
    """A constant offset in the flat log cancels in the details (the masks
    reproduce constants) but not in the round trip, whose base audit raises
    inside the linear pyramid; the check fails instead of the suite."""
    monkeypatch.setattr(Euclidean, "log", lambda self, p, q: q - p + 1e-6)
    rep = verify_suite({"probes": 2, "cases": 5})
    failed = {c.name: c for c in rep.checks if not c.passed}
    for label in ("cubic", "exp(1.0)"):
        rt = failed[f"linear perfect reconstruction [{label}]"]
        assert rt.residual is None and "BaseMismatchError" in rt.note


def test_verify_suite_reports_any_check_that_raises(monkeypatch):
    """A library error in any check, not only in a round trip, fails each of
    that check's results with the error as the note; the report is whole."""

    def log(self, p, q):
        raise CutLocusError("injected")

    monkeypatch.setattr(Sphere2, "log", log)
    rep = verify_suite({"probes": 2, "cases": 5})
    assert [c.name for c in rep.checks] == [name for name, _ in _VERIFY_CHECKS]
    failed = {c.name: c.note for c in rep.checks if not c.passed}
    assert failed == {
        "geometry kernel [sphere2]": "CutLocusError: injected",
        "fiber algebra [sphere2]": "CutLocusError: injected",
        "manifold perfect reconstruction [sphere2]": "DensityError: injected (level 6)",
        "proximity ratio boundedness [sphere2]": "CutLocusError: injected",
        "proximity numerator exponent [sphere2]": "CutLocusError: injected",
    }


# Interior decay reports at levels 3..8: fitted slope to 3 decimals and C
# estimate to 4 significant digits, or None for an exactly annihilated preset.
_INTERIOR_DECAY = {
    ("poly2", "cubic"): None,
    ("poly2", "exp"): ("-4.000", "2.034e-05"),
    ("poly3", "cubic"): None,
    ("poly3", "exp"): ("-3.992", "7.944e-05"),
    ("poly4", "cubic"): ("-4.000", "6.104e-05"),
    ("poly4", "exp"): ("-3.968", "9.229e-05"),
    ("exp", "cubic"): ("-3.980", "0.0002825"),
    ("exp", "exp"): None,
}


def test_interior_euclidean_decay_pipeline():
    rep = decay_experiment(get_preset("euclidean:1", "exp"), cubic_provider(), nmin=3, nmax=7)
    assert not rep.exact_annihilation
    # smooth non-polynomial signal: details decay strictly
    assert all(b < a for a, b in zip(rep.sup_norms, rep.sup_norms[1:]))
    providers = {"cubic": cubic_provider(), "exp": exponential_provider(1.0)}
    for (preset, kind), pinned in _INTERIOR_DECAY.items():
        rep = decay_experiment(get_preset("euclidean:1", preset), providers[kind])
        assert rep.exact_annihilation == (pinned is None), (preset, kind)
        if pinned is not None:
            fit = (f"{rep.fitted_slope:.3f}", f"{rep.constant_estimate:.4g}")
            assert fit == pinned, (preset, kind)


# Reader errors, pinned message for message.  Each case puts one fault at
# entry 9 and another at entry 5; the reader must name entry 5, and within an
# entry report the first fault in key order, as the per-entry checks do.


def _string(e, pt, vec):
    e[9][vec][0] = "0.5"
    e[5][vec][1] = "0.25"
    return "[5].{vec}[1]: expected a number"


def _bool(e, pt, vec):
    e[9][vec] = e[9][vec][:2]
    e[5][pt][2] = True
    return "[5].{pt}[2]: expected a number"


def _nan(e, pt, vec):
    e[9][pt][1] = float("nan")
    e[5][vec][0] = float("nan")
    return "[5].{vec}[0]: non-finite value"


def _huge_int(e, pt, vec):
    e[9][pt][1] = float("nan")
    e[5][vec][1] = -(10**400)
    return "[5].{vec}[1]: integer too large for a float"


def _short(e, pt, vec):
    e[9][pt][0] = float("nan")
    e[5][vec] = e[5][vec][:2]
    return "[5].{vec}: expected a list of 3 numbers"


def _missing(e, pt, vec):
    e[9][pt] = [2.0 * x for x in e[9][pt]]
    del e[5][vec]
    return "[5]: missing required field '{vec}'"


def _off_sphere(e, pt, vec):
    e[9][pt] = [3.0 * x for x in e[9][pt]]
    e[5][pt] = [2.0 * x for x in e[5][pt]]
    return "[5].{pt}: point is not on sphere2 (|p| = 2)"


def _two_in_one(e, pt, vec):
    e[9][vec][1] = True
    e[5][pt] = [2.0 * x for x in e[5][pt]]
    e[5][vec][2] = float("nan")
    return "[5].{vec}[2]: non-finite value"


def _non_tangent(e, pt, vec):
    for i in (9, 5):
        e[i][vec] = [x + 0.5 * y for x, y in zip(e[i][vec], e[i][pt])]
    return "[5].{vec}: entry has a non-tangent vector (|<p, v>| = 0.5)"


_READER_FAULTS = [
    _string, _bool, _nan, _huge_int, _short, _missing, _off_sphere, _two_in_one,
    _non_tangent,
]

# container -> (where it sits in the file, point key, checked vector key)
_READER_CONTAINERS = {
    "data": (lambda obj: obj["data"], "p", "v"),
    "coarse": (lambda obj: obj["coarse"], "p", "v"),
    "details[1]": (lambda obj: obj["details"][1], "base", "u1"),
}


@pytest.mark.parametrize("fault", _READER_FAULTS, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("container", list(_READER_CONTAINERS))
def test_reader_names_first_bad_entry(tmp_path, container, fault):
    cN = sample_signal(get_preset("sphere2", "wobble"), 6)
    path = str(tmp_path / "f.json")
    if container == "data":
        write_samples(cN, path)
        read = read_samples
    else:
        write_pyramid(decompose_manifold(cN, cubic_provider(), "midpoint", 2), path)
        read = read_pyramid
    with open(path) as fh:
        obj = json.load(fh)
    entries, pt, vec = _READER_CONTAINERS[container]
    tail = fault(entries(obj), pt, vec).format(pt=pt, vec=vec)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(SchemaError) as exc:
        read(path)
    assert str(exc.value) == f"{path}.{container}{tail}"


def test_reader_rejects_wrong_dimension_throughout(tmp_path):
    path = str(tmp_path / "s.json")
    with open(path, "w") as fh:
        json.dump({"schema": "geomwave/1", "manifold": "euclidean:3", "level": 1,
                   "boundary": "periodic",
                   "data": [{"p": [0.0, 1.0], "v": [1.0, 0.0]}] * 4}, fh)
    with pytest.raises(SchemaError) as exc:
        read_samples(path)
    assert str(exc.value) == f"{path}.data[0].p: expected a list of 3 numbers"


# The on-disk format, pinned byte for byte on literal decimal data whose rows
# are samples of S^2 (the writers refuse any other row).

_SAMPLES_TEXT = """\
{
 "schema": "geomwave/1",
 "manifold": "sphere2",
 "level": 1,
 "boundary": "periodic",
 "data": [
  {
   "p": [
    1.0,
    0.0,
    -0.0
   ],
   "v": [
    0.0,
    0.1,
    -2.5e-17
   ]
  },
  {
   "p": [
    0.0,
    0.6,
    0.8
   ],
   "v": [
    1e+20,
    0.3333333333333333,
    -0.25
   ]
  }
 ]
}
"""

_PYRAMID_TEXT = """\
{
 "schema": "geomwave/1",
 "manifold": "sphere2",
 "predictor": {
  "kind": "exp",
  "lambda": 2.5
 },
 "rule": "leftpoint",
 "coarse_level": 1,
 "coarse": [
  {
   "p": [
    1.0,
    0.0,
    -0.0
   ],
   "v": [
    0.0,
    0.1,
    -2.5e-17
   ]
  },
  {
   "p": [
    0.0,
    0.6,
    0.8
   ],
   "v": [
    1e+20,
    0.3333333333333333,
    -0.25
   ]
  }
 ],
 "details": [
  [
   {
    "base": [
     0.6,
     0.0,
     0.8
    ],
    "u0": [
     1.0,
     1e-300,
     -0.75
    ],
    "u1": [
     0.125,
     -3.0,
     -0.09375
    ]
   },
   {
    "base": [
     0.0,
     -1.0,
     0.0
    ],
    "u0": [
     0.2,
     0.0,
     7.0
    ],
    "u1": [
     0.0,
     0.0,
     1.5
    ]
   }
  ]
 ]
}
"""


def test_file_format_is_pinned(tmp_path):
    M = Sphere2()
    P = np.array([[1.0, 0.0, -0.0], [0.0, 0.6, 0.8]])
    V = np.array([[0.0, 0.1, -2.5e-17], [1e20, 1.0 / 3.0, -0.25]])
    coarse = ManifoldHermiteSeq(M, P, V, level=1)
    bases = np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
    u0 = np.array([[1.0, 1e-300, -0.75], [0.2, 0.0, 7.0]])
    u1 = np.array([[0.125, -3.0, -0.09375], [0.0, 0.0, 1.5]])
    detail = TangentPairSeq(bases, u0, u1)
    pyr = ManifoldPyramid(coarse, (detail,), exponential_provider(2.5), "leftpoint")
    samples, pyramid = str(tmp_path / "s.json"), str(tmp_path / "p.json")
    write_samples(coarse, samples)
    write_pyramid(pyr, pyramid)
    with open(samples) as fh:
        assert fh.read() == _SAMPLES_TEXT
    with open(pyramid) as fh:
        assert fh.read() == _PYRAMID_TEXT
