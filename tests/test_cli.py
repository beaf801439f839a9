"""End-to-end CLI contract: subcommands, file handoff, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import geomwave
from geomwave.cli import main
from geomwave.io import write_samples
from geomwave.manifolds import Sphere2
from geomwave.signals import get_preset, sample_signal
from geomwave.transform import ManifoldHermiteSeq


def run(*argv):
    return main(list(argv))


def load(path):
    return json.loads(Path(path).read_text())


def save(obj, path):
    Path(path).write_text(json.dumps(obj))


def test_sample_decompose_reconstruct_roundtrip(tmp_path):
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    r = str(tmp_path / "r.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "6", "--out", s) == 0
    assert run("decompose", "--in", s, "--levels", "3", "--predictor", "cubic",
               "--rule", "midpoint", "--out", p) == 0
    assert run("reconstruct", "--in", p, "--out", r) == 0
    a = load(s)
    b = load(r)
    pa = np.array([e["p"] for e in a["data"]])
    pb = np.array([e["p"] for e in b["data"]])
    assert np.abs(pa - pb).max() <= 1e-10
    assert b["manifold"] == "sphere2" and b["level"] == 6


def test_exponential_predictor_flag(tmp_path):
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    assert run("sample", "--preset", "quatcurve", "--manifold", "so3-quat",
               "--level", "5", "--out", s) == 0
    assert run("decompose", "--in", s, "--levels", "2", "--predictor", "exp",
               "--lambda", "1.5", "--out", p) == 0
    meta = load(p)["predictor"]
    assert meta == {"kind": "exp", "lambda": 1.5}


def test_decay_writes_csv(tmp_path):
    out = str(tmp_path / "d.csv")
    assert run("decay", "--preset", "wobble", "--manifold", "sphere2",
               "--levels", "3:7", "--out", out) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "level,sup_norm,log2_ratio"
    assert any(l.startswith("fitted_slope,") for l in lines)


def test_decay_bad_levels(tmp_path):
    assert run("decay", "--preset", "wobble", "--manifold", "sphere2",
               "--levels", "wat", "--out", str(tmp_path / "d.csv")) == 2


def test_bad_level_arguments_exit_2(tmp_path, capsys):
    """A negative level, a level count the length does not allow, an empty
    decay range and decay levels too coarse for the preset's interior window
    are schema errors: exit 2 with an ``error:`` line."""
    s = str(tmp_path / "s.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "4", "--out", s) == 0
    cases = [
        (("sample", "--preset", "wobble", "--manifold", "sphere2",
          "--level", "-1"),
         "preset wobble needs level >= 0, got -1"),
        (("decompose", "--in", s, "--levels", "-1"),
         "cannot decompose 16 samples over -1 levels"),
        (("decompose", "--in", s, "--levels", "5"),
         "cannot decompose 16 samples over 5 levels"),
        (("decay", "--preset", "wobble", "--manifold", "sphere2",
          "--levels", "5:3"),
         "decay levels need nmin < nmax, got 5:3"),
        (("decay", "--preset", "exp", "--manifold", "euclidean:1",
          "--levels=-2:1"),
         "no valid interior details at level -2"),
        (("decay", "--preset", "poly2", "--manifold", "euclidean:1",
          "--levels=-3:0"),
         "no valid interior details at level -3"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert run(*argv, "--out", str(tmp_path / "out")) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


def test_exp_lambda_too_large_for_level_exit_2(tmp_path, capsys):
    """An exp predictor whose |lambda| * 2^-level passes the overflow guard at
    the coarsest level is a schema error naming lambda and that level, raised
    before any level runs: decompose, reconstruct and decay exit 2."""
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "10", "--out", s) == 0
    assert run("decompose", "--in", s, "--levels", "8", "--predictor", "exp",
               "--out", p) == 0
    obj = load(p)
    obj["predictor"]["lambda"] = 1000.0
    save(obj, p)
    guard = "exceeds overflow guard 50"
    cases = [
        (("decompose", "--in", s, "--levels", "8", "--predictor", "exp",
          "--lambda", "1000"),
         "exp predictor lambda=1000 at level 2: |lambda| * 2^-level = 250 " + guard),
        (("reconstruct", "--in", p),
         "exp predictor lambda=1000 at level 2: |lambda| * 2^-level = 250 " + guard),
        (("decay", "--preset", "wobble", "--manifold", "sphere2",
          "--predictor", "exp", "--lambda", "1000", "--levels", "3:8"),
         "exp predictor lambda=1000 at level 3: |lambda| * 2^-level = 125 " + guard),
        (("decay", "--preset", "exp", "--manifold", "euclidean:1",
          "--predictor", "exp", "--lambda", "-800", "--levels", "2:6"),
         "exp predictor lambda=-800 at level 2: |lambda| * 2^-level = 200 " + guard),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert run(*argv, "--out", str(tmp_path / "out")) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err


def test_sample_unknown_preset(tmp_path):
    assert run("sample", "--preset", "bogus", "--manifold", "sphere2",
               "--level", "3", "--out", str(tmp_path / "s.json")) == 2


def test_sample_manifold_mismatch(tmp_path):
    assert run("sample", "--preset", "wobble", "--manifold", "so3-quat",
               "--level", "3", "--out", str(tmp_path / "s.json")) == 2


def test_decompose_schema_error_exit_2(tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"schema": "geomwave/1"}')
    assert run("decompose", "--in", bad, "--levels", "1",
               "--out", str(tmp_path / "p.json")) == 2
    assert run("decompose", "--in", str(tmp_path / "none.json"), "--levels", "1",
               "--out", str(tmp_path / "p.json")) == 2


def test_bad_tags_and_files_exit_2(tmp_path, capsys):
    """A manifold tag that does not parse or is not the preset's own, an input
    that is a directory or not UTF-8, and an output that cannot be created
    each end in exit 2 and one ``error:`` line naming the tag or path."""
    s = str(tmp_path / "s.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "4", "--out", s) == 0
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"schema": "geomwave/1\xff"}')
    missing = str(tmp_path / "missing" / "p.json")
    cases = [
        (("sample", "--manifold", "euclidean:5", "--preset", "trigblend",
          "--level", "3", "--out", s), "'euclidean:5'"),
        (("sample", "--manifold", "euclidean:foo", "--preset", "poly2",
          "--level", "3", "--out", s), "'euclidean:foo'"),
        (("decay", "--manifold", "euclidean:7", "--preset", "trigblend",
          "--out", s), "'euclidean:7'"),
        (("decompose", "--in", str(tmp_path), "--levels", "1", "--out", s),
         f"{tmp_path}: "),
        (("reconstruct", "--in", str(binary), "--out", s), f"{binary}: "),
        (("verify", "--config", str(tmp_path), "--out", s), f"{tmp_path}: "),
        (("decompose", "--in", s, "--levels", "1", "--out", missing),
         f"{missing}: "),
    ]
    capsys.readouterr()
    for argv, named in cases:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err
    assert not (tmp_path / "missing").exists()


def test_antipodal_decompose_exit_3(tmp_path, capsys):
    M = Sphere2()
    P = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    c = ManifoldHermiteSeq(M, P, np.zeros_like(P), level=1)
    s = str(tmp_path / "anti.json")
    write_samples(c, s)
    code = run("decompose", "--in", s, "--levels", "1",
               "--out", str(tmp_path / "p.json"))
    assert code == 3
    err = capsys.readouterr().err
    assert "level" in err and "dense" in err


def test_flipped_quaternion_signs_exit_2(tmp_path, capsys):
    """Every odd quatcurve sample negated: the same rotations, refused as
    input (exit 2), not reported as data that is not dense enough (exit 3)."""
    c = sample_signal(get_preset("so3-quat", "quatcurve"), 8)
    sign = np.where(np.arange(len(c)) % 2 == 1, -1.0, 1.0)[:, None]
    s = str(tmp_path / "flipped.json")
    write_samples(
        ManifoldHermiteSeq(c.manifold, sign * c.points, sign * c.vectors, level=8), s
    )
    code = run("decompose", "--in", s, "--levels", "4",
               "--out", str(tmp_path / "p.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "samples 0 and 1" in err and "same rotation" in err


def test_corrupted_pyramid_exit_2(tmp_path):
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    run("sample", "--preset", "wobble", "--manifold", "sphere2",
        "--level", "5", "--out", s)
    run("decompose", "--in", s, "--levels", "2", "--out", p)
    obj = load(p)
    base = np.array(obj["details"][0][1]["base"])
    base[0] += 1e-4
    obj["details"][0][1]["base"] = list(base / np.linalg.norm(base))
    save(obj, p)
    assert run("reconstruct", "--in", p, "--out", str(tmp_path / "r.json")) == 2


def test_verify_cli(tmp_path, capsys):
    out = str(tmp_path / "v.json")
    cfg = str(tmp_path / "cfg.txt")
    with open(cfg, "w") as fh:
        fh.write("probes = 2\ncases = 5\nlevels = 2\n")
    code = run("verify", "--config", cfg, "--out", out)
    report = load(out)
    printed = capsys.readouterr().out
    assert len(report["checks"]) >= 15
    assert ("PASS" in printed) and (code in (0, 4))
    assert code == (0 if report["passed"] else 4)


def test_verify_missing_config(tmp_path):
    assert run("verify", "--config", str(tmp_path / "none.txt"),
               "--out", str(tmp_path / "v.json")) == 2


def test_verify_bad_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("cases = 5\nprobes = 0\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "v.json")) == 2
    assert "config line 2: probes" in capsys.readouterr().err


def test_module_entry_point():
    """``python -m geomwave.cli`` runs the CLI."""
    src = str(Path(geomwave.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "geomwave.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "decompose" in proc.stdout


def test_cli_import_leaves_experiments_and_filterbank_unloaded():
    """``import geomwave.cli`` loads only what sample, decompose and
    reconstruct use; the package names stay reachable on first use."""
    src = str(Path(geomwave.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys, geomwave.cli\n"
        "print(sorted(m for m in ('geomwave.experiments', 'geomwave.filterbank')"
        " if m in sys.modules))\n"
        "import geomwave\n"
        "print(geomwave.verify_suite.__module__, geomwave.build_bank.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "geomwave.experiments geomwave.filterbank"
    ]


def test_bad_lambda_exit_2(tmp_path, capsys):
    """An exp predictor's lambda that is zero or not finite is a schema error
    that names the value, in decompose, decay and a pyramid file; nothing is
    written."""
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "4", "--out", s) == 0
    commands = [
        ("decompose", "--in", s, "--levels", "2"),
        ("decay", "--preset", "wobble", "--manifold", "sphere2", "--levels", "3:5"),
    ]
    capsys.readouterr()
    for lam in ("nan", "inf", "-inf", "0"):
        for argv in commands:
            out = tmp_path / "out"
            code = run(*argv, "--predictor", "exp", f"--lambda={lam}",
                       "--out", str(out))
            assert code == 2, (argv, lam)
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"finite nonzero lambda, got {float(lam)!r}" in err, err
            assert not out.exists()
    assert run("decompose", "--in", s, "--levels", "2", "--predictor", "exp",
               "--out", p) == 0
    obj = load(p)
    obj["predictor"]["lambda"] = float("nan")
    save(obj, p)
    capsys.readouterr()
    assert run("reconstruct", "--in", p, "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert f"{p}.predictor.lambda: " in err and "got nan" in err


def test_boolean_level_fields_exit_2(tmp_path, capsys):
    """A JSON boolean is not an integer level: a samples file with
    ``"level": true`` and a pyramid file with ``"coarse_level": false`` are
    schema errors naming the field."""
    s = str(tmp_path / "s.json")
    p = str(tmp_path / "p.json")
    assert run("sample", "--preset", "wobble", "--manifold", "sphere2",
               "--level", "4", "--out", s) == 0
    assert run("decompose", "--in", s, "--levels", "2", "--out", p) == 0
    for path, key, value, argv in (
        (s, "level", True, ("decompose", "--in", s, "--levels", "2")),
        (p, "coarse_level", False, ("reconstruct", "--in", p)),
    ):
        obj = load(path)
        obj[key] = value
        save(obj, path)
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {path}.{key}: expected an integer\n"
        assert not out.exists()


def test_sample_of_interior_preset_exit_2(tmp_path, capsys):
    """An interior preset has no file format any reader takes: sample exits
    2 with one error line and writes nothing."""
    out = tmp_path / "s.json"
    assert run("sample", "--preset", "poly3", "--manifold", "euclidean:1",
               "--level", "3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {out}: only periodic samples can be written, got an interior window\n"
    )
    assert not out.exists()
