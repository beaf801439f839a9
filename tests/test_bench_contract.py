"""The benchmark under ``perfbench/`` calls the library by name; these tests
catch a rename or removal that would break it, in a fraction of the time of
``perfbench/selftest.py``."""

import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,function", load("spans").FUNCTIONS)
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"geomwave.{module}")
    assert callable(getattr(mod, function, None))


def test_flat_pyramid_workload_checks(tmp_path):
    workload = load("workloads").FlatPyramid(1, str(tmp_path))
    for k in (0, 1):
        assert workload.check(k, workload.op(k))


def test_verify_suite_workload_checks(tmp_path):
    workload = load("workloads").VerifySuite(1, str(tmp_path))
    assert workload.check(0, workload.op(0))


def test_manifold_roundtrip_workload_checks(tmp_path):
    workload = load("workloads").ManifoldRoundtrip(1, str(tmp_path))
    assert len(workload.cycle) == 8
    for k in range(len(workload.cycle)):
        assert workload.check(k, workload.op(k))


def test_cli_files_workload_checks(tmp_path):
    workload = load("workloads").CliFiles(1, str(tmp_path))
    workload.in_process = True
    for k in (0, 1):
        assert workload.check(k, workload.op(k))
