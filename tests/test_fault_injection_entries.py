"""Every entry of tests/fault_injection.py still fits the source: its old
text occurs exactly once in its file, and each test it lists is a test
function of the file it names.  The script edits the source and runs the
tests in subprocesses; this checks, without either, that no entry has been
outgrown, so that the script cannot fail on a stale entry."""

import ast

import pytest

from fault_injection import FAULTS, ROOT


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_old_text_occurs_once(fault):
    assert (ROOT / "src" / fault.file).read_text().count(fault.old) == 1


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_listed_tests_exist(fault):
    for test in fault.tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, test
