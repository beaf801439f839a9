"""Fault injection: each entry edits one exact text of the library in a copy
of ``src/`` and runs the tests that are expected to catch the fault.

Run it from the root of a source checkout:

    python3 tests/fault_injection.py [NAME ...]

It first runs the union of the entries' tests on an unedited copy of
``src/``; they must pass there, or a catch would mean nothing.  Then, for
each entry (or each one named), it copies ``src/`` to a temporary directory,
replaces the entry's old text in its file by the new text, runs

    python -m pytest -q -x TESTS

from the checkout's root with the copy first on ``PYTHONPATH``, and prints
``caught`` (a test failed), ``missed`` (every test passed) or ``error``
(pytest could not run them: a test id that no longer exists, say).  An old
text that is not in its file exactly once stops the script before any test
runs, so an entry that the source has outgrown fails loudly instead of
testing nothing.  The exit status is 1 if any entry was missed or had an
error.  A missed fault is a finding about the tests; keep its entry.

pytest does not collect this file: its name does not start with ``test_``.
Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
STACK = "tests/test_decompose_stack.py::"


class Fault(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest ids, relative to the checkout's root


FAULTS = [
    Fault(
        "pass-reraises",
        "geomwave/transform.py",
        "        except GeomwaveError:\n            break\n",
        "        except GeomwaveError:\n            raise\n",
        (STACK + "test_kernel_failure_reruns_only_unfinished_levels",
         STACK + "test_errors_in_later_windows_named_as_in_one_window"),
    ),
    Fault(
        "reconstruct-skips-fallback",
        "geomwave/transform.py",
        "            if len(P) <= _WINDOW_ROWS or sum(_pass(add_details, whole)) < len(P):\n"
        "                P2 = V2 = None  # a failed pass's rows go before the one call\n"
        "                add_details(whole)\n",
        "            if len(P) <= _WINDOW_ROWS:\n"
        "                add_details(whole)\n"
        "            else:\n"
        "                _pass(add_details, whole)\n",
        (STACK + "test_reconstruct_failure_in_later_window_reruns_the_level_once",
         STACK + "test_errors_in_later_windows_named_as_in_one_window"),
    ),
    Fault(
        "reconstruct-one-window-level-through-pass",
        "geomwave/transform.py",
        "if len(P) <= _WINDOW_ROWS or sum(_pass(add_details, whole)) < len(P):",
        "if sum(_pass(add_details, whole)) < len(P):",
        (STACK + "test_reconstruct_failure_in_one_window_level_runs_once",),
    ),
    Fault(
        "reconstruct-fallback-keeps-failed-rows",
        "geomwave/transform.py",
        "                P2 = V2 = None  # a failed pass's rows go before the one call\n",
        "",
        (STACK + "test_reconstruct_failure_peak_memory_no_higher_than_level_loop",),
    ),
    Fault(
        "refuse-details-from-level-0",
        "geomwave/transform.py",
        "    for n, d in enumerate(details, level):\n",
        "    for n, d in enumerate(details):\n",
        ("tests/test_transform.py::test_non_finite_detail_named_at_its_level",),
    ),
    Fault(
        "decompose-fallback-coarsest-first",
        "geomwave/transform.py",
        "    details = []\n",
        "    details = []\n"
        "    for n, piece, e in reversed(list(zip(finest_first, whole, starts[1:]))):\n"
        "        if e > done:\n"
        "            try:\n"
        "                run([piece])\n"
        "            except CutLocusError as err:\n"
        "                raise _density_error(err, n) from err\n",
        (STACK + "test_finer_ominus_failure_named_first_in_windows",),
    ),
    Fault(
        "sphere-transport-by-tangent-projection",
        "geomwave/manifolds.py",
        "        return v - _dot(q, v) / (1.0 + c) * (p + q)\n",
        "        return v - _dot(q, v) * q\n",
        ("tests/test_manifolds.py::test_transport_isometry_and_reversal",
         "tests/test_acceptance.py::test_criterion_07_manifold_perfect_reconstruction"),
    ),
]


def run_tests(tests, fault=None) -> subprocess.CompletedProcess:
    """pytest on ``tests`` against a copy of src/, edited by ``fault``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if fault is not None:
            path = src / fault.file
            path.write_text(path.read_text().replace(fault.old, fault.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )


def main(names) -> int:
    faults = [f for f in FAULTS if not names or f.name in names]
    unknown = set(names) - {f.name for f in FAULTS}
    if unknown:
        sys.exit(f"no fault named {', '.join(sorted(unknown))}")
    for f in faults:
        count = (ROOT / "src" / f.file).read_text().count(f.old)
        if count != 1:
            sys.exit(f"{f.name}: its old text occurs {count} times in src/{f.file}, "
                     "not once; update the entry")
    tests = list(dict.fromkeys(t for f in faults for t in f.tests))
    control = run_tests(tests)
    if control.returncode != 0:
        sys.exit("the entries' tests do not pass on the unedited source:\n"
                 + control.stdout + control.stderr)
    bad = 0
    for f in faults:
        result = run_tests(f.tests, f)
        verdict = {0: "missed", 1: "caught"}.get(result.returncode, "error")
        bad += verdict != "caught"
        print(f"{verdict:7} {f.name}", flush=True)
        if verdict == "error":
            print(result.stdout + result.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
