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
EXP_MASK_TESTS = (
    "tests/test_predictors.py::test_exponential_mask_exact_up_to_the_overflow_guard",
    "tests/test_predictors.py::test_exponential_mask_reproduces_its_span",
    "tests/test_acceptance.py::test_criterion_04_vanishing_moments",
)


class Fault(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest ids, relative to the checkout's root


FAULTS = [
    Fault(
        "run-reraises",
        "geomwave/transform.py",
        "        except GeomwaveError as err:\n            error = err\n",
        "        except GeomwaveError as err:\n            raise\n",
        (STACK + "test_kernel_failure_reruns_only_unfinished_levels",
         STACK + "test_reconstruct_failure_in_later_window_resumes_the_level"),
    ),
    Fault(
        "run-skips-started-level",
        "geomwave/transform.py",
        "        if first < size:\n",
        "        if first == 0:\n",
        (STACK + "test_decompose_failure_in_later_window_resumes_the_level",
         STACK + "test_reconstruct_failure_in_later_window_resumes_the_level"),
    ),
    Fault(
        "run-resumes-from-level-start",
        "geomwave/transform.py",
        "                run([(mask, step, first, size)])\n",
        "                run([(mask, step, 0, size)])\n",
        (STACK + "test_decompose_failure_in_later_window_resumes_the_level",
         STACK + "test_reconstruct_failure_in_later_window_resumes_the_level"),
    ),
    Fault(
        "run-reruns-failed-window",
        "geomwave/transform.py",
        "                if [piece[1:] for piece in window] == [(step, first, size)]:\n",
        "                if False:\n",
        (STACK + "test_reconstruct_failure_in_one_window_level_runs_once",
         STACK + "test_reconstruct_failure_in_last_window_runs_once",
         STACK + "test_decompose_failure_in_later_window_resumes_the_level"),
    ),
    Fault(
        "run-unfinished-coarsest-first",
        "geomwave/transform.py",
        "    for n, (mask, step, _, size) in zip(levels, whole):\n"
        "        first, done = max(done, 0), done - size",
        "    ends = [done - sum(p[3] for p in whole[:k]) for k in range(len(whole))]\n"
        "    for n, (mask, step, _, size), done in reversed(list(zip(levels, whole, ends))):\n"
        "        first = max(done, 0)",
        (STACK + "test_finer_ominus_failure_named_first_in_windows",),
    ),
    Fault(
        "density-index-from-resumed-call",
        "geomwave/transform.py",
        "    index = None if index is None else first + index\n",
        "    index = index and first + index\n",
        (STACK + "test_decompose_failure_in_later_window_resumes_the_level",
         STACK + "test_reconstruct_failure_at_resumed_first_row_indexed_from_level"),
    ),
    Fault(
        "refuse-details-from-level-0",
        "geomwave/transform.py",
        "    for n, d in enumerate(details, level):\n",
        "    for n, d in enumerate(details):\n",
        ("tests/test_transform.py::test_non_finite_detail_named_at_its_level",),
    ),
    Fault(
        "decompose-window-rows-from-level-start",
        "geomwave/transform.py",
        "                    out[first:stop] = a[s:e]\n",
        "                    out[: stop - first] = a[s:e]\n",
        (STACK + "test_windows_bitwise_equal_level_loop",),
    ),
    Fault(
        "filters-at-bt-sign",
        "geomwave/filterbank.py",
        "        blocks.append((-1.0) ** (1 - k) * Dinv @ A.block(1 - k).T)\n",
        "        blocks.append((-1.0) ** k * Dinv @ A.block(1 - k).T)\n",
        ("tests/test_filterbank.py::test_derived_filter_structure",
         "tests/test_filterbank.py::test_biorthogonality_both_forms_clean"),
    ),
    Fault(
        "filters-at-next-level-mask",
        "geomwave/filterbank.py",
        "    A = provider.mask_at(level)\n",
        "    A = provider.mask_at(level + 1)\n",
        ("tests/test_filterbank.py::test_exponential_pyramid_uses_absolute_levels",
         "tests/test_filterbank.py::test_bank_builds_only_the_levels_a_pyramid_uses"),
    ),
    Fault(
        "exp-guard-propagates-nan",
        "geomwave/manifolds.py",
        "    if np.fmax.reduce(theta, axis=None, initial=0.0) < _CUT_LOCUS:\n",
        "    if np.maximum.reduce(theta, axis=None, initial=0.0) < _CUT_LOCUS:\n",
        ("tests/test_sphere_kernel_bitwise.py::test_nan_row_hides_no_mask_and_no_error",),
    ),
    Fault(
        "exp-zero-gate-propagates-nan",
        "geomwave/manifolds.py",
        "        if np.fmin.reduce(theta, axis=None, initial=np.inf) != 0.0:\n",
        "        if np.minimum.reduce(theta, axis=None, initial=np.inf) != 0.0:\n",
        ("tests/test_sphere_kernel_bitwise.py::test_nan_row_hides_no_mask_and_no_error",),
    ),
    Fault(
        "cut-locus-bound-past-pi",
        "geomwave/manifolds.py",
        "_CUT_LOCUS = math.pi - _CUT_LOCUS_MARGIN\n",
        "_CUT_LOCUS = math.pi + _CUT_LOCUS_MARGIN\n",
        ("tests/test_manifolds.py::test_cut_locus_raises",
         "tests/test_kernel_oracle.py::test_cut_locus_names_first_index"),
    ),
    Fault(
        "transport-pre-gate-never-fires",
        "geomwave/manifolds.py",
        "    if np.fmin.reduce(c, axis=None, initial=np.inf) < -0.5:\n",
        "    if np.fmin.reduce(c, axis=None, initial=np.inf) < -1.5:\n",
        ("tests/test_kernel_oracle.py::test_cut_locus_names_first_index",
         "tests/test_sphere_kernel_bitwise.py::test_nan_row_hides_no_mask_and_no_error",
         "tests/test_manifolds.py::test_midpoint_refuses_antipodes"),
    ),
    Fault(
        "antipode-guard-angle-off-sphere",
        "geomwave/manifolds.py",
        "        cos = np.fmin(c, c / (_norm(p) * _norm(q)))\n",
        "        cos = c\n",
        ("tests/test_manifolds.py::test_midpoint_refuses_antipodes",),
    ),
    Fault(
        "antipode-guard-angle-directions-only",
        "geomwave/manifolds.py",
        "        cos = np.fmin(c, c / (_norm(p) * _norm(q)))\n",
        "        cos = c / (_norm(p) * _norm(q))\n",
        ("tests/test_manifolds.py::test_transport_refuses_stretched_near_antipodes",),
    ),
    Fault(
        "midpoint-chord-unnormalized",
        "geomwave/manifolds.py",
        "        return s / _norm(s)\n",
        "        return 0.5 * s\n",
        ("tests/test_accuracy_80bit.py::test_midpoint_within_rounding_of_80bit_chord",),
    ),
    Fault(
        "sphere-transport-by-tangent-projection",
        "geomwave/manifolds.py",
        "        return v - _dot(q, v) / (1.0 + c) * (p + q)\n",
        "        return v - _dot(q, v) * q\n",
        ("tests/test_manifolds.py::test_transport_isometry_and_reversal",
         "tests/test_acceptance.py::test_criterion_07_manifold_perfect_reconstruction"),
    ),
    Fault(
        "exp-mask-tau-sign",
        "geomwave/predictors.py",
        "    tau = math.tanh(y / 2.0) / (4.0 * y)\n",
        "    tau = -math.tanh(y / 2.0) / (4.0 * y)\n",
        EXP_MASK_TESTS,
    ),
    Fault(
        "exp-mask-mu-factor",
        "geomwave/predictors.py",
        "    mu = c / (2.0 * (c - _sinh1(y)))\n",
        "    mu = c / (c - _sinh1(y))\n",
        EXP_MASK_TESTS,
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
