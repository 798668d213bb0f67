"""Acceptance suite: every criterion at its pinned tolerance.

Runs the same criteria as `eta-lab verify` (golden comparison against the
packaged golden file) and asserts each one, printing the measured detail
line. Criterion 6 is a known red, kept at its stated tolerance: the pair
sign-pattern proportions approach the product formula only logarithmically
and sit 7-18 percent away at x = 10^5; the exact counts behind it are
golden-pinned instead (see notes in eta_lab.verify).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eta_lab
from eta_lab.verify import run_criteria


@pytest.fixture(scope="module")
def results():
    out = {r.cid: r for r in run_criteria()}
    print()
    for r in sorted(out.values(), key=lambda r: r.cid):
        print(f"[{r.status.upper():4s}] {r.cid:>2} {r.name}: {r.detail}")
    return out


def _assert_pass(r):
    assert r.status == "pass", f"criterion {r.cid} ({r.name}): {r.detail}"


def test_criterion_01_constants_enclose_reference_decimals(results):
    _assert_pass(results[1])


def test_criterion_02_oracle_equivalence(results):
    _assert_pass(results[2])


def test_criterion_03_structure_properties(results):
    _assert_pass(results[3])


def test_criterion_04_sign_densities_1e6(results):
    _assert_pass(results[4])


def test_criterion_05_least_negative_densities_1e6(results):
    _assert_pass(results[5])


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: pair sign-pattern proportions converge "
    "only logarithmically; measured 7-18% relative error at x = 1e5 against "
    "the stated 5% tolerance (exact counts are golden-pinned separately)",
)
def test_criterion_06_pair_pattern_proportions_1e5(results):
    _assert_pass(results[6])


def test_criterion_06_is_labelled_known_red(results):
    # the documented failure reads apart from a new regression: its pinned
    # counts match
    assert results[6].status == "fail"
    assert results[6].detail.startswith("known-red: ")
    assert results[6].detail.endswith(", golden match")


def test_every_other_criterion_runs_and_passes(results):
    assert sorted(results) == list(range(1, 12))
    assert [cid for cid, r in results.items() if r.status != "pass"] == [6]


def test_criterion_07_discriminant_counts(results):
    _assert_pass(results[7])


def test_criterion_08_eta_scan_oracle_band_golden(results):
    _assert_pass(results[8])


def test_criterion_09_decomposition_audit_1e4(results):
    _assert_pass(results[9])


def test_criterion_10_least_nonresidue_average(results):
    _assert_pass(results[10])


def test_criterion_11_worker_byte_determinism(results):
    _assert_pass(results[11])


def test_criterion_11_passes_with_eta_lab_only_on_sys_path(tmp_path):
    # the package is importable only through the child's own sys.path entry
    src = Path(eta_lab.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from eta_lab.experiments import build_context; "
        "from eta_lab.verify import _crit_11_determinism; "
        "ok, detail = _crit_11_determinism(build_context(100_000)); "
        "print(detail); sys.exit(0 if ok else 1)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
