"""Golden regression: finite-x quantities frozen from the first verified run.

The limits say nothing about these exact finite-x values, so the frozen
first-run numbers are the reference. They live in one file, the packaged
eta_lab/goldens/golden.json; a missing file fails, it never skips.
"""

import pytest

from eta_lab import verify
from eta_lab.experiments import build_context
from eta_lab.verify import extra_regressions


@pytest.fixture(scope="module")
def contexts():
    return {x: build_context(x) for x in (10_000, 100_000, 1_000_000)}


@pytest.fixture(scope="module")
def measured(contexts):
    return extra_regressions(contexts[100_000], contexts[1_000_000])


def test_extra_regressions_match_golden(measured):
    golden = verify.load_golden()
    mismatches = {
        key: (golden.get(key), value)
        for key, value in measured.items()
        if golden.get(key) != value
    }
    assert not mismatches, mismatches


def _run_golden_criteria(contexts) -> tuple[bool, bool]:
    """Criteria 8 and 9, which compare against the golden file."""
    ok8, _ = verify._crit_8_scan(contexts[10_000], contexts[1_000_000])
    ok9, _ = verify._crit_9_audit(contexts[10_000])
    return ok8, ok9


def test_every_pinned_key_is_compared(monkeypatch, contexts, measured):
    compared = set()
    real_check = verify._golden_check

    def recording_check(values):
        compared.update(values)
        return real_check(values)

    monkeypatch.setattr(verify, "_golden_check", recording_check)
    assert _run_golden_criteria(contexts) == (True, True)
    assert compared == {"scan_x10000", "scan_x1000000", "audit_x10000"}
    assert set(verify.load_golden()) == compared | set(measured)


def test_absent_golden_file_fails(monkeypatch, contexts, measured):
    def absent():
        raise FileNotFoundError("golden.json moved out of reach")

    monkeypatch.setattr(verify, "load_golden", absent)
    assert _run_golden_criteria(contexts) == (False, False)
    with pytest.raises(FileNotFoundError):
        test_extra_regressions_match_golden(measured)
