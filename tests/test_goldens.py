"""Golden regression: finite-x quantities frozen from the first verified run.

The limits say nothing about these exact finite-x values, so the frozen
first-run numbers are the reference. They live in one file, the packaged
eta_lab/goldens/golden.json, and each is compared by the `verify` criterion
that computes it; an unreadable file fails, it never skips.
"""

from collections import Counter

import pytest

from eta_lab import verify
from eta_lab.experiments import build_context

# the keys each pinning criterion compares
PINS = {
    6: {"lt_x100000:2:0", "lt_x100000:2:-1", "lt_x100000:2:+1,3:-1", "pair_count_x100000"},
    7: {"pair_count_x1000000", "average_nd_x1000000"},
    8: {"scan_x10000", "scan_x1000000"},
    9: {"audit_x10000"},
    10: {"average_n1_x1000000"},
}


@pytest.fixture(scope="module")
def pinning_criteria():
    """cid -> a call of each criterion that compares golden values."""
    ctx4, ctx5, ctx6 = (build_context(x) for x in (10_000, 100_000, 1_000_000))
    return {
        6: lambda: verify._crit_6_lt(ctx5),
        7: lambda: verify._crit_7_counts(ctx6),
        8: lambda: verify._crit_8_scan(ctx4, ctx6),
        9: lambda: verify._crit_9_audit(ctx4),
        10: verify._crit_10_erdos,
    }


def test_every_pinned_key_is_compared(monkeypatch, pinning_criteria):
    compared = {}
    real_check = verify._golden_check
    for cid, run in pinning_criteria.items():
        compared[cid] = seen = Counter()

        def recording_check(values, seen=seen):
            seen.update(values.keys())
            return real_check(values)

        monkeypatch.setattr(verify, "_golden_check", recording_check)
        ok, detail = run()
        # criterion 6 fails at its tolerance, a documented red; its pins match
        assert ok == (cid != 6), detail
        assert detail.endswith("golden match"), detail
    assert {cid: set(keys) for cid, keys in compared.items()} == PINS
    everything = sum(compared.values(), Counter())
    assert everything == dict.fromkeys(verify.load_golden(), 1)


def test_criterion_6_reads_known_red_only_while_its_pins_match(monkeypatch, pinning_criteria):
    ok, detail = pinning_criteria[6]()
    assert not ok and detail.startswith("known-red: ")
    golden = verify.load_golden()
    count, total = golden["lt_x100000:2:-1"]
    golden["lt_x100000:2:-1"] = [count + 1, total]
    monkeypatch.setattr(verify, "load_golden", lambda: golden)
    ok, detail = pinning_criteria[6]()
    assert not ok
    assert not detail.startswith("known-red")
    assert f"golden mismatch at lt_x100000:2:-1: [{count + 1}, {total}] != [{count}, {total}]" in detail


def test_absent_golden_file_fails(monkeypatch, pinning_criteria):
    def absent():
        raise FileNotFoundError("golden.json moved out of reach")

    monkeypatch.setattr(verify, "load_golden", absent)
    for cid, run in pinning_criteria.items():
        ok, detail = run()
        assert not ok, cid
        assert detail.endswith("golden file unreadable: golden.json moved out of reach"), detail
        assert "known-red" not in detail
