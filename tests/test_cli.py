"""CLI contracts: frozen CSV schemas, exact JSON rationals, exit codes,
byte determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eta_lab
from eta_lab.cli import main

SCAN_HEADER = (
    "x,pairs_total,pairs_excluded,sum_eta,avg_eta,ref_theta,ref_combined,"
    "ref_Theta,delta_theta,delta_combined,delta_Theta"
)


def run_module(args):
    """Run `python -m eta_lab.cli` with this eta_lab first on the child's path."""
    src = str(Path(eta_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "eta_lab.cli", *args], env=env, capture_output=True, text=True
    )


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    return rc, out.read_text() if out.exists() else ""


class TestScanCommand:
    def test_csv_schema_frozen(self, tmp_path):
        rc, text = run_cli(
            ["scan", "--x", "10000", "--format", "csv", "--no-timestamp", "--K", "120"],
            tmp_path,
        )
        assert rc == 0
        lines = text.splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == SCAN_HEADER

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        texts = []
        for i, w in enumerate((1, 1, 3)):
            rc, text = run_cli(
                ["scan", "--x", "3000", "--workers", str(w), "--format", "csv",
                 "--no-timestamp", "--K", "120"],
                tmp_path,
                name=f"scan{i}.csv",
            )
            assert rc == 0
            texts.append(text)
        assert texts[0] == texts[1] == texts[2]

    def test_json_carries_exact_rationals(self, tmp_path):
        rc, text = run_cli(
            ["scan", "--x", "2000", "--format", "json", "--no-timestamp", "--K", "120"],
            tmp_path,
        )
        assert rc == 0
        doc = json.loads(text)
        avg = doc["payload"]["avg_eta"]
        got = Fraction(int(avg["num"]), int(avg["den"]))
        assert got == Fraction(doc["payload"]["sum_eta"],
                               doc["payload"]["pairs_total"] - doc["payload"]["pairs_excluded"])

    def test_refuses_huge_x(self, tmp_path):
        rc, _ = run_cli(["scan", "--x", str(10**9)], tmp_path)
        assert rc == 1


class TestSingleValueCommands:
    def test_eta_text_trace(self, tmp_path):
        rc, text = run_cli(["eta", "5", "-3", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "eta = 2" in text
        assert "sign at      2 = -1" in text

    def test_eta_invalid_discriminant_exits_1(self, tmp_path):
        rc, _ = run_cli(["eta", "9", "5"], tmp_path)
        assert rc == 1

    def test_eta_cap_exceeded_exits_2(self, tmp_path):
        rc, text = run_cli(["eta", "-4", "-8", "--cap", "3", "--no-timestamp"], tmp_path)
        assert rc == 2
        assert "cap 3 exceeded" in text

    def test_eta_never(self, tmp_path):
        rc, text = run_cli(["eta", "-3", "1", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "never" in text

    def test_sigma(self, tmp_path):
        rc, text = run_cli(["sigma", "1", "-4", "3", "3", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "= -8" in text

    def test_qexp_csv(self, tmp_path):
        rc, text = run_cli(
            ["qexp", "1", "-4", "3", "--terms", "3", "--format", "csv", "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        assert "1,-4,3,3,-1/4,1;1;-8" in text

    def test_qexp_invalid_triple_exits_1(self, tmp_path):
        rc, _ = run_cli(["qexp", "1", "-4", "2", "--terms", "2"], tmp_path)
        assert rc == 1


class TestConstantsCommand:
    def test_text_contains_all_constants(self, tmp_path):
        rc, text = run_cli(["constants", "--K", "120", "--no-timestamp"], tmp_path)
        assert rc == 0
        for name in ("theta", "Theta", "alpha", "beta", "erdos", "combined", "mu"):
            assert name in text

    def test_json_exact_endpoints(self, tmp_path):
        rc, text = run_cli(
            ["constants", "--K", "60", "--format", "json", "--no-timestamp"], tmp_path
        )
        assert rc == 0
        doc = json.loads(text)
        rows = {r["name"]: r for r in doc["payload"]["constants"]}
        lo = rows["Theta"]["lo"]
        hi = rows["Theta"]["hi"]
        assert Fraction(int(lo["num"]), int(lo["den"])) < Fraction(int(hi["num"]), int(hi["den"]))


class TestDensitiesCommand:
    def test_csv_schema(self, tmp_path):
        rc, text = run_cli(
            ["densities", "--x", "2000", "--lemma", "2,3", "--lt", "2:-1",
             "--format", "csv", "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "kind,x,label,count,total,observed,predicted,relative_error"
        assert len(lines) == 1 + 6 + 1  # header, two lemma reports, one pattern row

    def test_requires_a_selection(self, tmp_path):
        rc, _ = run_cli(["densities", "--x", "2000"], tmp_path)
        assert rc == 1

    @pytest.mark.parametrize(
        "flags",
        [["--lemma", "4"], ["--lemma", "1"], ["--lemma", "0"], ["--lt", "4:1"], ["--lt", "9:0"]],
    )
    def test_non_prime_p_exits_1(self, tmp_path, flags):
        rc, _ = run_cli(["densities", "--x", "1000"] + flags, tmp_path)
        assert rc == 1


class TestAuditCommand:
    def test_text_output(self, tmp_path):
        rc, text = run_cli(["audit", "--x", "2000", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "eta | D2 with eta != n(D1)" in text
        assert "(D1, D2) = (5, -15): eta = 3, n(D1) = 2" in text


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        assert run_module(["frobnicate"]).returncode == 1

    def test_missing_required_flag_exits_1(self):
        proc = run_module(["scan"])
        assert proc.returncode == 1
        assert "--x" in proc.stderr

    def test_version_flag(self):
        proc = run_module(["--version"])
        assert proc.returncode == 0
        assert "eta-lab" in proc.stdout


class TestTimestamps:
    def test_present_by_default(self, tmp_path):
        rc, text = run_cli(["sigma", "1", "-4", "3", "3"], tmp_path)
        assert rc == 0
        assert "T" in text.splitlines()[0]  # ISO timestamp in the header line

    def test_absent_with_flag(self, tmp_path):
        rc, text = run_cli(["sigma", "1", "-4", "3", "3", "--no-timestamp"], tmp_path)
        assert rc == 0
        head = text.splitlines()[0]
        assert head == "eta-lab 0.1.0 | sigma"
