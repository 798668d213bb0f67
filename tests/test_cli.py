"""CLI contracts: frozen CSV schemas, exact JSON rationals, exit codes,
byte determinism."""

import argparse
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import eta_lab
from eta_lab import cli, experiments, verify
from eta_lab.arith import sieve_primes
from eta_lab.cli import main
from eta_lab.constants import combined_constant, mu_constant, render_decimal, rigorous_constant
from eta_lab.newform import NewformPair, eta, sigma_sign_at_prime
from eta_lab.reports import build_envelope, serialize

SCAN_HEADER = (
    "x,pairs_total,pairs_excluded,sum_eta,avg_eta,ref_theta,ref_combined,"
    "ref_Theta,delta_theta,delta_combined,delta_Theta"
)
AUDIT_HEADER = (
    "x,pairs_total,pairs_excluded,lhs_sum_eta,rhs_sum_n_d2,rhs_hit_sum_n_d1,"
    "rhs_hit_sum_n_d2,difference,hit_pairs,nondivisor_violations,mismatch_count,"
    "mismatch_examples"
)


def run_python(args):
    """Run a fresh interpreter with this eta_lab first on the child's path."""
    src = str(Path(eta_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_module(args):
    """Run `python -m eta_lab.cli` in a fresh interpreter."""
    return run_python(["-m", "eta_lab.cli", *args])


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    return rc, out.read_text() if out.exists() else ""


def density_selection(distinct):
    """--lemma and --lt flags naming `distinct` distinct primes, one in both."""
    primes = sieve_primes(1000)[:distinct]
    half = distinct // 2
    return ["--lemma", ",".join(map(str, primes[: half + 1])),
            "--lt", ",".join(f"{p}:+1" for p in primes[half:])]


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

    def test_one_report_renders_at_any_digits(self):
        rep = experiments.scan_pairs(2000)
        env = build_envelope("scan", {"x": 2000}, rep, True)
        for digits in (5, 40):
            refs = {name: render_decimal(rv, digits) for name, rv in rep.refs.items()}
            # the K = 1000 enclosures are resolved at 40 places
            assert all(len(r.split(".")[1]) == digits for r in refs.values())
            lines = serialize(env, "csv", digits).splitlines()
            row = next(csv.DictReader(l for l in lines if not l.startswith("#")))
            assert {n: row[f"ref_{n}"] for n in refs} == refs
            assert json.loads(serialize(env, "json", digits))["payload"]["refs"] == refs
            text = serialize(env, "text", digits)
            assert f"  vs theta             {refs['theta']}  (delta " in text
            assert f"  vs Theta             {refs['Theta']}  (delta " in text

    def test_json_key_order_frozen(self, tmp_path):
        rc, text = run_cli(["scan", "--x", "2000", "--format", "json", "--no-timestamp"], tmp_path)
        assert rc == 0
        payload = json.loads(text)["payload"]
        assert list(payload) == [
            "x", "pairs_total", "pairs_excluded", "sum_eta", "avg_eta", "refs", "deltas",
        ]
        assert list(payload["avg_eta"]) == ["num", "den"]
        assert list(payload["refs"]) == list(payload["deltas"]) == ["theta", "combined", "Theta"]

    def test_average_prints_exact_digits(self, tmp_path):
        # 8978/2587 = 3.47042906841901816776188635485097..., past any float
        rc, text = run_cli(["scan", "--x", "1000", "--digits", "30", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "  average eta          3.470429068419018167761886354851\n" in text


class TestMemoryRefusal:
    """--x is refused up front when its estimated footprint exceeds MemAvailable
    or what a cgroup memory limit leaves."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused x")

        # the handlers import the engines from `experiments` when they run
        for name in ("scan_pairs", "build_context", "decomposition_audit"):
            monkeypatch.setattr(experiments, name, fail)

    @pytest.mark.parametrize(
        "args",
        [["scan"], ["audit"], ["densities", "--lemma", "3"]],
    )
    def test_refused_before_any_sieve(self, tmp_path, monkeypatch, no_engine, args):
        monkeypatch.setattr(cli, "_mem_available", lambda: 10**6)
        rc, _ = run_cli([args[0], "--x", "100000", *args[1:]], tmp_path)
        assert rc == 1

    def test_stub_is_live(self, tmp_path, no_engine):
        # with meminfo unpatched, a small x is accepted and reaches the stub
        with pytest.raises(AssertionError, match="an engine ran"):
            run_cli(["scan", "--x", "1000", "--K", "20"], tmp_path)

    def test_unreadable_meminfo_never_refuses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_mem_available", lambda: None)
        assert cli._check_x(cli.MAX_X) == cli.MAX_X
        rc, _ = run_cli(["scan", "--x", "1000", "--K", "20"], tmp_path)
        assert rc == 0

    def test_above_max_x_names_only_the_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "_mem_available", lambda: None)
        with pytest.raises(ValueError) as exc:
            cli._check_x(cli.MAX_X + 1)
        assert str(exc.value) == (
            f"--x {cli.MAX_X + 1} exceeds {cli.MAX_X}, the largest table bound accepted"
        )

    def test_desk_scale_fits_a_small_machine(self, monkeypatch):
        monkeypatch.setattr(cli, "_mem_available", lambda: 2 * 2**30)
        assert cli._check_x(10**7) == 10**7
        with pytest.raises(ValueError):
            cli._check_x(10**8)

    def test_reader_returns_bytes_or_none(self):
        got = cli._mem_available()
        assert got is None or (isinstance(got, int) and got > 0)

    @pytest.fixture
    def memory_files(self, tmp_path, monkeypatch):
        """Point the reader at temp files: MemAvailable of 8 GiB, and a
        cgroup v2 and v1 (limit, usage) pair each, written by the test."""
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(f"MemTotal: {16 * 2**20} kB\nMemAvailable: {8 * 2**20} kB\n")
        v2 = (tmp_path / "memory.max", tmp_path / "memory.current")
        v1 = (tmp_path / "memory.limit_in_bytes", tmp_path / "memory.usage_in_bytes")
        monkeypatch.setattr(cli, "_MEMORY_FILES", (str(meminfo), *(tuple(map(str, f)) for f in (v2, v1))))
        return meminfo, v2, v1

    def test_cgroup_v2_limit_below_memavailable(self, memory_files):
        _, (limit, usage), _ = memory_files
        limit.write_text(f"{3 * 2**30}\n")
        usage.write_text(f"{2**30}\n")
        assert cli._mem_available() == 2 * 2**30
        # an x that MemAvailable alone would accept is refused
        with pytest.raises(ValueError, match="2.0 GiB of memory is available"):
            cli._check_x(10**8)

    def test_cgroup_v1_limit_below_memavailable(self, memory_files):
        _, _, (limit, usage) = memory_files
        limit.write_text(f"{2**30}\n")
        usage.write_text(f"{2**29}\n")
        assert cli._mem_available() == 2**29

    def test_the_tighter_of_both_cgroups(self, memory_files):
        _, v2, v1 = memory_files
        for (limit, usage), free in ((v2, 3 * 2**30), (v1, 2**30)):
            limit.write_text(f"{free + 100}\n")
            usage.write_text("100\n")
        assert cli._mem_available() == 2**30

    def test_unlimited_cgroups_leave_memavailable(self, memory_files):
        _, v2, v1 = memory_files
        v2[0].write_text("max\n")
        v1[0].write_text("9223372036854771712\n")  # v1's "no limit"
        for _, usage in (v2, v1):
            usage.write_text(f"{2**40}\n")
        assert cli._mem_available() == 8 * 2**30

    def test_a_limit_above_memavailable_leaves_memavailable(self, memory_files):
        _, (limit, usage), _ = memory_files
        limit.write_text(f"{64 * 2**30}\n")
        usage.write_text("0\n")
        assert cli._mem_available() == 8 * 2**30

    def test_usage_above_the_limit_leaves_nothing(self, memory_files):
        _, (limit, usage), _ = memory_files
        limit.write_text(f"{2**30}\n")
        usage.write_text(f"{2**31}\n")
        assert cli._mem_available() == 0
        with pytest.raises(ValueError):
            cli._check_x(1)

    def test_unreadable_files_are_skipped(self, memory_files):
        meminfo, (limit, usage), _ = memory_files
        limit.write_text(f"{2**30}\n")  # no usage file: the v2 pair is skipped
        assert cli._mem_available() == 8 * 2**30
        usage.write_text("garbage\n")
        assert cli._mem_available() == 8 * 2**30
        usage.write_text("0\n")
        meminfo.unlink()
        assert cli._mem_available() == 2**30
        limit.unlink()
        assert cli._mem_available() is None


class TestKRefusal:
    """--K above MAX_K is refused before any sieve or series pass."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused K")

        monkeypatch.setattr(experiments, "scan_pairs", fail)
        for name in ("rigorous_constant", "combined_constant", "mu_constant"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("args", [["constants"], ["scan", "--x", "1000"]])
    def test_refused_before_any_sieve(self, tmp_path, capsys, no_engine, args):
        rc, _ = run_cli([*args, "--K", str(cli.MAX_K + 1)], tmp_path)
        assert rc == 1
        assert f"exceeds {cli.MAX_K}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 5, cli.MIN_K - 1])
    @pytest.mark.parametrize("args", [["constants"], ["scan", "--x", "1000000"]])
    def test_small_k_refused_before_any_sieve(self, tmp_path, capsys, no_engine, args, k):
        # p_K < 25 leaves the tail bounds unproven
        rc, _ = run_cli([*args, "--K", str(k)], tmp_path)
        assert rc == 1
        assert f"below {cli.MIN_K}" in capsys.readouterr().err

    def test_bound_is_inclusive(self):
        assert cli._check_k(cli.MAX_K) == cli.MAX_K
        assert cli._check_k(cli.MIN_K) == cli.MIN_K


class TestInputBounds:
    """|D|, sigma's n, --terms and the coefficient size are refused before any work."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused input")

        for name in ("NewformPair", "eta_sign_trace", "sigma_coefficient", "q_expansion"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize(
        "args,message",
        [
            (["eta", "5", "-100000000000000000003"], f"exceeds {cli.MAX_ABS}"),
            (["eta", str(10**12 + 1), "5"], f"exceeds {cli.MAX_ABS}"),
            (["sigma", "1", str(-(10**12) - 3), "3", "3"], f"exceeds {cli.MAX_ABS}"),
            (["qexp", str(10**12 + 1), "-4", "2"], f"exceeds {cli.MAX_ABS}"),
            (["sigma", "1", "-4", "3", str(10**12 + 1)], f"exceeds {cli.MAX_ABS}"),
            (["sigma", "1", "-4", "100000000000", "2"], f"exceeds {cli.MAX_BITS}"),
            (["qexp", "1", "-4", "3", "--terms", "3000000"], f"exceeds {cli.MAX_TERMS}"),
            (["qexp", "5", "-3", "1403", "--terms", "1000"], f"exceeds {cli.MAX_BITS}"),
        ],
    )
    def test_refused_before_any_work(self, tmp_path, capsys, no_engine, args, message):
        rc, _ = run_cli(args, tmp_path)
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["eta", "5", "-3"], ["sigma", "1", "-4", "3", "3"], ["qexp", "1", "-4", "3"]]
    )
    def test_stub_is_live(self, tmp_path, no_engine, args):
        with pytest.raises(AssertionError, match="an engine ran"):
            run_cli(args, tmp_path)

    def test_bounds_are_inclusive(self):
        cli._check_bits(cli.MAX_BITS // 10 + 1, 1000)  # 10-bit n, exactly MAX_BITS
        with pytest.raises(ValueError):
            cli._check_bits(cli.MAX_BITS // 10 + 2, 1000)
        with pytest.raises(ValueError, match="not a fundamental"):
            cli._check_pair(cli.MAX_ABS, 5)  # 10^12 passes the bound, then fails as 4 * m

    def test_desk_scale_inputs_are_accepted(self, tmp_path):
        # the range of the `cli-small` workload: |D| <= 5000, k <= 8, n <= 1000, terms <= 16
        for args in (["eta", "4997", "-4999"], ["sigma", "-4", "4997", "8", "1000"],
                     ["qexp", "1", "497", "8", "--terms", "16"]):
            rc, _ = run_cli(args, tmp_path)
            assert rc == 0, args

    def test_largest_discriminants_finish(self, tmp_path):
        # two primes just below MAX_ABS, each squarefree only after 10^6 divisions
        start = time.perf_counter()
        rc, text = run_cli(["eta", "999999999989", "-999999999959", "--no-timestamp"], tmp_path)
        assert time.perf_counter() - start < 10.0
        assert rc == 0
        assert "eta = " in text


class TestOutputAndSeriesBounds:
    """--digits, --pollack and the D1 = 1 constant term of qexp are refused
    before any work."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused input")

        for name in ("scan_pairs", "build_context"):
            monkeypatch.setattr(experiments, name, fail)
        for name in ("rigorous_constant", "combined_constant", "mu_constant",
                     "NewformPair", "q_expansion"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize(
        "args,message",
        [
            (["constants", "--digits", "0"], f"outside 1..{cli.MAX_DIGITS}"),
            (["constants", "--digits", str(cli.MAX_DIGITS + 1)], f"outside 1..{cli.MAX_DIGITS}"),
            (["scan", "--x", "10", "--digits", "100000000"], f"outside 1..{cli.MAX_DIGITS}"),
            (["densities", "--x", "10", "--pollack", str(cli.MAX_POLLACK + 1)],
             f"exceeds {cli.MAX_POLLACK}"),
            (["qexp", "1", "-40003", "3", "--terms", "2"], f"exceeds {cli.MAX_L_WORK}"),
            (["qexp", "1", "5", str(cli.MAX_L_WEIGHT + 2)], f"exceeds {cli.MAX_L_WEIGHT}"),
        ],
    )
    def test_refused_before_any_work(self, tmp_path, capsys, no_engine, args, message):
        rc, _ = run_cli(args, tmp_path)
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["constants", "--K", "20", "--digits", str(cli.MAX_DIGITS)],
         ["scan", "--x", "10", "--digits", "1"],
         ["densities", "--x", "10", "--pollack", str(cli.MAX_POLLACK)],
         ["qexp", "1", "5", str(cli.MAX_L_WEIGHT)]],
    )
    def test_stub_is_live(self, tmp_path, no_engine, args):
        with pytest.raises(AssertionError, match="an engine ran"):
            run_cli(args, tmp_path)

    def test_bounds_are_inclusive(self):
        cli._check_digits(1)
        cli._check_digits(cli.MAX_DIGITS)
        cli._check_l_value(-(cli.MAX_L_WORK // 3), 3)
        cli._check_l_value(cli.MAX_L_WORK // cli.MAX_L_WEIGHT, cli.MAX_L_WEIGHT)
        with pytest.raises(ValueError):
            cli._check_l_value(-(cli.MAX_L_WORK // 3 + 1), 3)
        with pytest.raises(ValueError):
            cli._check_l_value(1, cli.MAX_L_WEIGHT + 1)

    def test_largest_digits_render_every_constant(self, tmp_path):
        # a 'mid +/- w' half-width whose numerator and denominator exceed any float
        rc, text = run_cli(
            ["constants", "--K", "200", "--digits", str(cli.MAX_DIGITS), "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        assert text.count("+/-") == 7

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_largest_digits_at_default_k(self, tmp_path, fmt):
        # half-widths whose numerators exceed Python's int-to-str digit limit
        rc, text = run_cli(
            ["constants", "--digits", str(cli.MAX_DIGITS), "--format", fmt, "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        assert "+/-" in text

    @pytest.mark.parametrize(
        "args",
        [["densities", "--x", "10", "--pollack", str(cli.MAX_POLLACK), "--format", "json"],
         ["qexp", "1", "-29999", "1", "--terms", "2"],
         ["qexp", "1", "149", str(cli.MAX_L_WEIGHT), "--terms", "2"]],
    )
    def test_slowest_accepted_inputs_finish(self, tmp_path, args):
        start = time.perf_counter()
        rc, _ = run_cli(args, tmp_path)
        assert time.perf_counter() - start < 10.0
        assert rc == 0


class TestOutputPath:
    """An --output that cannot be written is refused before any work, and a
    write that fails anyway ends in one line, not a traceback."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused input")

        monkeypatch.setattr(experiments, "build_context", fail)
        monkeypatch.setattr(cli, "eta_sign_trace", fail)

    def bad_paths(self, tmp_path):
        return [
            (["scan", "--x", "1000", "--output", str(tmp_path / "missing" / "x")],
             "is not a directory"),
            (["eta", "5", "-3", "--output", str(tmp_path)], "is a directory"),
        ]

    def test_refused_before_any_work(self, tmp_path, capsys, no_engine):
        for args, message in self.bad_paths(tmp_path):
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("eta-lab: invalid input: --output ") and message in err
            assert "Traceback" not in err

    def test_stub_is_live(self, tmp_path, no_engine):
        for args in (["scan", "--x", "1000"], ["eta", "5", "-3"]):
            with pytest.raises(AssertionError, match="an engine ran"):
                main([*args, "--output", str(tmp_path / "out.txt")])

    def test_failed_write_exits_1(self, tmp_path, capsys, monkeypatch):
        def refuse(self, text):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(["eta", "5", "-3", "--output", str(tmp_path / "out.txt")]) == 1
        err = capsys.readouterr().err
        assert err == f"eta-lab: invalid input: --output {tmp_path / 'out.txt'}: Permission denied\n"


class TestNumpyStaysUnloaded:
    """Only the commands that build a discriminant table load numpy."""

    @staticmethod
    def numpy_loaded_after(code):
        proc = run_python(["-c", f"{code}\nimport sys\nprint('numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize("module", ["eta_lab", "eta_lab.cli"])
    def test_import(self, module):
        assert not self.numpy_loaded_after(f"import {module}")

    @pytest.mark.parametrize(
        "args",
        [["constants", "--K", "20"], ["eta", "5", "-3"], ["sigma", "1", "-4", "3", "3"],
         ["qexp", "1", "-4", "3", "--terms", "5"]],
    )
    def test_single_value_commands(self, args):
        code = (
            "import os, sys\n"
            "from eta_lab.cli import main\n"
            "for fmt in ('text', 'csv', 'json'):\n"
            f"    assert main({args!r} + ['--format', fmt, '--output', os.devnull]) == 0\n"
            "    assert 'numpy' not in sys.modules, fmt\n"
        )
        assert not self.numpy_loaded_after(code)

    def test_scan_loads_numpy(self):
        code = (
            "import os\n"
            "from eta_lab.cli import main\n"
            "assert main(['scan', '--x', '1000', '--output', os.devnull]) == 0\n"
        )
        assert self.numpy_loaded_after(code)

    def test_residue_tables_wait_for_the_first_context(self):
        code = (
            "from eta_lab import experiments\n"
            "print(experiments._residue_tables.cache_info().currsize)\n"
            "experiments.build_context(10)\n"
            "print(experiments._residue_tables.cache_info().currsize)\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class TestHashlibStaysUnloaded:
    """hashlib loads OpenSSL; only the digest of an integer too long to print needs it."""

    def test_import_and_scan_leave_openssl_unloaded(self):
        code = (
            "import os, sys\n"
            "import eta_lab.cli\n"
            "print('_hashlib' in sys.modules)\n"
            "for fmt in ('text', 'csv', 'json'):\n"
            "    argv = ['scan', '--x', '1000', '--format', fmt, '--output', os.devnull]\n"
            "    assert eta_lab.cli.main(argv) == 0, fmt\n"
            "print('_hashlib' in sys.modules)\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_oversized_integer_becomes_its_digest(self):
        import hashlib

        from eta_lab import reports

        n = 10**reports._MAX_EXACT_DIGITS * 3 + 1  # 50,001 digits
        assert reports._int_json(n) == {
            "sha256_of_hex": hashlib.sha256(hex(n).encode()).hexdigest(),
            "bit_length": n.bit_length(),
        }
        assert reports._int_json(10**4000) == "1" + "0" * 4000


class TestNoProcessPool:
    """No command starts a process pool, whatever `scan --workers` says."""

    def test_multiprocessing_stays_unloaded(self):
        code = (
            "import os, sys\n"
            "from eta_lab.cli import main\n"
            "for args in (['audit'], ['scan', '--workers', '3'],\n"
            "             ['densities', '--lt', '2:+1,3:-1']):\n"
            "    argv = args + ['--x', '2000', '--output', os.devnull]\n"
            "    assert main(argv) == 0, args\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_huge_worker_count_starts_no_pool(self, tmp_path, monkeypatch):
        import multiprocessing

        def fail(*args, **kwargs):
            raise AssertionError("a process pool was requested")

        monkeypatch.setattr(multiprocessing, "get_context", fail)
        outputs = []
        for w in ("1", "1000000"):
            rc, text = run_cli(["scan", "--x", "2000", "--workers", w, "--no-timestamp"],
                               tmp_path, f"scan_w{w}.txt")
            assert rc == 0
            outputs.append(text)
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("d1,d2", [(5, -3), (-4, -8), (1, -23), (-3, 1)])
    def test_eta_json_at_cap_2_matches_eta(self, tmp_path, d1, d2):
        rc, text = run_cli(
            ["eta", str(d1), str(d2), "--cap", "2", "--format", "json", "--no-timestamp"],
            tmp_path,
        )
        pair = NewformPair(d1, d2)
        want = eta(pair, 2)
        assert rc == (2 if want.status == "cap_exceeded" else 0)
        got = json.loads(text)["payload"]
        assert (got["status"], got["eta"]) == (want.status, want.prime)
        trace = [] if d2 == 1 else [{"p": 2, "sign": sigma_sign_at_prime(pair, 2)}]
        assert got["trace"] == trace

    def test_eta_cap_below_2_exits_1(self, tmp_path):
        rc, _ = run_cli(["eta", "-3", "1", "--cap", "1"], tmp_path)
        assert rc == 1

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

    def test_csv_columns_are_outward_rounded(self, tmp_path):
        # at K = 2000 the widths are near 1e-597, below the smallest float
        rc, text = run_cli(
            ["constants", "--K", "2000", "--digits", "30", "--format", "csv", "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
        exact = [rigorous_constant(name, 2000)
                 for name in ("theta", "Theta", "alpha", "beta", "erdos")]
        exact += [combined_constant(2000), mu_constant(2000)]
        assert [r["name"] for r in rows] == [rv.name for rv in exact]
        for row, rv in zip(rows, exact):
            assert Fraction(row["lo"]) <= rv.lo and Fraction(row["hi"]) >= rv.hi, row["name"]
            assert Fraction(row["width"]) > 0, row["name"]


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

    def test_json_key_order_frozen(self, tmp_path):
        rc, text = run_cli(
            ["densities", "--x", "2000", "--lemma", "3", "--pollack", "2", "--lt", "2:-1",
             "--format", "json", "--no-timestamp"],
            tmp_path,
        )
        assert rc == 0
        reports = json.loads(text)["payload"]["reports"]
        assert [r["kind"] for r in reports] == [
            "sign-density", "least-negative-density", "pair-sign-density",
        ]
        for rep in reports:
            assert list(rep) == ["kind", "x", "excluded", "warnings", "rows"]
            for row in rep["rows"]:
                assert list(row) == [
                    "label", "count", "total", "observed", "predicted", "relative_error",
                ]
                assert all(list(row[k]) == ["num", "den"]
                           for k in ("observed", "predicted", "relative_error"))

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

    def test_large_prime_is_decided_at_once(self, tmp_path):
        # the two largest density primes, far beyond trial division
        start = time.perf_counter()
        rc, text = run_cli(
            ["densities", "--x", "10", "--lemma", str(2**31 - 1), "--lt", f"{2**31 - 19}:1",
             "--no-timestamp"],
            tmp_path,
        )
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        assert f"chi(p={2**31 - 1})=-1" in text

    def test_prime_beyond_the_primality_range_exits_1(self, tmp_path, capsys):
        rc, _ = run_cli(["densities", "--x", "10", "--lemma", str(10**30 + 57)], tmp_path)
        assert rc == 1
        assert "only decided below" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--lemma", "4"], ["--lemma", "2,x"], ["--lemma", str(10**30 + 57)],
         ["--lemma", "3", "--pollack", "0"], ["--pollack", "-5"],
         ["--lt", "2"], ["--lt", "2:5"], ["--lt", "2:+1,2:-1"], ["--lemma", "3,3"],
         density_selection(cli.MAX_DENSITY_PRIMES + 1),
         # primes from 2^31 on, up to the primality range
         ["--lemma", str(2**31 + 11)], ["--lt", f"{10**23 + 117}:1"]],
    )
    def test_refused_before_the_context(self, tmp_path, monkeypatch, flags):
        def fail(*args, **kwargs):
            raise AssertionError("a context was built for a refused selection")

        monkeypatch.setattr(experiments, "build_context", fail)
        rc, _ = run_cli(["densities", "--x", "1000", *flags], tmp_path)
        assert rc == 1

    def test_distinct_prime_bound_is_inclusive(self, tmp_path):
        flags = density_selection(cli.MAX_DENSITY_PRIMES)
        rc, text = run_cli(["densities", "--x", "1000", *flags, "--format", "json"], tmp_path)
        assert rc == 0
        reports = json.loads(text)["payload"]["reports"]
        assert len(reports) == cli.MAX_DENSITY_PRIMES // 2 + 2

    @pytest.mark.parametrize("x,k_max", [("1", "4"), ("2", "1")])
    def test_pollack_without_any_d_exits_1(self, tmp_path, capsys, x, k_max):
        rc, _ = run_cli(["densities", "--x", x, "--pollack", k_max], tmp_path)
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err


class TestAuditCommand:
    def test_text_output(self, tmp_path):
        rc, text = run_cli(["audit", "--x", "2000", "--no-timestamp"], tmp_path)
        assert rc == 0
        assert "eta | D2 with eta != n(D1)" in text
        assert "(D1, D2) = (5, -15): eta = 3, n(D1) = 2" in text

    def test_csv_schema_frozen(self, tmp_path):
        rc, text = run_cli(["audit", "--x", "2000", "--format", "csv", "--no-timestamp"], tmp_path)
        assert rc == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == AUDIT_HEADER
        assert len(lines) == 2
        assert "5:-15:3:2" in lines[1].rsplit(",", 1)[1].split(";")

    def test_json_key_order_frozen(self, tmp_path):
        rc, text = run_cli(["audit", "--x", "2000", "--format", "json", "--no-timestamp"], tmp_path)
        assert rc == 0
        payload = json.loads(text)["payload"]
        assert ",".join(payload) == AUDIT_HEADER
        assert payload["mismatch_examples"]
        for m in payload["mismatch_examples"]:
            assert list(m) == ["d1", "d2", "eta", "n_d1"]


class TestVerifyCommand:
    """How `verify` renders its criteria and sets its exit code, over stubbed
    results."""

    @pytest.fixture
    def results(self, monkeypatch):
        results = [
            verify.CriterionResult(1, "first", "pass", "fine", 0.5),
            verify.CriterionResult(6, "sixth", "fail", "known-red: off", 0.25),
        ]
        monkeypatch.setattr(verify, "run_criteria", lambda: results)
        return results

    def test_text_counts_passes_and_failures(self, tmp_path, results):
        rc, text = run_cli(["verify", "--no-timestamp"], tmp_path)
        assert rc == 2
        assert text.splitlines() == [
            "eta-lab 0.1.0 | verify",
            "[PASS]  1 first: fine",
            "[FAIL]  6 sixth: known-red: off",
            "1 passed, 1 failed",
        ]

    def test_csv_echoes_no_config(self, tmp_path, results):
        rc, text = run_cli(["verify", "--format", "csv", "--no-timestamp"], tmp_path)
        assert rc == 2
        assert text.splitlines()[1:] == [
            "# config: ",
            "id,name,status,seconds,detail",
            "1,first,pass,0.50,fine",
            "6,sixth,fail,0.25,known-red: off",
        ]

    def test_exits_0_when_every_criterion_passes(self, tmp_path, results):
        del results[1]
        rc, text = run_cli(["verify", "--format", "json", "--no-timestamp"], tmp_path)
        assert rc == 0
        doc = json.loads(text)
        assert doc["config"] == {}
        assert [c["status"] for c in doc["payload"]["criteria"]] == ["pass"]


class TestVerifyClock:
    """`verify` times its criteria with a monotonic clock: a wall clock that
    jumps 100 s at each reading moves no elapsed time."""

    @pytest.fixture
    def jumping_wall_clock(self, monkeypatch):
        readings = iter(range(0, 10**6, 100))
        monkeypatch.setattr(time, "time", lambda: float(next(readings)))

    def test_criterion_1_stays_inside_its_bound(self, jumping_wall_clock):
        ok, detail = verify._crit_1_constants()
        assert ok, detail

    def test_criterion_4_reports_its_own_time(self, jumping_wall_clock):
        _, detail = verify._crit_4_lemma(experiments.build_context(10_000))
        assert float(re.search(r" in ([0-9.]+)s ", detail).group(1)) < 100

    def test_each_criterion_reports_its_own_seconds(self, monkeypatch, jumping_wall_clock):
        monkeypatch.setattr(verify, "build_context", lambda x: None)
        for name in dir(verify):
            if name.startswith("_crit_"):
                monkeypatch.setattr(verify, name, lambda *ctx: (True, "stub"))
        results = verify.run_criteria()
        assert len(results) == 11
        assert all(r.seconds < 100 for r in results)


class TestOptionSurface:
    """Each command takes the options that act on it and no other: an option
    accepted and ignored is a usage error instead."""

    OPTIONS = {
        "constants": ["--K", "--digits", "--format", "--output", "--no-timestamp"],
        "eta": ["--cap", "--format", "--output", "--no-timestamp"],
        "sigma": ["--format", "--output", "--no-timestamp"],
        "qexp": ["--terms", "--format", "--output", "--no-timestamp"],
        "scan": ["--x", "--workers", "--K", "--digits", "--format", "--output", "--no-timestamp"],
        "densities": ["--x", "--lemma", "--pollack", "--lt", "--digits", "--format", "--output",
                      "--no-timestamp"],
        "audit": ["--x", "--format", "--output", "--no-timestamp"],
        "verify": ["--format", "--output", "--no-timestamp"],
    }

    def test_each_command_takes_exactly_its_options(self):
        top = cli.build_parser()
        (commands,) = (a.choices for a in top._actions if a.dest == "command")
        got = {
            name: [s for a in parser._actions if a.dest != "help" for s in a.option_strings]
            for name, parser in commands.items()
        }
        assert got == self.OPTIONS
        assert sum(map(len, got.values())) == 38


class TestRendererTable:
    """`serialize` renders an envelope by the table of its command."""

    def test_every_command_has_a_table(self):
        from eta_lab import reports

        assert set(reports._TABLES) == set(cli._HANDLERS)

    def test_unknown_command_is_named(self):
        env = build_envelope("frobnicate", {}, [], True)
        with pytest.raises(ValueError, match="no renderer for command 'frobnicate'"):
            serialize(env, "text")


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        assert run_module(["frobnicate"]).returncode == 1

    def test_missing_required_flag_exits_1(self):
        proc = run_module(["scan"])
        assert proc.returncode == 1
        assert "--x" in proc.stderr

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_table_commands_take_no_cap(self, monkeypatch, capsys, command):
        # every eta over a table is at most n(D2); only `eta` keeps --cap
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran for a refused command line")

        for name in ("scan_pairs", "build_context", "decomposition_audit"):
            monkeypatch.setattr(experiments, name, fail)
        with pytest.raises(SystemExit) as exc:
            main([command, "--x", "1000", "--cap", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["densities", "--x", "1000", "--lt", "2:+1", "--workers", "2"],
         ["audit", "--x", "1000", "--workers", "2"],
         ["eta", "5", "-3", "--digits", "5"],
         ["sigma", "1", "-4", "3", "3", "--digits", "5"],
         ["qexp", "1", "-4", "3", "--digits", "5"],
         ["audit", "--x", "1000", "--digits", "5"],
         ["verify", "--digits", "5"]],
    )
    def test_an_option_that_would_not_act_is_refused(self, monkeypatch, capsys, argv):
        def fail(args):
            raise AssertionError("a handler ran for a refused command line")

        monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, fail))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_verify_refuses_quick(self):
        # verify runs every criterion; its former --quick is a usage error
        proc = run_module(["verify", "--quick"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert [l for l in proc.stderr.splitlines() if "error" in l] == [
            "eta-lab: error: unrecognized arguments: --quick"
        ]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flags,message",
        [(["--lt", "2"], "--lt 2: malformed term '2'"),
         (["--lt", ","], "--lt ,: malformed term ''"),
         (["--lemma", "2,,3"], "--lemma 2,,3: malformed term ''")],
    )
    def test_malformed_density_term_is_named(self, monkeypatch, capsys, flags, message):
        def fail(*args, **kwargs):
            raise AssertionError("a context was built for a malformed term")

        monkeypatch.setattr(experiments, "build_context", fail)
        assert main(["densities", "--x", "100", *flags]) == 1
        assert capsys.readouterr().err == f"eta-lab: invalid input: {message}\n"

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


class TestDigestTool:
    """tools/cli_digest.py hashes the output of a fixed command set; each
    command must reach a handler, not stop at a usage error."""

    @pytest.fixture(scope="class")
    def digest(self):
        path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
        spec = importlib.util.spec_from_file_location("cli_digest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_command_parses(self, digest):
        parser = cli.build_parser()
        groups = digest.commands()
        assert len(groups["tables-1..3000"]) == 3000 * 3 * 3
        for cmds in groups.values():
            for argv in cmds:
                args = parser.parse_args([*argv, "--no-timestamp"])
                assert args.command in cli._HANDLERS


class TestContextDigestTool:
    """tools/context_digest.py hashes the n(D), qmask and chi columns of each
    context and the n_1 sums; a smoke run over x <= 50."""

    @pytest.fixture(scope="class")
    def tool(self):
        path = Path(__file__).resolve().parents[1] / "tools" / "context_digest.py"
        spec = importlib.util.spec_from_file_location("context_digest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_main_prints_each_group_and_the_total(self, tool, monkeypatch, capsys):
        src = str(Path(eta_lab.__file__).resolve().parents[1])
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(sys, "argv", ["context_digest.py", src])
        monkeypatch.setattr(tool, "GROUPS", {"contexts-1..50": ("context", range(1, 51)),
                                             "n1-3..50": ("n1", range(3, 51))})
        assert tool.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["contexts-1..50", "n1-3..50", "overall"]
        assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[-1]) for line in lines)
        assert lines[0].split()[-1] == tool.digest("context", range(1, 51))

    @pytest.mark.parametrize("part", ["nvals", "qmask", "chi"])
    def test_each_part_moves_the_digest(self, tool, monkeypatch, part):
        xs = range(1, 51)
        before = tool.digest("context", xs)
        real = experiments.build_context

        def altered(x):
            ctx = real(x)
            if x == 50:
                column = getattr(ctx, part)
                (column[2] if part == "chi" else column)[-1] ^= 1
            return ctx

        monkeypatch.setattr(experiments, "build_context", altered)
        assert tool.digest("context", xs) != before


class TestPeakRssTool:
    """tools/peak_rss.py passes the command's output and exit code through
    and reports its peak RSS in both MiB and MB."""

    TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"

    def test_reports_one_command(self):
        proc = run_python([str(self.TOOL), "eta", "5", "-3", "--format", "csv"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("#")
        m = re.fullmatch(r"exit 0  wall \S+ s  peak RSS (\S+) MiB \((\S+) MB\)",
                         proc.stderr.splitlines()[-1])
        assert m, proc.stderr
        mib, mb = map(float, m.groups())
        assert mb == pytest.approx(mib * 2**20 / 10**6, abs=0.1)

    def test_passes_a_refusal_through(self):
        proc = run_python([str(self.TOOL), "scan", "--x", "0"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("exit 1  ")


class TestKernelTimeTool:
    """tools/kernel_time.py times build_context and both pair kernels on one
    context and prints their medians with the kernels' results, and each
    kernel's tracemalloc peak."""

    TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_time.py"

    def test_times_the_build_and_both_kernels(self):
        proc = run_python([str(self.TOOL), "2e3", "--lt", "3:-1,2:+1", "--repeat", "2"])
        assert proc.returncode == 0, proc.stderr
        head, *lines = proc.stdout.splitlines()
        ctx = experiments.build_context(2000)
        assert head == f"x 2000  N {len(ctx.entries)}  repeat 2"
        num = r"median (\S+) s  min (\S+)  max (\S+)"
        peak = r"  peak (\d+\.\d\d) MiB"
        pairs = int(ctx.prefix.sum())
        sum_eta = experiments._scan_chunk(ctx, (0, len(ctx.entries)))[2]
        matched = experiments.density_lt(2000, [(3, -1), (2, 1)], ctx).rows[0].count
        expected = [
            ("build_context", "", f"{pairs} pairs"),
            ("scan kernel", peak, f"sum eta {sum_eta}"),
            ("pattern kernel", peak, f"{matched} matched, 2 pattern primes"),
        ]
        split = ctx.table.count_upto(44)  # isqrt(2000)
        high = ctx.qmask[split:][ctx.qmask[split:] >= 64]
        assert len(high) and lines.pop() == (
            f"scan paths       below r' {split}  direct {len(ctx.entries) - split - len(high)}  "
            f"high {len(high)} ({len(set(high.tolist()))} signatures)"
        )
        assert len(lines) == len(expected)
        for line, (name, mem, result) in zip(lines, expected):
            m = re.fullmatch(re.escape(name) + r" +" + num + mem + "  -> " + re.escape(result), line)
            assert m, line
            median, low, high = map(float, m.groups()[:3])
            assert 0 <= low <= median <= high
            # a kernel allocates something, and at x = 2000 far below a MiB
            assert mem == "" or 0 < float(m.group(4)) < 1

    @pytest.mark.parametrize("args", [["0"], ["1.5"], ["100", "--repeat", "0"], ["100", "--lt", "4:+1"],
                                      ["inf"], ["3e9"]])
    def test_refuses_bad_arguments(self, args):
        proc = run_python([str(self.TOOL), *args])
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr

    def test_x_is_checked_as_the_cli_checks_it(self, monkeypatch):
        # 1e9 is never run: its build would take about 25 GB
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("kernel_time", self.TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(cli, "_mem_available", lambda: None)  # MAX_X alone
        assert tool._bound("1e7") == 10**7 and tool._bound("1e8") == cli.MAX_X
        for text in ("1e9", "-inf", "nan", "x", "2.5"):
            with pytest.raises(argparse.ArgumentTypeError):
                tool._bound(text)
        monkeypatch.setattr(cli, "_mem_available", lambda: 10**6)
        with pytest.raises(argparse.ArgumentTypeError, match="GiB of memory is available"):
            tool._bound("1e6")
