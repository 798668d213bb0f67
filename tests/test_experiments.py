"""Pair scans, audits, densities, averages: exact cross-checks at small x."""

import multiprocessing
import time
from fractions import Fraction

import numpy as np
import pytest

from eta_lab.arith import is_fundamental, iter_primes, kronecker, least_nonresidue, sieve_primes
from eta_lab import experiments
from eta_lab.experiments import (
    CapExceededError,
    _chi_values,
    build_context,
    decomposition_audit,
    density_lemma,
    density_lt,
    density_pollack,
    average_n1,
    average_nd,
    pair_count_check,
    scan_pairs,
)
from eta_lab.newform import DEFAULT_ETA_CAP, least_negative_prime
from eta_lab.verify import brute_force_pair_sum


@pytest.fixture(scope="module")
def ctx2000():
    return build_context(2000)


def brute_discriminants(x):
    return [d for a in range(1, x + 1) for d in (-a, a) if is_fundamental(d)]


class TestContext:
    def test_n_table_matches_scalar_op(self, ctx2000):
        for d, n in zip(ctx2000.entries, ctx2000.nvals):
            d = int(d)
            if d == 1:
                assert n == 0
            else:
                assert int(n) == least_negative_prime(d).prime

    def test_qmask_matches_definition(self):
        ctx = build_context(500)
        for i, d in enumerate(ctx.entries):
            d = int(d)
            n = int(ctx.nvals[i])
            expected = set()
            if d != 1:
                for q in iter_primes(n - 1 if n > 2 else 2):
                    if q < n and d % q == 0:
                        expected.add(q)
            got = {
                ctx.cache_primes[b]
                for b in range(len(ctx.cache_primes))
                if (int(ctx.qmask[i]) >> b) & 1
            }
            assert got == expected, d

    @pytest.mark.parametrize("x", [1, 10, 500, 2000])
    def test_chi_cache_is_kronecker_at_the_used_qmask_bits(self, x):
        # the kernel's store: each column runs to the longest prefix among
        # the D2 with that bit, the most the pair kernel can read
        ctx = build_context(x)
        used = int(np.bitwise_or.reduce(ctx.qmask))
        assert sorted(ctx.prefix_chi) == [
            q for b, q in enumerate(ctx.cache_primes) if (used >> b) & 1
        ]
        for q, chi in ctx.prefix_chi.items():
            b = ctx.cache_primes.index(q)
            has_bit = (ctx.qmask >> b) & 1 == 1
            assert len(chi) == int(ctx.prefix[has_bit].max()), q
            assert chi.tolist() == [kronecker(int(d), q) for d in ctx.entries[: len(chi)]], q

    def test_chi_array_stays_full_length_after_a_scan(self):
        ctx = build_context(2000)
        scan_pairs(2000, ctx=ctx, k_terms=120)
        density_lt(2000, [(2, 1), (3, -1)], ctx)
        for q in [*ctx.prefix_chi, 7]:
            assert len(ctx.chi_array(q)) == len(ctx.entries), q
        assert ctx.chi_array(2).tolist() == [kronecker(int(d), 2) for d in ctx.entries]

    def test_prefix_counts(self, ctx2000):
        for i in range(0, len(ctx2000.entries), 97):
            y = 2000 // int(ctx2000.abs_values[i])
            assert ctx2000.prefix[i] == ctx2000.table.count_upto(y)

    # squares and their neighbours, where the split at isqrt(x) sits
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 15, 16, 17, 24, 25, 26, 9999, 10000, 10001])
    def test_prefix_counts_match_brute_force(self, x):
        ctx = build_context(x)
        a = np.array(sorted(abs(d) for d in brute_discriminants(x)))
        assert ctx.prefix.dtype == np.int32
        assert ctx.prefix.tolist() == [int((a <= x // v).sum()) for v in a]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_chi_at_two_is_kronecker_for_every_residue(self, dtype):
        d = np.arange(-40, 41, dtype=dtype)  # every residue mod 8, both signs
        chi = _chi_values(d, 2)
        assert chi.dtype == np.int8
        assert chi.tolist() == [kronecker(int(v), 2) for v in d]


class TestScanPairs:
    @pytest.mark.parametrize("x", [10, 100, 2000])
    def test_matches_brute_force_oracle(self, x):
        rep = scan_pairs(x)
        assert (rep.pairs_total, rep.pairs_excluded, rep.sum_eta) == brute_force_pair_sum(x)

    def test_worker_count_independence(self):
        ctx = build_context(5000)
        reports = [scan_pairs(5000, ctx=ctx, workers=w) for w in (1, 2, 5)]
        assert reports[0] == reports[1] == reports[2]

    def test_average_is_at_least_two(self, ctx2000):
        rep = scan_pairs(2000, ctx=ctx2000)
        assert rep.avg_eta >= 2
        assert rep.pairs_excluded <= rep.pairs_total

    def test_tiny_cap_raises(self, ctx2000):
        with pytest.raises(CapExceededError):
            scan_pairs(2000, cap=2, ctx=ctx2000)

    def test_refs_and_deltas_present(self, ctx2000):
        rep = scan_pairs(2000, ctx=ctx2000, k_terms=120)
        assert set(rep.refs) == {"theta", "combined", "Theta"}
        for name in rep.refs:
            assert isinstance(rep.deltas[name], Fraction)


class TestOneProcessKernels:
    """No engine starts a worker pool, whatever `workers` says."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a worker pool was requested")

        monkeypatch.setattr(multiprocessing, "get_context", fail)
        monkeypatch.setattr(multiprocessing, "Pool", fail)

    def test_scan_pairs(self, no_pool):
        assert scan_pairs(5000, workers=4) == scan_pairs(5000, workers=1)

    def test_density_lt(self, no_pool, ctx2000):
        rep = density_lt(2000, [(2, 1), (3, -1)], ctx2000)
        assert 0 < rep.rows[0].count < rep.rows[0].total

    def test_decomposition_audit(self, no_pool, ctx2000):
        audit = decomposition_audit(2000, ctx=ctx2000)
        assert audit.lhs_sum_eta == scan_pairs(2000, ctx=ctx2000).sum_eta

    def test_stub_is_live(self, no_pool):
        with pytest.raises(AssertionError, match="worker pool"):
            multiprocessing.get_context("fork")
        with pytest.raises(AssertionError, match="worker pool"):
            multiprocessing.Pool(2)


class TestAudit:
    def test_agrees_with_scan_on_sum_eta(self, ctx2000):
        scan = scan_pairs(2000, ctx=ctx2000)
        audit = decomposition_audit(2000, ctx=ctx2000)
        assert audit.lhs_sum_eta == scan.sum_eta
        assert audit.pairs_total == scan.pairs_total
        assert audit.pairs_excluded == scan.pairs_excluded

    def test_difference_is_exactly_the_identity_gap(self, ctx2000):
        a = decomposition_audit(2000, ctx=ctx2000)
        assert a.difference == a.lhs_sum_eta - (
            a.rhs_sum_n_d2 + a.rhs_hit_sum_n_d1 - a.rhs_hit_sum_n_d2
        )

    def test_no_violations_off_the_divisor_branch(self, ctx2000):
        assert decomposition_audit(2000, ctx=ctx2000).nondivisor_violations == 0

    def test_mismatch_examples_sorted_and_correct(self, ctx2000):
        a = decomposition_audit(2000, ctx=ctx2000)
        keys = [abs(m.d1 * m.d2) for m in a.mismatch_examples]
        assert keys == sorted(keys)
        assert len(a.mismatch_examples) == 10
        first = a.mismatch_examples[0]
        assert (first.d1, first.d2, first.eta, first.n_d1) == (-3, -15, 5, 2)
        assert any(
            (m.d1, m.d2, m.eta, m.n_d1) == (5, -15, 3, 2) for m in a.mismatch_examples
        )

    def test_range_split_independence(self, ctx2000):
        # the (lo, hi) ranges of D2 add up to the whole-table audit
        whole = decomposition_audit(2000, ctx=ctx2000)
        primes = sieve_primes(int(ctx2000.nvals.max()))
        n = len(ctx2000.entries)
        parts = [
            experiments._audit_chunk(ctx2000, DEFAULT_ETA_CAP, primes, (lo, hi))
            for lo, hi in ((0, 1), (1, n // 3), (n // 3, n))
        ]
        totals = [sum(part[i] for part in parts) for i in range(9)]
        assert totals == [
            whole.pairs_total,
            whole.pairs_excluded,
            whole.lhs_sum_eta,
            whole.rhs_sum_n_d2,
            whole.rhs_hit_sum_n_d1,
            whole.rhs_hit_sum_n_d2,
            whole.hit_pairs,
            whole.nondivisor_violations,
            whole.mismatch_count,
        ]
        examples = sorted((e for part in parts for e in part[9]), key=lambda t: t[:3])
        assert [e[3] for e in examples[:10]] == whole.mismatch_examples


class TestDensityLemma:
    def test_exact_counts_match_brute_force_at_x100(self):
        ctx = build_context(100)
        ds = brute_discriminants(100)
        rep = density_lemma(100, 2, ctx)
        for row, sign in zip(rep.rows, (1, -1, 0)):
            assert row.count == sum(1 for d in ds if kronecker(d, 2) == sign)
            assert row.total == len(ds)

    @pytest.mark.parametrize("p", [3, 7, 1009, 1223, 1000003])
    def test_chi_table_matches_kronecker(self, ctx2000, p):
        # p <= len(entries) builds the residue table from squares; larger p
        # applies Euler's criterion to the distinct residues only
        chi = ctx2000.chi_array(p)
        assert [int(c) for c in chi] == [kronecker(int(d), p) for d in ctx2000.entries]

    def test_large_prime_costs_what_the_input_costs(self):
        p = 10_000_019
        ctx = build_context(1000)
        start = time.perf_counter()
        rep = density_lemma(1000, p, ctx)
        assert time.perf_counter() - start < 2.0
        ds = [int(d) for d in ctx.entries]
        for row, sign in zip(rep.rows, (1, -1, 0)):
            assert row.count == sum(1 for d in ds if kronecker(d, p) == sign)

    def test_rows_sum_to_one_exactly(self, ctx2000):
        for p in (2, 3, 5):
            rep = density_lemma(2000, p, ctx2000)
            assert sum(r.observed for r in rep.rows) == 1
            assert sum(r.predicted for r in rep.rows) == 1

    def test_predictions_for_p3(self, ctx2000):
        rep = density_lemma(2000, 3, ctx2000)
        assert [r.predicted for r in rep.rows] == [
            Fraction(3, 8),
            Fraction(3, 8),
            Fraction(1, 4),
        ]


class TestDensityPollack:
    def test_exact_counts_match_scalar_op(self, ctx2000):
        rep = density_pollack(2000, 3, ctx2000)
        ds = [d for d in brute_discriminants(2000) if d != 1]
        for row, p in zip(rep.rows, (2, 3, 5)):
            assert row.count == sum(
                1 for d in ds if least_negative_prime(d).prime == p
            )
        assert rep.excluded == 1

    def test_warning_outside_uniform_range(self, ctx2000):
        rep = density_pollack(2000, 4, ctx2000)
        assert any("uniform range" in w for w in rep.warnings)

    def test_predicted_subprobability(self, ctx2000):
        rep = density_pollack(2000, 4, ctx2000)
        assert sum(r.predicted for r in rep.rows) < 1


class TestDensityLT:
    @pytest.mark.parametrize(
        "pattern",
        [
            [(2, 0)],
            [(2, -1)],
            [(2, 1), (3, -1)],
            [(2, 0), (3, 0)],
            [(3, 0), (5, 0), (7, 1)],
            # primes above x divide no D2, so every D2 takes the closed form
            [(1009, 1)],
            [(1009, -1), (1013, 1)],
            [(1013, 0)],
        ],
    )
    def test_exact_counts_match_brute_force(self, pattern):
        x = 1000
        ds = brute_discriminants(x)
        matched = total = 0
        for d2 in ds:
            bound = x // abs(d2)
            for d1 in ds:
                if abs(d1) > bound:
                    break
                total += 1
                ok = True
                for p, want in pattern:
                    s = kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)
                    if s != want:
                        ok = False
                        break
                matched += ok
        row = density_lt(x, pattern).rows[0]
        assert (row.count, row.total) == (matched, total)

    def test_predictions(self, ctx2000):
        assert density_lt(2000, [(2, 0)], ctx2000).rows[0].predicted == Fraction(1, 9)
        assert density_lt(2000, [(2, -1)], ctx2000).rows[0].predicted == Fraction(4, 9)
        assert density_lt(2000, [(2, 1), (3, -1)], ctx2000).rows[0].predicted == Fraction(4, 9) * Fraction(15, 32)

    def test_repeated_prime_rejected(self, ctx2000):
        with pytest.raises(ValueError):
            density_lt(2000, [(2, 1), (2, -1)], ctx2000)

    def test_range_split_independence(self, ctx2000):
        # the (lo, hi) ranges of D2 add up to the whole-table count
        pattern = ((2, 1), (3, -1))
        row = density_lt(2000, pattern, ctx2000).rows[0]
        n = len(ctx2000.entries)
        parts = [experiments._lt_chunk(ctx2000, pattern, b) for b in ((0, n // 2), (n // 2, n))]
        assert (sum(t for t, _ in parts), sum(m for _, m in parts)) == (row.total, row.count)


class TestCountsAndHarmonic:
    def test_pair_count_exact_small(self):
        assert pair_count_check(10).observed == 14

    @pytest.mark.parametrize("x", [100, 2000])
    def test_pair_count_matches_double_loop(self, x):
        ds = brute_discriminants(x)
        brute = sum(1 for d2 in ds for d1 in ds if abs(d1 * d2) <= x)
        assert pair_count_check(x).observed == brute


@pytest.mark.parametrize(
    "fn,x",
    [(average_nd, 1), (average_nd, 2), (pair_count_check, 1)],
    ids=["average_nd-1", "average_nd-2", "pair_count_check-1"],
)
def test_small_x_is_refused(fn, x):
    # no D != 1 to average over, or a log x reference of 0
    with pytest.raises(ValueError):
        fn(x)


class TestAverages:
    def test_average_nd_at_x10(self):
        # n over {-3, -4, 5, -7, 8, -8} is [2, 3, 2, 3, 3, 5]:
        # chi_{-8}(3) = +1 and chi_{-8}(5) = -1, so n(-8) = 5
        rep = average_nd(10)
        assert rep.average == Fraction(18, 6) == 3
        assert rep.count == 6

    def test_average_n1_at_x10(self):
        rep = average_n1(10)
        assert rep.average == Fraction(7, 3)
        assert rep.count == 3

    def test_average_n1_matches_scalar_oracle(self):
        odd = sieve_primes(20000)[1:]
        n1 = [least_nonresidue(p) for p in odd]
        xs = list(range(3, 200)) + list(range(200, 20000, 911)) + [19997, 20000]
        for x in xs:
            count = sum(1 for p in odd if p <= x)
            rep = average_n1(x)
            assert (rep.total, rep.count) == (sum(n1[:count]), count), x

    def test_average_nd_matches_scalar(self, ctx2000):
        rep = average_nd(2000, ctx2000)
        ds = [d for d in brute_discriminants(2000) if d != 1]
        assert rep.total == sum(least_negative_prime(d).prime for d in ds)
        assert rep.count == len(ds)

    def test_delta_fields(self, ctx2000):
        rep = average_nd(2000, ctx2000, k_terms=120)
        assert isinstance(rep.delta, Fraction)
        assert rep.reference.startswith("4.98094733")
