"""Pair scans, audits, densities, averages: exact cross-checks at small x."""

import multiprocessing
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest

from eta_lab.arith import is_fundamental, iter_primes, kronecker, least_nonresidue, sieve_primes
from eta_lab import experiments
from eta_lab.constants import combined_constant, rigorous_constant
from eta_lab.experiments import (
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
from eta_lab.newform import least_negative_prime
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

    def test_kernels_leave_the_context_unchanged(self):
        ctx = build_context(100_000)
        density_lemma(100_000, 5, ctx)  # one cached full column, which density_lt reads

        def snapshot():
            arrays = [ctx.entries, ctx.abs_values, ctx.nvals, ctx.prefix, ctx.qmask]
            stores = [ctx.prefix_chi, ctx.chi, ctx.negcum, ctx.eqcum]
            return (
                [a.copy() for a in arrays],
                [{k: v.copy() for k, v in d.items()} for d in stores],
                ctx.cache_primes,
            )

        before = snapshot()
        scan_pairs(100_000, ctx=ctx, k_terms=120)
        density_lt(100_000, [(2, 1), (3, -1), (5, 0), (7, -1)], ctx)
        after = snapshot()
        assert all(np.array_equal(a, b) for a, b in zip(before[0], after[0]))
        for d0, d1 in zip(before[1], after[1]):
            assert d0.keys() == d1.keys()
            assert all(np.array_equal(d0[k], d1[k]) for k in d0)
        assert before[2] == after[2]

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


def sign_rule(signs):
    """(n, bits) of a sequence of chi_D(p_i) over the residue tables' primes."""
    bits = 0
    for i, (p, chi) in enumerate(zip(experiments._WHEEL_PRIMES, signs)):
        if chi == -1:
            return p, bits
        if chi == 0:
            bits |= 1 << i
    return 0, bits


class TestResidueTables:
    """n(D) <= 13 and qmask bits 0..5 by D mod 120120, against arith.kronecker."""

    def test_every_class_of_each_primes_period(self):
        # chi_D(p_i) from kronecker on each prime's own period, spread over
        # the wheel; the sign rule then runs per distinct sign vector
        wheel = np.arange(experiments._WHEEL)
        signs = np.stack([
            np.array([kronecker(a, p) for a in range(8 if p == 2 else p)])[wheel % (8 if p == 2 else p)]
            for p in experiments._WHEEL_PRIMES
        ], axis=1)
        vectors, where = np.unique(signs, axis=0, return_inverse=True)
        rules = np.array([sign_rule(v) for v in vectors.tolist()])[where.ravel()]
        n, bits = experiments._residue_tables()
        assert experiments._WHEEL == 120120
        assert n.tolist() == rules[:, 0].tolist()
        assert bits.tolist() == rules[:, 1].tolist()

    def test_sampled_residues(self):
        n, bits = experiments._residue_tables()
        for r in random.Random(16).sample(range(experiments._WHEEL), 2000):
            expected = sign_rule([kronecker(r, p) for p in experiments._WHEEL_PRIMES])
            assert (int(n[r]), int(bits[r])) == expected, r

    def test_cache_primes_when_the_tables_settle_every_d(self):
        # every |D| <= 230 has n(D) <= 13, so the pass after the tables meets
        # no D; -231 = -3*7*11 is the first D with n(D) = 17
        ctx = build_context(230)
        assert int(ctx.nvals.max()) == 13
        assert ctx.cache_primes == (2, 3, 5, 7, 11)
        ctx = build_context(231)
        assert (int(ctx.entries[-1]), int(ctx.nvals[-1])) == (-231, 17)
        assert ctx.cache_primes == (2, 3, 5, 7, 11, 13)

    def test_bit_six_is_seventeen(self):
        # -1496 = -8*11*17 is the first D with 17 | D and n(D) > 17
        ctx = build_context(1496)
        assert ctx.cache_primes[6] == 17
        bit6 = (ctx.qmask >> 6) & 1 == 1
        assert np.array_equal(bit6, (ctx.entries % 17 == 0) & (ctx.nvals > 17))
        assert ctx.entries[bit6].tolist() == [-1496]


def context_parts(ctx):
    """What build_context derives from the table, as comparable bytes and tuples."""
    return (
        ctx.nvals.tobytes(),
        ctx.qmask.tobytes(),
        ctx.prefix.tobytes(),
        ctx.cache_primes,
        [(p, chi.tobytes()) for p, chi in ctx.prefix_chi.items()],
    )


class TestSlicedPasses:
    """The sign pass, the chi columns and the n(D) counts run one slice of the
    table at a time; the slice length changes no value."""

    # every x to 300 at 7 entries a slice puts each table edge at each offset
    # in a slice; all of 1..3000 at both lengths took 112 s
    @pytest.mark.parametrize("rows, xs", [
        (7, [*range(1, 301), 3000]),
        (64, [*range(1, 3001, 13), 3000, 100_000]),
    ])
    def test_build_context_equals_a_one_slice_build(self, monkeypatch, rows, xs):
        for x in xs:
            monkeypatch.setattr(experiments, "_TABLE_SLICE", 1 << 30)
            whole = context_parts(build_context(x))
            monkeypatch.setattr(experiments, "_TABLE_SLICE", rows)
            assert context_parts(build_context(x)) == whole, x

    @pytest.mark.parametrize("p", [2, 3, 11, 53, 1009])
    def test_chi_is_kronecker_across_slice_edges(self, monkeypatch, p):
        # 2 gathers by D mod 8, 3 and 11 read the residue table, whose squares
        # span several slices at 53; 1009 exceeds the input and takes Euler's
        # criterion
        monkeypatch.setattr(experiments, "_TABLE_SLICE", 7)
        d = build_context(1000).entries[:200]
        assert _chi_values(d, p).tolist() == [kronecker(int(v), p) for v in d]

    def test_sliced_counts_match_a_one_slice_count(self, monkeypatch):
        ctx = build_context(2000)
        monkeypatch.setattr(experiments, "_TABLE_SLICE", 1 << 30)
        whole = (density_pollack(2000, 6, ctx), average_nd(2000, ctx))
        monkeypatch.setattr(experiments, "_TABLE_SLICE", 7)
        assert (density_pollack(2000, 6, ctx), average_nd(2000, ctx)) == whole


class TestPeakMemory:
    """No pass over the 1e6 table allocates a temporary as long as the table."""

    @pytest.fixture(scope="class")
    def ctx6(self):
        return build_context(10**6)

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_build_context_peaks_at_its_context(self):
        # an N-length sign pass peaked at twice the context (19.7 against 10.1 MiB);
        # |D| is derived, so only the stored arrays count
        peak, ctx = self.peak(lambda: build_context(10**6))
        arrays = (ctx.entries, ctx.nvals, ctx.prefix, ctx.qmask, *ctx.prefix_chi.values())
        assert peak <= sum(a.nbytes for a in arrays) + 2 * 10**6

    # density_pollack counts one slice at a time in intp; average_nd sums in place
    @pytest.mark.parametrize("engine, bytes_per_entry", [
        (lambda c: density_pollack(10**6, 6, c), 4),
        (lambda c: average_nd(10**6, c), 1),
    ])
    def test_nd_counts_peak_below_one_column(self, ctx6, engine, bytes_per_entry):
        engine(ctx6)  # the reference constants are computed once per process
        assert self.peak(lambda: engine(ctx6))[0] < bytes_per_entry * len(ctx6.entries)

    @pytest.mark.parametrize("p", [2, 3])
    def test_density_lemma_peaks_at_its_column_plus_one_slice(self, ctx6, p):
        ctx = build_context(10**6)  # a context without a cached column at p
        density_lemma(10**6, p, ctx6)  # a first call pays the one-time allocations
        assert self.peak(lambda: density_lemma(10**6, p, ctx))[0] < (
            len(ctx.entries) + 16 * experiments._TABLE_SLICE
        )


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

    def test_refs_and_deltas_present(self, ctx2000):
        rep = scan_pairs(2000, ctx=ctx2000, k_terms=120)
        assert rep.refs == {
            "theta": rigorous_constant("theta", 120),
            "combined": combined_constant(120),
            "Theta": rigorous_constant("Theta", 120),
        }
        for name, rv in rep.refs.items():
            assert rep.deltas[name] == rep.avg_eta - rv.midpoint


def _split(ctx) -> int:
    """r': the number of D with |D| <= isqrt(x), where the pair kernels split."""
    return ctx.table.count_upto(isqrt(ctx.x))


def _audit_totals(ctx, bounds):
    primes = sieve_primes(max(2, int(ctx.nvals.max())))
    return experiments._audit_chunk(ctx, primes, bounds)[:3]


class TestPairKernel:
    """_scan_chunk against the definitional audit, around the split at r'."""

    def test_every_x_to_3000_matches_the_audit(self):
        # the audit rescans each pair with |D1*D2| <= 3000 once, as a table
        # of two entries; its (pairs, excluded, sum eta) summed by |D1*D2|
        # are its totals at every x <= 3000, while r' moves with isqrt(x)
        top = build_context(3000)
        primes = sieve_primes(int(top.nvals.max()))
        by_product = np.zeros((3001, 3), dtype=np.int64)
        d = top.entries.tolist()
        for j in range(len(d)):
            for i in range(int(top.prefix[j])):
                pair = SimpleNamespace(
                    entries=top.entries[[i, j]], nvals=top.nvals[[i, j]], prefix=np.array([0, 1])
                )
                got = experiments._audit_chunk(pair, primes, (1, 2))[:3]
                by_product[abs(d[i] * d[j])] += got
        expected = by_product.cumsum(axis=0)
        for x in range(1, 3001):
            ctx = build_context(x)
            got = experiments._scan_chunk(ctx, (0, len(ctx.entries)))
            assert got == tuple(expected[x]), x

    @pytest.mark.parametrize("x", [26, 3000, 100_000])
    def test_ranges_straddling_the_split_match_the_audit(self, x):
        ctx = build_context(x)
        r = _split(ctx)
        n = len(ctx.entries)
        for lo, hi in ((0, r), (r, n), (0, r + 1), (r - 1, r + 1), (max(1, r - 7), min(n, r + 9))):
            got = experiments._scan_chunk(ctx, (lo, hi))
            assert got == _audit_totals(ctx, (lo, hi)), (lo, hi)


class TestSampledAudit1e7:
    """The pair kernel against the audit at x = 1e7, on seeded D2 ranges."""

    @pytest.fixture(scope="class")
    def ctx7(self):
        return build_context(10**7)

    def test_sampled_ranges_match_the_audit(self, ctx7):
        n = len(ctx7.entries)
        r = _split(ctx7)
        budget = 20_000  # pairs per range
        # the first D2 whose prefix fits the budget, then log-uniform starts,
        # which weight the sample toward small |D2|
        first = int(np.searchsorted(-ctx7.prefix, -budget))
        rng = random.Random(20221)
        starts = [round(first * (n / first) ** rng.random()) for _ in range(6)]
        # and one D2 whose prefix spans two D1 slices of the long-prefix walk
        long = int(np.searchsorted(-ctx7.prefix, -experiments._SLICE)) - 1
        assert 2 * experiments._SLICE > ctx7.prefix[long] > experiments._SLICE
        ranges = [(r - 4, r + 4), (long, long + 1)]
        ranges += [(lo, min(n, lo + budget // int(ctx7.prefix[lo]))) for lo in starts]
        for lo, hi in ranges:
            got = experiments._scan_chunk(ctx7, (lo, hi))
            assert got == _audit_totals(ctx7, (lo, hi)), (lo, hi)

    def test_whole_table_is_the_sum_of_ranges(self, ctx7):
        n = len(ctx7.entries)
        r = _split(ctx7)
        rng = random.Random(7)
        cuts = sorted({0, 1, r - 1, r, r + 1, n, *(rng.randrange(n) for _ in range(5))})
        parts = [experiments._scan_chunk(ctx7, b) for b in zip(cuts, cuts[1:])]
        whole = experiments._scan_chunk(ctx7, (0, n))
        assert whole == tuple(map(sum, zip(*parts)))


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
            experiments._audit_chunk(ctx2000, primes, (lo, hi))
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
        # applies Euler's criterion to each entry
        chi = ctx2000.chi_array(p)
        assert [int(c) for c in chi] == [kronecker(int(d), p) for d in ctx2000.entries]

    def test_euler_path_spans_slices(self):
        # p beyond the table takes Euler's criterion one slice at a time
        ctx = build_context(150_000)
        p = 1_000_003
        assert p > len(ctx.entries) > experiments._TABLE_SLICE
        chi = _chi_values(ctx.entries, p)
        assert chi.dtype == np.int8
        assert chi.tolist() == [kronecker(int(d), p) for d in ctx.entries]

    def test_chi_is_kronecker_on_both_sides_of_the_table_length(self):
        # the residue table serves p <= len(d), Euler's criterion the larger
        # p, over two slices for the largest density prime 2^31 - 1
        entries = build_context(120_000).entries
        for n, p in ((1222, 1223), (1223, 1223), (1224, 1223),
                     (experiments._TABLE_SLICE + 5, 2**31 - 1)):
            d = entries[:n]
            assert _chi_values(d, p).tolist() == [kronecker(int(v), p) for v in d], (n, p)

    def test_prime_beyond_the_int64_euler_range_is_refused(self):
        assert experiments.check_prime(2**31 - 1) == 2**31 - 1
        with pytest.raises(ValueError, match="2\\^31"):
            density_lemma(10, 2**31 + 11)

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

    @pytest.mark.parametrize("x", [1, 26, 2000, 100_000])
    def test_signs_at_each_prime_sum_to_the_pairs(self, x):
        # every pair has exactly one sign at p, so the +1, -1 and 0 counts
        # partition the pairs; p = 1009 and 100003 divide no D2 up to 1000
        ctx = build_context(x)
        pairs = int(ctx.prefix.sum())
        for p in (2, 3, 5, 7, 13, 31, 1009, 100003):
            rows = [density_lt(x, [(p, s)], ctx).rows[0] for s in (1, -1, 0)]
            assert {row.total for row in rows} == {pairs}
            assert sum(row.count for row in rows) == pairs, p
        # and the nine sign pairs at two primes
        two = [density_lt(x, [(2, s), (3, t)], ctx).rows[0].count
               for s in (1, -1, 0) for t in (1, -1, 0)]
        assert sum(two) == pairs

    def test_ranges_straddling_the_split(self):
        ctx = build_context(100_000)
        pattern = ((2, 1), (3, -1), (5, 0))
        whole = experiments._lt_chunk(ctx, pattern, (0, len(ctx.entries)))
        r = _split(ctx)
        cuts = [0, 1, r - 1, r, r + 1, r + 50, len(ctx.entries)]
        parts = [experiments._lt_chunk(ctx, pattern, b) for b in zip(cuts, cuts[1:])]
        assert tuple(map(sum, zip(*parts))) == whole

    def test_more_than_sixteen_primes(self):
        # 20 pattern primes, more than the CLI's 16, with
        # the signs of the pair (5, -24), which moves the bits of 2 and 3
        x = 300

        def sign(d1, d2, p):
            return kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)

        pattern = [(p, sign(5, -24, p)) for p in sieve_primes(71)]
        assert len(pattern) == 20
        ds = brute_discriminants(x)
        matched = sum(
            all(sign(d1, d2, p) == want for p, want in pattern)
            for d2 in ds for d1 in ds if abs(d1 * d2) <= x
        )
        assert matched >= 1
        assert density_lt(x, pattern).rows[0].count == matched

    def test_more_than_thirty_two_primes_refused(self):
        with pytest.raises(ValueError, match="32"):
            density_lt(1000, [(p, 1) for p in sieve_primes(139)])

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


@pytest.mark.parametrize(
    "call",
    [
        lambda x, ctx: scan_pairs(x, ctx=ctx),
        lambda x, ctx: decomposition_audit(x, ctx=ctx),
        lambda x, ctx: density_lemma(x, 2, ctx),
        lambda x, ctx: density_pollack(x, 2, ctx),
        lambda x, ctx: density_lt(x, [(2, 1)], ctx),
        pair_count_check,
        average_nd,
    ],
    ids=["scan_pairs", "decomposition_audit", "density_lemma", "density_pollack",
         "density_lt", "pair_count_check", "average_nd"],
)
def test_context_of_another_x_is_refused(call, ctx2000):
    # a report for x read from a table of another x would be silently wrong
    for x in (1000, 3000):
        with pytest.raises(ValueError, match="built at x = 2000"):
            call(x, ctx2000)
    call(2000, ctx2000)


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
        rep = average_nd(2000, ctx2000)
        assert rep.reference == rigorous_constant("Theta", 1000)
        assert rep.delta == rep.average - rep.reference.midpoint
