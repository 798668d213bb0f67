"""Pair scans, audits, densities, averages: exact cross-checks at small x."""

import multiprocessing
import random
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from functools import partial
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
from eta_lab.reports import AuditReport
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
        assert sorted(ctx.chi) == [
            q for b, q in enumerate(ctx.cache_primes) if (used >> b) & 1
        ]
        for q, chi in ctx.chi.items():
            b = ctx.cache_primes.index(q)
            has_bit = (ctx.qmask >> b) & 1 == 1
            assert len(chi) == int(ctx.prefix[has_bit].max()), q
            assert chi.tolist() == [kronecker(int(d), q) for d in ctx.entries[: len(chi)]], q

    def test_lemma_counts_leave_the_chi_store_unchanged(self):
        # neither the kernels nor density_lemma store a column: after a scan,
        # a pattern count and density_lemma at the kernel's primes and at 7,
        # ctx.chi holds build_context's columns, and ctx.signs the counts
        ctx = build_context(2000)
        before = {q: col.copy() for q, col in ctx.chi.items()}
        scan_pairs(2000, ctx=ctx, k_terms=120)
        density_lt(2000, [(2, 1), (3, -1)], ctx)
        for q in [*ctx.chi, 7]:
            rep = density_lemma(2000, q, ctx)
            chi = [kronecker(int(d), q) for d in ctx.entries]
            assert ctx.signs[q] == tuple(r.count for r in rep.rows) == tuple(
                chi.count(sign) for sign in (1, -1, 0)), q
        assert ctx.chi.keys() == before.keys()
        assert all(np.array_equal(ctx.chi[q], col) for q, col in before.items())
        assert ctx.signs.keys() == {*before, 7}

    def test_density_lemma_reads_its_memo(self, monkeypatch):
        ctx = build_context(100_000)
        short = ctx.chi[5]
        assert len(short) < len(ctx.entries)
        rep = density_lemma(100_000, 5, ctx)
        # one store of columns, unchanged, and one memo of counts
        assert [f.name for f in fields(ctx) if isinstance(getattr(ctx, f.name), dict)] == ["chi", "signs"]
        assert ctx.chi[5] is short
        chi = _chi_values(ctx.entries, 5)
        assert ctx.signs == {5: tuple(int(np.count_nonzero(chi == sign)) for sign in (1, -1, 0))}
        # a second call reads the memo: it computes no chi value
        monkeypatch.setattr(experiments, "_chi_reader", None)
        assert density_lemma(100_000, 5, ctx) == rep
        with pytest.raises(TypeError):
            density_lemma(100_000, 7, ctx)

    def test_kernels_read_replaced_columns(self):
        # density_lemma at the kernel's primes replaces no column: over ranges
        # straddling r', both kernels still give a fresh context's results
        x = 100_000
        fresh, ctx = build_context(x), build_context(x)
        for p in (2, 3, 5, 7):
            density_lemma(x, p, ctx)
        r, n = _split(ctx), len(ctx.entries)
        pattern = ((2, 1), (3, -1), (5, 0), (7, -1))
        for bounds in ((0, n), (0, r + 1), (r - 1, r + 1), (r - 7, r + 50), (r, n)):
            assert experiments._scan_chunk(ctx, bounds) == experiments._scan_chunk(fresh, bounds), bounds
            assert (experiments._lt_chunk(ctx, pattern, bounds)
                    == experiments._lt_chunk(fresh, pattern, bounds)), bounds
        assert scan_pairs(x, ctx=ctx, k_terms=120) == scan_pairs(x, ctx=fresh, k_terms=120)

    def test_context_is_frozen_at_nine_fields(self):
        ctx = build_context(100)
        assert [f.name for f in fields(ctx)] == [
            "x", "table", "nvals", "runs", "qbyte", "qhigh", "cache_primes", "chi", "signs",
        ]
        with pytest.raises(FrozenInstanceError):
            ctx.chi = {}
        with pytest.raises(FrozenInstanceError):
            ctx.signs = {}
        with pytest.raises(FrozenInstanceError):
            ctx.x = 1
        # prefix and qmask are built on each access, never set
        assert ctx.prefix is not ctx.prefix and ctx.qmask is not ctx.qmask
        with pytest.raises(FrozenInstanceError):
            ctx.prefix = ctx.prefix
        # read, never set: the two always-empty mappings are class attributes
        assert dict(ctx.negcum) == dict(ctx.eqcum) == {}
        with pytest.raises(TypeError):
            ctx.negcum[2] = np.zeros(1)

    def test_kernels_leave_the_context_unchanged(self):
        ctx = build_context(100_000)
        density_lemma(100_000, 5, ctx)  # one memo entry

        def snapshot():
            arrays = [ctx.entries, ctx.table.abs_values, ctx.nvals, ctx.prefix, ctx.qmask]
            stores = [ctx.chi, ctx.negcum, ctx.eqcum]
            return (
                [a.copy() for a in arrays],
                [{k: v.copy() for k, v in d.items()} for d in stores],
                (ctx.cache_primes, dict(ctx.signs)),
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
            y = 2000 // int(ctx2000.table.abs_values[i])
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
        # every residue mod 8, both signs; then inputs shorter than the mod-8
        # table, which still gather from it rather than take Euler's criterion
        for values in (range(-40, 41), [], [-3]):
            d = np.array(values, dtype=dtype)
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

    @pytest.mark.parametrize("d", [9, 25])
    def test_signs_refuses_a_square_with_no_minus_one(self, d):
        # chi_D(p) is never -1 for a square D, so the walk to |D| ends without
        # one; a fundamental D != 1 always meets its -1 below |D|
        with pytest.raises(RuntimeError, match="not a fundamental"):
            experiments._signs(np.array([-3, d, 5], dtype=np.int32))

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
        [(p, chi.tobytes()) for p, chi in ctx.chi.items()],
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


def reference_prefix(ctx):
    """#{D1 : |D1| <= x // |D2|} for every entry, by binary search on |D|."""
    a = np.abs(ctx.entries.astype(np.int64))
    return np.searchsorted(a, ctx.x // a, side="right")


def check_readers(ctx, prefix, qmask, ranges):
    """The slice readers of ctx against the whole-table prefix and qmask on
    each range [a, b)."""
    for a, b in ranges:
        assert np.array_equal(ctx.prefix_slice(a, b), prefix[a:b]), (ctx.x, a, b)
        assert ctx.prefix_slice(a, b).dtype == np.int32
        assert ctx.pair_count(a, b) == int(prefix[a:b].sum()), (ctx.x, a, b)
        q = ctx.qmask_slice(a, b)
        assert q.dtype == np.uint32 and np.array_equal(q, qmask[a:b]), (ctx.x, a, b)


class TestSliceReaders:
    """prefix is stored as runs and the qmask as one byte plus the sorted
    exceptions; the slice readers equal the whole-table arrays."""

    def test_every_x_to_3000(self):
        # the slices of a tiling of each table, about 8 of a width that moves
        # with x, plus the empty and the whole range, and at every tenth x the
        # two entries around each run end; the references are the definitions
        for x in range(1, 3001):
            ctx = build_context(x)
            n = len(ctx.entries)
            prefix, qmask = reference_prefix(ctx), experiments._signs(ctx.entries)[1]
            assert np.array_equal(ctx.prefix, prefix) and np.array_equal(ctx.qmask, qmask), x
            width = n // 8 + 1 + x % 5
            ranges = [(a, min(n, a + width)) for a in range(0, n, width)]
            ranges += [(0, n), (n // 2, n // 2)]
            if x % 10 == 0:
                ranges += [(int(e) - 1, int(e) + 1) for e in ctx.runs[1][:-1]]
            check_readers(ctx, prefix, qmask, ranges)
            # runs: increasing ends up to n, decreasing values (no empty run, no
            # two equal neighbours); the byte flags the exceptions and only them
            values, ends = ctx.runs
            assert ends[-1] == n and (np.diff(ends) > 0).all() and (np.diff(values) < 0).all()
            at, masks = ctx.qhigh
            assert np.array_equal(at, np.flatnonzero(qmask >= 64)) and np.array_equal(masks, qmask[at])
            assert np.array_equal(ctx.qbyte, np.minimum(qmask, 64))

    def test_ranges_at_1e6(self):
        # ranges straddling r', the kernels' slice edges, run ends and
        # exception positions
        ctx = build_context(10**6)
        n = len(ctx.entries)
        r = _split(ctx)
        prefix, qmask = ctx.prefix, ctx.qmask
        assert np.array_equal(prefix, reference_prefix(ctx))
        assert np.array_equal(qmask, experiments._signs(ctx.entries)[1])
        rng = random.Random(24)
        ends = ctx.runs[1]
        at = ctx.qhigh[0]
        ranges = [(r - 1, r + 1), (r - 9, r + experiments._SLICE + 9), (0, r), (r, n), (0, n),
                  (n - 1, n), (n, n)]
        ranges += [(a, a + experiments._SLICE) for a in range(r, n - experiments._SLICE, 37_003)]
        for e in (int(e) for e in rng.sample(list(ends[:-1]), 50)):
            ranges += [(e - 1, e + 1), (e - 3, e), (e, e + 2), (e, e + 1)]
        for p in (int(p) for p in [*at[:5], *rng.sample(list(at), 50), *at[-5:]]):
            ranges += [(p, p + 1), (p - 2, p + 3), (p - 1, p), (p + 1, min(n, p + 700))]
        check_readers(ctx, prefix, qmask, ranges)

    @pytest.mark.parametrize("x", [3000, 100_000])
    def test_no_engine_reads_the_whole_table(self, monkeypatch, x):
        # every engine reads prefix and qmask a slice at a time: with the
        # whole-table properties raising, each gives the unpatched result
        def engines(ctx):
            r, n = _split(ctx), len(ctx.entries)
            pattern = ((2, 1), (3, -1), (5, 0))
            return [
                scan_pairs(x, ctx=ctx, k_terms=120),
                [experiments._lt_chunk(ctx, pattern, b) for b in ((0, r + 1), (r - 3, n), (r - 1, r + 9))],
                density_lt(x, pattern, ctx),
                density_lemma(x, 3, ctx),
                density_lt(x, [(3, -1), (7, 1)], ctx),  # after the lemma's count at 3
                density_pollack(x, 4, ctx),
                average_nd(x, ctx),
                pair_count_check(x, ctx),
                decomposition_audit(x, ctx),
            ]

        want = engines(build_context(x))

        def whole_table(ctx):
            raise AssertionError("an engine read a whole-table property")

        monkeypatch.setattr(experiments.ScanContext, "prefix", property(whole_table))
        monkeypatch.setattr(experiments.ScanContext, "qmask", property(whole_table))
        ctx = build_context(x)
        with pytest.raises(AssertionError, match="whole-table"):
            ctx.prefix
        assert engines(ctx) == want


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
        # |D|, prefix and the full qmask are derived, so only the stored parts
        # count: 3.95 MB, against 8.16 MB when prefix and qmask were stored
        peak, ctx = self.peak(lambda: build_context(10**6))
        n, r = len(ctx.entries), _split(ctx)
        arrays = (ctx.entries, ctx.nvals, ctx.qbyte, *ctx.runs, *ctx.qhigh)
        stored = sum(a.nbytes for a in arrays)
        # six bytes an entry (entries, nvals, the qmask byte), plus the runs
        # (O(r' + isqrt(x)), 1,066 at 1e6) and the exceptions (2,316 at 1e6)
        assert stored <= 6 * n + 100 * r
        assert peak <= stored + sum(a.nbytes for a in ctx.chi.values()) + 2 * 10**6

    # density_pollack counts one slice at a time in intp; average_nd sums in place
    @pytest.mark.parametrize("engine, bytes_per_entry", [
        (lambda c: density_pollack(10**6, 6, c), 4),
        (lambda c: average_nd(10**6, c), 1),
    ])
    def test_nd_counts_peak_below_one_column(self, ctx6, engine, bytes_per_entry):
        engine(ctx6)  # the reference constants are computed once per process
        assert self.peak(lambda: engine(ctx6))[0] < bytes_per_entry * len(ctx6.entries)

    def test_scan_kernel_peaks_at_its_direct_table_and_kept_d2(self, ctx6):
        # the one kernel temporary that grows with the table is the kept D2:
        # those in the leading runs (prefix above r') and those with a qmask
        # from 64 on, 16 bytes each. Besides them the kernel holds the direct
        # table, 64 int64 cells for each of the r' + 1 prefixes, and per
        # slice of D2 or of D1 cells at most six int64 arrays of _SLICE
        # entries. 0.84 MiB at 1e6, against 1.09 MiB for this bound.
        r = _split(ctx6)
        kept = int(np.count_nonzero((ctx6.prefix > r) | (ctx6.qmask >= experiments._DIRECT_ROWS)))
        bound = 8 * experiments._DIRECT_ROWS * (r + 1) + 16 * kept + 6 * 8 * experiments._SLICE
        whole = (0, len(ctx6.entries))
        experiments._scan_chunk(ctx6, whole)  # a first call pays the one-time allocations
        assert self.peak(lambda: experiments._scan_chunk(ctx6, whole))[0] < bound

    def test_pattern_kernel_peaks_at_its_cut_columns(self, ctx6):
        # the D1 column of pattern prime p covers the prefix of the first D
        # with p | D, |D| = 4 for p = 2 and p otherwise: about N/4, N/3, N/5,
        # ..., 0.87 MB over the first 16 primes at 1e6, against 9.7 MB for 16
        # full-length columns. Besides them the kernel holds the primes'
        # residue tables and, as the scan kernel does, its direct table, the
        # kept D2 and per slice at most six int64 arrays of _SLICE entries:
        # 1.83 MB at 1e6, against 1.98 MB for this bound.
        r, n = _split(ctx6), len(ctx6.entries)
        primes = sieve_primes(53)
        assert len(primes) == 16
        pattern = tuple((p, 1) for p in primes)
        cut = sum(ctx6.table.count_upto(10**6 // (4 if p == 2 else p)) for p in primes)
        tables = sum(8 if p == 2 else p for p in primes)
        sig = experiments._pattern_sides(ctx6, pattern, (0, n))[0](0, n)[0]
        kept = int(np.count_nonzero((ctx6.prefix > r) | (sig >= experiments._DIRECT_ROWS)))
        bound = (cut + tables + 8 * experiments._DIRECT_ROWS * (r + 1) + 16 * kept
                 + 6 * 8 * experiments._SLICE)
        assert bound < 16 * n
        experiments._lt_chunk(ctx6, pattern, (0, n))  # a first call pays the one-time allocations
        assert self.peak(lambda: experiments._lt_chunk(ctx6, pattern, (0, n)))[0] < bound

    @pytest.mark.parametrize("p", [2, 3])
    def test_density_lemma_peaks_at_its_column_plus_one_slice(self, ctx6, p):
        # the column is one slice's: density_lemma counts chi_D(p) slice by
        # slice and stores none, so nothing it holds grows with the table
        ctx = build_context(10**6)  # a context without counts at p
        density_lemma(10**6, p, ctx6)  # a first call pays the one-time allocations
        assert self.peak(lambda: density_lemma(10**6, p, ctx))[0] < 16 * experiments._TABLE_SLICE


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
    """r': the number of D with |D| <= isqrt(x), the D1 of the pair kernel's
    direct table; past about r' D2, every prefix is at most r'."""
    return ctx.table.count_upto(isqrt(ctx.x))


def _audit_totals(ctx, bounds):
    rep = experiments._audit_chunk(ctx, bounds)
    return rep.pairs_total, rep.pairs_excluded, rep.lhs_sum_eta


class TestPairKernel:
    """_scan_chunk against the definitional audit, around r', where the D2
    that read the direct table begin."""

    def test_every_x_to_3000_matches_the_audit(self):
        # the audit rescans each pair with |D1*D2| <= 3000 once, as a table
        # of two entries; its (pairs, excluded, sum eta) summed by |D1*D2|
        # are its totals at every x <= 3000, while r' moves with isqrt(x)
        top = build_context(3000)
        by_product = np.zeros((3001, 3), dtype=np.int64)
        d = top.entries.tolist()
        for j in range(len(d)):
            for i in range(int(top.prefix[j])):
                pair = SimpleNamespace(
                    x=top.x, entries=top.entries[[i, j]], nvals=top.nvals[[i, j]],
                    prefix_slice=lambda a, b: np.array([0, 1])[a:b],
                )
                by_product[abs(d[i] * d[j])] += _audit_totals(pair, (1, 2))
        expected = by_product.cumsum(axis=0)
        # the range reaches both paths of the kernel past r': at x = 3000, 9
        # D2 there have a qmask >= 64 and are kept, from D2 = -920 = -8 * 5 *
        # 23 on; every other D2 there reads the direct table at its qmask
        ranked = np.flatnonzero(top.qmask[_split(top):] >= experiments._DIRECT_ROWS)
        assert len(ranked) == 9 and top.entries[_split(top) + ranked[0]] == -920
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
        # empty ranges sum to zero, also for a pattern prime with no stored
        # column, which reads no chi value there
        assert 1009 not in ctx.chi
        for a in (0, r, n):
            assert experiments._scan_chunk(ctx, (a, a)) == _audit_totals(ctx, (a, a)) == (0, 0, 0), a
            assert experiments._lt_chunk(ctx, ((1009, 1),), (a, a)) == (0, 0), a

    @pytest.mark.parametrize("x", [3000, 100_000])
    def test_direct_and_ranked_rows_match_the_audit(self, x):
        # a D2 past r' whose qmask is below 64 reads the direct table at its
        # qmask; the others are kept and read the rows of their distinct
        # qmasks after the walk. Ranges straddling r' with only direct reads
        # past r' and with both; kept D2 alone, single D2.
        ctx = build_context(x)
        r = _split(ctx)
        ranked = r + np.flatnonzero(ctx.qmask[r:] >= experiments._DIRECT_ROWS)
        first = int(ranked[0])
        kinds = {
            "direct": [(r - 3, r + 60), (r - 1, first)],
            "ranked": [(int(j), int(j) + 1) for j in ranked[:4]],
            "both": [(r - 1, first + 1), (r - 3, int(ranked[2]) + 5)],
        }
        for kind, ranges in kinds.items():
            for lo, hi in ranges:
                high = ctx.qmask[max(lo, r) : hi] >= experiments._DIRECT_ROWS
                assert kind == ("direct" if not high.any() else "ranked" if high.all() else "both")
                got = experiments._scan_chunk(ctx, (lo, hi))
                assert got == _audit_totals(ctx, (lo, hi)), (kind, lo, hi)

    @pytest.mark.parametrize("x", [3000, 100_000])
    def test_each_d2_is_read_once(self, monkeypatch, x):
        # _pair_sums asks d2_side for each D2 once: the ranges it asks for
        # tile the bounds, for the scan and for a pattern whose D2 past r'
        # carry signatures from 64 on
        ctx = build_context(x)
        r, n = _split(ctx), len(ctx.entries)
        # nine primes: 17, 19 and 23 take bits 6..8
        pattern = tuple((p, 1) for p in sieve_primes(23))
        asked = []
        pair_sums = experiments._pair_sums

        def recording(ctx, bounds, d2_side, d1_side, values):
            def recorded(a, b):
                side = d2_side(a, b)
                asked.append((a, b, side[0]))
                return side

            return pair_sums(ctx, bounds, recorded, d1_side, values)

        monkeypatch.setattr(experiments, "_pair_sums", recording)
        chunks = {
            "scan": partial(experiments._scan_chunk, ctx),
            "pattern": partial(experiments._lt_chunk, ctx, pattern),
        }
        for kind, chunk in chunks.items():
            for bounds in ((0, n), (r - 1, r + 1), (r - 3, n), (r - 7, min(n, r + experiments._SLICE + 9))):
                asked.clear()
                chunk(bounds)
                asked.sort(key=lambda t: t[:2])
                assert all(a < b for a, b, _ in asked), (kind, bounds)
                starts, ends = [a for a, _, _ in asked], [b for _, b, _ in asked]
                assert (starts[0], ends[-1]) == bounds and starts[1:] == ends[:-1], (kind, bounds)
                if bounds == (0, n):
                    sig = np.concatenate([s for _, _, s in asked])
                    assert np.count_nonzero(sig[r:] >= experiments._DIRECT_ROWS) > 0, kind

    @pytest.mark.parametrize("x, size", [
        pytest.param(3000, 64, id="3000"),
        pytest.param(100_000, 64, id="100000"),
        pytest.param(100_000, 1024, id="100000-slice-1024"),
    ])
    def test_small_slices_match_the_audit(self, monkeypatch, x, size):
        # the kept walk covers _SLICE // k D1 a step (at least one) while k
        # rows are active. With 64-entry slices the walks take many steps,
        # and steps of one D1 until fewer than 64 rows are active. With 1024
        # at 1e5 a kept signature from the leading runs is walked alone for
        # several steps, after the signatures past r' (prefixes of at most
        # r' = 196), more than 1024 // 196 of them, share steps. A pattern
        # in decreasing prime order gives 2 the high bit 6, and so gives the
        # most D2 a signature from 64 on.
        monkeypatch.setattr(experiments, "_SLICE", size)
        ctx = build_context(x)
        r, n = _split(ctx), len(ctx.entries)
        prefix, qmask = ctx.prefix, ctx.qmask
        lead = int(np.count_nonzero(prefix > r))  # the leading D2, all kept
        longest = prefix[np.flatnonzero(qmask[:lead])[0]]
        high = set(qmask[lead : r + 2000][qmask[lead : r + 2000] >= experiments._DIRECT_ROWS].tolist())
        assert longest > size and len(high) > max(1, size // r), (longest, len(high))
        for bounds in ((0, r + 1), (r - 3, min(n, r + 2000))):
            assert experiments._scan_chunk(ctx, bounds) == _audit_totals(ctx, bounds), bounds
        pattern = tuple((p, -1) for p in reversed(sieve_primes(17)))
        d2_side, d1_side = experiments._pattern_sides(ctx, pattern, (0, n))
        sig = d2_side(r, n)[0]
        assert len(set(sig[sig >= experiments._DIRECT_ROWS].tolist())) > 10
        _, matched = experiments._pair_sums(ctx, (0, n), d2_side, d1_side, ())
        assert matched == experiments._lt_chunk(ctx, pattern, (0, n))[1] > 0


class TestKeptWalk:
    """The one walk over D1 that reads every kept D2, with _SLICE at 2^5: it
    takes many steps of a few D1, rows drop out mid-walk, and kept prefixes
    land on step ends. The scan kernel is checked against the audit, the
    sign-pattern kernel against the sign rule."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """_SLICE at 2^5, and the kept walk's steps (u, v) of each _pair_sums
        call: its d1_side calls after its last d2_side call."""
        monkeypatch.setattr(experiments, "_SLICE", 1 << 5)
        calls = []
        pair_sums = experiments._pair_sums

        def recording(ctx, bounds, d2_side, d1_side, values):
            log = []

            def d2(a, b):
                log.clear()  # the direct table's steps come before the D2
                return d2_side(a, b)

            def d1(bits, u, v):
                log.append((u, v))
                return d1_side(bits, u, v)

            result = pair_sums(ctx, bounds, d2, d1, values)
            calls.append(log)
            return result

        monkeypatch.setattr(experiments, "_pair_sums", recording)
        return calls

    @staticmethod
    def check_walk(walk, prefixes):
        """The steps tile D1 from 0, many of them, widening as rows drop out,
        and some kept prefix is a step's end."""
        assert len(walk) > 20 and walk[0][0] == 0
        assert all(v == u for (_, v), (u, _) in zip(walk, walk[1:]))
        widths = [v - u for u, v in walk][:-1]  # the last step ends at the longest prefix
        assert widths == sorted(widths) and widths[0] < widths[-1] == 1 << 5, widths
        assert {v for _, v in walk} & set(prefixes.tolist())

    @staticmethod
    def sign(d1, d2, p):
        return kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)

    def pattern_count(self, ctx, pattern, bounds):
        ents = ctx.entries.tolist()
        return sum(all(self.sign(ents[i], ents[j], p) == s for p, s in pattern)
                   for j in range(*bounds) for i in range(int(ctx.prefix[j])))

    @pytest.mark.parametrize("x", [3000, 100_000])
    def test_scan_kernel_matches_the_audit(self, steps, x):
        ctx = build_context(x)
        r, n = _split(ctx), len(ctx.entries)
        prefix, qmask = ctx.prefix, ctx.qmask
        kept = ((prefix > r) | (qmask >= experiments._DIRECT_ROWS)) & (qmask != 0)
        ranges = [(0, n)] if x == 3000 else [(0, r + 1), (r - 3, r + 2000), (r - 40, r + 40)]
        for lo, hi in ranges:
            steps.clear()
            assert experiments._scan_chunk(ctx, (lo, hi)) == _audit_totals(ctx, (lo, hi)), (lo, hi)
            if lo == 0:
                self.check_walk(steps[0], prefix[lo:hi][kept[lo:hi]])

    def test_pattern_kernel_matches_the_sign_rule_at_3000(self, steps):
        ctx = build_context(3000)
        r, n = _split(ctx), len(ctx.entries)
        # nine primes with the signs of the pair (-3, 988), 988 = 4 * 13 * 19:
        # 17, 19 and 23 take bits 6..8, and the D2 moved at them are kept
        nine = tuple((p, self.sign(-3, 988, p)) for p in sieve_primes(23))
        for pattern in (((2, 1), (3, -1)), nine):
            sig, _, high = experiments._pattern_sides(ctx, pattern, (0, n))[0](0, n)
            assert np.array_equal(high, np.flatnonzero(sig >= experiments._DIRECT_ROWS))
            assert len(high) > 0 if pattern == nine else len(high) == 0
            for bounds in ((r - 5, 700), (0, n)):
                steps.clear()
                expected = self.pattern_count(ctx, pattern, bounds)
                assert expected > 0
                got = experiments._lt_chunk(ctx, pattern, bounds)
                assert got == (ctx.pair_count(*bounds), expected), (pattern, bounds)
            if pattern != nine:  # nine signs leave few leading D2 a weight, and a short walk
                kept = ((ctx.prefix > r) | (sig >= experiments._DIRECT_ROWS)) & (sig != 0)
                self.check_walk(steps[0], ctx.prefix[kept])

    def test_pattern_kernel_straddling_the_split_at_1e5(self, steps):
        # the one D2 with prefix r' = 196 is 316 = 4 * 79. With 79 as the
        # seventh pattern prime, bit 6, and the signs of 316 at the other odd
        # primes, its signature is 65, so it is kept and read at a prefix of
        # exactly r'
        ctx = build_context(100_000)
        r = _split(ctx)
        at = int(np.flatnonzero(ctx.prefix == r)[0])
        assert (ctx.entries[at], r) == (316, 196)
        seven = tuple((p, self.sign(316, 316, p)) for p in (2, 3, 5, 7, 11, 13, 79))
        sig, _, high = experiments._pattern_sides(ctx, seven, (at, at + 1))[0](at, at + 1)
        assert (sig.tolist(), high.tolist()) == ([65], [0])
        for pattern in (((3, 1), (5, -1)), seven):
            for bounds in ((r - 3, r + 300), (at, at + 1), (0, r + 1)):
                steps.clear()
                expected = self.pattern_count(ctx, pattern, bounds)
                assert expected > 0 or pattern != seven  # 316 misses 5:-1: chi_316(5) = +1
                got = experiments._lt_chunk(ctx, pattern, bounds)
                assert got == (ctx.pair_count(*bounds), expected), (pattern, bounds)
                if bounds == (at, at + 1) and pattern == seven:
                    # 316 alone: the walk's last step ends at its prefix
                    assert len(steps[0]) == -(-r // (1 << 5)) and steps[0][-1][1] == r
            if pattern != seven:
                sig = experiments._pattern_sides(ctx, pattern, (0, r + 1))[0](0, r + 1)[0]
                self.check_walk(steps[0], ctx.prefix[: r + 1][sig != 0])


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
        # and one D2 whose prefix spans two D1 slices of the kept walk
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

    @pytest.mark.parametrize("size", [1, 7, 100])
    def test_reads_the_table_a_slice_at_a_time(self, monkeypatch, ctx2000, size):
        # the audit holds at most a table slice of D2 and of D1 as Python
        # ints; slices far shorter than the table take every path of that
        # reading, including a D2 whose D1 span several slices
        n = len(ctx2000.entries)
        bounds = [(0, n), (1, 11), (11, n // 3), (n // 3, n), (5, 5), (n, n)]
        want = [experiments._audit_chunk(ctx2000, b) for b in bounds]
        monkeypatch.setattr(experiments, "_TABLE_SLICE", size)
        assert [experiments._audit_chunk(ctx2000, b) for b in bounds] == want

    def test_range_split_independence(self, ctx2000):
        # the reports of (lo, hi) ranges of D2 add up, field by field, to the
        # whole-table audit, and their examples merge into its 10
        whole = decomposition_audit(2000, ctx=ctx2000)
        n = len(ctx2000.entries)
        # the cut at 11 splits the examples: D2 = -15 at position 10 gives 4
        # of the whole's 10, later D2 the rest
        cuts = (0, 1, 11, n // 3, n)
        parts = [experiments._audit_chunk(ctx2000, b) for b in zip(cuts, cuts[1:])]
        assert all(part.x == whole.x for part in parts)
        counts = [f.name for f in fields(AuditReport)][1:-1]
        assert counts[0] == "pairs_total" and "difference" in counts
        for name in counts:
            assert sum(getattr(part, name) for part in parts) == getattr(whole, name), name
        position = {d: i for i, d in enumerate(ctx2000.entries.tolist())}
        examples = sorted(
            (m for part in parts for m in part.mismatch_examples),
            key=lambda m: (abs(m.d1 * m.d2), position[m.d2], position[m.d1]),
        )
        assert len(parts[1].mismatch_examples) == len(parts[2].mismatch_examples) == 10
        assert examples[:10] == whole.mismatch_examples


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
        chi = experiments._chi_reader(p, len(ctx2000.entries))(ctx2000.entries)
        assert [int(c) for c in chi] == [kronecker(int(d), p) for d in ctx2000.entries]

    def test_counts_are_kronecker_counts_at_every_x_to_3000(self, monkeypatch):
        # slices of 100 entries, so that the counts add up over several; 1009
        # takes Euler's criterion while the table is shorter than 1009 (x up
        # to 1654) and the residue table after
        monkeypatch.setattr(experiments, "_TABLE_SLICE", 100)
        primes = (2, 3, 5, 7, 1009)
        table = build_context(3000).table
        chi = np.array([[kronecker(int(d), p) for d in table.entries] for p in primes])
        # the counts of +1, -1 and 0 over the first n entries, for each p
        counts = np.stack([np.cumsum(chi == sign, axis=1) for sign in (1, -1, 0)], axis=2)
        for x in range(1, 3001):
            n = table.count_upto(x)  # the table at x is the first n entries
            ctx = SimpleNamespace(x=x, entries=table.entries[:n], signs={})
            for k, p in enumerate(primes):
                rep = density_lemma(x, p, ctx)
                assert [r.count for r in rep.rows] == counts[k, n - 1].tolist(), (x, p)
                assert {r.total for r in rep.rows} == {n}

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
            # primes between isqrt(x) and x: their D1 columns are shorter than r'
            [(101, 0)],
            [(2, 1), (401, -1)],
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
        # 331 is above isqrt(x) = 316: its D1 column ends before r'
        ctx = build_context(100_000)
        pattern = ((2, 1), (3, -1), (5, 0), (331, -1))
        whole = experiments._lt_chunk(ctx, pattern, (0, len(ctx.entries)))
        assert whole[1] > 0
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

    def test_long_pattern_in_either_order_across_the_split(self):
        # nine primes with the signs of the pair (-3, 988), 988 = 4 * 13 * 19,
        # given in decreasing order. _lt_chunk counts in increasing order,
        # where the D2 moved at 17, 19 or 23 are kept; the kernel in
        # the given order, where 2 and 3 take bits 8 and 7, keeps more of them
        x = 3000
        ctx = build_context(x)
        ents = ctx.entries.tolist()

        def sign(d1, d2, p):
            return kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)

        pattern = tuple((p, sign(-3, 988, p)) for p in reversed(sieve_primes(23)))
        increasing = tuple(sorted(pattern))
        r, n = _split(ctx), len(ents)
        for lo, hi in ((0, n), (r - 5, 700), (r - 1, n)):
            expected = sum(all(sign(ents[i], ents[j], p) == s for p, s in pattern)
                           for j in range(lo, hi) for i in range(int(ctx.prefix[j])))
            assert expected > 0
            got = experiments._lt_chunk(ctx, pattern, (lo, hi))
            assert got == experiments._lt_chunk(ctx, increasing, (lo, hi))
            assert got[1] == expected, (lo, hi)
            for order in (pattern, increasing):
                sides = experiments._pattern_sides(ctx, order, (lo, hi))
                _, matched = experiments._pair_sums(ctx, (lo, hi), *sides, ())
                assert matched == expected, (order, lo, hi)
        high = {}
        for order in (pattern, increasing):
            d2_side = experiments._pattern_sides(ctx, order, (0, n))[0]
            high[order] = int(np.count_nonzero(d2_side(r, n)[0] >= 64))
        assert 0 < high[increasing] < high[pattern]

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
    [(average_nd, 1), (average_nd, 2), (pair_count_check, 1), (average_n1, 2), (average_n1, 2**31)],
    ids=["average_nd-1", "average_nd-2", "pair_count_check-1", "average_n1-2", "average_n1-2^31"],
)
def test_small_x_is_refused(fn, x):
    # no D != 1 to average over, a log x reference of 0, no odd prime, or
    # odd numbers past int32
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

    def test_average_n1_peaks_at_one_segment(self):
        # the odd numbers are sieved by segments of 4 * _TABLE_SLICE slots,
        # so the peak does not grow with x: 1.22 MB at 1e6 and at 1e7,
        # against 3.0 and 25.6 MB for one pass over every odd number to x
        average_n1(10**6)  # a first call pays the one-time allocations
        assert TestPeakMemory.peak(lambda: average_n1(10**7))[0] < 2 * 10**6

    def test_average_n1_across_segments(self, monkeypatch):
        # segments of 4 * 16 = 64 slots: their edges fall at the odd numbers
        # 129, 257, ..., and each prime's strikes carry across them
        monkeypatch.setattr(experiments, "_TABLE_SLICE", 16)
        odd = sieve_primes(5000)[1:]
        n1 = [least_nonresidue(p) for p in odd]
        for x in [*range(3, 400), 4095, 4097, 4999, 5000]:
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
