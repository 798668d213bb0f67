"""Pair scans, audits, densities, averages: exact cross-checks at small x."""

from fractions import Fraction

import pytest

from eta_lab.arith import is_fundamental, iter_primes, kronecker
from eta_lab.experiments import (
    CapExceededError,
    build_context,
    decomposition_audit,
    density_lemma,
    density_lt,
    density_pollack,
    harmonic_sum_check,
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

    def test_prefix_counts(self, ctx2000):
        for i in range(0, len(ctx2000.entries), 97):
            y = 2000 // int(ctx2000.abs_values[i])
            assert ctx2000.prefix[i] == ctx2000.table.count_upto(y)


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

    def test_worker_count_independence(self, ctx2000):
        a1 = decomposition_audit(2000, ctx=ctx2000, workers=1)
        a3 = decomposition_audit(2000, ctx=ctx2000, workers=3)
        assert a1 == a3


class TestDensityLemma:
    def test_exact_counts_match_brute_force_at_x100(self):
        ctx = build_context(100)
        ds = brute_discriminants(100)
        rep = density_lemma(100, 2, ctx)
        for row, sign in zip(rep.rows, (1, -1, 0)):
            assert row.count == sum(1 for d in ds if kronecker(d, 2) == sign)
            assert row.total == len(ds)

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

    def test_worker_count_independence(self, ctx2000):
        a = density_lt(2000, [(2, 1), (3, -1)], ctx2000, workers=1)
        b = density_lt(2000, [(2, 1), (3, -1)], ctx2000, workers=3)
        assert a == b


class TestCountsAndHarmonic:
    def test_pair_count_exact_small(self):
        assert pair_count_check(10).observed == 14

    @pytest.mark.parametrize("x", [100, 2000])
    def test_pair_count_matches_double_loop(self, x):
        ds = brute_discriminants(x)
        brute = sum(1 for d2 in ds for d1 in ds if abs(d1 * d2) <= x)
        assert pair_count_check(x).observed == brute

    def test_harmonic_exact_at_x10(self):
        rep = harmonic_sum_check(10)
        assert rep.value == Fraction(457, 210)

    def test_harmonic_monotone(self):
        vals = [harmonic_sum_check(x).value for x in (10, 50, 200, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_harmonic_tree_equals_plain_fold(self):
        ds = brute_discriminants(3000)
        fold = Fraction(0)
        for d in ds:
            fold += Fraction(1, abs(d))
        assert harmonic_sum_check(3000).value == fold


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

    def test_average_nd_matches_scalar(self, ctx2000):
        rep = average_nd(2000, ctx2000)
        ds = [d for d in brute_discriminants(2000) if d != 1]
        assert rep.total == sum(least_negative_prime(d).prime for d in ds)
        assert rep.count == len(ds)

    def test_delta_fields(self, ctx2000):
        rep = average_nd(2000, ctx2000, k_terms=120)
        assert isinstance(rep.delta, Fraction)
        assert rep.reference.startswith("4.98094733")
