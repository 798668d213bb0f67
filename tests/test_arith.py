"""Sieves, Kronecker symbols, fundamental discriminants, n_1(p)."""

import random
import sys
import tracemalloc
from bisect import bisect_right
from itertools import islice
from math import isqrt

import numpy as np
import pytest

from eta_lab import arith
from eta_lab.arith import (
    MR_LIMIT,
    is_fundamental,
    is_prime,
    iter_primes,
    kronecker,
    least_nonresidue,
    legendre_oracle,
    sieve_fundamental,
    sieve_primes,
)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % f for f in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10) == (2, 3, 5, 7)
        assert sieve_primes(2) == (2,)

    def test_against_trial_division(self):
        primes = sieve_primes(100)
        assert list(primes) == trial_division_primes(100)
        assert len(primes) == 25
        assert primes[-1] == 97

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    # edges of the doubling rounds 256, 512, 1024, ...
    @pytest.mark.parametrize("limit", [1, 2, 3, 255, 256, 257, 511, 512, 513, 2000])
    def test_iter_primes_blocks_match_sieve(self, limit):
        assert list(iter_primes(limit)) == trial_division_primes(limit)

    # each round after the first yields only the primes above the last limit
    @pytest.mark.parametrize("limit", [255, 256, 257, 511, 512, 513, 10**5])
    def test_iter_primes_segments_match_sieve_primes(self, limit):
        assert tuple(iter_primes(limit)) == sieve_primes(limit)

    @pytest.mark.parametrize("taken", [1, 54, 55, 97, 98, 1000, 5000])
    def test_iter_primes_sieves_below_twice_the_last_prime_taken(self, monkeypatch, taken):
        limits = []

        def recording(limit):
            limits.append(limit)
            return sieve_primes(limit)

        monkeypatch.setattr(arith, "sieve_primes", recording)
        got = list(islice(iter_primes(sys.maxsize), taken))
        assert got == list(sieve_primes(10**5)[:taken])
        assert max(limits) <= max(256, 2 * got[-1]), limits


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if is_prime(n)] == trial_division_primes(10**5 - 1)

    # psi_k, the least strong pseudoprime to the first k prime bases, for
    # k = 1..9; psi_10 = psi_11 = psi_12 = MR_LIMIT
    @pytest.mark.parametrize(
        "n",
        [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
         341550071728321, 3825123056546413051],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n,prime",
        [(2**61 - 1, True), (10**18 + 3, True), (2**64 - 59, True), (10**23 + 117, True),
         (MR_LIMIT - 20, True),  # the largest prime below the limit
         ((10**9 + 7) * (10**9 + 9), False), ((2**61 - 1) * 100003, False)],
    )
    def test_large_n(self, n, prime):
        assert is_prime(n) is prime

    @pytest.mark.parametrize("n", [MR_LIMIT, MR_LIMIT + 1, 10**30])
    def test_refuses_n_beyond_the_proven_range(self, n):
        with pytest.raises(ValueError):
            is_prime(n)


class TestKronecker:
    def test_known_values(self):
        assert kronecker(5, 2) == -1
        assert kronecker(-4, 3) == -1
        assert kronecker(33, 2) == 1
        assert kronecker(-8, 5) == -1
        assert kronecker(-8, 3) == 1

    def test_lower_argument_one(self):
        for d in (-7, -1, 0, 1, 2, 45):
            assert kronecker(d, 1) == 1

    def test_rejects_zero_and_negative_n(self):
        with pytest.raises(ValueError):
            kronecker(5, 0)
        with pytest.raises(ValueError):
            kronecker(5, -3)

    def test_matches_euler_criterion_oracle(self):
        for p in sieve_primes(100):
            if p == 2:
                continue
            for d in range(-100, 101):
                assert kronecker(d, p) == legendre_oracle(d, p), (d, p)

    def test_completely_multiplicative_in_lower_argument(self):
        rng = random.Random(7)
        for _ in range(2000):
            d = rng.randint(-50, 50)
            m = rng.randint(1, 1000)
            n = rng.randint(1, 1000)
            assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)

    def test_multiplicative_in_upper_argument(self):
        rng = random.Random(8)
        for _ in range(2000):
            d1 = rng.randint(-50, 50)
            d2 = rng.randint(-50, 50)
            n = rng.randint(1, 1000)
            assert kronecker(d1 * d2, n) == kronecker(d1, n) * kronecker(d2, n)

    def test_periodicity_for_fundamental_d(self):
        for d in sieve_fundamental(200):
            f = abs(d)
            for n in range(1, 3 * f + 1):
                assert kronecker(d, n) == kronecker(d, n + f), (d, n)


class TestLegendreOracle:
    def test_examples(self):
        assert legendre_oracle(2, 7) == 1
        assert legendre_oracle(3, 7) == -1
        assert legendre_oracle(14, 7) == 0

    def test_rejects_non_odd_prime(self):
        for bad in (2, 9, 15, 1):
            with pytest.raises(ValueError):
                legendre_oracle(3, bad)


class TestFundamental:
    def test_examples(self):
        for d in (1, -3, 8, 12):
            assert is_fundamental(d)
        for d in (9, -5, 0, 2, -2, 4, -9, 45):
            assert not is_fundamental(d)

    def test_table_x10(self):
        table = sieve_fundamental(10)
        assert list(table) == [1, -3, -4, 5, -7, -8, 8]
        assert len(table) == 7

    def test_table_matches_brute_force_for_every_small_bound(self):
        for x in range(1, 301):
            table = sieve_fundamental(x)
            brute = [d for a in range(1, x + 1) for d in (-a, a) if is_fundamental(d)]
            assert table.entries.dtype == table.abs_values.dtype == np.int32
            assert table.entries.tolist() == brute, x
            assert table.abs_values.tolist() == [abs(d) for d in brute], x

    def test_table_matches_brute_force_at_slice_ends(self, monkeypatch):
        # bounds whose runs fall one run short of one, four and eight whole
        # segments, fill them exactly, and spill one run over
        monkeypatch.setattr(arith, "_SEGMENT_RUNS", 64)
        s = 16 * arith._SEGMENT_RUNS
        bounds = [b for n in (s, 4 * s, 8 * s) for b in (n - 17, n - 1, n + 15)]
        brute = [d for a in range(1, max(bounds) + 1) for d in (-a, a) if is_fundamental(d)]
        for x in bounds:
            assert sieve_fundamental(x).entries.tolist() == [d for d in brute if abs(d) <= x], x

    def test_every_bound_to_3000_with_short_segments(self, monkeypatch):
        # eight runs (128 values of |D|) a segment: every bound below 128 is
        # one segment, and each larger one whole segments and a last one
        monkeypatch.setattr(arith, "_SEGMENT_RUNS", 8)
        brute = [d for a in range(1, 3001) for d in (-a, a) if is_fundamental(d)]
        ends = [abs(d) for d in brute]
        for x in range(1, 3001):
            assert sieve_fundamental(x).entries.tolist() == brute[: bisect_right(ends, x)], x

    def test_bound_under_one_segment_sieves_once(self, monkeypatch):
        # one segment strikes the flags of its |D| and of their m = |D| / 4
        calls = []
        flags = arith._squarefree_flags

        def counting(*args):
            calls.append(args[:2])
            return flags(*args)

        monkeypatch.setattr(arith, "_squarefree_flags", counting)
        s = 16 * arith._SEGMENT_RUNS
        for x in (64, 65, 255, 1000, 4097, s // 2, s - 1):
            calls.clear()
            sieve_fundamental(x)
            assert len(calls) == 2, (x, calls)
        calls.clear()
        sieve_fundamental(s)
        assert len(calls) == 4, calls

    def test_moebius_counts_the_table(self):
        # the table length comes from three Moebius sums before any sieve
        mu = arith._moebius(200)
        assert mu.tolist() == [0] + [
            0 if any(n % (p * p) == 0 for p in range(2, n + 1)) else
            (-1) ** sum(1 for p in trial_division_primes(n) if n % p == 0)
            for n in range(1, 201)
        ]
        for n in range(0, 2000, 7):
            odd = sum(1 for k in range(1, n + 1, 2) if all(k % (d * d) for d in range(3, isqrt(k) + 1, 2)))
            assert arith._odd_squarefree(n, arith._moebius(isqrt(n))) == odd, n

    def test_sieve_peaks_at_its_flags_and_table(self):
        # the table, allocated once, and one segment's temporaries: under 12
        # bytes per |D| of a segment (its flags, candidate values and the
        # int64 positions of the set candidates). 3.15 MB against 3.22 MB
        # for this bound; the whole-table sieve it replaced peaked at 4.91 MB
        x = 10**6
        tracemalloc.start()
        try:
            n = len(sieve_fundamental(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_segment = 12 * 16 * arith._SEGMENT_RUNS
        assert peak < 4 * n + one_segment

    def test_table_x1(self):
        assert list(sieve_fundamental(1)) == [1]

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            sieve_fundamental(0)

    def test_rejects_bound_beyond_int32(self):
        with pytest.raises(ValueError):
            sieve_fundamental(2**31)

    def test_table_matches_predicate_exhaustively(self):
        bound = 10_000
        table = sieve_fundamental(bound)
        expected = set()
        for a in range(1, bound + 1):
            for d in (-a, a):
                if is_fundamental(d):
                    expected.add(d)
        assert set(table) == expected

    def test_canonical_order(self):
        table = sieve_fundamental(300)
        keys = [(abs(d), 0 if d < 0 else 1) for d in table]
        assert keys == sorted(keys)

    def test_prefix_counts_match_brute_force(self):
        table = sieve_fundamental(500)
        brute = 0
        for y in range(1, 501):
            brute += is_fundamental(-y) + is_fundamental(y)
            assert table.count_upto(y) == brute, y
        assert table.count_upto(0) == 0

    def test_count_upto_searches_the_table_in_place(self):
        # a search for a Python int once cast the whole int32 table to int64
        table = sieve_fundamental(1_000_000)
        tracemalloc.start()
        try:
            assert table.count_upto(1000) == 608
            assert tracemalloc.get_traced_memory()[1] < table.entries.nbytes // 10
        finally:
            tracemalloc.stop()


class TestLeastNonresidue:
    def test_examples(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(7) == 3
        assert least_nonresidue(23) == 5

    def test_rejects_two_and_composites(self):
        for bad in (2, 9, 15):
            with pytest.raises(ValueError):
                least_nonresidue(bad)

    def test_always_prime_up_to_1e5(self):
        for p in sieve_primes(100_000)[1:]:
            assert is_prime(least_nonresidue(p))
