"""Coefficients, signs, eta, n(D), generalized Bernoulli numbers, q-expansions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from eta_lab.arith import is_fundamental, kronecker, sieve_fundamental, sieve_primes
from eta_lab.newform import (
    NewformPair,
    eta,
    eta_sign_trace,
    generalized_bernoulli,
    is_valid_newform_triple,
    l_at_negative,
    least_negative_prime,
    q_expansion,
    sigma_coefficient,
    sigma_sign_at_prime,
)


def sign(n: int) -> int:
    return 0 if n == 0 else (1 if n > 0 else -1)


def sample_pairs(count, bound=1000, seed=1234):
    rng = random.Random(seed)
    pool = [d for a in range(1, bound + 1) for d in (-a, a) if is_fundamental(d)]
    pairs = []
    for _ in range(count):
        d1 = rng.choice(pool)
        d2 = rng.choice(pool)
        if d1 == 1 and d2 == 1:
            d2 = -3
        pairs.append(NewformPair(d1, d2))
    return pairs


class TestNewformPair:
    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            NewformPair(9, 5)
        with pytest.raises(ValueError):
            NewformPair(5, 0)

    def test_rejects_double_principal(self):
        with pytest.raises(ValueError):
            NewformPair(1, 1)


class TestSigmaCoefficient:
    def test_examples(self):
        assert sigma_coefficient(NewformPair(1, -4), 3, 3) == -8
        for pair in (NewformPair(5, -3), NewformPair(1, 8), NewformPair(-4, -8)):
            for k in (1, 2, 5):
                assert sigma_coefficient(pair, k, 1) == 1

    def test_brute_force_divisor_sum(self):
        pair = NewformPair(5, -3)
        k = 2
        for n in range(1, 60):
            expected = sum(
                kronecker(5, n // d) * kronecker(-3, d) * d ** (k - 1)
                for d in range(1, n + 1)
                if n % d == 0
            )
            assert sigma_coefficient(pair, k, n) == expected

    def test_six_factors_as_product(self):
        pair = NewformPair(5, -3)
        s2 = sigma_coefficient(pair, 2, 2)
        s3 = sigma_coefficient(pair, 2, 3)
        assert sigma_coefficient(pair, 2, 6) == s2 * s3

    def test_multiplicative_on_coprime_arguments(self):
        for pair, k in ((NewformPair(5, -3), 2), (NewformPair(1, -4), 3)):
            vals = {m: sigma_coefficient(pair, k, m) for m in range(1, 61)}
            for m in range(1, 61):
                for n in range(m, 61):
                    if gcd(m, n) == 1:
                        assert sigma_coefficient(pair, k, m * n) == vals[m] * vals[n]

    def test_prime_power_recursion(self):
        for pair in (NewformPair(5, -3), NewformPair(-8, 12), NewformPair(1, -4)):
            for k in (2, 3):
                for p in (2, 3, 5, 7, 11, 13, 17, 19):
                    tw = kronecker(pair.d1, p) * kronecker(pair.d2, p) * p ** (k - 1)
                    a = [sigma_coefficient(pair, k, p**r) for r in range(7)]
                    for r in range(1, 6):
                        assert a[r + 1] == a[1] * a[r] - tw * a[r - 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_coefficient(NewformPair(5, -3), 2, 0)
        with pytest.raises(ValueError):
            sigma_coefficient(NewformPair(5, -3), 0, 1)


class TestSignRule:
    def test_examples(self):
        assert sigma_sign_at_prime(NewformPair(5, -3), 2) == -1
        assert sigma_sign_at_prime(NewformPair(-3, 8), 2) == -1
        assert sigma_sign_at_prime(NewformPair(-4, -8), 3) == 1

    def test_matches_actual_coefficient_sign(self):
        primes = sieve_primes(50)
        for pair in sample_pairs(300):
            for p in primes:
                rule = sigma_sign_at_prime(pair, p)
                for k in (2, 3, 4, 5, 6):
                    assert sign(sigma_coefficient(pair, k, p)) == rule, (pair, p, k)


class TestEta:
    def test_examples(self):
        assert eta(NewformPair(5, -3)).prime == 2
        assert eta(NewformPair(-4, -8)).prime == 5
        assert eta(NewformPair(5, 33)).prime == 3
        assert eta(NewformPair(-3, 1)).status == "never"

    def test_cap_exceeded_is_a_value(self):
        res = eta(NewformPair(-4, -8), cap=3)
        assert res.status == "cap_exceeded" and res.cap == 3

    @pytest.mark.parametrize("fn", [eta, eta_sign_trace])
    def test_cap_below_two_is_refused(self, fn):
        with pytest.raises(ValueError, match="cap must be >= 2"):
            fn(NewformPair(5, -3), 1)

    @pytest.mark.parametrize(
        "pair,cap",
        [(NewformPair(5, 33), 100), (NewformPair(-3, 1), 100), (NewformPair(-4, -8), 3),
         (NewformPair(1, -7), 2)],
    )
    def test_trace_carries_the_verdict_of_eta(self, pair, cap):
        res, trace = eta_sign_trace(pair, cap)
        assert res == eta(pair, cap)
        primes = [p for p in sieve_primes(cap) if not res.is_found or p <= res.prime]
        assert trace == ([] if pair.d2 == 1 else [(p, sigma_sign_at_prime(pair, p)) for p in primes])

    def test_never_only_for_principal_chi2(self):
        for pair in sample_pairs(200, bound=400, seed=5):
            res = eta(pair)
            if pair.d2 == 1:
                assert res.status == "never"
            else:
                assert res.is_found, pair

    def test_soundness_rescan(self):
        # found prime has sign -1, all earlier primes 0 or +1
        primes = sieve_primes(200)
        for pair in sample_pairs(200, seed=77):
            res = eta(pair)
            if not res.is_found:
                continue
            for p in primes:
                if p > res.prime:
                    break
                s = sigma_sign_at_prime(pair, p)
                assert s == -1 if p == res.prime else s in (0, 1)

    def test_one_sided_decomposition_facts(self):
        # off the divisor branch eta equals n(D2); on it, n(D1) <= eta
        table = [int(d) for d in sieve_fundamental(2000)]
        for d2 in table:
            if d2 == 1:
                continue
            bound = 2000 // abs(d2)
            for d1 in table:
                if abs(d1) > bound:
                    break
                res = eta(NewformPair(d1, d2))
                if d2 % res.prime == 0:
                    assert least_negative_prime(d1).prime <= res.prime
                else:
                    assert res.prime == least_negative_prime(d2).prime


class TestLeastNegativePrime:
    def test_examples(self):
        assert least_negative_prime(-3).prime == 2
        assert least_negative_prime(8).prime == 3
        assert least_negative_prime(1).status == "never"

    def test_equals_least_n_with_sign_outside_01(self):
        for d in sieve_fundamental(500):
            if d == 1:
                continue
            expected = None
            for n in range(1, 10_000):
                if kronecker(d, n) not in (0, 1):
                    expected = n
                    break
            assert least_negative_prime(d).prime == expected, d


def oracle_generalized_bernoulli(k: int, d: int) -> Fraction:
    """Independent route: solve (e^{ft}-1) * sum B_n t^n/n! = t * sum_a chi(a) e^{at}
    coefficient by coefficient; no Bernoulli polynomials involved."""
    from math import factorial

    f = abs(d)
    out = []
    for i in range(1, k + 2):
        rhs = sum(
            Fraction(kronecker(d, a) * a ** (i - 1), factorial(i - 1))
            for a in range(1, f + 1)
        )
        acc = rhs
        for j in range(i - 1):
            acc -= out[j] * Fraction(f ** (i - j), factorial(j) * factorial(i - j))
        out.append(acc * Fraction(factorial(i - 1), f))
    return out[k]


class TestBernoulliAndL:
    def test_examples(self):
        assert generalized_bernoulli(1, -4) == Fraction(-1, 2)
        assert generalized_bernoulli(3, -4) == Fraction(3, 2)
        assert generalized_bernoulli(1, 1) == Fraction(1, 2)

    def test_against_generating_function_oracle(self):
        for d in (1, -3, -4, 5, 8, -8, 12, -20, 21):
            for k in range(1, 7):
                assert generalized_bernoulli(k, d) == oracle_generalized_bernoulli(k, d), (k, d)

    def test_l_values(self):
        assert l_at_negative(1, -4) == Fraction(1, 2)
        assert l_at_negative(3, -4) == Fraction(-1, 2)
        assert l_at_negative(2, 5) == -generalized_bernoulli(2, 5) / 2

    def test_l_pole_rejected(self):
        with pytest.raises(ValueError):
            l_at_negative(1, 1)


class TestQExpansion:
    def test_examples(self):
        q = q_expansion(NewformPair(1, -4), 3, 3)
        assert q.constant_term == Fraction(-1, 4)
        assert q.coefficients == [1, 1, -8]

        q = q_expansion(NewformPair(-3, -4), 2, 1)
        assert q.constant_term == 0
        assert q.coefficients == [1]

        q = q_expansion(NewformPair(1, -3), 1, 2)
        assert q.constant_term == l_at_negative(1, -3) / 2 == Fraction(1, 6)
        assert q.coefficients == [1, 1 + kronecker(-3, 2)]

    def test_invariants_on_samples(self):
        for pair in sample_pairs(50, bound=60, seed=9):
            k = 2 if pair.d1 * pair.d2 > 0 else 3
            q = q_expansion(pair, k, 8)
            assert q.coefficients[0] == 1
            if pair.d1 != 1:
                assert q.constant_term == 0

    def test_invalid_triple_raises_with_reason(self):
        with pytest.raises(ValueError, match="parity"):
            q_expansion(NewformPair(1, -4), 2, 3)

    def test_validity_examples(self):
        assert is_valid_newform_triple(NewformPair(-3, -4), 2)
        assert not is_valid_newform_triple(NewformPair(1, -4), 2)
        assert is_valid_newform_triple(NewformPair(1, -4), 3)
