"""Coefficients and sign statistics of real-coefficient Eisenstein newforms.

A pair of fundamental discriminants (D1, D2) indexes the newform built from
the primitive quadratic characters chi_{D1}, chi_{D2}. Its nth coefficient
in weight k is the twisted divisor sum

    sigma(n) = sum_{d | n} chi_{D1}(n/d) * chi_{D2}(d) * d^(k-1),

whose sign at a prime p reduces to chi_{D1}(p) when p | D2 and chi_{D2}(p)
otherwise (for k >= 2 the d = p term dominates). The statistic eta(D1, D2)
is the least prime where that sign is -1; n(D) is the least prime p with
chi_D(p) = -1. Constant terms of q-expansions need L(1-k, chi), evaluated
exactly through generalized Bernoulli numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm

from .arith import is_fundamental, iter_primes, kronecker

__all__ = [
    "DEFAULT_ETA_CAP",
    "NewformPair",
    "EtaResult",
    "QExpansion",
    "sigma_coefficient",
    "sigma_sign_at_prime",
    "eta",
    "eta_sign_trace",
    "least_negative_prime",
    "bernoulli_numbers",
    "generalized_bernoulli",
    "l_at_negative",
    "q_expansion",
    "is_valid_newform_triple",
]

DEFAULT_ETA_CAP = 100_000


@dataclass(frozen=True)
class NewformPair:
    """Ordered pair of fundamental discriminants, not both 1.

    (1, 1) is rejected: both characters principal gives the weight-k
    Eisenstein series on the full modular group, outside this package's
    scope. Level |D1*D2| is derivable, not stored.
    """

    d1: int
    d2: int

    def __post_init__(self) -> None:
        for d in (self.d1, self.d2):
            if not is_fundamental(d):
                raise ValueError(f"{d} is not a fundamental discriminant")
        if self.d1 == 1 and self.d2 == 1:
            raise ValueError("characters must not be simultaneously principal")


@dataclass(frozen=True)
class EtaResult:
    """Outcome of a least-negative-prime scan.

    status is one of 'found' (prime holds the first -1), 'never' (the sign
    is never -1, which happens exactly for the trivial character), or
    'cap_exceeded' (scan exhausted the cap without a -1; a value, not an
    error).
    """

    status: str
    prime: int | None = None
    cap: int | None = None

    @classmethod
    def found(cls, prime: int) -> "EtaResult":
        return cls(status="found", prime=prime)

    @classmethod
    def never(cls) -> "EtaResult":
        return cls(status="never")

    @classmethod
    def cap_exceeded(cls, cap: int) -> "EtaResult":
        return cls(status="cap_exceeded", cap=cap)

    @property
    def is_found(self) -> bool:
        return self.status == "found"


@dataclass(frozen=True)
class QExpansion:
    """weight, exact constant term, and integer coefficients a_1..a_M."""

    weight: int
    constant_term: Fraction
    coefficients: list[int]


# ---------------------------------------------------------------------------
# Coefficients and signs
# ---------------------------------------------------------------------------

def sigma_coefficient(pair: NewformPair, k: int, n: int) -> int:
    """Twisted divisor sum sum_{d|n} chi_{D1}(n/d) chi_{D2}(d) d^(k-1).

    Exact integer arithmetic; divisors by trial division up to sqrt(n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"weight must be >= 1, got {k}")
    total = 0
    for small in range(1, isqrt(n) + 1):
        if n % small:
            continue
        big = n // small
        total += kronecker(pair.d1, big) * kronecker(pair.d2, small) * small ** (k - 1)
        if big != small:
            total += kronecker(pair.d1, small) * kronecker(pair.d2, big) * big ** (k - 1)
    return total


def sigma_sign_at_prime(pair: NewformPair, p: int) -> int:
    """Sign of the p-th coefficient for any weight k >= 2.

    chi_{D1}(p) if p | D2, else chi_{D2}(p): when chi_{D2}(p) != 0 the
    p^(k-1) term dominates the chi_{D1}(p) term in absolute value.
    """
    if pair.d2 % p == 0:
        return kronecker(pair.d1, p)
    return kronecker(pair.d2, p)


def eta(pair: NewformPair, cap: int = DEFAULT_ETA_CAP) -> EtaResult:
    """Least prime p <= cap with a negative p-th coefficient.

    Returns never() when D2 = 1 (the sign is +1 at every prime: p | 1 is
    impossible and chi_1 = 1). The cap keeps the scan bounded; with D2 != 1
    the scan stops at latest at the least prime with chi_{D2}(p) = -1, so
    cap_exceeded only occurs for tiny caps. A cap below 2 is rejected.
    """
    return eta_sign_trace(pair, cap)[0]


def least_negative_prime(d: int, cap: int = DEFAULT_ETA_CAP) -> EtaResult:
    """n(D): least prime p <= cap with chi_D(p) = -1; never() iff D = 1.

    Equals the least n >= 1 with chi_D(n) not in {0, 1}: that least n is
    necessarily prime, since a composite n = ab with a, b < n would force
    chi_D(a) or chi_D(b) outside {0, 1} first.
    """
    if not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    if d == 1:
        return EtaResult.never()
    for p in iter_primes(cap):
        if kronecker(d, p) == -1:
            return EtaResult.found(p)
    return EtaResult.cap_exceeded(cap)


def eta_sign_trace(
    pair: NewformPair, cap: int = DEFAULT_ETA_CAP
) -> tuple[EtaResult, list[tuple[int, int]]]:
    """eta(pair, cap) together with the (prime, sign) of every prime its scan
    reads, ending at the first -1; one scan gives both. A cap below 2 is
    rejected, as by eta."""
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    trace: list[tuple[int, int]] = []
    if pair.d2 == 1:
        return EtaResult.never(), trace
    for p in iter_primes(cap):
        s = sigma_sign_at_prime(pair, p)
        trace.append((p, s))
        if s == -1:
            return EtaResult.found(p), trace
    return EtaResult.cap_exceeded(cap), trace


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L(1-k, chi)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n as exact Fractions, first convention (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # B_m = -sum_{j<m} C(m+1, j) B_j / (m+1), each sum taken over the lcm L
    # of the denominators so far and reduced once
    out = [Fraction(1)]
    den = 1
    for m in range(1, n + 1):
        den = lcm(den, out[-1].denominator)
        acc = sum(
            comb(m + 1, j) * b.numerator * (den // b.denominator) for j, b in enumerate(out) if b
        )
        out.append(Fraction(-acc, den * (m + 1)))
    return tuple(out)


def generalized_bernoulli(k: int, d: int) -> Fraction:
    """B_{k, chi_d} = f^(k-1) sum_{a=1..f} chi_d(a) B_k(a/f), f = |d|.

    Expanding B_k(x) = sum_i C(k, i) B_i x^(k-i) gives
    sum_i C(k, i) B_i f^(i-1) S_{k-i}, with the integer power sums
    S_j = sum_a chi_d(a) a^j. For d = 1 this degenerates to B_k(1), so
    B_{1, chi_1} = +1/2 even though the plain first-convention B_1 is -1/2;
    downstream L-values only ever use d != 1 at k = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    f = abs(d)
    sums = [0] * (k + 1)
    for a in range(1, f + 1):
        chi = kronecker(d, a)
        if chi:
            for j in range(k + 1):
                sums[j] += chi * a**j
    bern = bernoulli_numbers(k)
    return sum(comb(k, i) * bern[i] * Fraction(f) ** (i - 1) * sums[k - i] for i in range(k + 1))


def l_at_negative(k: int, d: int) -> Fraction:
    """L(1-k, chi_d) = -B_{k, chi_d} / k, exact.

    (k, d) = (1, 1) is rejected: that would be zeta at its pole.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1 and d == 1:
        raise ValueError("L(0) of the trivial character is a zeta pole")
    return -generalized_bernoulli(k, d) / k


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------

def is_valid_newform_triple(pair: NewformPair, k: int) -> bool:
    """Parity condition chi_{D1} chi_{D2}(-1) = (-1)^k, i.e. the product
    D1*D2 is positive exactly for even k. NewformPair already excludes the
    doubly-principal pair, so weight-2 level-1 degeneracy cannot arise.
    """
    if k < 1:
        return False
    product_positive = pair.d1 * pair.d2 > 0
    return product_positive == (k % 2 == 0)


def q_expansion(pair: NewformPair, k: int, terms: int) -> QExpansion:
    """Constant term and coefficients a_1..a_terms of the newform.

    Constant term is L(1-k, chi_{D2})/2 when chi_{D1} is principal
    (D1 = 1) and 0 otherwise.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if not is_valid_newform_triple(pair, k):
        raise ValueError(
            f"(D1, D2, k) = ({pair.d1}, {pair.d2}, {k}) violates the parity "
            f"condition sign(D1*D2) = (-1)^k"
        )
    if pair.d1 == 1:
        constant = l_at_negative(k, pair.d2) / 2
    else:
        constant = Fraction(0)
    coeffs = [sigma_coefficient(pair, k, n) for n in range(1, terms + 1)]
    return QExpansion(weight=k, constant_term=constant, coefficients=coeffs)
