"""Prime sieving, Kronecker symbols, fundamental discriminants, n_1(p).

Conventions used throughout the package:

  * Signs are plain ints restricted to {-1, 0, +1}.
  * Primes come as plain increasing tuples of ints: the kth prime p_k is
    primes[k - 1].
  * D = 1 counts as a fundamental discriminant (the trivial character);
    statistics that are undefined at D = 1 exclude it explicitly.
  * The Kronecker symbol (D/n) is defined for every integer D and every
    n >= 1; n = 0 is rejected rather than given a convention.
  * Discriminant tables are ordered by increasing |D| with the negative
    discriminant first on ties, so every derived report is deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import TYPE_CHECKING

# numpy is imported inside the functions that use it, so that the commands
# which build no discriminant table start without it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiscriminantTable",
    "sieve_primes",
    "iter_primes",
    "is_prime",
    "MR_LIMIT",
    "kronecker",
    "legendre_oracle",
    "is_fundamental",
    "sieve_fundamental",
    "least_nonresidue",
]


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes <= `limit`, in increasing order, by the sieve of Eratosthenes.

    Raises ValueError for limit < 2.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return tuple(compress(range(limit + 1), sieve))


def iter_primes(limit: int):
    """Yield primes <= limit in increasing order, sieving over doubling limits.

    The first round sieves to 256 and each later one to twice the last
    limit, through sieve_primes, yielding the primes above the last limit.
    A walk that stops at p has sieved to below 2p (or to 256), about twice
    the work of one sieve to that limit. Cheap when the consumer stops
    early, which is the normal case for first-sign scans.
    """
    lo, hi = 1, min(256, limit)
    while lo < limit:
        primes = sieve_primes(hi)
        yield from primes[bisect_right(primes, lo) :]
        lo, hi = hi, min(2 * hi, limit)


# Miller-Rabin with the first 12 primes as bases is exact below psi_12, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < MR_LIMIT
    (about 3.18e23). A larger n raises ValueError."""
    if n >= MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Kronecker symbol and its independent oracle
# ---------------------------------------------------------------------------

def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for any integer d and n >= 1.

    For a fundamental discriminant d this evaluates the primitive real
    character chi_d(n) of conductor |d|. Completely multiplicative in n;
    (d/1) = +1 for every d. n = 0 is rejected: the value at 0 is a pure
    convention this package never needs.
    """
    if n < 0:
        raise ValueError(f"lower argument must be >= 1, got {n}")
    if n == 0:
        raise ValueError("kronecker(d, 0) is rejected (convention-dependent)")
    result = 1
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        # (d/2) = +1 if d = +-1 mod 8, -1 if d = +-3 mod 8
        two = 1 if d % 8 in (1, 7) else -1
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1:
            result = two
    # Jacobi symbol (d/n) for odd n >= 1
    a = d % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre_oracle(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: a^((p-1)/2) mod p.

    Independent test oracle for `kronecker`: modular exponentiation only,
    no shared code. p must be an odd prime.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


# ---------------------------------------------------------------------------
# Fundamental discriminants
# ---------------------------------------------------------------------------

def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def is_fundamental(d: int) -> bool:
    """True iff d is a fundamental discriminant.

    Either d = 1 mod 4 and squarefree, or d = 4m with m squarefree and
    m = 2 or 3 mod 4. Admits d = 1 (trivial character); rejects d = 0.
    """
    if d == 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


@dataclass(frozen=True, eq=False)
class DiscriminantTable:
    """All fundamental discriminants D with |D| <= bound.

    `entries` is int32, since every accepted bound is below 2^31, and is
    ordered by increasing |D|, negative member first on ties. It is the only
    array stored: |D| is derived from it where it is needed.
    """

    bound: int
    entries: np.ndarray        # int32, canonical order

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(int(d) for d in self.entries)

    @property
    def abs_values(self) -> np.ndarray:
        """|entries| (non-decreasing, int32), a new array on each access."""
        import numpy as np

        return np.abs(self.entries)

    def count_upto(self, y: int) -> int:
        """#{D fundamental : |D| <= y} for any y <= bound, O(log) time.

        A binary search on |D| read entry by entry, so nothing as long as the
        table is allocated.
        """
        if y > self.bound:
            raise ValueError(f"count_upto({y}) exceeds table bound {self.bound}")
        if y < 1:
            return 0
        return bisect_right(self.entries, y, key=abs)


# The fundamental D with |D| in one run of 16 values, 16b to 16b + 15, in
# canonical order, as (|D| mod 16, sign): D = 1 mod 4 is +-y for odd y = |D|,
# the sign that makes it 1 mod 4, and is fundamental iff y is squarefree;
# D = 4m with m = 2, 3 mod 4, and D = -4m with m = 1, 2 mod 4, are fundamental
# iff m is squarefree, so y = 16b + 4, 16b + 8 (both signs) and 16b + 12 read m.
_RUN = ((1, 1), (3, -1), (4, -1), (5, 1), (7, -1), (8, -1), (8, 1), (9, 1), (11, -1),
        (12, 1), (13, 1), (15, -1))
# Runs per segment of sieve_fundamental (2^16 values of |D|); a smaller bound
# is one segment. Its temporaries, under 12 bytes per |D| of a segment, stay
# under 0.8 MiB. Of 2^15, 2^16 and 2^17 values, 2^16 was the fastest at 1e6
# and within the noise of 2^17 at 1e7 and 1e8.
_SEGMENT_RUNS = 1 << 12
# The multiples of 4, 9 and 25 are struck once, into a pattern of period 900
# that each segment copies its flags from.
_WHEEL = 900
# A square q with n // _HITS < q <= n strikes a segment of n flags at most
# _HITS times: these strike in one gather, each smaller one by a slice of its
# own, and each larger one at most once, in another gather.
_HITS = 16


def _moebius(n: int) -> np.ndarray:
    """mu(d) for d = 0..n, int64 (mu(0) = 0).

    Each d is multiplied by -p for each prime p <= isqrt(n) dividing it, and
    set to 0 at each p^2. A squarefree d whose product falls short of d has
    one more prime factor, above isqrt(n), which flips the sign.
    """
    import numpy as np

    mu = np.ones(n + 1, dtype=np.int64)
    for p in sieve_primes(max(2, isqrt(n))):
        mu[::p] *= -p
        mu[:: p * p] = 0
    short = np.abs(mu) < np.arange(n + 1)
    np.sign(mu, out=mu)
    mu[short] *= -1
    return mu


def _odd_squarefree(n: int, mu: np.ndarray) -> int:
    """#{odd squarefree k <= n} for mu over 0..isqrt(n) at least: the sum over
    odd d <= isqrt(n) of mu(d) times the odd k' <= n / d^2 (k = d^2 k')."""
    import numpy as np

    d = np.arange(1, isqrt(n) + 1, 2)
    t = n // (d * d) + 1
    t //= 2
    t *= mu[d]
    return int(t.sum())


def _squarefree_flags(lo: int, n: int, wheel: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Bool flags of lo + i, i < n: True where no square divides it, for the
    squares of the primes up to the bound's square root (4, 9 and 25 come
    struck in wheel, the others are listed in squares, increasing)."""
    import numpy as np

    flags = wheel[lo % _WHEEL : lo % _WHEEL + n].copy()
    k, j = np.searchsorted(squares, (n // _HITS, n), side="right")
    for q in squares[:k].tolist():
        flags[-lo % q :: q] = False
    q = squares[k:j, None]
    at = -lo % q + q * np.arange(_HITS)
    flags[at[at < n]] = False
    at = -lo % squares[j:]
    flags[at[at < n]] = False
    return flags


def sieve_fundamental(bound: int) -> DiscriminantTable:
    """Enumerate fundamental discriminants with |D| <= bound.

    A segmented squarefree sieve (after Bays and Hudson, "The segmented sieve
    of Eratosthenes and primes in arithmetic progressions to 10^12", BIT 17
    (1977)). The table length is counted first, with no sieve: it is the odd
    squarefree numbers up to bound (one D each), up to bound // 4 (D = +-4m,
    m odd) and twice those up to bound // 8 (D = +-8k, k odd), each a Moebius
    sum over the odd d <= sqrt(bound). `entries` is allocated once, then each
    segment of |D| values strikes the squarefree flags of its |D| and of
    their m = |D| / 4 by p^2, lays them out as the 12 candidates of each run
    of 16 |D| (_RUN), in canonical order, and gathers the set ones from a
    table of candidate values into `entries`, with no sort. Temporaries: one
    segment's flags, candidate values and positions, about 12 bytes per |D|
    of the segment.
    """
    import numpy as np

    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound >= 2**31:
        raise ValueError(f"bound must be below 2^31, got {bound}")
    root = isqrt(bound)
    mu = _moebius(root)
    entries = np.empty(
        _odd_squarefree(bound, mu) + _odd_squarefree(bound // 4, mu) + 2 * _odd_squarefree(bound // 8, mu),
        dtype=np.int32,
    )
    del mu
    squares = np.array(sieve_primes(max(2, root))[3:], dtype=np.int64) ** 2
    runs = bound // 16 + 1
    step = min(_SEGMENT_RUNS, runs)
    wheel = np.ones(_WHEEL + 16 * step, dtype=bool)
    for q in (4, 9, 25):
        wheel[::q] = False
    residue, sign = np.array(_RUN, dtype=np.int32).T
    # the candidate values of the segment's runs, moved on by each segment;
    # near 2^31 the values of runs past the bound wrap, and are never gathered
    values = np.arange(0, 16 * step, 16, dtype=np.int32)[:, None] + residue
    values *= sign
    candidates = np.empty((step, len(_RUN)), dtype=bool)
    done = 0
    for b in range(0, runs, step):
        n = min(step, runs - b)
        if b:
            values += 16 * step * sign
        y = _squarefree_flags(16 * b, 16 * n, wheel, squares)
        y[bound + 1 - 16 * b :] = False
        m = _squarefree_flags(4 * b, 4 * n, wheel, squares)
        m[bound // 4 + 1 - 4 * b :] = False
        c = candidates[:n]
        for col, r in enumerate(residue.tolist()):
            c[:, col] = y[r::16] if r % 2 else m[r // 4 :: 4]
        at = np.flatnonzero(c)
        np.take(values[:n].ravel(), at, out=entries[done : done + len(at)], mode="clip")
        done += len(at)
        del y, m, at  # before the next segment's are made
    assert done == len(entries), "the sieve and the Moebius count disagree"
    return DiscriminantTable(bound=bound, entries=entries)


# ---------------------------------------------------------------------------
# Least quadratic non-residue
# ---------------------------------------------------------------------------

def least_nonresidue(p: int) -> int:
    """n_1(p): least n >= 1 coprime to p with x^2 = n mod p insoluble.

    Defined for odd primes only (every residue is a square mod 2). Scans
    n = 2, 3, ... with the Euler criterion; the result is always prime.
    """
    if p == 2 or p < 3 or not is_prime(p):
        raise ValueError(f"least_nonresidue needs an odd prime, got {p}")
    e = (p - 1) // 2
    for n in range(2, p):
        if pow(n, e, p) == p - 1:
            assert is_prime(n), f"least non-residue {n} of {p} is not prime"
            return n
    raise AssertionError(f"no non-residue found mod {p}")  # unreachable for odd primes
