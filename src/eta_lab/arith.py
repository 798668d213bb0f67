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

    The first round sieves to 256; each later round sieves only the new
    segment (lo, hi], hi = 2 lo, striking it with the primes found so far,
    which include every prime <= sqrt(hi) since lo >= sqrt(2 lo). So a walk
    to p costs one sieve to p. Cheap when the consumer stops early, which is
    the normal case for first-sign scans.
    """
    if limit < 2:
        return
    lo = min(256, limit)
    base = list(sieve_primes(lo))
    yield from base
    while lo < limit:
        hi = min(2 * lo, limit)
        segment = bytearray([1]) * (hi - lo)  # segment[i] stands for lo + 1 + i
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, (lo // p + 1) * p)
            segment[start - lo - 1 :: p] = bytearray(len(range(start, hi + 1, p)))
        found = list(compress(range(lo + 1, hi + 1), segment))
        yield from found
        if base[-1] <= isqrt(limit):
            base += found
        lo = hi


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


# slots per slice of sieve_fundamental's fill: its temporaries, two int64
# arrays of one slice's set slots, stay below 1 MiB whatever the bound
_SLOT_SLICE = 1 << 16


def sieve_fundamental(bound: int) -> DiscriminantTable:
    """Enumerate fundamental discriminants with |D| <= bound.

    Squarefree sieve (multiples of p^2 struck), then one bool slot per
    candidate: slot 2y holds D = -y and slot 2y + 1 holds D = +y, so the
    set slots come out of np.flatnonzero already in canonical order, with
    no sort. The set slots are counted, `entries` is allocated once, and each
    slice of _SLOT_SLICE slots is filled with its own np.flatnonzero.
    Temporaries: three bool bytes per integer up to `bound`, then the two of
    the slots and two int64 arrays of one slice's set slots.
    """
    import numpy as np

    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound >= 2**31:
        raise ValueError(f"bound must be below 2^31, got {bound}")
    sf = np.ones(bound + 1, dtype=bool)
    sf[0] = False
    for p in sieve_primes(max(2, isqrt(bound))):
        if p * p > bound:
            break
        sf[p * p :: p * p] = False

    slots = np.zeros(2 * (bound + 1), dtype=bool)
    # D = y = 1 mod 4 and D = -y = 1 mod 4 (y = 3 mod 4), y squarefree
    slots[3::8] = sf[1::4]
    slots[6::8] = sf[3::4]
    # D = 4m (slot 8m + 1) with m = 2, 3 mod 4, and D = -4m (slot 8m) with
    # -m = 2, 3 mod 4, i.e. m = 2, 1 mod 4; m squarefree
    m = sf[: bound // 4 + 1]
    slots[17::32] = m[2::4]
    slots[25::32] = m[3::4]
    slots[8::32] = m[1::4]
    slots[16::32] = m[2::4]
    del sf, m

    entries = np.empty(np.count_nonzero(slots), dtype=np.int32)
    done = 0
    for lo in range(0, len(slots), _SLOT_SLICE):
        index = np.flatnonzero(slots[lo : lo + _SLOT_SLICE])
        index += lo
        sign = index & 1  # slot 2y + 1 holds +y, slot 2y holds -y
        sign <<= 1
        sign -= 1
        index >>= 1
        index *= sign
        entries[done : done + len(index)] = index
        done += len(index)
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
