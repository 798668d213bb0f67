"""Desk-scale empirical experiments over fundamental discriminant pairs.

Everything here counts exactly: observed quantities are integer counts or
exact rationals, reference constants are RigorousValue enclosures, and
floating point only appears in informational columns (log x and the zeta(2)
enclosure midpoint). Nothing here renders a decimal; reports does. Two
independent engines cover the pair statistics:

  * scan_pairs      an optimized engine: eta(D1, D2) equals the smaller of
                    n(D2) and the first prime q | D2, q < n(D2), with
                    chi_{D1}(q) = -1. That depends on D2 only through the
                    set of such q (its qmask signature) and on D1 only
                    through the bitmask of the q with chi_{D1}(q) = -1: the
                    lowest bit of the two masks' AND is the q, and an empty
                    AND means n(D2);
  * decomposition_audit
                    a definitional engine: every pair's eta is rescanned
                    prime by prime straight from the sign rule.

The pair kernel reads each D2 once, on one of two paths. Its direct table
holds the cumulative cells of the 64 signatures of bits 0..5 over the first
r' D1, r' the number of D with |D| <= isqrt(x) (as in Dirichlet's hyperbola
method), transposed so that the D2 of one slice, whose prefixes span a few
runs, read a few rows of 64 cells. One walk over the D2 in fixed-size slices
reads it for each D2 of such a signature with a prefix of at most r': 99.5%
of the table at 1e6, 99.6% at 1e7. Every other D2 is kept: the leading runs
of prefixes above r', and the higher signatures. Then one walk over D1
serves every kept signature, one row each: a step from D1 u, where
the k rows of longest prefix above u are active, covers _SLICE // k D1, and
sums its cells only between the distinct prefixes its kept D2 end at. No
table of all kept rows is held: the kept D2 are the one kernel temporary
that grows with the table, 0.41% of it at 1e7. The sign-pattern count
(density_lt) is the same kernel with the pattern primes dividing D2 as the
signature, in increasing prime order, so that the primes dividing the most
D2 take the direct table's bits, the D1 mask marking the pattern primes
where chi_{D1} misses its wanted sign, and a pair matching where the AND is
empty.

Both engines read n(D) (the first p with chi_D(p) = -1) and the qmask
bits (chi = 0, i.e. p | D, below n(D)) from one function, _signs, run on
one slice of the table at a time. Its first stage is a wheel: every sign at
2, 3, 5, 7, 11 and 13 depends only on D mod 120120, so one gather from two
residue tables settles each D with n(D) <= 13 and gives qmask bits 0..5.
The D it leaves (about 4% at 1e6) walk the primes from 17 to their largest
|D| (n(D) < |D| for fundamental D != 1), each prime computing chi_D(p) only
over the D still without a -1. Both pair kernels cut a D1 column to the
longest prefix of a D2 that reads it. The scan kernel's are ctx.chi, written
only by build_context and read only by the scan kernel: chi_{D1}(q) over the
first max{prefix[D2] : q in qmask(D2)} entries. The pattern kernel builds its
own per call, that of p up to the prefix of the first D with p | D, and reads
chi_{D2}(p) from it where it covers a slice, else through _chi_reader.
density_lemma counts chi_D(p) by slices and keeps three counts, in ctx.signs.
average_n1 runs _signs over the p* = +-p = 1 mod 4, since n_1(p) = n(p*).

The context stores six bytes per entry: int32 entries, uint8 n(D) (at most
103 below 1e8) and a uint8 qmask byte. The qmask (at most 26 prime bits below
1e8) is that byte where it is below 64, and a sorted list of exceptions holds
the 0.38% of masks from 64 on. The prefix counts #{D1 : |D1| <= x // |D2|}
do not increase along the table and are kept as their O(r' + isqrt(x)) runs;
a kernel takes a slice's prefixes by one np.repeat of the runs clipped to it,
and its pair count as the runs' values times their clipped lengths. |D| is
not stored. Every pass over the table (the sign pass, the run ends, each chi
column, the n(D) counts) works one slice at a time, so no temporary of the
build grows with the table: it peaks at about the context it returns.

Every engine runs in one process; a worker pool paid for itself only in
audits at x >= 3e5. Every kernel still takes a (lo, hi) range of D2, so
partial sums over ranges can be compared across engines.

Their agreement on sum(eta) at equal x is asserted by the test suite. Pair
iteration order is canonical (D2 by table order, D1 by table order within
the |D1| <= x/|D2| prefix), and all aggregates are integers, so reports are
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from math import isqrt, log
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .arith import (
    DiscriminantTable,
    is_prime,
    iter_primes,
    kronecker,
    sieve_fundamental,
    sieve_primes,
)
from .constants import (
    REFERENCE_K,
    ZETA2_HI,
    ZETA2_LO,
    RigorousValue,
    combined_constant,
    default_primes,
    least_negative_densities,
    pair_sign_probability,
    rigorous_constant,
    sign_probability,
)
from .reports import (
    AuditReport,
    AverageReport,
    CountReport,
    DensityReport,
    DensityRow,
    MismatchExample,
    PairScanReport,
)

__all__ = [
    "ScanContext",
    "PairScanReport",
    "AuditReport",
    "DensityReport",
    "DensityRow",
    "CountReport",
    "AverageReport",
    "build_context",
    "pair_count_check",
    "check_prime",
    "check_primes",
    "check_pattern",
    "density_lemma",
    "density_pollack",
    "density_lt",
    "scan_pairs",
    "decomposition_audit",
    "average_nd",
    "average_n1",
]

# ---------------------------------------------------------------------------
# Context: discriminant table plus derived arrays shared by all experiments
# ---------------------------------------------------------------------------

# Entries per slice of every pass over the whole table (the sign pass of
# build_context, each chi column, the n(D) counts): their temporaries hold one
# slice, never the table. 2^16 and 2^17 built the 1e6 and 1e7 contexts in equal
# time.
_TABLE_SLICE = 1 << 16
# Density primes lie below this bound, so that Euler's criterion squares
# residues below p, and so below 2^62, in int64.
DENSITY_PRIME_LIMIT = 1 << 31


def _residues(d: np.ndarray, m: int) -> np.ndarray:
    """d mod m in d's dtype, as d - m * (d // m): numpy divides by a scalar
    several times faster than it takes a remainder. m * (d // m) lies within m
    of d, so it fits the dtype wherever |d| + m does."""
    r = np.floor_divide(d, m)
    r *= -m
    r += d
    return r


def _chi_table(p: int) -> np.ndarray:
    """chi_D(p) as int8 by D mod m, m = 8 for p = 2 and m = p for odd p: for a
    fundamental D the sign at p depends on D mod m only. It is 0 at the
    multiples of p, +1 at +-1 mod 8 for p = 2 and at the squares of
    1..(p - 1)/2 mod an odd p (one slice of int64 at a time), -1 elsewhere."""
    tab = np.full(8 if p == 2 else p, -1, dtype=np.int8)
    tab[::p] = 0
    if p == 2:
        tab[[1, 7]] = 1
        return tab
    half = (p + 1) // 2
    for lo in range(1, half, _TABLE_SLICE):
        r = np.arange(lo, min(lo + _TABLE_SLICE, half), dtype=np.int64)
        np.multiply(r, r, out=r)
        np.remainder(r, p, out=r)
        tab[r] = 1
    return tab


def _chi_reader(p: int, n: int):
    """A function from an array of discriminants to chi_D(p) as int8, for a
    prime p < DENSITY_PRIME_LIMIT and n entries read in all, one _TABLE_SLICE
    at a time: a gather from _chi_table(p) when p == 2 or p <= n, else
    Euler's criterion, D^((p-1)/2) mod p in {0, 1, p - 1}, by
    square-and-multiply in int64."""
    tab = _chi_table(p) if p == 2 or p <= n else None

    def read(d: np.ndarray) -> np.ndarray:
        out = np.empty(len(d), dtype=np.int8)
        for lo in range(0, len(d), _TABLE_SLICE):
            part = d[lo : lo + _TABLE_SLICE]
            if tab is not None:
                out[lo : lo + _TABLE_SLICE] = np.take(tab, _residues(part, len(tab)))
                continue
            base = part.astype(np.int64)
            np.remainder(base, p, out=base)
            acc = base.copy()
            for bit in bin((p - 1) // 2)[3:]:  # the exponent's bits after its leading 1
                np.multiply(acc, acc, out=acc)
                np.remainder(acc, p, out=acc)
                if bit == "1":
                    np.multiply(acc, base, out=acc)
                    np.remainder(acc, p, out=acc)
            out[lo : lo + _TABLE_SLICE] = np.where(acc < 2, acc, -1)
        return out

    return read


def _chi_values(d: np.ndarray, p: int) -> np.ndarray:
    """chi_D(p) for an array of discriminants and a prime p < DENSITY_PRIME_LIMIT,
    as int8, one slice at a time."""
    return _chi_reader(p, len(d))(d)


# The residue tables' primes: chi_D(2) depends only on D mod 8 and chi_D(p),
# p odd, only on D mod p, so every sign at these primes, and with them n(D)
# where it is at most 13 and qmask bits 0..5, depends only on D mod _WHEEL.
# Adding 17 (2,042,040 entries) made the tables' first build take 26-29 ms
# instead of 2 ms and saved less than that below x = 1e7, where one fresh
# process builds one context.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = 8 * 3 * 5 * 7 * 11 * 13


@cache
def _residue_tables() -> tuple[np.ndarray, np.ndarray]:
    """(n, bits), two uint8 tables indexed by D mod _WHEEL, built on first
    use: n is the first wheel prime p_i with chi_D(p_i) = -1, 0 if there is
    none, and bit i of bits is set where chi_D(p_i) = 0 and p_i < n (or
    n = 0). Six bits fit a byte, so the tables hold 240 KB for the process.

    The digits chi_D(p_i) + 1 form a base-3 code, each digit tiled from its
    prime's _chi_table across the wheel; n and bits are then lookups of the
    code in 3^6-entry tables. Read-only: every caller shares them.
    """
    code = np.zeros(1, dtype=np.int16)
    for i, p in enumerate(_WHEEL_PRIMES):
        digit = (_chi_table(p).astype(np.int16) + 1) * 3**i
        code = np.tile(code, len(digit))
        code += np.tile(digit, len(code) // len(digit))
    # code = digit_0 + 3 * (the code of the later primes), so from the last
    # prime back: digit 0 gives n = p and clears the later bits, digit 1 sets bit 0
    n_of, bits_of = [0], [0]
    for p in reversed(_WHEEL_PRIMES):
        n_of = [v for n in n_of for v in (p, n, n)]
        bits_of = [v for b in bits_of for v in (0, 2 * b + 1, 2 * b)]
    n_of, bits_of = np.array(n_of, dtype=np.uint8), np.array(bits_of, dtype=np.uint8)
    tables = n_of[code], bits_of[code]
    for t in tables:
        t.flags.writeable = False
    return tables


def _signs(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n(D), qmask) as uint8 and uint32 for a slice of fundamental
    discriminants, n(D) = 0 at D = 1.

    One gather by D mod _WHEEL from the residue tables settles every D with
    n(D) <= 13. The D it leaves (about 4% of them at 1e6) then walk the
    primes from p = 17 and qmask bit 6 on, so bit i is still the i-th prime:
    at is their index array and rest their values, both filtered at each
    prime to the D still without a -1. A fundamental D != 1 has n(D) < |D|,
    so the walk ends at the largest |D| left; a D still without a -1 there
    is not fundamental, and raises RuntimeError, as does a qmask that would
    need more than 32 bits.
    """
    n_table, bits_table = _residue_tables()
    r = _residues(d, _WHEEL)
    n = np.take(n_table, r)
    qmask = np.take(bits_table, r).astype(np.uint32)
    at = np.flatnonzero((n == 0) & (d != 1))
    rest = d[at]
    bound = int(np.abs(rest).max()) if len(rest) else 0
    primes = islice(iter_primes(bound), len(_WHEEL_PRIMES), None)
    for bit, p in enumerate(primes, start=len(_WHEEL_PRIMES)):
        if len(at) == 0:
            break
        chi = _chi_values(rest, p)
        neg = chi == -1
        n[at[neg]] = p
        # for fundamental D, p | D exactly when chi_D(p) = 0
        divides = at[chi == 0]
        if len(divides):
            if bit >= 32:
                raise RuntimeError("qmask would need more than 32 prime bits")
            qmask[divides] |= np.uint32(1 << bit)
        keep = np.logical_not(neg, out=neg)
        at, rest = at[keep], rest[keep]
    if len(at):
        raise RuntimeError(f"{rest[0]} has no -1 below |D|: not a fundamental discriminant")
    return n, qmask


# Signatures below this, of the wheel primes' bits 0..5 alone, each have a row
# of the pair kernel's direct table, whether they occur or not. It is also the
# context's one-byte qmask's flag for a qmask with a higher bit.
_DIRECT_ROWS = 1 << len(_WHEEL_PRIMES)


@dataclass(frozen=True, eq=False)
class ScanContext:
    """The arrays shared by the pair experiments at one bound x.

    qmask bit i is set for an entry D iff cache_primes[i] divides D and is
    below n(D); those are exactly the primes at which a pair (D1, D) can go
    negative before n(D) does. prefix[D] is #{D1 : |D1| <= x // |D|}.

    Neither is stored entry by entry. prefix does not increase along the
    table, so it is kept as runs: run k holds the value runs[0][k] on the
    entries from the end of run k - 1 up to runs[1][k], an O(r' + isqrt(x))
    list (see _prefix_runs). The qmask is kept in one byte, qbyte: the mask
    itself where it is below _DIRECT_ROWS, else the flag _DIRECT_ROWS; qhigh
    lists, by increasing position, each flagged entry and its uint32 mask
    (0.38% of the table at 1e6 and 1e7). The slice readers prefix_slice,
    qmask_slice, runs_in and pair_count are the interface; the prefix and
    qmask properties build a new whole-table array on each access, as
    table.abs_values does, and no engine reads them.

    chi is the one store of chi columns: chi[q] holds chi_{D1}(q) over the
    longest prefix the scan kernel reads at q; build_context writes it, and
    only the scan kernel reads it. signs memoizes density_lemma: signs[p]
    holds the counts of chi_D(p) = +1, -1 and 0 over the whole table. The
    fields cannot be reassigned, and signs is the only part that changes.

    entries, nvals and qbyte are the only arrays as long as the table, six
    bytes per entry. build_context and every engine that reads the context
    keep their temporaries to one slice.
    """

    x: int
    table: DiscriminantTable
    nvals: np.ndarray                     # uint8; n(D), 0 at D = 1
    runs: tuple[np.ndarray, np.ndarray]   # int32 value and intp end of each prefix run
    qbyte: np.ndarray                     # uint8; qmask if below _DIRECT_ROWS, else _DIRECT_ROWS
    qhigh: tuple[np.ndarray, np.ndarray]  # intp position and uint32 qmask of each flagged entry
    cache_primes: tuple[int, ...]
    chi: dict[int, np.ndarray]            # int8 columns by prime
    signs: dict[int, tuple[int, int, int]]  # density_lemma's (+1, -1, 0) counts by prime
    # not fields, always empty; kept because the benchmark's context_bytes reads them
    negcum = eqcum = MappingProxyType({})

    @property
    def entries(self) -> np.ndarray:
        return self.table.entries

    def runs_in(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, lengths) of the prefix runs clipped to the entries [a, b)."""
        values, ends = self.runs
        if a >= b:
            return values[:0], ends[:0]
        k0, k1 = np.searchsorted(ends, (a, b - 1), side="right")
        lengths = np.minimum(ends[k0 : k1 + 1], b)
        lengths[1:] -= ends[k0:k1]  # each later run starts where the one before ends
        lengths[0] -= a
        return values[k0 : k1 + 1], lengths

    def prefix_slice(self, a: int, b: int) -> np.ndarray:
        """prefix over the entries [a, b), int32."""
        return np.repeat(*self.runs_in(a, b))

    def pair_count(self, a: int, b: int) -> int:
        """The sum of prefix over the entries [a, b): the pairs of those D2."""
        values, lengths = self.runs_in(a, b)
        return int(np.dot(values.astype(np.int64), lengths))

    def qmask_slice(self, a: int, b: int) -> np.ndarray:
        """qmask over the entries [a, b), uint32: the byte, with the flagged
        entries patched from qhigh."""
        q = self.qbyte[a:b].astype(np.uint32)
        at, masks = self.qhigh
        i, j = np.searchsorted(at, (a, b))
        q[at[i:j] - a] = masks[i:j]
        return q

    @property
    def prefix(self) -> np.ndarray:
        """prefix over the whole table (int32), a new array on each access."""
        return self.prefix_slice(0, len(self.nvals))

    @property
    def qmask(self) -> np.ndarray:
        """qmask over the whole table (uint32), a new array on each access."""
        return self.qmask_slice(0, len(self.nvals))


def _count_upto(entries: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """#{D : |D| <= y} for each y of ys, as intp, reading |D| one slice of the
    table at a time: each y is searched in the slice where |D| first exceeds
    it, and a slice no y falls in is skipped."""
    order = np.argsort(ys, kind="stable")
    ys = ys[order]
    counts = np.full(len(ys), len(entries), dtype=np.intp)
    done = 0
    for lo in range(0, len(entries), _TABLE_SLICE):
        if done == len(ys):
            break
        hi = min(lo + _TABLE_SLICE, len(entries))
        if abs(int(entries[hi - 1])) <= ys[done]:
            continue  # no y falls in this slice
        a = np.abs(entries[lo:hi])
        k = int(np.searchsorted(ys, a[-1]))  # the ys below the slice's largest |D|
        counts[order[done:k]] = lo + np.searchsorted(a, ys[done:k], side="right")
        done = k
    return counts


def _prefix_runs(table: DiscriminantTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of #{D1 : |D1| <= x // |D|} along the table: (values, ends),
    the int32 value of each run and the intp position where it ends. Empty
    runs are dropped and equal neighbours merged, so the ends increase.

    x // |D| does not increase along the table, so, with r = isqrt(x), the
    entries whose quotient exceeds r form a head, one run each. Every later
    entry has a quotient v <= r, and the entries sharing v are one run, of
    value #{|D1| <= v}, ending at #{|D| <= x // v}. So the runs take
    r' + 2r counts of |D| <= y, one pass over the table, and no array as long
    as it.
    """
    r = isqrt(x)
    entries = table.entries
    head = table.count_upto(x // (r + 1))  # the entries with x // |D| > r
    v = np.arange(r, 0, -1, dtype=np.int64)
    head_quotients = x // np.abs(entries[:head].astype(np.int64))
    counts = _count_upto(entries, np.concatenate([head_quotients, v, x // v]))
    values = counts[: head + r]
    ends = np.concatenate([np.arange(1, head + 1), counts[head + r :]])
    keep = np.diff(ends, prepend=0) > 0
    values, ends = values[keep], ends[keep]
    last = np.append(values[1:] != values[:-1], True)
    return values[last].astype(np.int32), ends[last]


def _context(x: int, ctx: ScanContext | None) -> ScanContext:
    """ctx, or a new context at x if it is None; ValueError if ctx was built
    at another x."""
    if ctx is None:
        return build_context(x)
    if ctx.x != x:
        raise ValueError(f"the context was built at x = {ctx.x}, not at x = {x}")
    return ctx


def build_context(x: int) -> ScanContext:
    """Sieve |D| <= x, find the prefix runs, and derive n(D), the qmask and
    the kernel's chi columns, one slice of the table at a time: _signs settles
    each D with n(D) <= 13 and its qmask bits 0..5 by one gather mod 120120
    and runs the sign pass from p = 17 on the rest."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    table = sieve_fundamental(x)
    entries = table.entries
    nvals = np.empty(len(entries), dtype=np.uint8)
    qbyte = np.empty(len(entries), dtype=np.uint8)
    high_at, high_mask = [], []  # the positions and masks of the qmasks >= _DIRECT_ROWS
    first: dict[int, int] = {}  # qmask bit -> the first entry with it
    seen = 0  # the qmask bits met so far
    for lo in range(0, len(entries), _TABLE_SLICE):
        hi = lo + _TABLE_SLICE
        nvals[lo:hi], q = _signs(entries[lo:hi])
        up = np.flatnonzero(q >= _DIRECT_ROWS)
        high_at.append(up + lo)
        high_mask.append(q[up])
        qbyte[lo:hi] = np.minimum(q, _DIRECT_ROWS)
        new = int(np.bitwise_or.reduce(q)) & ~seen
        seen |= new
        for bit in range(new.bit_length()):
            if new >> bit & 1:
                first[bit] = lo + int(np.argmax(q & np.uint32(1 << bit)))
    primes = tuple(iter_primes(int(nvals.max()) - 1))  # the primes below max n(D)
    ctx = ScanContext(x=x, table=table, nvals=nvals, runs=_prefix_runs(table, x), qbyte=qbyte,
                      qhigh=(np.concatenate(high_at), np.concatenate(high_mask)),
                      cache_primes=primes, chi={}, signs={})
    # the pair kernel reads chi_{D1}(p) only within the prefixes of the D2 with
    # bit p; prefix does not increase along the table, so the first is longest
    # (a D2's pair count is its prefix)
    for b in sorted(first):
        n = ctx.pair_count(first[b], first[b] + 1)
        ctx.chi[primes[b]] = _chi_values(entries[:n], primes[b])
    return ctx


# ---------------------------------------------------------------------------
# scan_pairs: optimized eta aggregation
# ---------------------------------------------------------------------------

# D2 per slice of the pair kernel's walk over the table, and cells per step of
# its walks over D1: a step of k rows covers _SLICE // k D1.
_SLICE = 1 << 14


def _cells(t: np.ndarray, lookup: np.ndarray) -> np.ndarray:
    """lookup[b] for the lowest set bit b of each uint32 in t, lookup[32] where
    t is 0."""
    low = t & -t
    low -= 1  # 2^b - 1 has b bits set; 0 wraps to 32 set bits
    return np.take(lookup, np.bitwise_count(low))


def _pair_sums(ctx: ScanContext, bounds, d2_side, d1_side, values) -> tuple[int, int]:
    """Sum one cell per pair over the D2 in bounds and the D1 in each prefix.

    d2_side(a, b) gives, for the D2 in [a, b), a signature bitmask s, an
    integer weight w, and the increasing positions in [0, b - a) of the D2
    whose s is at least _DIRECT_ROWS; d1_side(bits, u, v) gives a uint32
    bitmask t for the D1 in [u, v), exact at the bits in `bits` that some D2
    carries. The pair's cell is a hit worth values[b] at the lowest bit b of
    t & s, or a miss where t & s is 0. Returns (sum of hits, sum over D2 of w
    times its misses). A D2 of signature 0 has only misses. d2_side is asked
    for each D2 once.

    A D2 of signature s < _DIRECT_ROWS and prefix at most r' reads cell
    (prefix, s) of the direct table; every other D2 is kept, and read after
    the table walk by one walk over D1 (see the module docstring). A cell
    packs a hit as its value << 32 and a miss as 1. The hits over one D2's
    prefix are at most prefix * |D2| <= x < 2^31, since every value divides
    D2, so neither field overflows.
    """
    lo, hi = bounds
    if lo >= hi:
        return 0, 0
    width = ctx.table.count_upto(isqrt(ctx.x))  # r'
    # prefix does not increase along the table: the D2 whose prefix exceeds
    # r' are its leading runs
    run_values, ends = ctx.runs
    lead = int(np.diff(ends, prepend=0)[run_values > width].sum())
    lookup = np.zeros(33, dtype=np.int64)
    lookup[: len(values)] = np.array(values, dtype=np.int64) << 32
    lookup[32] = 1
    hits = misses = 0

    def tally(packed: np.ndarray, w: np.ndarray) -> None:
        """Add the hits and the w-weighted misses of the packed sums, in place."""
        nonlocal hits, misses
        if len(values):  # else no cell holds a hit
            hits += int((packed >> 32).sum())
            packed &= 0xFFFFFFFF
        misses += int(np.dot(packed, w))

    # cell (j, s), at j * _DIRECT_ROWS + s, sums signature s over D1 [0, j): a
    # slice's prefixes span a few runs, so its D2 read a few rows of 64 cells
    direct = np.zeros((width + 1, _DIRECT_ROWS), dtype=np.int64)
    rows, step = np.arange(_DIRECT_ROWS, dtype=np.uint32), max(1, _SLICE // _DIRECT_ROWS)
    for u in range(0, width, step):
        v = min(u + step, width)
        cells = _cells(d1_side(_DIRECT_ROWS - 1, u, v) & rows[:, None], lookup)
        cells[:, 0] += direct[u]
        np.cumsum(cells, axis=1, out=cells)
        direct[u + 1 : v + 1] = cells.T
    direct = direct.ravel()
    kept = []
    for a in range(lo, hi, _SLICE):
        b = min(a + _SLICE, hi)
        sig, w, high = d2_side(a, b)
        n = max(0, min(lead, b) - a)  # the slice's D2 in the leading runs
        keep = np.concatenate((np.arange(n), high[np.searchsorted(high, n) :]))
        run_values, lengths = ctx.runs_in(a, b)
        at = np.repeat(run_values.astype(np.intp) * _DIRECT_ROWS, lengths)
        kept.append((sig[keep], (at[keep] // _DIRECT_ROWS).astype(np.int32), w[keep]))
        at += sig
        at[keep] = 0  # cell 0, over D1 [0, 0), is 0: these D2 are read after the walk
        tally(direct[at], w)
    del direct

    sig, prefix, w = map(np.concatenate, zip(*kept))
    plain = sig == 0  # only misses
    misses += int(np.dot(prefix[plain], w[plain].astype(np.int64)))
    sig, prefix, w = (col[~plain] for col in (sig, prefix, w))
    # the kept signatures, longest prefix first: the kept D2 are in table
    # order, so a signature's first D2 has its longest prefix
    sigs, first, row = np.unique(sig, return_index=True, return_inverse=True)
    by = np.argsort(-prefix[first], kind="stable")
    sigs, longest = sigs[by], prefix[first[by]].tolist()
    row = np.argsort(by)[row]  # each kept D2's row, its signature's place in sigs
    bits = np.bitwise_or.accumulate(sigs).tolist()  # bits[k - 1]: of the first k rows
    prefix, row, w = (col[::-1].copy() for col in (prefix, row, w))  # reversed: increasing prefix
    out = np.empty(len(prefix), dtype=np.int64)
    total = np.zeros(len(sigs), dtype=np.int64)  # each row's sum over D1 [0, u)
    k, done, u, top = len(sigs), 0, 0, int(prefix.max(initial=0))
    while u < top:
        while longest[k - 1] <= u:
            k -= 1  # the rows active at u: those whose longest prefix exceeds u
        v = min(u + max(1, _SLICE // k), top)
        cells = _cells(d1_side(bits[k - 1], u, v) & sigs[:k, None], lookup)
        # the D2 of prefix p in (u, v] read sums over D1 [0, p): the cells are
        # summed between the distinct p and v (np.unique's first call: 15 ms)
        end = int(np.searchsorted(prefix, v, side="right"))
        p = prefix[done:end] - u
        cuts = np.append(p, v - u)
        cuts = cuts[np.append(cuts[1:] != cuts[:-1], True)]  # distinct, as p is sorted
        sums = np.add.reduceat(cells, np.concatenate(([0], cuts[:-1])), axis=1)
        sums[:, 0] += total[:k]
        np.cumsum(sums, axis=1, out=sums)
        out[done:end] = sums[row[done:end], np.searchsorted(cuts, p)]
        total, done, u = sums[:, -1], end, v
    tally(out, w)
    return hits, misses


def _d1_bits(columns, marks, bits: int, u: int, v: int) -> np.ndarray:
    """uint32 over D1 [u, v): bit b set where b is in bits and marks[b], a
    test on int8 chi values, holds for columns[b], chi_{D1} at bit b's prime.
    A column covers the longest prefix of a D2 with its bit, so past its end
    the bit stays clear."""
    out = np.zeros(v - u, dtype=np.uint32)
    for b, (col, mark) in enumerate(zip(columns, marks)):
        if bits >> b & 1:
            chi = col[u:v]
            out[: len(chi)] |= mark(chi).astype(np.uint32) << np.uint32(b)
    return out


def _scan_chunk(ctx: ScanContext, bounds: tuple[int, int]):
    lo, hi = bounds
    pairs_total = ctx.pair_count(lo, hi)
    # D = 1 heads the table; its pairs are excluded, and its n(D) = 0 weighs them out
    pairs_excluded = ctx.pair_count(0, 1) if lo == 0 < hi else 0

    # eta = the first q in qmask(D2) with chi_{D1}(q) = -1 (a hit worth q),
    # else n(D2) (a miss, weighted by n(D2)); a bit no D2 carries has no column
    primes = ctx.cache_primes[:32]
    columns = [ctx.chi.get(q, np.zeros(0, dtype=np.int8)) for q in primes]
    high = ctx.qhigh[0]  # the positions of the qmasks from _DIRECT_ROWS on

    def d2_side(a: int, b: int):
        i, j = np.searchsorted(high, (a, b))
        return ctx.qmask_slice(a, b), ctx.nvals[a:b], high[i:j] - a

    hits, misses = _pair_sums(
        ctx,
        bounds,
        d2_side,
        partial(_d1_bits, columns, [partial(np.equal, -1)] * len(primes)),
        primes,
    )
    return pairs_total, pairs_excluded, hits + misses


def scan_pairs(
    x: int,
    workers: int = 1,
    ctx: ScanContext | None = None,
    k_terms: int = REFERENCE_K,
) -> PairScanReport:
    """Sum eta(D1, D2) over ordered pairs with |D1*D2| <= x, D2 != 1.

    Pairs with D2 = 1 have no negative coefficient and are excluded from
    numerator and denominator alike; their count is reported because they
    are a visible fraction at desk scale. Every eta is at most n(D2), so no
    scan needs a cap. `workers` is accepted and ignored, so callers that
    record a worker count keep working; the kernel runs in this process.
    """
    ctx = _context(x, ctx)
    pairs_total, pairs_excluded, sum_eta = _scan_chunk(ctx, (0, len(ctx.entries)))
    included = pairs_total - pairs_excluded
    avg = Fraction(sum_eta, included) if included else Fraction(0)

    refs = {
        "theta": rigorous_constant("theta", k_terms),
        "combined": combined_constant(k_terms),
        "Theta": rigorous_constant("Theta", k_terms),
    }
    return PairScanReport(
        x=x,
        pairs_total=pairs_total,
        pairs_excluded=pairs_excluded,
        sum_eta=sum_eta,
        avg_eta=avg,
        refs=refs,
        deltas={name: avg - rv.midpoint for name, rv in refs.items()},
    )


# ---------------------------------------------------------------------------
# decomposition_audit: definitional per-pair engine
# ---------------------------------------------------------------------------

def _audit_chunk(ctx: ScanContext, bounds) -> AuditReport:
    """The audit of the D2 at table positions [lo, hi). Every eta is at most
    n(D2), so the sign scan walks the primes up to the largest n(D2) there."""
    lo, hi = bounds
    scan_primes = sieve_primes(max(2, int(ctx.nvals[lo:hi].max(initial=0))))

    def ints(a: int, b: int) -> tuple[list[int], list[int]]:
        return ctx.entries[a:b].tolist(), ctx.nvals[a:b].tolist()

    # Python ints, at most a table slice of them at a time: the D2 by slices,
    # and each D2's D1 by slices of [0, prefix). The first D1 slice, the
    # whole table below about x = 1e5, is read once per call, up to the
    # longest prefix, prefix(lo) (none for an empty range).
    head = ints(0, min(int(ctx.prefix_slice(lo, min(lo + 1, hi)).sum()), _TABLE_SLICE))

    pairs_total = 0
    pairs_excluded = 0
    lhs = 0
    rhs_n_d2 = 0
    rhs_hit_n_d1 = 0
    rhs_hit_n_d2 = 0
    hit_pairs = 0
    violations = 0
    mismatches = 0
    examples: list[tuple[int, int, int, MismatchExample]] = []

    for a in range(lo, hi, _TABLE_SLICE):
        b = min(a + _TABLE_SLICE, hi)
        for i2, d2, n2, c in zip(range(a, b), *ints(a, b), ctx.prefix_slice(a, b).tolist()):
            pairs_total += c
            if d2 == 1:
                pairs_excluded += c
                continue
            # chi_{D2}(p) once per D2: the sign at p is chi_{D1}(p) for p | D2
            # and chi_{D2}(p) otherwise, so a pair's scan reads chi_{D1} at the
            # p | D2 below the first p with chi_{D2}(p) = -1, and ends there at
            # the latest (0 if no scan prime has it)
            divisors = []
            last = 0
            for p in scan_primes:
                if d2 % p == 0:
                    divisors.append(p)
                elif kronecker(d2, p) == -1:
                    last = p
                    break
            rhs_n_d2 += c * n2
            for s in range(0, c, _TABLE_SLICE):
                d1s, n1s = head if s == 0 else ints(s, min(c, s + _TABLE_SLICE))
                for j in range(min(c - s, _TABLE_SLICE)):
                    d1 = d1s[j]
                    for p in divisors:
                        if kronecker(d1, p) == -1:
                            eta_p = p
                            break
                    else:
                        eta_p = last
                    assert eta_p, f"sign scan failed for ({d1}, {d2})"
                    lhs += eta_p
                    if d2 % eta_p == 0:
                        hit_pairs += 1
                        n1 = n1s[j]
                        rhs_hit_n_d1 += n1
                        rhs_hit_n_d2 += n2
                        if eta_p != n1:
                            mismatches += 1
                            key, i1 = abs(d1 * d2), s + j
                            if len(examples) < 10 or (key, i2, i1) < examples[-1][:3]:
                                examples.append(
                                    (key, i2, i1, MismatchExample(d1=d1, d2=d2, eta=eta_p, n_d1=n1))
                                )
                                examples.sort(key=lambda t: t[:3])
                                del examples[10:]
                    elif eta_p != n2:
                        violations += 1
    return AuditReport(
        x=ctx.x,
        pairs_total=pairs_total,
        pairs_excluded=pairs_excluded,
        lhs_sum_eta=lhs,
        rhs_sum_n_d2=rhs_n_d2,
        rhs_hit_sum_n_d1=rhs_hit_n_d1,
        rhs_hit_sum_n_d2=rhs_hit_n_d2,
        difference=lhs - (rhs_n_d2 + rhs_hit_n_d1 - rhs_hit_n_d2),
        hit_pairs=hit_pairs,
        nondivisor_violations=violations,
        mismatch_count=mismatches,
        mismatch_examples=[e[3] for e in examples],
    )


def decomposition_audit(x: int, ctx: ScanContext | None = None) -> AuditReport:
    """Exact audit of the sum decomposition

        sum eta = sum n(D2) + sum_{eta | D2} n(D1) - sum_{eta | D2} n(D2)

    over ordered pairs with |D1*D2| <= x, D2 != 1. Every pair's eta is
    recomputed definitionally (prime-by-prime sign scan); the report carries
    the exact difference of the two sides, which equals the aggregate excess
    of eta over n(D1) on the eta | D2 branch, and a census of the pairs
    where those disagree. Examples are the 10 smallest by |D1*D2| (ties by
    table position of D2, then D1).
    """
    ctx = _context(x, ctx)
    return _audit_chunk(ctx, (0, len(ctx.entries)))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def check_prime(p: int) -> int:
    """p itself, or ValueError if p is not prime or not below
    DENSITY_PRIME_LIMIT."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p >= DENSITY_PRIME_LIMIT:
        raise ValueError(
            f"p = {p} is not below 2^31: Euler's criterion squares residues mod p in int64"
        )
    return p


def check_primes(primes: Iterable[int], what: str) -> tuple[int, ...]:
    """The primes as a tuple, or ValueError if `what` repeats one or names a
    non-prime."""
    ps = tuple(primes)
    if len(set(ps)) != len(ps):
        raise ValueError(f"{what} repeats a prime: {list(ps)}")
    return tuple(check_prime(p) for p in ps)


def check_pattern(pattern: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """A sign pattern as a tuple of (prime, sign) pairs, or ValueError if it
    is empty, names more than 32 primes, repeats a prime, or has a non-prime p
    or a sign outside -1, 0, +1."""
    pat = tuple((int(p), int(s)) for p, s in pattern)
    if not pat:
        raise ValueError("pattern must name at least one prime")
    if len(pat) > 32:
        raise ValueError(
            f"pattern names {len(pat)} primes; the sign-pattern kernel keeps one bit "
            "per prime, for at most 32"
        )
    check_primes((p for p, _ in pat), "pattern")
    for _, s in pat:
        if s not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {s}")
    return pat


def _row(label: str, count: int, total: int, predicted: Fraction) -> DensityRow:
    """One density row: the observed share count/total against `predicted`."""
    observed = Fraction(count, total)
    return DensityRow(
        label=label,
        count=count,
        total=total,
        observed=observed,
        predicted=predicted,
        relative_error=abs(observed - predicted) / predicted,
    )


def density_lemma(x: int, p: int, ctx: ScanContext | None = None) -> DensityReport:
    """Observed vs predicted proportions of chi_D(p) over |D| <= x.

    Predictions: p/(2p+2) for +1 and -1, 1/(p+1) for 0; rows sum to one
    exactly on both sides. A non-prime p is rejected. chi_D(p) is counted one
    slice of the table at a time and no column is stored: the three counts
    go into ctx.signs, which a second call at p reads.
    """
    check_prime(p)
    ctx = _context(x, ctx)
    total = len(ctx.entries)
    if p not in ctx.signs:
        # chi takes only -1, 0 and +1, so its sum and its nonzero count give
        # the three counts
        read = _chi_reader(p, total)
        net = nonzero = 0
        for lo in range(0, total, _TABLE_SLICE):
            chi = read(ctx.entries[lo : lo + _TABLE_SLICE])
            net += int(chi.sum())
            nonzero += int(np.count_nonzero(chi))
        ctx.signs[p] = ((nonzero + net) // 2, (nonzero - net) // 2, total - nonzero)
    rows = [
        _row(f"chi(p={p})={sign:+d}" if sign else f"chi(p={p})=0",
             count, total, sign_probability(p, sign))
        for sign, count in zip((1, -1, 0), ctx.signs[p])
    ]
    return DensityReport(x=x, kind="sign-density", rows=rows)


def density_pollack(
    x: int, k_max: int, ctx: ScanContext | None = None
) -> DensityReport:
    """Observed vs predicted proportions of n(D) = p_k for k = 1..k_max.

    D = 1 (no negative value exists) is excluded from both numerator and
    denominator; the exclusion is reported. A warning flags any k whose
    prime exceeds (log x)^(1/3), the uniform range of the prediction. An x
    with no D != 1 (x < 3) is rejected.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ctx = _context(x, ctx)
    # D = 1 heads the table, the one entry with n(D) = 0
    total = len(ctx.nvals) - 1
    if total == 0:
        raise ValueError(f"no fundamental discriminant D != 1 with |D| <= {x}")
    counts = np.zeros(256, dtype=np.int64)
    for lo in range(0, len(ctx.nvals), _TABLE_SLICE):
        counts += np.bincount(ctx.nvals[lo : lo + _TABLE_SLICE], minlength=256)
    rows = []
    warnings = []
    uniform_bound = log(x) ** (1 / 3) if x > 1 else 0.0
    preds = least_negative_densities(k_max)
    for k, (p, pred) in enumerate(zip(default_primes(k_max), preds), 1):
        cnt = int(counts[p]) if p < len(counts) else 0
        rows.append(_row(f"n(D)=p_{k}={p}", cnt, total, pred))
        if p > uniform_bound:
            warnings.append(
                f"p_{k} = {p} exceeds (log x)^(1/3) = {uniform_bound:.3f}; "
                "prediction is outside its uniform range"
            )
    return DensityReport(
        x=x, kind="least-negative-density", rows=rows, excluded=1, warnings=warnings
    )


def _pattern_sides(ctx: ScanContext, pattern, bounds):
    """The pair kernel's d2_side and d1_side for a sign pattern over the D2 in
    bounds, bit k for pattern prime p_k. The D1 column of p_k covers the
    longest prefix of a D2 there that p_k divides: at most the first D2's,
    and the first D's with p_k | D, |D| = 4 for p_k = 2 and p_k otherwise."""
    lo, hi = bounds
    top = ctx.pair_count(lo, lo + 1) if lo < hi else 0
    reads = [_chi_reader(p, max(hi, top)) for p, _ in pattern]
    columns = [read(ctx.entries[: min(top, ctx.table.count_upto(ctx.x // (4 if p == 2 else p)))])
               for read, (p, _) in zip(reads, pattern)]

    def d2_side(a: int, b: int):
        """Signature, weight and high positions of the D2 in [a, b): bit k
        marks p_k dividing D2, which moves its constraint to chi_{D1}; the
        weight is 1 where every other pattern prime already has its sign at
        chi_{D2}, else 0, with signature 0. chi_{D2}(p_k) comes from its
        column where that covers the slice."""
        moved = np.zeros(b - a, dtype=np.uint32)
        live = np.ones(b - a, dtype=bool)
        for k, ((_, want), col, read) in enumerate(zip(pattern, columns, reads)):
            chi2 = col[a:b] if b <= len(col) else read(ctx.entries[a:b])
            zero = chi2 == 0
            moved |= zero.astype(np.uint32) << np.uint32(k)
            live &= zero | (chi2 == want)
        moved *= live  # no D1 matches: signature 0 reads no D1 column
        # with six pattern primes or fewer no signature reaches _DIRECT_ROWS
        return moved, live, np.flatnonzero(len(pattern) > 6 and moved >= _DIRECT_ROWS)

    return d2_side, partial(_d1_bits, columns, [partial(np.not_equal, want) for _, want in pattern])


def _lt_chunk(ctx: ScanContext, pattern: tuple[tuple[int, int], ...], bounds):
    # a pattern prime p | D2 moves its constraint to chi_{D1}(p); any other
    # pattern prime fixes the sign at chi_{D2}(p), constant in D1. A pair
    # matches when chi_{D1} has the wanted sign at every moved prime: an
    # empty AND of the two masks, a miss of the pair kernel (no hit values).
    # The count does not depend on the bit order, and in increasing prime
    # order the primes that divide the most D2 take the bits of the kernel's
    # direct table.
    _, matched = _pair_sums(ctx, bounds, *_pattern_sides(ctx, tuple(sorted(pattern)), bounds), ())
    return ctx.pair_count(*bounds), matched


def density_lt(
    x: int,
    pattern: Iterable[tuple[int, int]],
    ctx: ScanContext | None = None,
) -> DensityReport:
    """Observed vs predicted proportion of ordered pairs whose coefficient
    sign at each pattern prime equals the requested value.

    The pairs are all ordered pairs with |D1*D2| <= x, the pairs with D2 = 1
    and the pair (1, 1) among them, unlike scan_pairs, which leaves D2 = 1
    out. chi_1(p) = +1 at every prime, so a pair with D2 = 1 matches a
    pattern exactly when all its signs are +1.
    The prediction is the product of 1/(p+1)^2 over zero-sign constraints
    and p(p+2)/(2(p+1)^2) over nonzero ones. Non-prime and repeated primes
    are rejected, as is a pattern of more than 32 primes.
    """
    pat = check_pattern(pattern)
    ctx = _context(x, ctx)
    pairs_total, matched = _lt_chunk(ctx, pat, (0, len(ctx.entries)))
    pred = Fraction(1)
    for p, s in pat:
        pred *= pair_sign_probability(p, s)
    label = ",".join(f"{p}:{s:+d}" if s else f"{p}:0" for p, s in pat)
    return DensityReport(
        x=x, kind="pair-sign-density", rows=[_row(label, matched, pairs_total, pred)]
    )


# ---------------------------------------------------------------------------
# Counts and averages
# ---------------------------------------------------------------------------

def pair_count_check(x: int, ctx: ScanContext | None = None) -> CountReport:
    """#{ordered pairs : |D1*D2| <= x} against the x log x / zeta(2)^2 scale.

    Convergence is logarithmically slow; the ratio column is informational
    and never compared with anything, while the golden file pins the exact
    count at 1e5 and 1e6. An x < 2, where the scale is 0, is rejected.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2 so the log x reference is nonzero, got {x}")
    ctx = _context(x, ctx)
    # iterate D1, prefix-count the admissible D2 range
    observed = ctx.pair_count(0, len(ctx.nvals))
    zeta2 = float((ZETA2_LO + ZETA2_HI) / 2)
    reference = x * log(x) / zeta2**2
    return CountReport(x=x, observed=observed, reference=reference, ratio=observed / reference)


def _average(x: int, kind: str, total: int, count: int, ref: RigorousValue) -> AverageReport:
    avg = Fraction(total, count)
    return AverageReport(x=x, kind=kind, total=total, count=count, average=avg,
                         reference=ref, delta=avg - ref.midpoint)


def average_nd(x: int, ctx: ScanContext | None = None) -> AverageReport:
    """Average of n(D) over fundamental |D| <= x, D != 1, against Theta.

    An x with no D != 1 (x < 3) is rejected.
    """
    ctx = _context(x, ctx)
    # D = 1 heads the table, the one entry with n(D) = 0
    count = len(ctx.nvals) - 1
    if count == 0:
        raise ValueError(f"no fundamental discriminant D != 1 with |D| <= {x}")
    return _average(x, "n(D)", int(ctx.nvals.sum()), count, rigorous_constant("Theta", REFERENCE_K))


def average_n1(x: int) -> AverageReport:
    """Average of n_1(p) over odd primes p <= x, against the Erdos constant.

    The prime 2 is excluded (every residue is a square mod 2); dropping a
    single prime does not move the limit. n_1(p) is n(p*) from _signs, the
    same residue-table gather and sign pass that build n(D), not from
    arith.least_nonresidue, which the tests keep as the scalar oracle.
    """
    if not 3 <= x < 2**31:  # the odd numbers are int32, as the table's entries
        raise ValueError(f"x must be >= 3, so that an odd prime enters, and below 2^31, got {x}")
    # slot i is the odd number 2i + 1, in segments of 4 * _TABLE_SLICE slots
    # (2^16 and 2^17 took longer at 1e6); odd p <= sqrt(x) strikes every p-th
    # slot from p^2 // 2, its odd multiples from p^2
    primes = sieve_primes(max(2, isqrt(x)))[1:]
    slots, total, count = (x + 1) // 2, 0, 0
    for lo in range(0, slots, 4 * _TABLE_SLICE):
        flags = np.ones(min(4 * _TABLE_SLICE, slots - lo), dtype=bool)
        flags[0] = lo > 0  # slot 0 is 1, not a prime
        for p in primes:
            at = p * p // 2 - lo
            if at >= len(flags):
                break
            flags[max(at, at % p) :: p] = False  # at % p: the first strike past lo
        odd = np.flatnonzero(flags).astype(np.int32) * 2 + (2 * lo + 1)
        # p* = +-p = 1 mod 4 is a fundamental discriminant and, by quadratic
        # reciprocity (with (2/p) set by p mod 8), n(p*) = n_1(p)
        n1 = _signs(np.where(odd % 4 == 1, odd, -odd))[0]
        total, count = total + int(n1.sum()), count + len(n1)
    return _average(x, "n_1(p)", total, count, rigorous_constant("erdos", REFERENCE_K))
