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

The pair kernel splits the D2 at r', the number of D with |D| <= isqrt(x),
as in Dirichlet's hyperbola method. The few D2 below r' have long D1
prefixes: each of their signatures walks its longest prefix once, slice by
slice, and each D2 reads its running total there. Every D2 from r' on has
|D2| > isqrt(x) and so a prefix of at most r' D1: one walk over these D2 in
fixed-size slices reads each at column prefix of its signature's cumulative
row over the first r' D1. The rows of the 64 signatures of bits 0..5 alone
are built before the walk (99.6% of these D2 at 1e6 and 1e7). The D2 of a
higher signature are kept, and after the walk read the rows of the distinct
kept signatures as each block of them is built, so that no table of them all
is held. The kept D2 are the one kernel temporary that grows with the table,
0.38% of it at 1e6, 1e7 and 1e8. The sign-pattern count (density_lt) is the
same kernel with the pattern primes dividing D2 as the signature, in
increasing prime order, so that the primes dividing the most D2 take the
direct rows, the D1 mask marking the pattern primes where chi_{D1} misses
its wanted sign, and a pair matching where the AND is empty.

Both engines read n(D) (the first p with chi_D(p) = -1) and the qmask
bits (chi = 0, i.e. p | D, below n(D)) from one function, _signs, run on
one slice of the table at a time. Its first stage is a wheel: every sign at
2, 3, 5, 7, 11 and 13 depends only on D mod 120120, so one gather from two
residue tables settles each D with n(D) <= 13 and gives qmask bits 0..5.
The D it leaves (about 4% at 1e6) walk the primes from 17 to their largest
|D| (n(D) < |D| for fundamental D != 1), each prime computing chi_D(p) only
over the D still without a -1. The context keeps one store of chi columns,
ctx.chi: build_context puts there, for each used bit q, chi_{D1}(q) over the
first max{prefix[D2] : q in qmask(D2)} entries, the part the pair kernel can
read; density_lemma replaces a column by the whole table's, and a kernel
that needs more than a stored column covers builds its own and stores none.
average_n1 runs _signs over the p* = +-p = 1 mod 4, since n_1(p) = n(p*).

The context is int32 (entries, prefix counts), uint8 (n(D), at most 103
below 1e8) and uint32 (qmask: at most 26 prime bits below 1e8); |D| is not
stored, and build_context holds it only while it counts the prefixes. Every
pass over the table (the sign pass, each chi column, the n(D) counts) works
one slice at a time, so no temporary of the build grows with the table:
it peaks at about the context it returns.

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


def _chi_values(d: np.ndarray, p: int) -> np.ndarray:
    """chi_D(p) for an array of discriminants and a prime p < DENSITY_PRIME_LIMIT,
    as int8, one slice at a time."""
    out = np.empty(len(d), dtype=np.int8)
    if p == 2 or p <= len(d):
        tab = _chi_table(p)
        for lo in range(0, len(d), _TABLE_SLICE):
            np.take(tab, _residues(d[lo : lo + _TABLE_SLICE], len(tab)), out=out[lo : lo + _TABLE_SLICE])
        return out
    # p exceeds the input: Euler's criterion, D^((p-1)/2) mod p in {0, 1, p - 1},
    # by square-and-multiply in int64
    e = (p - 1) // 2
    for lo in range(0, len(d), _TABLE_SLICE):
        base = d[lo : lo + _TABLE_SLICE].astype(np.int64)
        np.remainder(base, p, out=base)
        acc = base.copy()
        for bit in bin(e)[3:]:  # the bits of e after its leading 1
            np.multiply(acc, acc, out=acc)
            np.remainder(acc, p, out=acc)
            if bit == "1":
                np.multiply(acc, base, out=acc)
                np.remainder(acc, p, out=acc)
        out[lo : lo + _TABLE_SLICE] = np.where(acc < 2, acc, -1)
    return out


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


@dataclass(frozen=True, eq=False)
class ScanContext:
    """The arrays shared by the pair experiments at one bound x.

    qmask bit i is set for an entry D iff cache_primes[i] divides D and is
    below n(D); those are exactly the primes at which a pair (D1, D) can go
    negative before n(D) does.

    chi is the one store of chi columns: chi[q] holds chi_{D1}(q) over a
    prefix of the table, from build_context the longest prefix the pair
    kernel reads at q. density_lemma replaces a column by the whole table's;
    a column is only ever replaced by a longer one. The fields cannot be
    reassigned, and chi is the only part that changes.

    These arrays are the only ones as long as the table; |D| is not among
    them (table.abs_values computes it on each access). build_context and every
    engine that reads the context keep their temporaries to one slice.
    """

    x: int
    table: DiscriminantTable
    nvals: np.ndarray                    # uint8; n(D), 0 at D = 1
    prefix: np.ndarray                   # int32; #{D1 : |D1| <= x/|D|}
    qmask: np.ndarray                    # uint32 bitmask over cache_primes
    cache_primes: tuple[int, ...]
    chi: dict[int, np.ndarray]           # int8 columns by prime
    # not fields, always empty; kept because the benchmark's context_bytes reads them
    negcum = eqcum = MappingProxyType({})

    @property
    def entries(self) -> np.ndarray:
        return self.table.entries


def _prefix_counts(abs_values: np.ndarray, x: int) -> np.ndarray:
    """#{D1 : |D1| <= x // |D|} for every entry, as int32.

    x // |D| does not increase along the table, so, with r = isqrt(x), the
    entries whose quotient exceeds r form a head; each of those is a binary
    search. Every later entry has a quotient v <= r and reads the count
    #{|D1| <= v} from a table of r entries; the entries sharing v are one
    contiguous run, so the tail is that table repeated run by run.
    """
    r = isqrt(x)
    v = np.arange(1, r + 2, dtype=abs_values.dtype)
    # ends[i] = #{D : |D| <= x // (i + 1)}; quotient v fills [ends[v], ends[v - 1])
    ends = np.searchsorted(abs_values, x // v, side="right")
    head = np.searchsorted(abs_values, x // abs_values[: ends[r]], side="right")
    counts = np.searchsorted(abs_values, v[:r], side="right")
    values = np.concatenate([head, counts[::-1]]).astype(np.int32)
    runs = np.concatenate([np.ones(len(head), dtype=np.intp), -np.diff(ends)[::-1]])
    return np.repeat(values, runs)


def _context(x: int, ctx: ScanContext | None) -> ScanContext:
    """ctx, or a new context at x if it is None; ValueError if ctx was built
    at another x."""
    if ctx is None:
        return build_context(x)
    if ctx.x != x:
        raise ValueError(f"the context was built at x = {ctx.x}, not at x = {x}")
    return ctx


def build_context(x: int) -> ScanContext:
    """Sieve |D| <= x, count the prefixes, and derive n(D), the qmask and the
    kernel's chi columns, one slice of the table at a time: _signs settles
    each D with n(D) <= 13 and its qmask bits 0..5 by one gather mod 120120
    and runs the sign pass from p = 17 on the rest."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    table = sieve_fundamental(x)
    entries = table.entries
    prefix = _prefix_counts(table.abs_values, x)  # |D|, for this call only
    nvals = np.empty(len(entries), dtype=np.uint8)
    qmask = np.empty(len(entries), dtype=np.uint32)
    first: dict[int, int] = {}  # qmask bit -> the first entry with it
    seen = 0  # the qmask bits met so far
    for lo in range(0, len(entries), _TABLE_SLICE):
        hi = lo + _TABLE_SLICE
        nvals[lo:hi], qmask[lo:hi] = _signs(entries[lo:hi])
        q = qmask[lo:hi]
        new = int(np.bitwise_or.reduce(q)) & ~seen
        seen |= new
        for bit in range(new.bit_length()):
            if new >> bit & 1:
                first[bit] = lo + int(np.argmax(q & np.uint32(1 << bit)))
    primes = tuple(iter_primes(int(nvals.max()) - 1))  # the primes below max n(D)
    # the pair kernel reads chi_{D1}(p) only within the prefixes of the D2 with
    # bit p; prefix does not increase along the table, so the first is longest
    chi = {primes[b]: _chi_values(entries[: int(prefix[first[b]])], primes[b])
           for b in sorted(first)}
    return ScanContext(x=x, table=table, nvals=nvals, prefix=prefix, qmask=qmask,
                       cache_primes=primes, chi=chi)


def _column(ctx: ScanContext, p: int, n: int) -> np.ndarray:
    """chi_{D}(p) over at least the first n entries: the stored column if it
    covers them, else a new column of n entries, not stored."""
    col = ctx.chi.get(p)
    return col if col is not None and len(col) >= n else _chi_values(ctx.entries[:n], p)


# ---------------------------------------------------------------------------
# scan_pairs: optimized eta aggregation
# ---------------------------------------------------------------------------

# D2 per slice of a kernel's walk over the table, D1 per slice of a long
# prefix, and about the cells per block of the big side's cumulative rows.
_SLICE = 1 << 14


def _cells(t: np.ndarray, lookup: np.ndarray) -> np.ndarray:
    """lookup[b] for the lowest set bit b of each uint32 in t, lookup[32] where
    t is 0."""
    low = t & -t
    low -= 1  # 2^b - 1 has b bits set; 0 wraps to 32 set bits
    return lookup[np.bitwise_count(low)]


def _prefix_totals(cells, ends: np.ndarray) -> np.ndarray:
    """For each of the non-decreasing positive ends e, the sum of cells(u, v)
    over D1 [0, e), walking D1 one slice at a time."""
    out = np.empty(len(ends), dtype=np.int64)
    total = done = 0
    last = int(ends[-1])
    for u in range(0, last, _SLICE):
        v = min(u + _SLICE, last)
        cum = np.cumsum(cells(u, v))
        k = int(np.searchsorted(ends, v, side="right"))
        out[done:k] = total + cum[ends[done:k] - u - 1]
        total += int(cum[-1])
        done = k
    return out


# Signatures below this, of the wheel primes' bits 0..5 alone, each have a row
# of the big side's direct table, whether they occur or not.
_DIRECT_ROWS = 1 << len(_WHEEL_PRIMES)


def _pair_sums(ctx: ScanContext, bounds, d2_side, d1_side, values) -> tuple[int, int]:
    """Sum one cell per pair over the D2 in bounds and the D1 in each prefix.

    d2_side(a, b) gives, for the D2 in [a, b), a signature bitmask s and an
    integer weight w; d1_side(bits, u, v) gives a uint32 bitmask t for the D1
    in [u, v), exact at the bits in `bits` that some D2 carries. The pair's
    cell is a hit worth values[b] at the lowest bit b of t & s, or a miss
    where t & s is 0. Returns (sum of hits, sum over D2 of w times its
    misses). A D2 of signature 0 has only misses. d2_side is asked for each
    D2 once.

    The D2 split at r' (see the module docstring). From r' on, a D2 of
    signature s < _DIRECT_ROWS reads row s of the direct table at column
    prefix; the others keep (s, prefix, w) and, after the walk, read the
    rows of their distinct signatures a block at a time. A cell packs a hit
    as its value << 32 and a miss as 1. The hits over one D2's prefix are at
    most prefix * |D2| <= x < 2^31, since every value divides D2, so neither
    field overflows.
    """
    lo, hi = bounds
    split = ctx.table.count_upto(isqrt(ctx.x))
    lookup = np.zeros(33, dtype=np.int64)
    lookup[: len(values)] = np.array(values, dtype=np.int64) << 32
    lookup[32] = 1
    hits = misses = 0

    def tally(packed: np.ndarray, w: np.ndarray) -> None:
        """Add the hits and the w-weighted misses of the packed sums, in place."""
        nonlocal hits, misses
        hits += int((packed >> 32).sum())
        packed &= 0xFFFFFFFF
        misses += int(np.dot(packed, w))

    mid = min(hi, split)
    if lo < mid:
        sig, w = d2_side(lo, mid)
        c = ctx.prefix[lo:mid]
        plain = sig == 0
        misses += int(np.dot(c[plain], w[plain].astype(np.int64)))
        # a set: np.unique without return_inverse imports numpy.ma (10-15 ms, 1 MiB)
        for s in set(sig[~plain].tolist()):
            grp = sig == s
            # prefixes do not increase along the table: reversed, they are the ends
            ends = c[grp][::-1]
            tally(_prefix_totals(lambda u, v: _cells(d1_side(s, u, v) & s, lookup), ends),
                  w[grp][::-1])

    start = max(lo, split)
    if start < hi:
        width = split + 1
        step = max(1, _SLICE // width)

        def rows(sigs: np.ndarray):
            """Yield (r, block) for each block of step cumulative rows of sigs
            from row r on, flat: column j of row i sums the cells of sigs[i]
            over D1 [0, j)."""
            t = d1_side(int(np.bitwise_or.reduce(sigs)), 0, split)
            for r in range(0, len(sigs), step):
                part = sigs[r : r + step, None]
                block = np.zeros((len(part), width), dtype=np.int64)
                np.cumsum(_cells(t & part, lookup), axis=1, out=block[:, 1:])
                yield r, block.ravel()

        direct = np.concatenate([block for _, block in rows(np.arange(_DIRECT_ROWS, dtype=np.uint32))])
        high = []
        for a in range(start, hi, _SLICE):
            b = min(a + _SLICE, hi)
            sig, w = d2_side(a, b)
            prefix = ctx.prefix[a:b]
            at = sig.astype(np.intp)
            at *= width
            at += prefix
            up = np.flatnonzero(sig >= _DIRECT_ROWS)
            high.append((sig[up], prefix[up], w[up]))
            at[up] = 0  # cell 0 of every row is 0: these D2 read their rows later
            tally(direct[at], w)
        # sorted by their cell, the high D2 read each block of the high rows as
        # it is built: no table of all high rows is held
        sig, prefix, w = map(np.concatenate, zip(*high))
        sigs, at = np.unique(sig, return_inverse=True)
        at = at * width + prefix
        order = np.argsort(at)
        at, w = at[order], w[order]
        cuts = np.searchsorted(at, np.arange(step, len(sigs), step) * width)
        for (r, block), cells, wt in zip(rows(sigs), np.split(at, cuts), np.split(w, cuts)):
            tally(block[cells - r * width], wt)
    return hits, misses


def _negative_bits(ctx: ScanContext, bits: int, u: int, v: int) -> np.ndarray:
    """uint32 over D1 [u, v): bit b set where b is in bits and chi_{D1}(q_b) =
    -1, within the stored column of q_b (no D2 with bit b reads beyond it).
    A bit no D2 carries may have no column and then stays clear."""
    out = np.zeros(v - u, dtype=np.uint32)
    for b, q in enumerate(ctx.cache_primes):
        if bits >> b & 1 and q in ctx.chi:
            col = ctx.chi[q][u:v]
            out[: len(col)] |= (col == -1).astype(np.uint32) << np.uint32(b)
    return out


def _scan_chunk(ctx: ScanContext, bounds: tuple[int, int]):
    lo, hi = bounds
    pairs_total = int(ctx.prefix[lo:hi].sum())
    # D = 1 heads the table; its pairs are excluded, and its n(D) = 0 weighs them out
    pairs_excluded = int(ctx.prefix[0]) if lo == 0 < hi else 0

    # eta = the first q in qmask(D2) with chi_{D1}(q) = -1 (a hit worth q),
    # else n(D2) (a miss, weighted by n(D2))
    hits, misses = _pair_sums(
        ctx,
        bounds,
        lambda a, b: (ctx.qmask[a:b], ctx.nvals[a:b]),
        partial(_negative_bits, ctx),
        ctx.cache_primes[:32],
    )
    return pairs_total, pairs_excluded, hits + misses


def scan_pairs(
    x: int,
    workers: int = 1,
    ctx: ScanContext | None = None,
    k_terms: int = 1000,
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
    entries = ctx.entries
    nvals = ctx.nvals
    prefix = ctx.prefix
    scan_primes = sieve_primes(max(2, int(nvals[lo:hi].max(initial=0))))

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

    for i2 in range(lo, hi):
        d2 = int(entries[i2])
        c = int(prefix[i2])
        pairs_total += c
        if d2 == 1:
            pairs_excluded += c
            continue
        n2 = int(nvals[i2])
        for i1 in range(c):
            d1 = int(entries[i1])
            eta_p = 0
            for p in scan_primes:
                s = kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)
                if s == -1:
                    eta_p = p
                    break
            assert eta_p, f"sign scan failed for ({d1}, {d2})"
            lhs += eta_p
            rhs_n_d2 += n2
            if d2 % eta_p == 0:
                hit_pairs += 1
                n1 = int(nvals[i1])
                rhs_hit_n_d1 += n1
                rhs_hit_n_d2 += n2
                if eta_p != n1:
                    mismatches += 1
                    key = abs(d1 * d2)
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
    exactly on both sides. A non-prime p is rejected. The whole table's
    column at p is stored in ctx.chi, replacing a shorter one.
    """
    check_prime(p)
    ctx = _context(x, ctx)
    chi = ctx.chi[p] = _column(ctx, p, len(ctx.entries))
    total = len(chi)
    # chi takes only -1, 0 and +1, so its sum and its nonzero count give the
    # three counts, with no temporary as long as the column
    net, nonzero = int(chi.sum()), int(np.count_nonzero(chi))
    counts = {1: (nonzero + net) // 2, -1: (nonzero - net) // 2, 0: total - nonzero}
    rows = [
        _row(f"chi(p={p})={sign:+d}" if sign else f"chi(p={p})=0",
             counts[sign], total, sign_probability(p, sign))
        for sign in (1, -1, 0)
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


def _pattern_d2(chis, pattern, a: int, b: int):
    """Signature and weight of the D2 in [a, b): bit k marks pattern prime k
    dividing D2, which moves its constraint to chi_{D1}; the weight is 1 where
    every other pattern prime already has its sign at chi_{D2}, else 0, with
    signature 0."""
    moved = np.zeros(b - a, dtype=np.uint32)
    live = np.ones(b - a, dtype=bool)
    for k, ((_, want), chi) in enumerate(zip(pattern, chis)):
        chi2 = chi[a:b]
        zero = chi2 == 0
        moved |= zero.astype(np.uint32) << np.uint32(k)
        live &= zero | (chi2 == want)
    moved *= live  # no D1 matches: signature 0 reads no D1 column
    return moved, live


def _pattern_d1(chis, pattern, bits: int, u: int, v: int) -> np.ndarray:
    """uint32 over D1 [u, v): bit k set where k is in bits and chi_{D1}(p_k)
    misses the wanted sign."""
    out = np.zeros(v - u, dtype=np.uint32)
    for k, ((_, want), chi) in enumerate(zip(pattern, chis)):
        if bits >> k & 1:
            out |= (chi[u:v] != want).astype(np.uint32) << np.uint32(k)
    return out


def _lt_chunk(ctx: ScanContext, pattern: tuple[tuple[int, int], ...], bounds):
    lo, hi = bounds
    # a pattern prime p | D2 moves its constraint to chi_{D1}(p); any other
    # pattern prime fixes the sign at chi_{D2}(p), constant in D1. A pair
    # matches when chi_{D1} has the wanted sign at every moved prime: an
    # empty AND of the two masks, a miss of the pair kernel (no hit values).
    # The columns cover the D2 in bounds and their D1 prefixes; a stored one
    # that covers them is read, and none is stored. The count does not
    # depend on the bit order, and in increasing prime order the primes that
    # divide the most D2 take the bits of the kernel's direct rows.
    pattern = tuple(sorted(pattern))
    n = max(hi, int(ctx.prefix[lo])) if lo < hi else 0
    chis = [_column(ctx, p, n) for p, _ in pattern]
    _, matched = _pair_sums(
        ctx,
        bounds,
        partial(_pattern_d2, chis, pattern),
        partial(_pattern_d1, chis, pattern),
        (),
    )
    return int(ctx.prefix[lo:hi].sum()), matched


def density_lt(
    x: int,
    pattern: Iterable[tuple[int, int]],
    ctx: ScanContext | None = None,
) -> DensityReport:
    """Observed vs predicted proportion of ordered pairs whose coefficient
    sign at each pattern prime equals the requested value.

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
    observed = int(ctx.prefix.sum())
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
    return _average(x, "n(D)", int(ctx.nvals.sum()), count, rigorous_constant("Theta", 1000))


def average_n1(x: int) -> AverageReport:
    """Average of n_1(p) over odd primes p <= x, against the Erdos constant.

    The prime 2 is excluded (every residue is a square mod 2); dropping a
    single prime does not move the limit. n_1(p) is n(p*) from _signs, the
    same residue-table gather and sign pass that build n(D), not from
    arith.least_nonresidue, which the tests keep as the scalar oracle.
    """
    if x < 3:
        raise ValueError("x must be >= 3 so at least one odd prime enters")
    # slot i stands for the odd number 2i + 1; strike the odd multiples of
    # each odd p <= sqrt(x) from p^2 on, a step of 2p
    slots = np.ones((x + 1) // 2, dtype=bool)
    slots[0] = False
    for p in sieve_primes(max(2, isqrt(x)))[1:]:
        slots[p * p // 2 :: p] = False
    odd = 2 * np.flatnonzero(slots) + 1
    # p* = +-p = 1 mod 4 is a fundamental discriminant and, by quadratic
    # reciprocity (with (2/p) set by p mod 8), n(p*) = n_1(p)
    n1 = _signs(np.where(odd % 4 == 1, odd, -odd))[0]
    return _average(x, "n_1(p)", int(n1.sum()), len(n1), rigorous_constant("erdos", 1000))
