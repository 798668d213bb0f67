"""Desk-scale empirical experiments over fundamental discriminant pairs.

Everything here counts exactly: observed quantities are integer counts or
exact rationals, and floating point only appears in rendered reference
columns (log x and the zeta(2) enclosure midpoint). Two independent engines
cover the pair statistics:

  * scan_pairs      an optimized engine: eta(D1, D2) equals the smaller of
                    n(D2) and the first prime q | D2, q < n(D2), with
                    chi_{D1}(q) = -1. That depends on D2 only through the
                    set of such q (its qmask signature), so the D2 are
                    grouped by signature, each group builds one cumulative
                    table over its D1 prefix, and each D2 reads its sum at
                    prefix[D2];
  * decomposition_audit
                    a definitional engine: every pair's eta is rescanned
                    prime by prime straight from the sign rule.

The sign-pattern count (density_lt) uses the same grouped prefix-table
kernel, with the set of pattern primes dividing D2 as the signature.

Their agreement on sum(eta) at equal x is asserted by the test suite. Pair
iteration order is canonical (D2 by table order, D1 by table order within
the |D1| <= x/|D2| prefix), and all aggregates are integers, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import log
from typing import Iterable

import numpy as np

from .arith import (
    DiscriminantTable,
    is_prime,
    kronecker,
    least_nonresidue,
    sieve_fundamental,
    sieve_primes,
)
from .constants import (
    ZETA2_HI,
    ZETA2_LO,
    combined_constant,
    default_primes,
    least_negative_density,
    pair_sign_probability,
    rigorous_constant,
    render_decimal,
    sign_probability,
)
from .newform import DEFAULT_ETA_CAP

__all__ = [
    "ScanContext",
    "CapExceededError",
    "PairScanReport",
    "AuditReport",
    "DensityReport",
    "DensityRow",
    "CountReport",
    "HarmonicReport",
    "AverageReport",
    "build_context",
    "pair_count_check",
    "harmonic_sum_check",
    "density_lemma",
    "density_pollack",
    "density_lt",
    "scan_pairs",
    "decomposition_audit",
    "average_nd",
    "average_n1",
]

_N_SCAN_LIMIT = 1_000_000  # prime budget for resolving n(D); never binding in practice


class CapExceededError(RuntimeError):
    """A pair's eta scan would exceed the configured cap."""

    def __init__(self, d1: int, d2: int, cap: int):
        self.pair = (d1, d2)
        self.cap = cap
        super().__init__(f"eta({d1}, {d2}) exceeds cap {cap}")


# ---------------------------------------------------------------------------
# Context: discriminant table plus derived arrays shared by all experiments
# ---------------------------------------------------------------------------

def _chi_values(d: np.ndarray, p: int) -> np.ndarray:
    """chi_D(p) for an array of discriminants, as int8."""
    if p == 2:
        out = np.zeros(len(d), dtype=np.int8)
        odd = (d & 1) != 0
        m8 = d & 7  # two's complement low bits == value mod 8
        out[odd & ((m8 == 1) | (m8 == 7))] = 1
        out[odd & ((m8 == 3) | (m8 == 5))] = -1
        return out
    tab = np.zeros(p, dtype=np.int8)
    e = (p - 1) // 2
    for r in range(1, p):
        v = pow(r, e, p)
        tab[r] = 1 if v == 1 else -1
    return tab[np.mod(d, p)]


def _least_negative_table(entries: np.ndarray) -> np.ndarray:
    """n(D) per entry by synchronized prime passes; 0 marks D = 1."""
    n = np.zeros(len(entries), dtype=np.int32)
    alive = np.nonzero(entries != 1)[0]
    sieve = sieve_primes(256)
    idx = 0
    while alive.size:
        if idx >= len(sieve.primes):
            sieve = sieve_primes(min(_N_SCAN_LIMIT, sieve.limit * 4))
            if idx >= len(sieve.primes):
                raise RuntimeError("n(D) scan exhausted its prime budget")
        p = sieve.primes[idx]
        idx += 1
        chi = _chi_values(entries[alive], p)
        hit = chi == -1
        n[alive[hit]] = p
        alive = alive[~hit]
    return n


@dataclass(eq=False)
class ScanContext:
    """Immutable arrays shared by the pair experiments at one bound x.

    qmask bit i is set for an entry D iff cache_primes[i] divides D and is
    below n(D); those are exactly the primes at which a pair (D1, D) can go
    negative before n(D) does.
    """

    x: int
    table: DiscriminantTable
    nvals: np.ndarray                    # int32; n(D), 0 at D = 1
    prefix: np.ndarray                   # int64; #{D1 : |D1| <= x/|D|}
    qmask: np.ndarray                    # int64 bitmask over cache_primes
    cache_primes: tuple[int, ...]
    chi: dict[int, np.ndarray] = field(default_factory=dict)
    # unused and always empty; kept because the benchmark's context_bytes reads them
    negcum: dict = field(default_factory=dict)
    eqcum: dict = field(default_factory=dict)

    @property
    def entries(self) -> np.ndarray:
        return self.table.entries

    @property
    def abs_values(self) -> np.ndarray:
        return self.table.abs_values

    def chi_array(self, p: int) -> np.ndarray:
        if p not in self.chi:
            self.chi[p] = _chi_values(self.table.entries, p)
        return self.chi[p]


def build_context(x: int) -> ScanContext:
    """Sieve |D| <= x and precompute n(D), prefix counts and chi caches."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    table = sieve_fundamental(x)
    entries = table.entries
    abs_values = table.abs_values
    nvals = _least_negative_table(entries)
    max_n = int(nvals.max()) if len(nvals) else 0
    cache_primes = tuple(p for p in sieve_primes(max(2, max_n)).primes if p < max_n)
    if len(cache_primes) > 63:
        raise RuntimeError("qmask would need more than 63 prime bits")
    qmask = np.zeros(len(entries), dtype=np.int64)
    for i, q in enumerate(cache_primes):
        divides = np.mod(abs_values, q) == 0
        qmask |= ((divides & (nvals > q)).astype(np.int64)) << i
    prefix = np.searchsorted(abs_values, x // abs_values, side="right").astype(np.int64)
    ctx = ScanContext(
        x=x,
        table=table,
        nvals=nvals,
        prefix=prefix,
        qmask=qmask,
        cache_primes=cache_primes,
    )
    # warm the chi caches the pair scan reads, so forked workers inherit them
    used = int(np.bitwise_or.reduce(qmask)) if len(qmask) else 0
    for i, q in enumerate(cache_primes):
        if (used >> i) & 1:
            ctx.chi_array(q)
    return ctx


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairScanReport:
    x: int
    pairs_total: int
    pairs_excluded: int          # pairs with D2 = 1 (eta undefined: sign never -1)
    sum_eta: int
    avg_eta: Fraction
    refs: dict[str, str]         # rendered reference decimals
    deltas: dict[str, Fraction]  # avg_eta - reference midpoint


@dataclass(frozen=True)
class MismatchExample:
    d1: int
    d2: int
    eta: int
    n_d1: int


@dataclass(frozen=True)
class AuditReport:
    x: int
    pairs_total: int
    pairs_excluded: int
    lhs_sum_eta: int
    rhs_sum_n_d2: int            # sum n(D2) over all included pairs
    rhs_hit_sum_n_d1: int        # sum n(D1) over pairs with eta | D2
    rhs_hit_sum_n_d2: int        # sum n(D2) over pairs with eta | D2
    difference: int              # lhs - (rhs_sum_n_d2 + rhs_hit_sum_n_d1 - rhs_hit_sum_n_d2)
    hit_pairs: int               # pairs with eta | D2
    nondivisor_violations: int   # pairs with eta not | D2 and eta != n(D2); expect 0
    mismatch_count: int          # pairs with eta | D2 and eta != n(D1)
    mismatch_examples: list[MismatchExample]


@dataclass(frozen=True)
class DensityRow:
    label: str
    count: int
    total: int
    observed: Fraction
    predicted: Fraction
    relative_error: Fraction | None


@dataclass(frozen=True)
class DensityReport:
    x: int
    kind: str
    rows: list[DensityRow]
    excluded: int = 0
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CountReport:
    x: int
    observed: int
    reference: float
    ratio: float


@dataclass(frozen=True)
class HarmonicReport:
    x: int
    value: Fraction
    reference: float
    ratio: float


@dataclass(frozen=True)
class AverageReport:
    x: int
    kind: str
    total: int
    count: int
    average: Fraction
    reference_name: str
    reference: str               # rendered decimal of the enclosure
    delta: Fraction              # average - enclosure midpoint


# ---------------------------------------------------------------------------
# Chunked execution
# ---------------------------------------------------------------------------

_WORKER_STATE: tuple | None = None


def _chunk_entry(args):
    fn = _WORKER_STATE[0]
    return fn(*_WORKER_STATE[1:], args)


def _run_chunked(fn, fn_args: tuple, n_items: int, workers: int) -> list:
    """Apply fn(*fn_args, (lo, hi)) over contiguous chunks, merged in order.

    Uses fork-based multiprocessing so workers share the context arrays via
    copy-on-write; with workers = 1 everything runs inline.
    """
    if n_items == 0:
        return []
    workers = max(1, workers)
    n_chunks = 1 if workers == 1 else min(n_items, workers * 8)
    bounds = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
    chunks = [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]
    if workers == 1:
        return [fn(*fn_args, ch) for ch in chunks]
    global _WORKER_STATE
    _WORKER_STATE = (fn, *fn_args)
    try:
        mp = multiprocessing.get_context("fork")
        with mp.Pool(processes=workers) as pool:
            return pool.map(_chunk_entry, chunks)
    finally:
        _WORKER_STATE = None


# ---------------------------------------------------------------------------
# scan_pairs: optimized eta aggregation
# ---------------------------------------------------------------------------

def _grouped_prefix_sums(sig: np.ndarray, c: np.ndarray, columns, k: int) -> np.ndarray:
    """Sum k per-D1 columns over each D2's D1 prefix, one table per signature.

    D2 j has signature sig[j] and prefix length c[j]. columns(s, m) returns k
    arrays over the first m D1 entries for signature s; it is called once per
    distinct signature, with m the longest prefix in that group. Returns
    out with out[r, j] = columns(sig[j], m)[r][:c[j]].sum().
    """
    out = np.zeros((k, len(sig)), dtype=np.int64)
    if len(sig) == 0:
        return out
    order = np.argsort(sig, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(sig[order])) + 1):
        cg = c[grp]
        m = int(cg.max())
        for r, col in enumerate(columns(int(sig[grp[0]]), m)):
            cum = np.concatenate([[0], np.cumsum(col, dtype=np.int64)])
            out[r, grp] = cum[cg]
    return out


def _first_negative_columns(ctx: ScanContext, mask: int, m: int):
    """Over the first m D1: the first q in mask with chi_{D1}(q) = -1 (else 0),
    and whether there is no such q."""
    value = np.zeros(m, dtype=np.int64)
    none = np.ones(m, dtype=bool)
    for b, q in enumerate(ctx.cache_primes):
        if (mask >> b) & 1:
            hit = none & (ctx.chi_array(q)[:m] == -1)
            value[hit] = q
            none &= ~hit
    return value, none


def _scan_chunk(ctx: ScanContext, cap: int, bounds: tuple[int, int]):
    lo, hi = bounds
    entries = ctx.entries[lo:hi]
    n2 = ctx.nvals[lo:hi].astype(np.int64)
    c = ctx.prefix[lo:hi]

    pairs_total = int(c.sum())
    is_one = entries == 1
    pairs_excluded = int(c[is_one].sum())
    included = ~is_one & (c > 0)

    over_cap = included & (n2 > cap)
    if over_cap.any():
        j = int(np.nonzero(over_cap)[0][0])
        raise CapExceededError(int(ctx.entries[0]), int(entries[j]), cap)

    # eta = first q in qmask with chi_{D1}(q) = -1, else n(D2)
    inc = np.nonzero(included)[0]
    value, none = _grouped_prefix_sums(
        ctx.qmask[lo:hi][inc], c[inc], partial(_first_negative_columns, ctx), 2
    )
    sum_eta = int(value.sum()) + int(np.dot(n2[inc], none))
    return pairs_total, pairs_excluded, sum_eta


def scan_pairs(
    x: int,
    cap: int = DEFAULT_ETA_CAP,
    workers: int = 1,
    ctx: ScanContext | None = None,
    k_terms: int = 1000,
    digits: int = 12,
) -> PairScanReport:
    """Sum eta(D1, D2) over ordered pairs with |D1*D2| <= x, D2 != 1.

    Pairs with D2 = 1 have no negative coefficient and are excluded from
    numerator and denominator alike; their count is reported because they
    are a visible fraction at desk scale. Any pair whose scan would pass
    `cap` raises CapExceededError (never triggered for cap >= max n(D)).
    """
    if ctx is None:
        ctx = build_context(x)
    parts = _run_chunked(_scan_chunk, (ctx, cap), len(ctx.entries), workers)
    pairs_total = sum(p[0] for p in parts)
    pairs_excluded = sum(p[1] for p in parts)
    sum_eta = sum(p[2] for p in parts)
    included = pairs_total - pairs_excluded
    avg = Fraction(sum_eta, included) if included else Fraction(0)

    primes = default_primes(k_terms)
    refs = {
        "theta": rigorous_constant("theta", k_terms, primes),
        "combined": combined_constant(k_terms, primes),
        "Theta": rigorous_constant("Theta", k_terms, primes),
    }
    return PairScanReport(
        x=x,
        pairs_total=pairs_total,
        pairs_excluded=pairs_excluded,
        sum_eta=sum_eta,
        avg_eta=avg,
        refs={name: render_decimal(rv, digits) for name, rv in refs.items()},
        deltas={name: avg - rv.midpoint for name, rv in refs.items()},
    )


# ---------------------------------------------------------------------------
# decomposition_audit: definitional per-pair engine
# ---------------------------------------------------------------------------

def _audit_chunk(ctx: ScanContext, cap: int, scan_primes: tuple[int, ...], bounds):
    lo, hi = bounds
    entries = ctx.entries
    nvals = ctx.nvals
    prefix = ctx.prefix

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
        if n2 > cap:
            raise CapExceededError(int(entries[0]), d2, cap)
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
    return (
        pairs_total,
        pairs_excluded,
        lhs,
        rhs_n_d2,
        rhs_hit_n_d1,
        rhs_hit_n_d2,
        hit_pairs,
        violations,
        mismatches,
        examples,
    )


def decomposition_audit(
    x: int,
    cap: int = DEFAULT_ETA_CAP,
    workers: int = 1,
    ctx: ScanContext | None = None,
) -> AuditReport:
    """Exact audit of the sum decomposition

        sum eta = sum n(D2) + sum_{eta | D2} n(D1) - sum_{eta | D2} n(D2)

    over ordered pairs with |D1*D2| <= x, D2 != 1. Every pair's eta is
    recomputed definitionally (prime-by-prime sign scan); the report carries
    the exact difference of the two sides, which equals the aggregate excess
    of eta over n(D1) on the eta | D2 branch, and a census of the pairs
    where those disagree. Examples are the 10 smallest by |D1*D2| (ties by
    table position of D2, then D1).
    """
    if ctx is None:
        ctx = build_context(x)
    max_n = int(ctx.nvals.max()) if len(ctx.nvals) else 2
    scan_primes = sieve_primes(max(2, max_n)).primes
    parts = _run_chunked(
        _audit_chunk, (ctx, cap, scan_primes), len(ctx.entries), workers
    )
    totals = [sum(p[i] for p in parts) for i in range(9)]
    examples = sorted(
        (e for p in parts for e in p[9]), key=lambda t: t[:3]
    )[:10]
    (
        pairs_total,
        pairs_excluded,
        lhs,
        rhs_n_d2,
        rhs_hit_n_d1,
        rhs_hit_n_d2,
        hit_pairs,
        violations,
        mismatches,
    ) = totals
    return AuditReport(
        x=x,
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


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def density_lemma(x: int, p: int, ctx: ScanContext | None = None) -> DensityReport:
    """Observed vs predicted proportions of chi_D(p) over |D| <= x.

    Predictions: p/(2p+2) for +1 and -1, 1/(p+1) for 0; rows sum to one
    exactly on both sides. A non-prime p is rejected.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if ctx is None:
        ctx = build_context(x)
    chi = ctx.chi_array(p)
    total = len(chi)
    rows = []
    for sign in (1, -1, 0):
        cnt = int((chi == sign).sum())
        obs = Fraction(cnt, total)
        pred = sign_probability(p, sign)
        rel = abs(obs - pred) / pred
        rows.append(
            DensityRow(
                label=f"chi(p={p})={sign:+d}" if sign else f"chi(p={p})=0",
                count=cnt,
                total=total,
                observed=obs,
                predicted=pred,
                relative_error=rel,
            )
        )
    return DensityReport(x=x, kind="sign-density", rows=rows)


def density_pollack(
    x: int, k_max: int, ctx: ScanContext | None = None
) -> DensityReport:
    """Observed vs predicted proportions of n(D) = p_k for k = 1..k_max.

    D = 1 (no negative value exists) is excluded from both numerator and
    denominator; the exclusion is reported. A warning flags any k whose
    prime exceeds (log x)^(1/3), the uniform range of the prediction.
    """
    if ctx is None:
        ctx = build_context(x)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    primes = default_primes(k_max)
    nv = ctx.nvals[ctx.entries != 1]
    total = len(nv)
    rows = []
    warnings = []
    uniform_bound = log(x) ** (1 / 3) if x > 1 else 0.0
    for k in range(1, k_max + 1):
        p = primes.p(k)
        cnt = int((nv == p).sum())
        obs = Fraction(cnt, total)
        pred = least_negative_density(k, primes)
        rows.append(
            DensityRow(
                label=f"n(D)=p_{k}={p}",
                count=cnt,
                total=total,
                observed=obs,
                predicted=pred,
                relative_error=abs(obs - pred) / pred,
            )
        )
        if p > uniform_bound:
            warnings.append(
                f"p_{k} = {p} exceeds (log x)^(1/3) = {uniform_bound:.3f}; "
                "prediction is outside its uniform range"
            )
    return DensityReport(
        x=x, kind="least-negative-density", rows=rows, excluded=1, warnings=warnings
    )


def _pattern_columns(ctx: ScanContext, pattern, moved: int, m: int):
    """Over the first m D1: whether chi_{D1}(p) = want for every pattern
    prime p dividing moved."""
    ok = np.ones(m, dtype=bool)
    for p, want in pattern:
        if moved % p == 0:
            ok &= ctx.chi_array(p)[:m] == want
    return (ok,)


def _lt_chunk(ctx: ScanContext, pattern: tuple[tuple[int, int], ...], bounds):
    lo, hi = bounds
    c = ctx.prefix[lo:hi]
    # a pattern prime p | D2 moves its constraint to chi_{D1}(p); any other
    # pattern prime fixes the sign at chi_{D2}(p), constant in D1. The
    # signature is the product of the moved primes, a divisor of |D2|.
    moved = np.ones(hi - lo, dtype=np.int64)
    live = np.ones(hi - lo, dtype=bool)
    for p, want in pattern:
        chi2 = ctx.chi_array(p)[lo:hi]
        moved[chi2 == 0] *= p
        live &= (chi2 == 0) | (chi2 == want)
    (matched,) = _grouped_prefix_sums(
        moved[live], c[live], partial(_pattern_columns, ctx, pattern), 1
    )
    return int(c.sum()), int(matched.sum())


def density_lt(
    x: int,
    pattern: Iterable[tuple[int, int]],
    ctx: ScanContext | None = None,
    workers: int = 1,
) -> DensityReport:
    """Observed vs predicted proportion of ordered pairs whose coefficient
    sign at each pattern prime equals the requested value.

    The prediction is the product of 1/(p+1)^2 over zero-sign constraints
    and p(p+2)/(2(p+1)^2) over nonzero ones. Non-prime and repeated primes
    are rejected.
    """
    pat = tuple((int(p), int(s)) for p, s in pattern)
    if not pat:
        raise ValueError("pattern must name at least one prime")
    seen = [p for p, _ in pat]
    if len(set(seen)) != len(seen):
        raise ValueError(f"pattern repeats a prime: {seen}")
    for p, s in pat:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if s not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {s}")
    if ctx is None:
        ctx = build_context(x)
    for p, _ in pat:
        ctx.chi_array(p)
    parts = _run_chunked(_lt_chunk, (ctx, pat), len(ctx.entries), workers)
    pairs_total = sum(p[0] for p in parts)
    matched = sum(p[1] for p in parts)
    pred = Fraction(1)
    for p, s in pat:
        pred *= pair_sign_probability(p, s)
    obs = Fraction(matched, pairs_total)
    label = ",".join(f"{p}:{s:+d}" if s else f"{p}:0" for p, s in pat)
    row = DensityRow(
        label=label,
        count=matched,
        total=pairs_total,
        observed=obs,
        predicted=pred,
        relative_error=abs(obs - pred) / pred,
    )
    return DensityReport(x=x, kind="pair-sign-density", rows=[row])


# ---------------------------------------------------------------------------
# Counts, harmonic sum, averages
# ---------------------------------------------------------------------------

def pair_count_check(x: int, ctx: ScanContext | None = None) -> CountReport:
    """#{ordered pairs : |D1*D2| <= x} against the x log x / zeta(2)^2 scale.

    Convergence is logarithmically slow; the ratio column is informational
    and regression-tested against a golden band, never against zeta(2)
    itself.
    """
    if ctx is None:
        ctx = build_context(x)
    # iterate D1, prefix-count the admissible D2 range
    observed = int(ctx.prefix.sum())
    zeta2 = float((ZETA2_LO + ZETA2_HI) / 2)
    reference = x * log(x) / zeta2**2
    return CountReport(x=x, observed=observed, reference=reference, ratio=observed / reference)


def _pairwise_tree_sum(terms: list) -> object:
    while len(terms) > 1:
        nxt = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def harmonic_sum_check(x: int, ctx: ScanContext | None = None) -> HarmonicReport:
    """Exact sum of 1/|D| over fundamental |D| <= x vs log x / zeta(2).

    Balanced-tree accumulation keeps the exact rational tractable; gmpy2
    is used when installed (the result is identical, only faster).
    """
    if ctx is None:
        ctx = build_context(x)
    abs_vals = [int(a) for a in ctx.abs_values]
    try:
        import gmpy2

        total = _pairwise_tree_sum([gmpy2.mpq(1, a) for a in abs_vals])
        value = Fraction(int(total.numerator), int(total.denominator))
    except ImportError:
        value = _pairwise_tree_sum([Fraction(1, a) for a in abs_vals])
    zeta2 = float((ZETA2_LO + ZETA2_HI) / 2)
    reference = log(x) / zeta2
    return HarmonicReport(
        x=x, value=value, reference=reference, ratio=float(value) / reference
    )


def average_nd(
    x: int, ctx: ScanContext | None = None, k_terms: int = 1000, digits: int = 12
) -> AverageReport:
    """Average of n(D) over fundamental |D| <= x, D != 1, against Theta."""
    if ctx is None:
        ctx = build_context(x)
    nv = ctx.nvals[ctx.entries != 1]
    total = int(nv.sum())
    count = len(nv)
    avg = Fraction(total, count)
    ref = rigorous_constant("Theta", k_terms)
    return AverageReport(
        x=x,
        kind="n(D)",
        total=total,
        count=count,
        average=avg,
        reference_name="Theta",
        reference=render_decimal(ref, digits),
        delta=avg - ref.midpoint,
    )


def average_n1(x: int, k_terms: int = 1000, digits: int = 12) -> AverageReport:
    """Average of n_1(p) over odd primes p <= x, against the Erdos constant.

    The prime 2 is excluded (every residue is a square mod 2); dropping a
    single prime does not move the limit.
    """
    if x < 3:
        raise ValueError("x must be >= 3 so at least one odd prime enters")
    primes = sieve_primes(x)
    total = 0
    count = 0
    for p in primes.primes[1:]:
        total += least_nonresidue(p)
        count += 1
    avg = Fraction(total, count)
    ref = rigorous_constant("erdos", k_terms)
    return AverageReport(
        x=x,
        kind="n_1(p)",
        total=total,
        count=count,
        average=avg,
        reference_name="erdos",
        reference=render_decimal(ref, digits),
        delta=avg - ref.midpoint,
    )
