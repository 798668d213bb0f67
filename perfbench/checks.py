"""Exact checks of every operation's output.

Each expected value comes from somewhere other than the code path that
produced the output:

* the packaged golden file, where x is pinned;
* the definitional audit engine (`decomposition_audit`) for scans at small
  x, and the optimized scan engine (`scan_pairs`) for audits;
* this file's own Kronecker symbol, divisor sums, Bernoulli numbers and
  series partial sums, which share no code with eta_lab;
* for a sign pattern without a pinned value, the identity that the +1, -1
  and 0 counts at one prime add up to the number of pairs;
* byte equality of outputs whose inputs differ at most in --workers.

`Checker.check` returns None when an output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb

import numpy as np

from eta_lab.experiments import build_context, decomposition_audit, density_lt, scan_pairs
from eta_lab.newform import DEFAULT_ETA_CAP

from workloads import SMALL_PRIMES, X_LARGE, parse_pattern

# Exact counters of the x = 1e6 context. They must repeat exactly from run
# to run; a different value is a benchmark error, not noise.
EXPECTED_COUNTERS = {
    "experiments.pairs_total": 5_749_308,
    "experiments.d2_plain": 336_088,
    "experiments.d2_single_q": 187_236,
    "experiments.d2_multi_q": 84_601,
    "experiments.qmask_distinct": 406,
    "experiments.cache_primes": 19,
    "experiments.max_n": 71,
    "experiments.cap_headroom": DEFAULT_ETA_CAP - 71,
}

_ORACLE_TERMS = 60        # series terms of the independent constants oracle
_ORACLE_SLACK = Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# Independent arithmetic
# ---------------------------------------------------------------------------

def _chi_prime(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p, by the mod-8 rule and Euler's criterion."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = d % p
    return 0 if r == 0 else (1 if pow(r, (p - 1) // 2, p) == 1 else -1)


def _chi(d: int, n: int) -> int:
    """Kronecker symbol (d/n), n >= 1, completely multiplicative in n."""
    out, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            out *= _chi_prime(d, f)
            n //= f
        f += 1
    return out * _chi_prime(d, n) if n > 1 else out


def _primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def _eta(d1: int, d2: int) -> list[tuple[int, int]]:
    """(p, sign) up to the first negative sign, from the sign rule."""
    trace, n = [], 1
    while True:
        n += 1
        if any(n % q == 0 for q in range(2, int(n**0.5) + 1)):
            continue
        s = _chi_prime(d1, n) if d2 % n == 0 else _chi_prime(d2, n)
        trace.append((n, s))
        if s == -1:
            return trace


def _sigma(d1: int, d2: int, k: int, n: int) -> int:
    return sum(_chi(d1, n // d) * _chi(d2, d) * d ** (k - 1) for d in range(1, n + 1) if n % d == 0)


def _bernoulli(k: int) -> list[Fraction]:
    b = [Fraction(1)]
    for m in range(1, k + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def _constant_term(d1: int, d2: int, k: int) -> Fraction:
    """L(1-k, chi_D2)/2 = -B_{k,chi}/(2k) when D1 = 1, else 0."""
    if d1 != 1:
        return Fraction(0)
    b, f = _bernoulli(k), abs(d2)
    acc = Fraction(0)
    for a in range(1, f + 1):
        chi = _chi(d2, a)
        if chi:
            x = Fraction(a, f)
            acc += chi * sum(comb(k, i) * b[i] * x ** (k - i) for i in range(k + 1))
    return -(f ** (k - 1) * acc) / (2 * k)


def _series_partial_sums() -> dict[str, Fraction]:
    """Partial sums of the five series to a few dozen terms, from their definitions."""
    heads = {
        "theta": lambda p: Fraction(p * p * (p + 2), 2 * (p + 1) ** 2),
        "Theta": lambda p: Fraction(p * p, 2 * (p + 1)),
        "alpha": lambda p: Fraction(p * p, 2 * (p + 1) ** 2),
        "beta": lambda p: Fraction(p, 2 * (p + 1) ** 2),
    }
    shared = lambda p: Fraction(p + 2, 2 * (p + 1))  # noqa: E731
    factors = {"theta": lambda p: Fraction(2 + p * (p + 2), 2 * (p + 1) ** 2),
               "Theta": shared, "alpha": shared, "beta": shared}
    primes = _primes(_ORACLE_TERMS)
    sums = {"erdos": sum(Fraction(p, 2 ** (k + 1)) for k, p in enumerate(primes))}
    for name, head in heads.items():
        total, prod = Fraction(0), Fraction(1)
        for p in primes:
            total += head(p) * prod
            prod *= factors[name](p)
        sums[name] = total
    return sums


def _chi_columns(entries: np.ndarray, primes) -> dict[int, np.ndarray]:
    cols = {}
    for p in primes:
        residues = 8 if p == 2 else p
        tab = np.array([_chi_prime(r, p) for r in range(residues)], dtype=np.int8)
        cols[p] = tab[np.mod(entries, residues)]
    return cols


def _frac(js: dict) -> Fraction:
    return Fraction(int(js["num"]), int(js["den"]))


# ---------------------------------------------------------------------------
# Counters of a context
# ---------------------------------------------------------------------------

def context_counters(ctx) -> dict[str, int]:
    """The exact counts named in EXPECTED_COUNTERS, read from public ScanContext arrays."""
    mask = ctx.qmask
    included = (ctx.entries != 1) & (ctx.prefix > 0)
    single = (mask & (mask - 1)) == 0
    max_n = int(ctx.nvals.max())
    return {
        "experiments.pairs_total": int(ctx.prefix.sum()),
        "experiments.d2_plain": int((included & (mask == 0)).sum()),
        "experiments.d2_single_q": int((included & (mask != 0) & single).sum()),
        "experiments.d2_multi_q": int((included & ~single).sum()),
        "experiments.qmask_distinct": len(np.unique(mask)),
        "experiments.cache_primes": len(ctx.cache_primes),
        "experiments.max_n": max_n,
        "experiments.cap_headroom": DEFAULT_ETA_CAP - max_n,
    }


def context_bytes(ctx) -> int:
    """Bytes held by the context's arrays and its chi and cumulative caches."""
    arrays = [ctx.table.entries, ctx.table.abs_values, ctx.nvals, ctx.prefix, ctx.qmask]
    for cache in (ctx.chi, ctx.negcum, ctx.eqcum):
        arrays += cache.values()
    return sum(a.nbytes for a in arrays)


def counter_errors(ctx) -> list[str]:
    got = context_counters(ctx)
    return [f"{k} = {got[k]}, expected {v}" for k, v in EXPECTED_COUNTERS.items() if got[k] != v]


# ---------------------------------------------------------------------------
# Per-operation checks
# ---------------------------------------------------------------------------

class Checker:
    """Computes (and caches) each expected value once per run."""

    def __init__(self, golden: dict):
        self.golden = golden
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def context(self, x: int):
        return self._cached(("ctx", x), lambda: build_context(x))

    def _pairs(self, x: int) -> int:
        if x == X_LARGE:
            return self.golden["pair_count_x1000000"]
        return int(self.context(x).prefix.sum())

    # -- scans and audits ---------------------------------------------------

    def _expected_scan(self, x: int) -> dict:
        key = f"scan_x{x}"
        if key in self.golden:
            return self.golden[key]

        def audit():
            r = decomposition_audit(x, ctx=self.context(x))
            return {"pairs_total": r.pairs_total, "pairs_excluded": r.pairs_excluded,
                    "sum_eta": r.lhs_sum_eta}
        return self._cached(("audit", x), audit)

    def scan(self, x: int, out: dict):
        want = self._expected_scan(x)
        got = {k: out[k] for k in want}
        if got != want:
            return f"scan x={x}: {got} != {want}"
        avg = out["avg_eta"]
        avg = avg if isinstance(avg, Fraction) else _frac(avg)
        if avg != Fraction(out["sum_eta"], out["pairs_total"] - out["pairs_excluded"]):
            return f"scan x={x}: avg_eta is not sum_eta / included pairs"
        return None

    def audit(self, x: int, out: dict):
        def scan():
            r = scan_pairs(x, ctx=self.context(x), k_terms=16)
            return {"pairs_total": r.pairs_total, "pairs_excluded": r.pairs_excluded,
                    "lhs_sum_eta": r.sum_eta}
        want = self._cached(("scan", x), scan)
        if f"audit_x{x}" in self.golden:
            want = {**want, **self.golden[f"audit_x{x}"]}
        got = {k: out[k] for k in want}
        if got != want:
            return f"audit x={x}: {got} != {want}"
        rhs = out["rhs_sum_n_d2"] + out["rhs_hit_sum_n_d1"] - out["rhs_hit_sum_n_d2"]
        if out["difference"] != out["lhs_sum_eta"] - rhs or out["nondivisor_violations"]:
            return f"audit x={x}: decomposition identity broken"
        return None

    # -- densities ----------------------------------------------------------

    def _chi(self, x: int) -> dict[int, np.ndarray]:
        return self._cached(("chi", x), lambda: _chi_columns(self.context(x).entries, SMALL_PRIMES))

    def density(self, x: int, rep: dict):
        rows = rep["rows"]
        counts = [r["count"] for r in rows]
        totals = {r["total"] for r in rows}
        if rep["kind"] == "sign-density":
            p = int(re.search(r"p=(\d+)", rows[0]["label"]).group(1))
            chi = self._chi(x)[p]
            want = [int((chi == s).sum()) for s in (1, -1, 0)]
            want_total = len(chi)
        elif rep["kind"] == "least-negative-density":
            chi = self._chi(x)
            alive = self.context(x).entries != 1
            want_total = int(alive.sum())
            want = []
            for p in SMALL_PRIMES[:len(rows)]:
                hit = alive & (chi[p] == -1)
                want.append(int(hit.sum()))
                alive &= ~hit
        elif rep["kind"] == "pair-sign-density":
            label = rows[0]["label"]
            want_total = self._pairs(x)
            pinned = self.golden.get(f"lt_x{x}:{label}")
            if pinned is not None:
                want = [pinned[0]]
                want_total = pinned[1]
            else:
                (p, s), = parse_pattern(label)
                others = sum(self._cached(("lt", x, p, t), lambda t=t: density_lt(
                    x, [(p, t)], self.context(x)).rows[0].count) for t in (1, -1, 0) if t != s)
                want = [want_total - others]
        else:
            return f"unknown density kind {rep['kind']!r}"
        if counts != want or totals != {want_total}:
            return f"{rep['kind']} x={x}: counts {counts}/{totals} != {want}/{want_total}"
        return None

    # -- constants and single newforms --------------------------------------

    def constants(self, rows: list[dict]):
        v = {r["name"]: (_frac(r["lo"]), _frac(r["hi"])) for r in rows}
        partial = self._cached("series", _series_partial_sums)
        for name, s in partial.items():
            lo, hi = v[name]
            if not (s <= lo <= hi <= s + _ORACLE_SLACK):
                return f"constants: {name} enclosure disagrees with its partial sum"
        (tl, th), (al, ah), (bl, bh) = v["Theta"], v["alpha"], v["beta"]
        comb_lo, comb_hi = tl * (1 - bh) + al, th * (1 - bl) + ah
        if v["combined"] != (comb_lo, comb_hi):
            return "constants: combined is not Theta*(1-beta)+alpha"
        if v["mu"] != (comb_lo - v["theta"][1], comb_hi - v["theta"][0]):
            return "constants: mu is not combined - theta"
        return None

    @staticmethod
    def eta(d1: int, d2: int, out: dict):
        want = _eta(d1, d2)
        got = [(t["p"], t["sign"]) for t in out["trace"]]
        if out["status"] != "found" or out["eta"] != want[-1][0] or got != want:
            return f"eta({d1}, {d2}) = {out['eta']}, expected {want[-1][0]}"
        return None

    @staticmethod
    def sigma(d1: int, d2: int, k: int, n: int, out: dict):
        want = _sigma(d1, d2, k, n)
        if int(out["value"]) != want:
            return f"sigma({d1}, {d2}, {k}, {n}) = {out['value']}, expected {want}"
        return None

    @staticmethod
    def qexp(d1: int, d2: int, k: int, terms: int, out: dict):
        want = [_sigma(d1, d2, k, n) for n in range(1, terms + 1)]
        got = [int(c) for c in out["coefficients"]]
        if got != want or _frac(out["constant_term"]) != _constant_term(d1, d2, k):
            return f"qexp({d1}, {d2}, {k}) disagrees with the divisor sums or L(1-k, chi)/2"
        return None

    # -- averages, counts and rendered reports ------------------------------

    def average(self, name: str, x: int, out: dict):
        want = self.golden[f"{name}_x{x}"]
        got = {"count": out["count"], "total": out["total"]}
        return None if got == want else f"{name} x={x}: {got} != {want}"

    def pair_count(self, x: int, out: dict):
        want = self.golden[f"pair_count_x{x}"]
        return None if out["observed"] == want else f"pair_count x={x}: {out['observed']} != {want}"

    def rendered(self, fmt: str, x: int, text: str):
        """A rendered scan report: its numbers must read back exactly."""
        want = self._expected_scan(x)
        if fmt == "json":
            return self.scan(x, json.loads(text)["payload"])
        if fmt == "csv":
            rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
            got = {k: int(rows[0][k]) for k in want}
            return None if got == want else f"csv scan row {got} != {want}"
        missing = [k for k in want if not re.search(rf"\b{want[k]}\b", text)]
        return f"text scan report lacks {missing}" if missing else None

    def check(self, op, out):
        """None if `out` (a CLI command's JSON payload, a library result as
        a dict, or rendered text) is exactly right for `op`, else a reason."""
        a = op.args
        if op.cli:
            x = int(a[a.index("--x") + 1]) if "--x" in a else None
            if op.name == "constants":
                return self.constants(out["constants"])
            if op.name == "scan":
                return self.scan(x, out)
            if op.name == "audit":
                return self.audit(x, out)
            if op.name == "densities":
                opts = dict(zip(a[0::2], a[1::2]))
                n = len(opts.get("--lemma", "").split(",")) if "--lemma" in opts else 0
                n += ("--pollack" in opts) + ("--lt" in opts)
                if len(out["reports"]) != n:
                    return f"densities: {len(out['reports'])} reports, expected {n}"
                return next(filter(None, (self.density(x, rep) for rep in out["reports"])), None)
            d1, d2 = int(a[0]), int(a[1])
            if op.name == "eta":
                return self.eta(d1, d2, out)
            if op.name == "sigma":
                return self.sigma(d1, d2, int(a[2]), int(a[3]), out)
            if op.name == "qexp":
                return self.qexp(d1, d2, int(a[2]), int(a[a.index("--terms") + 1]), out)
        elif op.name == "serialize":
            return self.rendered(a[0], X_LARGE, out)
        elif op.name in ("average_n1", "average_nd"):
            return self.average(op.name, a[0], out)
        elif op.name.startswith("density_"):
            return self.density(a[0], out)
        elif op.name == "scan_pairs":
            return self.scan(a[0], out)
        elif op.name == "pair_count_check":
            return self.pair_count(a[0], out)
        return f"no check for {op.describe()}"
