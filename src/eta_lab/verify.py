"""Acceptance criteria, shared by `eta-lab verify` and the pytest suite.

Each criterion pins its tolerance here; nothing is calibrated at run time.
Finite-scan regression values (quantities no closed form predicts at finite
x) live in one golden file, the packaged eta_lab/goldens/golden.json. Its
absence fails criteria 8 and 9; no run writes it, and a pinned value
changes only by a reviewed edit to the file.

Criterion 6 documents a known red: the pair sign-pattern proportions
converge to the product formula only logarithmically (the same slow
convergence the eta average shows), and at x = 10^5 all three stated
patterns sit 7-18 percent from the limit, outside the stated 5 percent
tolerance. The criterion is evaluated exactly as stated and reports its
measured values; the exact counts are additionally golden-pinned.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

from .arith import (
    is_fundamental,
    iter_primes,
    kronecker,
    legendre_oracle,
    sieve_fundamental,
    sieve_primes,
)
from .constants import (
    combined_constant,
    least_negative_density,
    render_decimal,
    rigorous_constant,
)
from .experiments import (
    ScanContext,
    _scan_chunk,
    average_n1,
    average_nd,
    build_context,
    decomposition_audit,
    density_lemma,
    density_lt,
    density_pollack,
    pair_count_check,
    scan_pairs,
)
from .newform import NewformPair, eta, sigma_coefficient, sigma_sign_at_prime

__all__ = ["CriterionResult", "run_criteria", "load_golden", "brute_force_pair_sum"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    status: str  # pass | fail | skip
    detail: str
    seconds: float


def load_golden() -> dict:
    """The packaged golden file, eta_lab/goldens/golden.json."""
    return json.loads((resources.files("eta_lab") / "goldens" / "golden.json").read_text())


# ---------------------------------------------------------------------------
# Independent brute-force oracle (criterion 8): kronecker + definitional
# scans only, no tables, no prefix counts, no shared aggregation code.
# ---------------------------------------------------------------------------

def brute_force_pair_sum(x: int) -> tuple[int, int, int]:
    """(pairs_total, pairs_excluded, sum_eta) by exhaustive double loop."""
    ds = [d for a in range(1, x + 1) for d in (-a, a) if is_fundamental(d)]
    total = excluded = sum_eta = 0
    for d2 in ds:
        bound = x // abs(d2)
        for d1 in ds:  # ds is ordered by |d|, so the first overflow ends the row
            if abs(d1) > bound:
                break
            total += 1
            if d2 == 1:
                excluded += 1
                continue
            for p in iter_primes(x + 2):
                s = kronecker(d1, p) if d2 % p == 0 else kronecker(d2, p)
                if s == -1:
                    sum_eta += p
                    break
            else:
                raise AssertionError(f"no sign change for ({d1}, {d2})")
    return total, excluded, sum_eta


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _crit_1_constants() -> tuple[bool, str]:
    t0 = time.time()
    th = rigorous_constant("theta", 1000)
    big = rigorous_constant("Theta", 1000)
    comb = combined_constant(1000)
    elapsed = time.time() - t0
    th_s = render_decimal(th, 10)
    big_s = render_decimal(big, 10)
    comb_s = render_decimal(comb, 14)
    ok = (
        th_s == "3.9750223902"
        and big_s == "4.9809473396"
        and comb_s == "4.63255603509332"
        and comb.width < Fraction(1, 10**14)
        and elapsed < 30.0
    )
    return ok, (
        f"theta={th_s} Theta={big_s} combined={comb_s} "
        f"width={float(comb.width):.1e} in {elapsed:.2f}s (bound 30 s)"
    )


def _crit_2_oracles() -> tuple[bool, str]:
    primes = sieve_primes(500)[1:]
    bad = 0
    for p in primes:
        for d in range(-500, 501):
            if kronecker(d, p) != legendre_oracle(d, p):
                bad += 1
    checked = len(primes) * 1001

    rng = random.Random(20240917)
    fundos = [d for a in range(1, 1001) for d in (-a, a) if is_fundamental(d)]
    sign_primes = sieve_primes(50)
    pair_checks = 0
    for _ in range(10_000):
        d1 = rng.choice(fundos)
        d2 = rng.choice(fundos)
        if d1 == 1 and d2 == 1:
            d2 = -3
        pair = NewformPair(d1, d2)
        for p in sign_primes:
            rule = sigma_sign_at_prime(pair, p)
            for k in (2, 3, 4, 5, 6):
                coeff = sigma_coefficient(pair, k, p)
                got = 0 if coeff == 0 else (1 if coeff > 0 else -1)
                if got != rule:
                    bad += 1
                pair_checks += 1
    ok = bad == 0
    return ok, f"{checked} Euler-criterion matches, {pair_checks} sign-rule matches, {bad} failures"


def _crit_3_structure(ctx4: ScanContext) -> tuple[bool, str]:
    bad = 0
    pairs = [NewformPair(5, -3), NewformPair(1, -4), NewformPair(-8, 12)]
    # multiplicativity over every coprime m, n <= 200 for one pair per weight
    for pair, k in ((pairs[0], 2), (pairs[1], 3)):
        sig = [0] * 201
        for m in range(1, 201):
            sig[m] = sigma_coefficient(pair, k, m)
        for m in range(1, 201):
            for n in range(m, 201):
                if gcd(m, n) == 1:
                    if sigma_coefficient(pair, k, m * n) != sig[m] * sig[n]:
                        bad += 1
    # prime-power recursion a(p^{r+1}) = a(p)a(p^r) - chi1(p)chi2(p)p^{k-1}a(p^{r-1})
    for pair in pairs:
        for k in (2, 3):
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                ap = [sigma_coefficient(pair, k, p**r) for r in range(7)]
                tw = kronecker(pair.d1, p) * kronecker(pair.d2, p) * p ** (k - 1)
                for r in range(1, 6):
                    if ap[r + 1] != ap[1] * ap[r] - tw * ap[r - 1]:
                        bad += 1
    # eta soundness re-scan on all pairs with |D1 D2| <= 10^4, via the actual
    # weight-2 divisor sums
    entries = [int(d) for d in ctx4.entries]
    scanned = 0
    for d2 in entries:
        if d2 == 1:
            continue
        bound = ctx4.x // abs(d2)
        for d1 in entries:
            if abs(d1) > bound:
                break
            pair = NewformPair(d1, d2)
            res = eta(pair)
            if not res.is_found:
                bad += 1
                continue
            for p in iter_primes(res.prime):
                c = sigma_coefficient(pair, 2, p)
                s = 0 if c == 0 else (1 if c > 0 else -1)
                if p < res.prime and s == -1:
                    bad += 1
                if p == res.prime and s != -1:
                    bad += 1
            scanned += 1
    ok = bad == 0
    return ok, f"multiplicativity+recursion+{scanned} eta soundness rescans, {bad} failures"


def _crit_4_lemma(ctx6: ScanContext) -> tuple[bool, str]:
    t0 = time.time()
    worst = Fraction(0)
    for p in (2, 3, 5, 7):
        rep = density_lemma(ctx6.x, p, ctx6)
        for row in rep.rows:
            worst = max(worst, row.relative_error)
    elapsed = time.time() - t0
    ok = worst < Fraction(1, 100) and elapsed < 120.0
    return ok, f"worst relative error {float(worst):.2e} in {elapsed:.1f}s (bound 120 s)"


def _crit_5_pollack(ctx6: ScanContext) -> tuple[bool, str]:
    k1 = least_negative_density(1)
    rep = density_pollack(ctx6.x, 4, ctx6)
    worst = max(row.relative_error for row in rep.rows)
    ok = k1 == Fraction(1, 3) and worst < Fraction(2, 100)
    return ok, f"k=1 prediction {k1}, worst relative error {float(worst):.2e}"


def _crit_6_lt(ctx5: ScanContext) -> tuple[bool, str]:
    patterns = ([(2, 0)], [(2, -1)], [(2, 1), (3, -1)])
    rels = []
    for pat in patterns:
        rep = density_lt(ctx5.x, pat, ctx=ctx5)
        rels.append(rep.rows[0].relative_error)
    ok = all(r < Fraction(5, 100) for r in rels)
    detail = ", ".join(
        f"{p}: {float(r) * 100:.1f}%" for p, r in zip(("[(2,0)]", "[(2,-1)]", "[(2,+1),(3,-1)]"), rels)
    )
    # "known-red" tells this documented failure apart from a new regression
    return ok, f"known-red: {detail} (tolerance 5%; convergence to the limit is logarithmic)"


def _crit_7_counts(ctx6: ScanContext) -> tuple[bool, str]:
    zeta2 = 1.6449340668482264
    count = len(ctx6.entries)
    ref = ctx6.x / zeta2
    rel = abs(count - ref) / ref
    small = set(sieve_fundamental(10))
    ok = rel < 0.005 and small == {1, -3, -4, 5, -7, 8, -8}
    return ok, f"count {count} vs {ref:.1f} (rel {rel:.2e}); X=10 table exact"


def _crit_8_scan(ctx4: ScanContext, ctx6: ScanContext) -> tuple[bool, str]:
    rep4 = scan_pairs(ctx4.x, ctx=ctx4)
    bt, be, bs = brute_force_pair_sum(10_000)
    oracle_ok = (rep4.pairs_total, rep4.pairs_excluded, rep4.sum_eta) == (bt, be, bs)

    rep6 = scan_pairs(ctx6.x, ctx=ctx6)
    avg = rep6.avg_eta
    band_ok = Fraction(3) <= avg <= Fraction(6)
    have_refs = all(name in rep6.refs for name in ("theta", "combined", "Theta"))

    golden_ok, gnote = _golden_check({
        f"scan_x{rep.x}": {
            "pairs_total": rep.pairs_total,
            "pairs_excluded": rep.pairs_excluded,
            "sum_eta": rep.sum_eta,
        }
        for rep in (rep4, rep6)
    })
    ok = oracle_ok and band_ok and have_refs and golden_ok
    return ok, (
        f"x=1e4 oracle sum {bs} {'==' if oracle_ok else '!='} scan {rep4.sum_eta}; "
        f"x=1e6 avg {float(avg):.6f} in [3,6]={band_ok}, {gnote}"
    )


def _crit_9_audit(ctx4: ScanContext) -> tuple[bool, str]:
    rep = decomposition_audit(ctx4.x, ctx=ctx4)
    wanted = any(
        m.d1 == 5 and m.d2 == 33 and m.eta == 3 and m.n_d1 == 2
        for m in rep.mismatch_examples
    )
    golden_ok, gnote = _golden_check({
        "audit_x10000": {
            "lhs_sum_eta": rep.lhs_sum_eta,
            "rhs_sum_n_d2": rep.rhs_sum_n_d2,
            "rhs_hit_sum_n_d1": rep.rhs_hit_sum_n_d1,
            "rhs_hit_sum_n_d2": rep.rhs_hit_sum_n_d2,
            "difference": rep.difference,
            "mismatch_count": rep.mismatch_count,
        }
    })
    ok = rep.nondivisor_violations == 0 and wanted and golden_ok
    return ok, (
        f"off-branch violations {rep.nondivisor_violations}, (5,33) example={'yes' if wanted else 'NO'}, "
        f"difference {rep.difference} ({rep.mismatch_count} mismatches), {gnote}"
    )


def _crit_10_erdos() -> tuple[bool, str]:
    rep = average_n1(1_000_000)
    mid = rigorous_constant("erdos", 1000).midpoint
    rel = abs(rep.average - mid) / mid
    ok = rel < Fraction(2, 100)
    return ok, f"avg n_1 = {float(rep.average):.6f}, enclosure mid {float(mid):.6f}, rel {float(rel):.2e}"


def _crit_11_determinism() -> tuple[bool, str]:
    import contextlib
    import io
    import tempfile

    from .cli import main

    # scan x=1e5 to stdout, to an --output file, and to stdout again
    argv = ["scan", "--x", "100000", "--format", "csv", "--no-timestamp"]
    runs = []
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "scan.csv"
        for extra in ([], ["--output", str(path)], []):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main(argv + extra)
            if rc != 0:
                return False, f"scan x=1e5 exited {rc}"
            runs.append(path.read_bytes() if extra else stdout.getvalue().encode())
    bytes_ok = runs[0] == runs[1] == runs[2]
    # the pair kernel over the whole table and over eight ranges of D2
    ctx = build_context(100_000)
    cuts = [len(ctx.entries) * i // 8 for i in range(9)]
    parts = [_scan_chunk(ctx, b) for b in zip(cuts, cuts[1:])]
    split_ok = _scan_chunk(ctx, (0, cuts[-1])) == tuple(map(sum, zip(*parts)))
    return bytes_ok and split_ok, (
        f"scan x=1e5 stdout, --output and rerun byte-identical: {bytes_ok} "
        f"({len(runs[0])} bytes); whole-table and 8-range kernel sums equal: {split_ok}"
    )


def _golden_check(measured: dict) -> tuple[bool, str]:
    """Compare each measured key with its pinned value; an unreadable golden
    file fails the check."""
    try:
        golden = load_golden()
    except (OSError, ValueError) as exc:
        return False, f"golden file unreadable: {exc}"
    for key, value in measured.items():
        if key not in golden:
            return False, f"golden file lacks {key}"
        if golden[key] != value:
            return False, f"golden mismatch at {key}: {golden[key]} != {value}"
    return True, "golden match"


def extra_regressions(ctx5: ScanContext, ctx6: ScanContext) -> dict:
    """Finite-x quantities pinned alongside the criteria: exact pattern
    counts, pair-count checkpoints, and the two averages."""
    out: dict = {}
    for pat, label in (
        ([(2, 0)], "2:0"),
        ([(2, -1)], "2:-1"),
        ([(2, 1), (3, -1)], "2:+1,3:-1"),
    ):
        row = density_lt(ctx5.x, pat, ctx=ctx5).rows[0]
        out[f"lt_x100000:{label}"] = [row.count, row.total]
    out["pair_count_x100000"] = pair_count_check(ctx5.x, ctx5).observed
    out["pair_count_x1000000"] = pair_count_check(ctx6.x, ctx6).observed
    nd = average_nd(ctx6.x, ctx6)
    out["average_nd_x1000000"] = {"total": nd.total, "count": nd.count}
    n1 = average_n1(ctx6.x)
    out["average_n1_x1000000"] = {"total": n1.total, "count": n1.count}
    return out


def run_criteria(quick: bool = False) -> list[CriterionResult]:
    """Run the acceptance criteria; quick mode skips the x >= 10^6 scans."""
    results: list[CriterionResult] = []

    ctx4 = build_context(10_000)
    ctx5 = build_context(100_000)
    ctx6 = build_context(1_000_000) if not quick else None

    plan = [
        (1, "constants enclose the reference decimals", _crit_1_constants, False),
        (2, "kronecker/legendre and sign-rule oracles", _crit_2_oracles, False),
        (3, "multiplicativity, recursion, eta soundness", lambda: _crit_3_structure(ctx4), False),
        (4, "per-prime sign densities at x=1e6", lambda: _crit_4_lemma(ctx6), True),
        (5, "least-negative-prime densities at x=1e6", lambda: _crit_5_pollack(ctx6), True),
        (6, "pair sign-pattern proportions at x=1e5", lambda: _crit_6_lt(ctx5), False),
        (7, "fundamental discriminant counts", lambda: _crit_7_counts(ctx6), True),
        (8, "eta average scan vs oracle and golden", lambda: _crit_8_scan(ctx4, ctx6), True),
        (9, "decomposition audit at x=1e4", lambda: _crit_9_audit(ctx4), False),
        (10, "least non-residue average vs erdos", _crit_10_erdos, True),
        (11, "byte determinism of scan output and range-split kernel sums",
         _crit_11_determinism, False),
    ]
    for cid, name, fn, needs_big in plan:
        if quick and needs_big:
            results.append(CriterionResult(cid, name, "skip", "skipped by --quick (x >= 1e6)", 0.0))
            continue
        t0 = time.time()
        ok, detail = fn()
        results.append(
            CriterionResult(cid, name, "pass" if ok else "fail", detail, time.time() - t0)
        )
    return results
