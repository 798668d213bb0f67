"""Rigorous enclosures of the prime-series limit constants.

Five positive series over primes p_1 < p_2 < ... are evaluated exactly:

    theta : sum_k p_k^2(p_k+2)/(2(p_k+1)^2) * prod_{j<k} (2+p_j(p_j+2))/(2(p_j+1)^2)
    Theta : sum_k p_k^2/(2(p_k+1))          * prod_{j<k} (p_j+2)/(2(p_j+1))
    alpha : sum_k p_k^2/(2(p_k+1)^2)        * prod_{j<k} (p_j+2)/(2(p_j+1))
    beta  : sum_k p_k/(2(p_k+1)^2)          * prod_{j<k} (p_j+2)/(2(p_j+1))
    erdos : sum_k p_k/2^k

theta is the fixed-prime heuristic value for the average of eta(D1, D2);
Theta*(1-beta)+alpha is the proven limit; Theta alone is the limit of the
average of n(D); erdos is the limit of the average of n_1(p). Partial sums
are exact rationals; tails are closed by a geometric bound resting on
Nagura's theorem (for n >= 25 there is a prime in (n, 1.2n], hence
p_{k+1} <= 1.2 p_k once p_k >= 25):

  * every step ratio term_{k+1}/term_k is at most r = (36/25) * c(p_K),
    where c is the series' product factor (c <= 1/2 + 1/(2(p_K+1)), so
    r < 3/4 once p_K >= 25);
  * term_{K+1} is bounded by evaluating the head factor at 6 p_K / 5
    (the head is increasing in p, except for beta where it decreases and
    the head at p_K already bounds it);
  * the tail is then at most term_{K+1}^ub / (1 - r).

For erdos the ratio bound is simply p_{k+1}/(2 p_k) <= 3/5. Everything is
exact rational arithmetic end to end; no rounding mode can leak in.

Evaluation. All seven enclosures for one K (the five series, combined =
Theta*(1-beta)+alpha and mu = combined - theta) come from one integer pass:

  * theta has its own running product and Theta, alpha, beta share one;
    each product is carried as an unreduced integer numerator and
    denominator, and its final value also feeds the tails;
  * each partial sum is a backward Horner fold over unreduced integers,
    N/D <- a/b + (c/d) * N/D, i.e. N, D = a*d*D + b*c*N, b*d*D, where a/b
    is the head and c/d the product factor at p_k; erdos is the integer
    n <- 2n + p_k over 2^K;
  * every result is reduced to lowest terms once, by Fraction(N, D).

Rationals are unique in lowest terms, so the results are identical to
summing series_terms, the per-term definition kept for the tests. A
truncation is fixed by K alone: the pass sieves the first K primes itself,
is memoised per process keyed by K, and the public functions read from it;
nothing is computed at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, log

from .arith import sieve_primes

__all__ = [
    "SERIES_NAMES",
    "RigorousValue",
    "default_primes",
    "series_terms",
    "partial_sum",
    "tail_bound",
    "rigorous_constant",
    "combined_constant",
    "mu_constant",
    "render_decimal",
    "format_fixed",
    "format_sci",
    "sign_probability",
    "least_negative_density",
    "least_negative_densities",
    "ZETA2_LO",
    "ZETA2_HI",
]

SERIES_NAMES = ("theta", "Theta", "alpha", "beta", "erdos")

# 30-decimal-digit enclosure of zeta(2) = pi^2/6, used only for reference
# columns in experiment reports; no pass/fail logic compares against it.
ZETA2_LO = Fraction(1644934066848226436472415166646, 10**30)
ZETA2_HI = Fraction(1644934066848226436472415166647, 10**30)


# Heads h(p) and product factors f(p) as (numerator, denominator) pairs of
# polynomials in p: integer pairs for a prime p, Fraction pairs for the
# rational tail argument 6 p_K / 5.

def _head_theta(p):
    return p * p * (p + 2), 2 * (p + 1) ** 2


def _head_Theta(p):
    return p * p, 2 * (p + 1)


def _head_alpha(p):
    return p * p, 2 * (p + 1) ** 2


def _head_beta(p):
    return p, 2 * (p + 1) ** 2


def _factor_theta(p):
    return 2 + p * (p + 2), 2 * (p + 1) ** 2


def _factor_shared(p):
    return p + 2, 2 * (p + 1)


def _ratio(pair) -> Fraction:
    num, den = pair
    return Fraction(num) / den


_HEADS = {
    "theta": _head_theta,
    "Theta": _head_Theta,
    "alpha": _head_alpha,
    "beta": _head_beta,
}
_FACTORS = {
    "theta": _factor_theta,
    "Theta": _factor_shared,
    "alpha": _factor_shared,
    "beta": _factor_shared,
}
# heads increase with p except beta's, which decreases for p > 1
_HEAD_INCREASING = {"theta": True, "Theta": True, "alpha": True, "beta": False}
# series sharing one running product, evaluated together in one pass
_PRODUCT_GROUPS = ((_factor_theta, ("theta",)), (_factor_shared, ("Theta", "alpha", "beta")))


@dataclass(frozen=True)
class RigorousValue:
    """Exact rational interval [lo, hi] proven to contain a series limit."""

    name: str
    k_terms: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: lo > hi")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction | int) -> bool:
        return self.lo <= x <= self.hi


def default_primes(k_terms: int) -> tuple[int, ...]:
    """The first k_terms primes p_1 < ... < p_K."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    limit = 64
    if k_terms > 16:
        limit = int(k_terms * (log(k_terms) + log(log(k_terms)) + 1.1)) + 16
    while True:
        primes = sieve_primes(limit)
        if len(primes) >= k_terms:
            return primes[:k_terms]
        limit *= 2


def _check_name(name: str) -> None:
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}, expected one of {SERIES_NAMES}")


def series_terms(name: str, k_terms: int) -> list[Fraction]:
    """Exact terms term_1..term_K, straight from the definition.

    The reference the one-pass evaluation is tested against; nothing else
    in the package sums these.
    """
    _check_name(name)
    primes = default_primes(k_terms)
    if name == "erdos":
        return [Fraction(p, 2**k) for k, p in enumerate(primes, 1)]
    head = _HEADS[name]
    factor = _FACTORS[name]
    out: list[Fraction] = []
    prod = Fraction(1)
    for p in primes:
        out.append(_ratio(head(p)) * prod)
        prod *= _ratio(factor(p))
    return out


@dataclass(frozen=True)
class _Evaluation:
    """Everything the public functions read for one K."""

    sums: dict[str, Fraction]           # the five partial sums
    values: dict[str, RigorousValue]    # the seven enclosures; empty if p_K < 25


def _horner_pass(ps: tuple[int, ...], factor, names: tuple[str, ...]):
    """Partial sums of the named series sharing `factor`, and the product.

    One backward pass p_K, ..., p_1 over unreduced integers: each sum
    N/D = sum_k h(p_k) prod_{j<k} f(p_j) is folded Horner-style as
    N/D <- h(p_k) + f(p_k) * N/D, and the running product
    prod_{k<=K} f(p_k) is carried alongside. Each result is reduced once.
    """
    heads = [_HEADS[n] for n in names]
    acc = [list(h(ps[-1])) for h in heads]
    num, den = factor(ps[-1])
    for p in reversed(ps[:-1]):
        c, d = factor(p)
        num *= c
        den *= d
        for s, head in zip(acc, heads):
            a, b = head(p)
            s[0], s[1] = a * d * s[1] + b * c * s[0], b * d * s[1]
    sums = {n: Fraction(s[0], s[1]) for n, s in zip(names, acc)}
    return sums, Fraction(num, den)


def _tail(name: str, p_K: int, prod: Fraction) -> Fraction:
    """Geometric tail bound after p_K, given prod_{k<=K} of the series' factor."""
    ratio = Fraction(36, 25) * _ratio(_FACTORS[name](p_K))
    assert ratio < 1
    head_arg = Fraction(6 * p_K, 5) if _HEAD_INCREASING[name] else Fraction(p_K)
    return _ratio(_HEADS[name](head_arg)) * prod / (1 - ratio)


@lru_cache(maxsize=16)
def _evaluate(k_terms: int) -> _Evaluation:
    """The partial sums and enclosures through the first k_terms primes,
    memoised per process on K."""
    ps = default_primes(k_terms)
    p_K = ps[-1]
    sums: dict[str, Fraction] = {}
    products: dict[str, Fraction] = {}
    for factor, names in _PRODUCT_GROUPS:
        group_sums, prod = _horner_pass(ps, factor, names)
        sums.update(group_sums)
        products.update(dict.fromkeys(names, prod))
    erdos = 0
    for p in ps:
        erdos = 2 * erdos + p
    sums["erdos"] = Fraction(erdos, 2**k_terms)
    if p_K < 25:
        return _Evaluation(sums=sums, values={})

    tails = {name: _tail(name, p_K, products[name]) for name in products}
    # erdos: term ratio p_{k+1}/(2 p_k) <= 3/5, first tail term <= (6/5) p_K / 2^(K+1)
    tails["erdos"] = Fraction(6 * p_K, 5) / 2 ** (k_terms + 1) / (1 - Fraction(3, 5))
    values = {
        name: RigorousValue(name=name, k_terms=k_terms, lo=sums[name], hi=sums[name] + tails[name])
        for name in SERIES_NAMES
    }
    big, al, be, th = values["Theta"], values["alpha"], values["beta"], values["theta"]
    if not (0 <= be.lo <= be.hi <= 1):
        raise ValueError("beta enclosure escaped [0, 1]; raise k_terms")
    comb = RigorousValue(
        name="combined",
        k_terms=k_terms,
        lo=big.lo * (1 - be.hi) + al.lo,
        hi=big.hi * (1 - be.lo) + al.hi,
    )
    values["combined"] = comb
    values["mu"] = RigorousValue(
        name="mu", k_terms=k_terms, lo=comb.lo - th.hi, hi=comb.hi - th.lo
    )
    return _Evaluation(sums=sums, values=values)


def _evaluation(k_terms: int, tail: bool = True) -> _Evaluation:
    """The memoised evaluation for K = k_terms.

    With tail set, requires p_K >= 25 so Nagura's prime-gap theorem gives
    p_{k+1} <= 1.2 p_k for all k >= K.
    """
    ev = _evaluate(k_terms)
    if tail and not ev.values:
        p_K = default_primes(k_terms)[-1]
        raise ValueError(f"tail bound needs p_K >= 25 (K >= 10); got p_{k_terms} = {p_K}")
    return ev


def partial_sum(name: str, k_terms: int) -> Fraction:
    """Exact partial sum of the named series through k_terms terms."""
    _check_name(name)
    return _evaluation(k_terms, tail=False).sums[name]


def tail_bound(name: str, k_terms: int) -> Fraction:
    """Exact rational T with sum_{k > k_terms} term_k <= T.

    Requires p_K >= 25 so Nagura's prime-gap theorem gives
    p_{k+1} <= 1.2 p_k for all k >= K.
    """
    _check_name(name)
    return _evaluation(k_terms).values[name].width


def rigorous_constant(name: str, k_terms: int = 1000) -> RigorousValue:
    """[partial_sum, partial_sum + tail_bound] for the named constant."""
    _check_name(name)
    return _evaluation(k_terms).values[name]


def combined_constant(k_terms: int = 1000) -> RigorousValue:
    """Enclosure of Theta*(1-beta)+alpha by interval arithmetic."""
    return _evaluation(k_terms).values["combined"]


def mu_constant(k_terms: int = 1000) -> RigorousValue:
    """Enclosure of mu = (Theta*(1-beta)+alpha) - theta, the part of the
    eta average contributed by unboundedly large primes."""
    return _evaluation(k_terms).values["mu"]


# ---------------------------------------------------------------------------
# Decimal rendering with outward semantics
# ---------------------------------------------------------------------------

def format_fixed(q: Fraction, places: int, rnd=round, plus: bool = False) -> str:
    """q with `places` digits after the point, like Python's f format but
    exact: `rnd` maps q * 10^places to an integer (round: to nearest, ties to
    even; floor: down; ceil: up). The sign is q's own, so a negative q that
    rounds to 0 keeps its '-'; `plus` spells a '+' for q >= 0."""
    t = rnd(q * 10**places)
    ip, rem = divmod(abs(t), 10**places)
    sign = "-" if q < 0 else "+" if plus else ""
    return f"{sign}{ip}.{rem:0{places}d}"


def format_sci(q: Fraction, places: int, rnd=round) -> str:
    """q with places + 1 significant digits, spelled d.ddde+XX like Python's
    e format but exact: `rnd` maps |q| / 10^(e - places) to an integer."""
    if q == 0:
        return f"0.{'0' * places}e+00"
    a = abs(q)
    # 10^e <= a < 10^(e + 1); the bit lengths put log2(a) within 1 of their
    # difference, and the operands may be too long for str()
    e = floor((a.numerator.bit_length() - a.denominator.bit_length()) * log(2) / log(10))
    while a < Fraction(10) ** e:
        e -= 1
    while a >= Fraction(10) ** (e + 1):
        e += 1
    m = rnd(a / Fraction(10) ** (e - places))  # 10^places <= m <= 10^(places + 1)
    if m == 10 ** (places + 1):
        m, e = m // 10, e + 1
    ip, rem = divmod(m, 10**places)
    return f"{'-' if q < 0 else ''}{ip}.{rem:0{places}d}e{e:+03d}"


def _exact_decimal(x: Fraction) -> str:
    den = x.denominator
    tmp = den
    for f in (2, 5):
        while tmp % f == 0:
            tmp //= f
    if tmp != 1:
        return f"{x.numerator}/{x.denominator}"
    sign = "-" if x < 0 else ""
    a = abs(x)
    ip = a.numerator // a.denominator
    frac = a - ip
    digs = []
    while frac:
        frac *= 10
        d = frac.numerator // frac.denominator
        digs.append(str(d))
        frac -= d
    return f"{sign}{ip}" + ("." + "".join(digs) if digs else "")


def render_decimal(value: RigorousValue, digits: int) -> str:
    """Decimal rendering of an enclosure with `digits` places after the point.

    If every point of [lo, hi] shares the same first `digits` decimals, the
    shared truncation is printed (a correct prefix of the limit's decimal
    expansion). Otherwise an ASCII 'mid +/- w' form is printed whose
    interval contains [lo, hi]. A degenerate interval prints exactly.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if value.lo == value.hi:
        return _exact_decimal(value.lo)
    scale = 10**digits
    t_lo = floor(value.lo * scale)
    t_hi = floor(value.hi * scale)
    if t_lo == t_hi:
        return format_fixed(value.lo, digits, floor)
    # half-width padded by one ulp of the printed (truncated) midpoint
    pad = value.width / 2 + Fraction(1, scale)
    return f"{format_fixed(value.midpoint, digits, floor)} +/- {format_sci(pad, 2, ceil)}"


# ---------------------------------------------------------------------------
# Shared density predictions (same prime products as the series above)
# ---------------------------------------------------------------------------

def sign_probability(p: int, sign: int) -> Fraction:
    """Limit proportion of fundamental discriminants D with chi_D(p) = sign:
    p/(2p+2) for sign = +-1, 1/(p+1) for sign = 0."""
    if sign in (1, -1):
        return Fraction(p, 2 * p + 2)
    if sign == 0:
        return Fraction(1, p + 1)
    raise ValueError(f"sign must be -1, 0 or +1, got {sign}")


def pair_sign_probability(p: int, sign: int) -> Fraction:
    """Limit proportion of ordered pairs (D1, D2) whose coefficient sign at
    p equals `sign`: p(p+2)/(2(p+1)^2) for +-1, 1/(p+1)^2 for 0."""
    if sign in (1, -1):
        return Fraction(p * (p + 2), 2 * (p + 1) ** 2)
    if sign == 0:
        return Fraction(1, (p + 1) ** 2)
    raise ValueError(f"sign must be -1, 0 or +1, got {sign}")


def least_negative_densities(k_max: int) -> list[Fraction]:
    """Limit proportions of fundamental discriminants with n(D) = p_k, for
    k = 1..k_max: p_k/(2(p_k+1)) * prod_{j<k} (p_j+2)/(2(p_j+1)), from one
    running product."""
    if k_max < 1:
        raise ValueError("k must be >= 1")
    out = []
    prod = Fraction(1)
    for p in default_primes(k_max):
        out.append(Fraction(p, 2 * (p + 1)) * prod)
        prod *= _ratio(_factor_shared(p))
    return out


def least_negative_density(k: int) -> Fraction:
    """Limit proportion of fundamental discriminants with n(D) = p_k."""
    return least_negative_densities(k)[-1]
