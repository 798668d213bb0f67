"""Seeded operation sequences of the three workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished. The seed chooses the inputs; the
shape of each sequence (how many operations of each kind, and roughly how
large) is fixed, so that the cost of a sequence barely depends on the seed.
Only inputs the program accepts are generated: discriminants pass
`is_fundamental` and every (D1, D2, k) triple passes
`is_valid_newform_triple`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from eta_lab.arith import is_fundamental
from eta_lab.newform import NewformPair, is_valid_newform_triple

WORKLOADS = ("cli-small", "scan-1e6", "library-1e6")
X_LARGE = 1_000_000
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Op:
    """One operation: an `eta-lab` command (cli=True) or a library call.

    For a command, `args` are the arguments after the command name. For a
    library call, `name` is the function and `args` its arguments after x.
    """

    name: str
    args: tuple
    cli: bool

    def argv(self) -> list[str]:
        return [self.name, *self.args, "--format", "json", "--no-timestamp"]

    def describe(self) -> str:
        if self.cli:
            return " ".join(["eta-lab", self.name, *self.args])
        return f"{self.name}{self.args!r}"


def pattern_text(pattern: tuple[tuple[int, int], ...]) -> str:
    """The CLI's --lt spelling of a sign pattern, e.g. 2:+1,3:0."""
    return ",".join(f"{p}:{s:+d}" if s else f"{p}:0" for p, s in pattern)


def parse_pattern(text: str) -> tuple[tuple[int, int], ...]:
    return tuple((int(p), int(s)) for p, _, s in (t.partition(":") for t in text.split(",")))


def _grid(rng: random.Random, lo_exp: float, hi_exp: float, n: int) -> list[int]:
    """n values spread evenly in log10 over (10^lo_exp, 10^hi_exp], each
    lowered by a seeded jitter of at most 2.3%, so the sequence's total work
    is nearly seed-independent."""
    step = (hi_exp - lo_exp) / n
    return [round(10 ** (lo_exp + step * (i + 1) - 0.01 * rng.random())) for i in range(n)]


def _fundamental(rng: random.Random, bound: int, exclude_one: bool = False) -> int:
    while True:
        d = rng.randint(-bound, bound)
        if d != 0 and is_fundamental(d) and not (exclude_one and d == 1):
            return d


def _pair(rng: random.Random, bound: int) -> tuple[int, int]:
    d1 = _fundamental(rng, bound)
    return d1, _fundamental(rng, bound, exclude_one=True)


def _valid_weight(rng: random.Random, d1: int, d2: int, lo: int, hi: int) -> int:
    pair = NewformPair(d1, d2)
    return rng.choice([k for k in range(lo, hi + 1) if is_valid_newform_triple(pair, k)])


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1, 0))


def _cli_small(rng: random.Random, golden_lt: list[str]) -> list[Op]:
    ops = [Op("constants", (), True)]
    ops += [Op("scan", ("--x", str(x)), True) for x in _grid(rng, 3.0, 5.0, 6)]
    ops.append(Op("densities", ("--x", "100000", "--lt", rng.choice(golden_lt)), True))
    for x in _grid(rng, 4.0, 5.0, 2):
        lt = pattern_text(((rng.choice(SMALL_PRIMES), _sign(rng)),))
        ops.append(Op("densities", ("--x", str(x), "--lt", lt), True))
    ops += [Op("audit", ("--x", str(x)), True) for x in _grid(rng, 3.0, 4.477, 3)]
    for _ in range(3):
        d1, d2 = _pair(rng, 5000)
        ops.append(Op("eta", (str(d1), str(d2)), True))
    for _ in range(2):
        d1, d2 = _pair(rng, 2000)
        k = _valid_weight(rng, d1, d2, 1, 6)
        ops.append(Op("sigma", (str(d1), str(d2), str(k), str(rng.randint(1, 1000))), True))
    # the first q-expansion has D1 = 1, so its constant term L(1-k, chi)/2 is nonzero
    for d1, d2 in ((1, _fundamental(rng, 500, exclude_one=True)), _pair(rng, 500)):
        k = _valid_weight(rng, d1, d2, 2, 8)
        ops.append(Op("qexp", (str(d1), str(d2), str(k), "--terms", str(rng.randint(8, 16))), True))
    rng.shuffle(ops)
    return ops


def _scan_1e6(rng: random.Random) -> list[Op]:
    x = str(X_LARGE)
    lt = pattern_text(((rng.choice((5, 7)), _sign(rng)),))
    return [
        Op("scan", ("--x", x), True),
        Op("scan", ("--x", x, "--workers", "2"), True),
        Op("densities", ("--x", x, "--lemma", "2,3,5,7", "--pollack", "4", "--lt", lt), True),
    ]


def _library_1e6(rng: random.Random) -> list[Op]:
    x = X_LARGE
    ops = [Op("average_n1", (x,), False), Op("average_nd", (x,), False)]
    ops += [Op("density_lemma", (x, p), False) for p in sorted(rng.sample(SMALL_PRIMES, 4))]
    ops.append(Op("density_pollack", (x, rng.randint(4, len(SMALL_PRIMES))), False))
    # one pattern per prime keeps the sign-pattern cost independent of the seed
    ops += [Op("density_lt", (x, ((p, _sign(rng)),)), False) for p in (3, 5, 7)]
    ops += [Op("scan_pairs", (x,), False), Op("pair_count_check", (x,), False)]
    # render this sequence's scan report in each format, as a session saving its results
    ops += [Op("serialize", (fmt,), False) for fmt in ("text", "csv", "json")]
    return ops


def generate(workload: str, seed: int, golden: dict) -> list[Op]:
    """The workload's operation sequence for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-small":
        golden_lt = sorted(k.split(":", 1)[1] for k in golden if k.startswith("lt_x100000:"))
        return _cli_small(rng, golden_lt)
    if workload == "scan-1e6":
        return _scan_1e6(rng)
    if workload == "library-1e6":
        return _library_1e6(rng)
    raise ValueError(f"unknown workload {workload!r}")
