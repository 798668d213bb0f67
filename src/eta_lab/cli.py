"""Command-line front end.

    eta-lab constants [--K 1000] [--digits 12]
    eta-lab eta D1 D2 [--cap 100000]
    eta-lab sigma D1 D2 K N
    eta-lab qexp D1 D2 K --terms M
    eta-lab scan --x X [--K 1000] [--digits 12] [--workers W]
    eta-lab densities --x X [--lemma 2,3,5,7] [--pollack KMAX] [--lt 2:-1,3:+1] [--digits 12]
    eta-lab audit --x X
    eta-lab verify

Only `constants`, `scan` and `densities` print decimals, and only they take
--digits. Every command runs in one process; `scan` accepts --workers and
ignores it. `verify` compares against the packaged golden file alone and
never writes it. Exit codes: 0 success, 1 usage, invalid input
or an --output that cannot be written (every bound, the --output path and
every --lemma, --pollack and --lt selection are checked before any work),
2 a failed `verify` criterion or an `eta` scan that exhausts its --cap.
Only `eta` takes --cap: over a table every eta is at most n(D2). All
outputs flow through one serialization layer; --no-timestamp makes every
command but `verify` byte-deterministic. `verify` reports elapsed times: the
details of criteria 1 and 4 print theirs, and its CSV and JSON carry each
criterion's seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .constants import SERIES_NAMES, combined_constant, mu_constant, rigorous_constant
from .newform import (
    DEFAULT_ETA_CAP,
    NewformPair,
    eta_sign_trace,
    q_expansion,
    sigma_coefficient,
)
from .reports import build_envelope, serialize

# The commands that build a discriminant table (scan, densities, audit,
# verify) import `experiments` and `verify`, and with them numpy, inside
# their handlers; the others start without numpy.

MAX_X = 10**8
# The exact series pass still grows about quadratically in K, through the
# gcd that reduces each result once: 0.03, 0.1, 0.3, 1.3 and 1.9 s at
# K = 1000, 2000, 4000, 8000 and 10000 (fresh interpreter, 2-vCPU x86-64
# host, Python 3.11).
MAX_K = 10_000
# The tail bounds need p_K >= 25 (Nagura's prime gaps), and p_10 = 29 is the
# first such prime.
MIN_K = 10
# |D1|, |D2| and the index n of `sigma` are trial-divided up to their square
# root (the squarefree check, the divisor sum): at most 10^6 divisions per
# value, under 0.4 s on a 2-vCPU x86-64 host.
MAX_ABS = 10**12
MAX_TERMS = 1000
# A weight-k coefficient a_n has at most a few bits more than
# (k - 1) * log2(n). Bounding (k - 1) * bit_length(n) keeps every `sigma` and
# `qexp` value below 4300 decimal digits, the default int-to-str limit of
# Python 3.11, so each one prints in every format.
MAX_BITS = 14_000
# `qexp` with D1 = 1 evaluates L(1 - k, chi_{D2}): |D2| Bernoulli-polynomial
# steps of degree k, after the O(k^2) Bernoulli numbers. At the edges of these
# bounds (|D2| * k = 30000 for k = 1..200) it takes at most 1.0 s on a 2-vCPU
# x86-64 host, Python 3.11; `qexp 1 -40003 3` took 2.3 s there.
MAX_L_WEIGHT = 200
MAX_L_WORK = 30_000
# `densities --pollack KMAX` renders KMAX rows of exact rationals of O(KMAX)
# digits: 0.97 s for `--pollack 2500 --format json` on the same host.
MAX_POLLACK = 2500
# Each distinct prime of `densities --lemma` and `--lt` keeps a full-length
# int8 chi column, 0.61 bytes per unit of x. The costliest 16-prime selection
# measured (primes just below the table length, 8 with --lemma and 8 with
# --lt, and --pollack 4) peaked at 218.5 MB at 1e7, 588.5 MB at 3e7 and
# 1.88 GB at 1e8 (os.wait4, 2-vCPU x86-64 host), within _BYTES_PER_X.
MAX_DENSITY_PRIMES = 16
# Places after the point of every printed decimal. The enclosures at the
# default K = 1000 are 1e-304 to 1e-296 wide, so 300 places resolve them.
# Every text and CSV decimal is rendered from its exact rational, so every
# printed place is right at any count (`constants --digits 300` takes 0.06 s
# in process).
MAX_DIGITS = 300


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(args, config: dict, payload) -> None:
    env = build_envelope(args.command, config, payload, args.no_timestamp)
    text = serialize(env, args.format, getattr(args, "digits", 12))
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except OSError as exc:  # a path that _check_output passed can still fail
        raise ValueError(f"--output {args.output}: {exc.strerror or exc}") from exc


def _add_digits(p: _Parser) -> None:
    p.add_argument("--digits", type=int, default=12,
                   help=f"decimal places, 1 to {MAX_DIGITS} (default 12)")


def _add_common(p: _Parser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-deterministic output")


# Peak RSS, measured with os.wait4 in a fresh interpreter (tools/peak_rss.py)
# on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4), in MB (10^6 bytes). The costliest
# `densities` selection (see MAX_DENSITY_PRIMES) is the worst command: it
# grows by 18.7, 18.6 and 18.5 bytes per unit of x at 1e7, 3e7 and 1e8 over
# the 31.9 MB of `scan --x 1`, and peaks at 1.88 GB at 1e8, 18.8 bytes per
# unit; `scan --x 1e8` peaks at 0.87 GB. The estimate is 33% above the worst
# of these. Below 21.5 it would accept 1e8 with 2 GiB available.
_BYTES_PER_X = 25


# What _mem_available reads: MemAvailable, then the (limit, usage) files of
# the cgroup v2 and v1 memory controllers.
_MEMORY_FILES = (
    "/proc/meminfo",
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes", "/sys/fs/cgroup/memory/memory.usage_in_bytes"),
)
# cgroup v1 writes "no limit" as the largest page-aligned int64, about 2^63
_NO_LIMIT = 2**62


def _mem_available() -> int | None:
    """The bytes this process can still take, or None if nothing is readable:
    MemAvailable, or less where a cgroup's limit minus its usage leaves less.
    A limit of "max" (v2) or of _NO_LIMIT and more (v1) is no limit. A
    container's limit can sit below the host's MemAvailable, and an x above
    it would be killed out of memory instead of refused."""
    meminfo, *cgroups = _MEMORY_FILES
    found = []
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    found.append(int(line.split()[1]) * 1024)
                    break
    except (OSError, ValueError, IndexError):
        pass
    for limit_path, usage_path in cgroups:
        try:
            with open(limit_path) as fh:
                limit = fh.read().strip()
            if limit == "max" or int(limit) >= _NO_LIMIT:
                continue
            with open(usage_path) as fh:
                found.append(max(0, int(limit) - int(fh.read())))
        except (OSError, ValueError):
            continue
    return min(found) if found else None


def _check_x(x: int) -> int:
    if x < 1:
        raise ValueError("--x must be >= 1")
    if x > MAX_X:
        raise ValueError(
            f"--x {x} exceeds {MAX_X}, the largest table bound accepted"
        )
    available = _mem_available()
    if available is not None and x * _BYTES_PER_X > available:
        raise ValueError(
            f"--x {x} needs about {x * _BYTES_PER_X / 2**30:.1f} GiB, but only "
            f"{available / 2**30:.1f} GiB of memory is available"
        )
    return x


def _check_k(k: int) -> int:
    if k < MIN_K:
        raise ValueError(f"--K {k} is below {MIN_K}: the tail bounds need p_K >= 25")
    if k > MAX_K:
        raise ValueError(
            f"--K {k} exceeds {MAX_K}: the exact series pass grows quadratically "
            "in K; raise the limit in source"
        )
    return k


def _check_pair(d1: int, d2: int) -> NewformPair:
    for d in (d1, d2):
        if abs(d) > MAX_ABS:
            raise ValueError(
                f"|D| = {abs(d)} exceeds {MAX_ABS}: the fundamental-discriminant "
                "check trial-divides up to sqrt(|D|)"
            )
    return NewformPair(d1, d2)


def _check_bits(k: int, n: int) -> None:
    bits = (k - 1) * n.bit_length()
    if bits > MAX_BITS:
        raise ValueError(
            f"(k - 1) * bit_length(n) = {bits} exceeds {MAX_BITS}: a weight-{k} "
            f"coefficient at n = {n} would not print within 4300 decimal digits"
        )


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"--digits {digits} is outside 1..{MAX_DIGITS}")


def _check_output(path: str | None) -> None:
    """Refuse an --output that cannot be written, before any work."""
    if path in (None, "-"):
        return
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"--output {path} is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"--output {path}: {target.parent} is not a directory")


def _check_l_value(d2: int, k: int) -> None:
    if k > MAX_L_WEIGHT:
        raise ValueError(
            f"k = {k} exceeds {MAX_L_WEIGHT} with D1 = 1: the constant term "
            "L(1 - k, chi_D2) needs the Bernoulli numbers up to B_k"
        )
    if abs(d2) * k > MAX_L_WORK:
        raise ValueError(
            f"|D2| * k = {abs(d2) * k} exceeds {MAX_L_WORK} with D1 = 1: the constant "
            "term L(1 - k, chi_D2) takes |D2| Bernoulli-polynomial steps of degree k"
        )


_ONE_PROCESS = "accepted and ignored: every command runs in one process"


def build_parser() -> _Parser:
    top = _Parser(prog="eta-lab", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"eta-lab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[], help="rigorous limit constants")
    p.add_argument("--K", type=int, default=1000, dest="k_terms",
                   help="series truncation index (default 1000)")
    _add_digits(p)
    _add_common(p)

    p = sub.add_parser("eta", help="first negative-coefficient prime of one pair")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_ETA_CAP)
    _add_common(p)

    p = sub.add_parser("sigma", help="one twisted divisor-sum coefficient")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    _add_common(p)

    p = sub.add_parser("qexp", help="q-expansion: constant term and a_1..a_M")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--terms", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("scan", help="average eta over all pairs |D1*D2| <= x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, help=_ONE_PROCESS)
    p.add_argument("--K", type=int, default=1000, dest="k_terms")
    _add_digits(p)
    _add_common(p)

    p = sub.add_parser("densities", help="observed vs predicted densities")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lemma", default=None, metavar="P1,P2,...",
                   help="per-prime sign densities at these primes")
    p.add_argument("--pollack", type=int, default=None, metavar="KMAX",
                   help="n(D) = p_k densities for k = 1..KMAX")
    p.add_argument("--lt", default=None, metavar="P:S,...",
                   help="pair sign pattern, e.g. 2:-1,3:+1 or 2:0")
    _add_digits(p)
    _add_common(p)

    p = sub.add_parser("audit", help="exact decomposition audit of sum eta")
    p.add_argument("--x", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    _add_common(p)
    return top


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    k = _check_k(args.k_terms)
    values = [rigorous_constant(name, k) for name in SERIES_NAMES]
    values += [combined_constant(k), mu_constant(k)]
    _emit(args, {"K": k, "digits": args.digits}, values)
    return 0


def _cmd_eta(args) -> int:
    pair = _check_pair(args.d1, args.d2)
    res, trace = eta_sign_trace(pair, args.cap)
    payload = {"d1": args.d1, "d2": args.d2, "cap": args.cap, "result": res, "trace": trace}
    _emit(args, {"d1": args.d1, "d2": args.d2, "cap": args.cap}, payload)
    return 2 if res.status == "cap_exceeded" else 0


def _cmd_sigma(args) -> int:
    if args.n > MAX_ABS:
        raise ValueError(
            f"n {args.n} exceeds {MAX_ABS}: the divisor sum trial-divides up to sqrt(n)"
        )
    _check_bits(args.k, args.n)
    pair = _check_pair(args.d1, args.d2)
    value = sigma_coefficient(pair, args.k, args.n)
    config = {"d1": args.d1, "d2": args.d2, "k": args.k, "n": args.n}
    _emit(args, config, {**config, "value": value})
    return 0


def _cmd_qexp(args) -> int:
    if args.terms > MAX_TERMS:
        raise ValueError(f"--terms {args.terms} exceeds {MAX_TERMS}")
    _check_bits(args.k, args.terms)
    if args.d1 == 1:
        _check_l_value(args.d2, args.k)
    pair = _check_pair(args.d1, args.d2)
    expansion = q_expansion(pair, args.k, args.terms)
    payload = {"d1": args.d1, "d2": args.d2, "expansion": expansion}
    _emit(args, {"d1": args.d1, "d2": args.d2, "k": args.k, "terms": args.terms}, payload)
    return 0


def _cmd_scan(args) -> int:
    from .experiments import scan_pairs

    x = _check_x(args.x)
    k = _check_k(args.k_terms)
    report = scan_pairs(x, workers=args.workers, k_terms=k)
    # the ignored worker count is left out of the echo, so the bytes are the
    # same for any --workers
    config = {"x": x, "K": k}
    _emit(args, config, report)
    return 0


def _terms(flag: str, text: str, parse):
    """Yield parse of each comma-separated term of a flag's value; ValueError
    names the flag and the first term that parse refuses."""
    for term in text.split(","):
        try:
            yield parse(term)
        except ValueError:
            raise ValueError(f"{flag} {text}: malformed term {term!r}") from None


def _cmd_densities(args) -> int:
    from .experiments import (
        build_context,
        check_pattern,
        check_primes,
        density_lemma,
        density_lt,
        density_pollack,
    )

    x = _check_x(args.x)
    if args.lemma is None and args.pollack is None and args.lt is None:
        raise ValueError("densities needs at least one of --lemma, --pollack, --lt")
    primes = () if args.lemma is None else check_primes(_terms("--lemma", args.lemma, int), "--lemma")
    if args.pollack is not None and args.pollack < 1:
        raise ValueError(f"--pollack {args.pollack} is below 1")
    if args.pollack is not None and args.pollack > MAX_POLLACK:
        raise ValueError(
            f"--pollack {args.pollack} exceeds {MAX_POLLACK}: each row carries exact "
            "rationals of O(KMAX) digits"
        )
    pattern = None if args.lt is None else check_pattern(
        _terms("--lt", args.lt, lambda t: tuple(map(int, t.partition(":")[::2])))
    )
    distinct = len(set(primes).union(p for p, _ in pattern or ()))
    if distinct > MAX_DENSITY_PRIMES:
        raise ValueError(
            f"--lemma and --lt name {distinct} distinct primes, more than "
            f"{MAX_DENSITY_PRIMES}: each keeps a chi column of one byte per discriminant"
        )
    ctx = build_context(x)
    reports = [density_lemma(x, p, ctx) for p in primes]
    config: dict = {"x": x}
    if args.lemma is not None:
        config["lemma"] = args.lemma
    if args.pollack is not None:
        reports.append(density_pollack(x, args.pollack, ctx))
        config["pollack"] = args.pollack
    if pattern is not None:
        reports.append(density_lt(x, pattern, ctx))
        config["lt"] = args.lt
    _emit(args, config, reports)
    return 0


def _cmd_audit(args) -> int:
    from .experiments import decomposition_audit

    x = _check_x(args.x)
    report = decomposition_audit(x)
    _emit(args, {"x": x}, report)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_criteria

    results = run_criteria()
    criteria = [
        {"id": r.cid, "name": r.name, "status": r.status, "seconds": r.seconds, "detail": r.detail}
        for r in results
    ]
    _emit(args, {}, criteria)
    return 0 if all(r.status != "fail" for r in results) else 2


_HANDLERS = {
    "constants": _cmd_constants,
    "eta": _cmd_eta,
    "sigma": _cmd_sigma,
    "qexp": _cmd_qexp,
    "scan": _cmd_scan,
    "densities": _cmd_densities,
    "audit": _cmd_audit,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "digits" in args:
            _check_digits(args.digits)
        _check_output(args.output)
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"eta-lab: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
