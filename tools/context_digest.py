"""Digest of the sign tables behind every table engine, over a fixed set of x.

    python tools/context_digest.py SRC

Imports `eta_lab` from SRC, the `src` directory of a checkout, and prints one
SHA-256 per group and one over all groups:

  contexts-*   nvals, qmask, cache_primes and each chi column of a fresh
               build_context(x), at x = 1..3000 and 1e4..1e7;
  n1-*         the (total, count) of n_1(p) that average_n1(x) sums, at
               x = 3..3000 and 1e6.

Two checkouts that print the same digests derive the same n(D), qmask and
chi columns at every x in the set, which tools/cli_digest.py sees only
through the reports. Run it on both sides of a change to the sign pass or
the chi columns.
"""

from __future__ import annotations

import hashlib
import sys

GROUPS = {
    "contexts-1..3000": ("context", range(1, 3001)),
    "contexts-1e4..1e7": ("context", (10**4, 10**5, 10**6, 10**7)),
    "n1-3..3000": ("n1", range(3, 3001)),
    "n1-1e6": ("n1", (10**6,)),
}


def context_parts(x: int) -> list[bytes]:
    from eta_lab.experiments import build_context

    ctx = build_context(x)
    parts = [ctx.nvals.tobytes(), ctx.qmask.tobytes(), repr(ctx.cache_primes).encode()]
    for p, chi in ctx.chi.items():
        parts += [str(p).encode(), chi.tobytes()]
    return parts


def n1_parts(x: int) -> list[bytes]:
    from eta_lab.experiments import average_n1

    report = average_n1(x)
    return [f"{report.total},{report.count}".encode()]


def digest(kind: str, xs) -> str:
    """SHA-256 over every x of the parts of one kind, each part length-prefixed."""
    parts = {"context": context_parts, "n1": n1_parts}[kind]
    h = hashlib.sha256()
    for x in xs:
        h.update(f"x={x}\0".encode())
        for part in parts(x):
            h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/context_digest.py SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, sys.argv[1])
    overall = hashlib.sha256()
    for group, (kind, xs) in GROUPS.items():
        value = digest(kind, xs)
        overall.update(bytes.fromhex(value))
        print(f"{group:18s} {len(xs):5d} x  {value}", flush=True)
    print(f"{'overall':18s} {'':7s}  {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
