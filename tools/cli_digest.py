"""Digest of the CLI's output over a fixed set of commands.

    python tools/cli_digest.py SRC

Imports `eta_lab` from SRC, the `src` directory of a checkout, and runs every
command of `commands()` in process through `eta_lab.cli.main`, with
--no-timestamp. It prints one SHA-256 of (argv, exit code, stdout) per group
and one over all groups. Two checkouts that print the same digests print the
same bytes and exit codes for every command in the set; run it on both sides
of a change that must not alter the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

FORMATS = ("text", "csv", "json")
DENSITIES = ["densities", "--lemma", "2,3,7,3001", "--pollack", "5", "--lt", "2:+1,3:-1,2999:0"]
SINGLE = [
    ["constants"],
    ["constants", "--K", "10"],
    ["constants", "--K", "6000"],
    ["eta", "5", "-3"],
    ["eta", "5", "1"],
    ["eta", "-4", "5", "--cap", "2"],
    ["sigma", "1", "-4", "3", "3"],
    ["qexp", "1", "-4", "3", "--terms", "8"],
    ["qexp", "5", "-3", "4", "--terms", "12"],
    # the L-value constant term at both ends of MAX_L_WORK and MAX_L_WEIGHT
    ["qexp", "1", "-29999", "1", "--terms", "2"],
    ["qexp", "1", "149", "200", "--terms", "2"],
]


def _table(x: int, fmt: str, audit: bool = True, extra: tuple[str, ...] = ()) -> list[list[str]]:
    tail = ["--x", str(x), "--format", fmt, *extra]
    cmds = [["scan", *tail], [*DENSITIES, *tail]]
    if audit:
        cmds.append(["audit", *tail])
    return cmds


def commands() -> dict[str, list[list[str]]]:
    """The command set by group, each argv without --no-timestamp."""
    return {
        "tables-1..3000": [
            argv for x in range(1, 3001) for fmt in FORMATS for argv in _table(x, fmt)
        ],
        "tables-1e4..1e7": [
            argv
            for x in (10**4, 10**5, 10**6)
            for fmt in FORMATS
            for argv in _table(x, fmt, audit=x <= 10**5)
        ]
        + _table(10**7, "json", audit=False),
        # every command that takes --digits, at both ends of its range
        "digits": [
            argv
            for d in ("1", "300")
            for fmt in FORMATS
            for argv in [
                *_table(10**4, fmt, audit=False, extra=("--digits", d)),
                ["constants", "--digits", d, "--format", fmt],
            ]
        ],
        "single": [[*argv, "--format", fmt] for argv in SINGLE for fmt in FORMATS],
    }


def _run(cli_main, argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main([*argv, "--no-timestamp"])
        except SystemExit as exc:
            code = exc.code
    return f"{argv!r}\0{code!r}\0".encode() + out.getvalue().encode() + b"\0"


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/cli_digest.py SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, sys.argv[1])
    from eta_lab.cli import main as cli_main

    overall = hashlib.sha256()
    for group, cmds in commands().items():
        h = hashlib.sha256()
        for argv in cmds:
            h.update(_run(cli_main, argv))
        overall.update(h.digest())
        print(f"{group:16s} {len(cmds):6d} commands  {h.hexdigest()}", flush=True)
    print(f"{'overall':16s} {'':15s} {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
