"""Fresh-interpreter child of the benchmark.

    python perfbench/child.py cli <eta-lab arguments...>   one CLI command
    python perfbench/child.py import                       set-up probe: import eta_lab.cli
    python perfbench/child.py context X                    set-up probe: import + build_context(X)

The first stderr line names the eta_lab package the child imported, so the
parent can refuse a run that did not exercise the checked-out tree.
"""

import sys

ORIGIN_PREFIX = "perfbench-origin "


def main(argv: list[str]) -> int:
    import eta_lab

    print(ORIGIN_PREFIX + eta_lab.__file__, file=sys.stderr, flush=True)
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from eta_lab.cli import main as cli_main

        return cli_main(rest)
    if mode == "import":
        import eta_lab.cli  # noqa: F401

        return 0
    if mode == "context":
        from eta_lab.experiments import build_context

        build_context(int(rest[0]))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
