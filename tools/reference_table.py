"""Rewrite the packaged table of the reference enclosures.

    python tools/reference_table.py

Imports `eta_lab` from the `src` directory beside this script, runs the
exact pass at K = REFERENCE_K and writes its encoding over
eta_lab/reference_enclosures.txt, the table `eta_lab.constants` serves at
that K. The table is written from the exact pass and nothing else; the
tests fail until the file is the encoding of a fresh pass.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")))

from eta_lab import constants  # noqa: E402


def main() -> int:
    data = constants._encode(constants._exact_pass(constants.REFERENCE_K))
    with open(constants.REFERENCE_TABLE, "wb") as f:
        f.write(data)
    print(f"{constants.REFERENCE_TABLE}: {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
