#!/usr/bin/env python3
"""Count the library code of each workspace crate.

Usage: scripts/loc.py [ROOT]

Prints, per crate and in total, the non-blank lines of
`crates/*/src/**/*.rs` under ROOT (default: the repository holding this
script) that do not start with `//`, counting each file only up to its
first `#[cfg(test)]` line. Comments, doc comments and unit tests are
left out, so the figure tracks the code a change adds or deletes.
"""

import sys
from pathlib import Path


def count_file(path):
    lines = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if text.startswith("#[cfg(test)]"):
                break
            if text and not text.startswith("//"):
                lines += 1
    return lines


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    crates = sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir())
    total = 0
    for crate in crates:
        lines = sum(count_file(f) for f in sorted((crate / "src").rglob("*.rs")))
        total += lines
        print(f"{crate.name:<10} {lines:>6}")
    print(f"{'total':<10} {total:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
