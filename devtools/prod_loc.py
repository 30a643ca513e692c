#!/usr/bin/env python3
"""Count production Rust lines in the workspace crates.

A production line is a non-blank line that is not a `//` comment, in a
`.rs` file under `src/` or `crates/*/src/`, outside any `#[cfg(test)]`
item. `tests/` and `benches/` directories are not counted, nor is the
separately built `perfbench/` package.

Usage: python3 devtools/prod_loc.py [REPO_ROOT]   (default: current dir)
Prints one `<lines> <path>` row per file and the total last.
"""

import pathlib
import sys


def production_lines(text: str) -> int:
    count = 0
    depth = 0          # brace depth inside a skipped #[cfg(test)] item
    skipping = False
    pending = False    # saw #[cfg(test)], waiting for the item's `{`
    for raw in text.splitlines():
        line = raw.strip()
        if not skipping and not pending and line.startswith("#[cfg(test)]"):
            pending = True
            continue
        if pending or skipping:
            # Braces inside strings/comments are rare enough in test
            # modules to ignore; the item ends when its braces balance.
            opens, closes = line.count("{"), line.count("}")
            if pending and opens == 0:
                if line.endswith(";"):
                    pending = False  # a one-line item such as `use`
                continue
            pending = False
            skipping = True
            depth += opens - closes
            if depth <= 0:
                skipping = False
                depth = 0
            continue
        if line and not line.startswith("//"):
            count += 1
    return count


def main() -> None:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("src/**/*.rs")) + sorted(root.glob("crates/*/src/**/*.rs"))
    total = 0
    for f in files:
        n = production_lines(f.read_text())
        total += n
        print(f"{n:6} {f.relative_to(root)}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main()
