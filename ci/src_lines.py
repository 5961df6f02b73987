#!/usr/bin/env python3
"""Counts code lines under src/, per top-level module and in total.

A code line is a non-blank line that is not only a comment: `//` lines
and lines wholly inside a `/* ... */` block do not count. The counts are
printed as a table and written as JSON, so CI can keep the size of src/
next to the bench metrics.

Usage: python3 ci/src_lines.py [--root DIR] [--out FILE]
       (defaults: the repository root, SRC_LINES.json)
"""

import argparse
import json
import os
import sys

SOURCE_SUFFIXES = (".h", ".cpp")


def count_code_lines(text):
    """Non-blank lines carrying something besides comments."""
    count = 0
    in_block = False
    for line in text.split("\n"):
        rest = line.strip()
        code = False
        while rest:
            if in_block:
                end = rest.find("*/")
                if end == -1:
                    rest = ""
                else:
                    in_block = False
                    rest = rest[end + 2:].strip()
            elif rest.startswith("//"):
                rest = ""
            elif rest.startswith("/*"):
                in_block = True
                rest = rest[2:]
            else:
                code = True
                break
        count += code
    return count


def count_modules(root):
    """{module: lines} for every top-level directory under src/ (files
    directly in src/ count as module "src")."""
    src = os.path.join(root, "src")
    modules = {}
    for dirpath, _, names in os.walk(src):
        rel = os.path.relpath(dirpath, src)
        module = "src" if rel == "." else rel.split(os.sep)[0]
        for name in names:
            if not name.endswith(SOURCE_SUFFIXES):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8",
                      errors="replace") as f:
                lines = count_code_lines(f.read())
            modules[module] = modules.get(module, 0) + lines
    return dict(sorted(modules.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--out", default="SRC_LINES.json")
    args = parser.parse_args(argv)

    modules = count_modules(args.root)
    if not modules:
        print(f"src_lines: no sources under {args.root}/src",
              file=sys.stderr)
        return 2
    total = sum(modules.values())
    width = max(len(name) for name in modules)
    for name, lines in modules.items():
        print(f"{name:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {total:>6}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"total": total, "modules": modules}, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
