#!/usr/bin/env python3
"""Main-code size of the repository, per package, and its Spark and DuckDB imports.

    python3 scripts/main_lines.py [--root DIR]

Counts the Scala files under `src/main/scala` and `jobs/` of DIR (default: this
repository). For each package directory it prints the total line count (what
`wc -l` gives) and the code-only count, which leaves out blank lines, `//`
lines and lines inside `/* ... */` or `/** ... */` blocks. It then lists the
main files that import `org.apache.spark` or `org.duckdb`. Test code, `bench/`
and `perfbench/` are not main code and are not counted.
"""

import argparse
import os
import re
import sys

MAIN_DIRS = [os.path.join("src", "main", "scala"), "jobs"]
IMPORTS = ["org.apache.spark", "org.duckdb"]


def code_lines(lines):
    """Lines that are neither blank nor comment."""
    count = 0
    in_block = False
    for line in lines:
        s = line.strip()
        if in_block:
            if "*/" in s:
                in_block = False
                s = s.split("*/", 1)[1].strip()
            else:
                continue
        if not s or s.startswith("//"):
            continue
        if s.startswith("/*"):
            rest = s[2:]
            if "*/" in rest:
                s = rest.split("*/", 1)[1].strip()
                if not s or s.startswith("//"):
                    continue
            else:
                in_block = True
                continue
        count += 1
    return count


def scala_files(root):
    for d in MAIN_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for n in sorted(names):
                if n.endswith(".scala"):
                    path = os.path.join(dirpath, n)
                    yield d, os.path.relpath(path, root), os.path.relpath(dirpath, base)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repository root to measure (default: this one)")
    args = ap.parse_args()

    per_pkg = {}
    importing = {prefix: [] for prefix in IMPORTS}
    for main_dir, rel, pkg_dir in scala_files(args.root):
        with open(os.path.join(args.root, rel), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        pkg = main_dir if main_dir == "jobs" else pkg_dir.replace(os.sep, ".")
        files, total, code = per_pkg.get(pkg, (0, 0, 0))
        per_pkg[pkg] = (files + 1, total + len(lines), code + code_lines(lines))
        for prefix in IMPORTS:
            if any(re.match(r"\s*import\s+" + re.escape(prefix) + r"\b", l) for l in lines):
                importing[prefix].append(rel)

    if not per_pkg:
        sys.exit(f"no Scala files under {', '.join(MAIN_DIRS)} of {args.root}")
    width = max(len(p) for p in per_pkg)
    print(f"{'package':<{width}}  {'files':>5}  {'total':>6}  {'code':>6}")
    for pkg in sorted(per_pkg):
        files, total, code = per_pkg[pkg]
        print(f"{pkg:<{width}}  {files:>5}  {total:>6}  {code:>6}")
    sums = [sum(v[i] for v in per_pkg.values()) for i in range(3)]
    print(f"{'all':<{width}}  {sums[0]:>5}  {sums[1]:>6}  {sums[2]:>6}")
    for prefix in IMPORTS:
        found = importing[prefix]
        print(f"\nfiles importing {prefix}: {len(found)}")
        for rel in found:
            print(f"  {rel}")


if __name__ == "__main__":
    main()
