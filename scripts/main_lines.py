#!/usr/bin/env python3
"""Main-code size of the repository, per package, and its Spark and DuckDB imports.

    python3 scripts/main_lines.py [--root DIR] [--base REV]

Counts the Scala files under `src/main/scala` and `jobs/` of DIR (default: this
repository). For each package directory it prints the total line count (what
`wc -l` gives) and the code-only count, which leaves out blank lines, `//`
lines and lines inside `/* ... */` or `/** ... */` blocks. It then lists the
main files that import `org.apache.spark` or `org.duckdb`. Test code, `bench/`
and `perfbench/` are not main code and are not counted.

With `--base REV`, each package's total and code-only counts at the git
revision REV of DIR (read through `git archive`) are printed next to DIR's
own, with the difference.
"""

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile

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


def package_of(path):
    """The package of a main Scala file's repository-relative path, or None."""
    for d in MAIN_DIRS:
        prefix = d + os.sep
        if path.startswith(prefix) and path.endswith(".scala"):
            return "jobs" if d == "jobs" else os.path.dirname(path[len(prefix):]).replace(os.sep, ".")
    return None


def working_tree(root):
    """(relative path, lines) of every main Scala file under `root`."""
    for d in MAIN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for n in sorted(names):
                path = os.path.join(dirpath, n)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), fh.read().splitlines()


def revision(root, rev):
    """(relative path, lines) of every main Scala file at git revision `rev` of `root`."""
    archive = subprocess.run(["git", "-C", root, "archive", rev, "--"] + MAIN_DIRS,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                data = tar.extractfile(member).read().decode("utf-8")
                yield os.path.normpath(member.name), data.splitlines()


def count(files):
    """Per package (files, total, code), and the files importing each prefix."""
    per_pkg = {}
    importing = {prefix: [] for prefix in IMPORTS}
    for rel, lines in files:
        pkg = package_of(rel)
        if pkg is None:
            continue
        n, total, code = per_pkg.get(pkg, (0, 0, 0))
        per_pkg[pkg] = (n + 1, total + len(lines), code + code_lines(lines))
        for prefix in IMPORTS:
            if any(re.match(r"\s*import\s+" + re.escape(prefix) + r"\b", l) for l in lines):
                importing[prefix].append(rel)
    return per_pkg, importing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repository root to measure (default: this one)")
    ap.add_argument("--base", metavar="REV",
                    help="also count the git revision REV of the root, and print both")
    args = ap.parse_args()

    per_pkg, importing = count(working_tree(args.root))
    if not per_pkg:
        sys.exit(f"no Scala files under {', '.join(MAIN_DIRS)} of {args.root}")
    if args.base:
        base, _ = count(revision(args.root, args.base))
        pkgs = sorted(set(per_pkg) | set(base))
        width = max(len(p) for p in pkgs + ["all"])
        print(f"{'package':<{width}}  {'total':>6} {'':>6} {'':>6}  {'code':>6} {'':>6} {'':>6}")
        print(f"{'':<{width}}  {'base':>6} {'tree':>6} {'diff':>6}  {'base':>6} {'tree':>6} {'diff':>6}")
        rows = [(p, base.get(p, (0, 0, 0)), per_pkg.get(p, (0, 0, 0))) for p in pkgs]
        rows.append(("all", tuple(sum(b[i] for _, b, _ in rows) for i in range(3)),
                     tuple(sum(t[i] for _, _, t in rows) for i in range(3))))
        for pkg, b, t in rows:
            print(f"{pkg:<{width}}  {b[1]:>6} {t[1]:>6} {t[1] - b[1]:>+6}  {b[2]:>6} {t[2]:>6} {t[2] - b[2]:>+6}")
    else:
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
