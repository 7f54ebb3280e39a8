#!/usr/bin/env python3
"""Per-suite test time from ScalaTest's duration output.

    sbt "testOnly * -- -oD" > run1.log
    python3 scripts/suite_times.py run1.log [run2.log ...] [--slowest 10] [--suite NAME]

With `-oD` ScalaTest prints every test's duration, e.g.
`[info] - test name (1 second, 234 milliseconds)`, below its suite's header
`[info] SuiteName:`. For each log this script sums the durations per suite and
prints the suites, slowest first, with the log's "Run completed" time; with
several logs it adds, per suite, the median and range over the logs. It then
lists the slowest tests of the first log. `--suite` keeps one suite's rows.
ScalaCheck property suites print no durations and are not counted.
"""

import argparse
import re
import statistics
import sys

HEADER = re.compile(r"^\[info\] (\w+):$")
TEST = re.compile(r"^\[info\] - (.*) \(((?:\d+ (?:minutes?|seconds?|milliseconds?)(?:, )?)+)\)$")
COMPLETED = re.compile(r"Run completed in ((?:\d+ (?:minutes?|seconds?|milliseconds?)(?:, )?)+)\.")
UNIT_S = {"minute": 60.0, "second": 1.0, "millisecond": 0.001}


def seconds(text):
    """'1 minute, 2 seconds, 5 milliseconds' to 62.005."""
    total = 0.0
    for amount, unit in re.findall(r"(\d+) (minute|second|millisecond)s?", text):
        total += int(amount) * UNIT_S[unit]
    return total


def parse(path):
    """(per-suite seconds, [(seconds, suite, test)], run-completed seconds or None)."""
    suites, tests, completed, suite = {}, [], None, None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            m = HEADER.match(line)
            if m:
                suite = m.group(1)
                suites.setdefault(suite, 0.0)
                continue
            m = TEST.match(line)
            if m and suite is not None:
                t = seconds(m.group(2))
                suites[suite] += t
                tests.append((t, suite, m.group(1)))
                continue
            m = COMPLETED.search(line)
            if m:
                completed = seconds(m.group(1))
    return suites, tests, completed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("logs", nargs="+", help="sbt output of `testOnly ... -- -oD`")
    ap.add_argument("--slowest", type=int, default=10, help="slowest tests to list (first log)")
    ap.add_argument("--suite", help="only this suite")
    args = ap.parse_args()
    runs = [parse(p) for p in args.logs]
    names = sorted({s for r in runs for s in r[0] if not args.suite or s == args.suite},
                   key=lambda s: -statistics.median(r[0].get(s, 0.0) for r in runs))
    if not names:
        sys.exit("no suite with test durations found; was the run given `-- -oD`?")
    head = f"{'suite':<28}" + "".join(f"{'run ' + str(i + 1):>9}" for i in range(len(runs)))
    if len(runs) > 1:
        head += f"{'median':>9}{'range':>17}"
    print(head)
    for s in names:
        ts = [r[0].get(s) for r in runs]
        row = f"{s:<28}" + "".join(f"{t:9.2f}" if t is not None else f"{'-':>9}" for t in ts)
        known = [t for t in ts if t is not None]
        if len(runs) > 1 and known:
            row += f"{statistics.median(known):9.2f}{min(known):8.2f}–{max(known):<8.2f}"
        print(row)
    print(f"{'sum of listed suites':<28}" +
          "".join(f"{sum(r[0].get(s, 0.0) for s in names):9.2f}" for r in runs))
    print(f"{'Run completed':<28}" +
          "".join(f"{r[2]:9.2f}" if r[2] is not None else f"{'-':>9}" for r in runs))
    slow = sorted((t for t in runs[0][1] if not args.suite or t[1] == args.suite), reverse=True)
    if args.slowest > 0 and slow:
        print(f"\nslowest tests of {args.logs[0]}:")
        for t, suite, name in slow[:args.slowest]:
            print(f"{t:8.2f} s  {suite}: {name}")


if __name__ == "__main__":
    main()
