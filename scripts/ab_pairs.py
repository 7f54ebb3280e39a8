#!/usr/bin/env python3
"""Alternated A/B pairs of the ASTI benchmark, with host CPU steal logged per run.

    python3 scripts/ab_pairs.py --base HEAD~1 --head HEAD --workload asti-ic \\
        --seeds 921-930 --seconds 30 --work /tmp/ab

Each side is a git revision, exported with `git archive` into its own
directory under `--work`, or an existing directory used as it is. For every
seed, both sides run `python3 perfbench/run.py` with that seed; the side that
runs first alternates from pair to pair. Each run's `/proc/stat` steal delta
(in clock ticks, summed over all CPUs) is printed beside its result, so a run
slowed by the host shows as such. The summary gives, per metric, each side's
median and quartiles and the number of pairs in which the head side reads
better, by the direction `BENCHMARK.json` gives the metric. Every run's result
line is appended to `--log` as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    """'921-930' or '5,9,12' to a list of ints."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def checkout(side, work, name):
    """The directory that runs `side`: itself, or a `git archive` of it."""
    if os.path.isdir(side):
        return os.path.abspath(side)
    dest = os.path.join(work, name)
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.run(["git", "-C", ROOT, "archive", side], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def steal_ticks():
    """Total steal ticks of all CPUs so far (the 8th field of /proc/stat's cpu line)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def run_one(checkout_dir, workload, seed, seconds, trace):
    """One benchmark run: its metrics (name to value) and steal delta, or None if it failed."""
    before = steal_ticks()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout_dir, capture_output=True, text=True)
    after = steal_ticks()
    steal = None if before is None or after is None else after - before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None, steal
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["correct"] = 1.0 if result.get("correct") else 0.0
    return metrics, steal


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def directions():
    """Metric name to 'lower' or 'higher', from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision or directory of the parent side")
    ap.add_argument("--head", required=True, help="git revision or directory of the changed side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 921-930 or 5,9,12")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--work", required=True, help="directory for the exported checkouts")
    ap.add_argument("--log", help="file the per-run JSON lines are appended to")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    dirs = {"base": checkout(args.base, args.work, "base"),
            "head": checkout(args.head, args.work, "head")}
    runs = {"base": [], "head": []}
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            metrics, steal = run_one(dirs[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(metrics)
            shown = "FAILED" if metrics is None else " ".join(
                f"{k}={metrics[k]:.4g}" for k in ("wall_s", "solve_s_p50", "setup_s")
                if k in metrics)
            print(f"seed {seed} {side}: steal {steal} ticks  {shown}", flush=True)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": args.workload, "seed": seed, "side": side,
                                         "steal_ticks": steal, "metrics": metrics}) + "\n")

    better = directions()
    pairs = [(b, h) for b, h in zip(runs["base"], runs["head"]) if b is not None and h is not None]
    print(f"\n{args.workload}: {len(pairs)} complete pairs; base {args.base}, head {args.head}")
    print(f"{'metric':32} {'base q25/med/q75':>30} {'head q25/med/q75':>30} {'head better':>12}")
    names = sorted(set().union(*[set(b) & set(h) for b, h in pairs])) if pairs else []
    for name in names:
        bs = [b[name] for b, _ in pairs]
        hs = [h[name] for _, h in pairs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for b, h in pairs if sign * (h[name] - b[name]) > 0)
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{name:32} {fmt(quartiles(bs)):>30} {fmt(quartiles(hs)):>30} "
              f"{wins:>5}/{len(pairs)}")


if __name__ == "__main__":
    main()
