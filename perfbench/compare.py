#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts with the perfbench benchmark.

    python3 perfbench/compare.py --base DIR --head DIR \
        [--pairs 10] [--seed 1000] [--holdout-seed 9000]

DIR is the root of a checkout (for example a `git archive` of the parent
commit, and the working tree). Both sides run the same workload with the
same seed back to back; pair i uses seed SEED+i, and which side runs first
alternates from pair to pair. Every workload of BENCHMARK.json in --head is
run for its run_seconds, and its end-to-end metrics, their "better"
direction and their bounds are compared (the benchmark itself must not
differ between the two sides).

For every workload x metric it prints each side's median and quartiles, the
head's win fraction over the pairs (ties count for neither side), each
side's failed/attempted ops, and a verdict:

  failed-checks  head failed more checks than base on this workload; no
                 timing of it counts;
  improved       at least 10 pairs, head wins >= 90% of them, and the
                 medians differ by more than the base's own quartile spread;
  regressed      head's median is worse than base's by more than the bound;
  unresolved     base's quartile spread (as a share of its median) exceeds
                 the bound, so a change within the bound cannot be told
                 apart, unless every head run beats every base run;
  same           none of the above;
  few-pairs      would read improved or unresolved, but fewer than 10 pairs
                 were run, too few to claim either.

--holdout-seed runs a second, separate set of as many pairs on seeds the
change was not tuned on and reports it in its own table. Exit status: 0
when no metric regressed or failed its checks, 1 otherwise, 2 on bad
arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # pairs needed before a gain (or an unresolved spread) is claimed
BAD = ("regressed", "failed-checks")


def run_one(root, workload, seed, seconds):
    """One untraced run: (metric values, failed, attempted)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"compare: no result from {root} ({workload}, seed {seed}), exit {r.returncode}")
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    return values, int(doc["failed"]), int(doc["attempted"])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(base, head, better, bound):
    """Classifies one metric from its paired runs (see module docstring)."""
    frac, spread, v = classify(base, head, better, bound)
    if len(base) < MIN_PAIRS and v in ("improved", "unresolved"):
        v = "few-pairs"
    return frac, spread, v


def classify(base, head, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(mb) if mb else float("inf")
    frac = wins / len(base)
    if spread > bound:
        if all(sign * (h - b) > 0 for h in head for b in base):
            return frac, spread, "improved"
        return frac, spread, "unresolved"
    worse = -sign * (mh - mb) / abs(mb) if mb else 0.0
    if worse > bound:
        return frac, spread, "regressed"
    if frac >= 0.9 and abs(mh - mb) > (q3 - q1):
        return frac, spread, "improved"
    return frac, spread, "same"


def compare(args, spec, seeds, label):
    rows = []
    for w in [x["name"] for x in spec["workloads"]]:
        base, head = [], []
        checks = {"base": [0, 0], "head": [0, 0]}  # failed, attempted
        for i, seed in enumerate(seeds):
            sides = [("base", args.base), ("head", args.head)]
            if i % 2:
                sides.reverse()
            got = {}
            for name, root in sides:
                got[name], failed, attempted = run_one(root, w, seed, spec["run_seconds"])
                checks[name][0] += failed
                checks[name][1] += attempted
            base.append(got["base"])
            head.append(got["head"])
            print(f"# {label} {w}: pair {i + 1}/{len(seeds)} done (seed {seed})", flush=True)
        broken = checks["head"][0] > checks["base"][0]
        for m in spec["end_to_end"]:
            n = m["name"]
            b = [r[n] for r in base]
            h = [r[n] for r in head]
            frac, spread, v = verdict(b, h, m["better"], m["bound"])
            rows.append({"set": label, "workload": w, "metric": n,
                         "base_median": statistics.median(b),
                         "head_median": statistics.median(h),
                         "base_q": quartiles(b), "head_q": quartiles(h),
                         "win_fraction": frac, "base_spread": spread, "bound": m["bound"],
                         "base_checks": checks["base"], "head_checks": checks["head"],
                         "verdict": "failed-checks" if broken else v})
    return rows


def print_rows(rows):
    print(f"{'set':8} {'workload':8} {'metric':18} {'base med':>10} {'base q1..q3':>21} "
          f"{'head med':>10} {'head q1..q3':>21} {'change':>8} {'wins':>5} {'spread':>7} "
          f"{'bound':>5} {'base fail':>13} {'head fail':>13}  verdict")
    for r in rows:
        mb, mh = r["base_median"], r["head_median"]
        ch = (mh - mb) / abs(mb) * 100 if mb else 0.0
        bq = f"{r['base_q'][0]:.4g}..{r['base_q'][1]:.4g}"
        hq = f"{r['head_q'][0]:.4g}..{r['head_q'][1]:.4g}"
        bf = "{}/{}".format(*r["base_checks"])
        hf = "{}/{}".format(*r["head_checks"])
        print(f"{r['set']:8} {r['workload']:8} {r['metric']:18} {mb:10.4g} {bq:>21} "
              f"{mh:10.4g} {hq:>21} {ch:+7.1f}% {r['win_fraction']:5.2f} "
              f"{r['base_spread']:7.3f} {r['bound']:5.2f} {bf:>13} {hf:>13}  {r['verdict']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--head", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--holdout-seed", type=int)
    args = ap.parse_args()
    for root in (args.base, args.head):
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} is not a checkout with perfbench/run.py")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.head / "BENCHMARK.json").read_text())

    rows = compare(args, spec, [args.seed + i for i in range(args.pairs)], "main")
    if args.holdout_seed is not None:
        rows += compare(args, spec,
                        [args.holdout_seed + i for i in range(args.pairs)], "holdout")
    print_rows(rows)
    sys.exit(1 if any(r["verdict"] in BAD for r in rows) else 0)


if __name__ == "__main__":
    main()
