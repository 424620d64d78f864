#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarize it.

    python3 scripts/bench_pairs.py OLD_CHECKOUT NEW_CHECKOUT RUNS_JSON
        [--workload all] [--seeds 1,2,3,4,5,6,7,8,9,16] [--seconds 20]
    python3 scripts/bench_pairs.py --summarize RUNS_JSON
        [--record BENCH_restore.json --commits OLD NEW --tier1-s OLD NEW]

The first form runs ``python3 bench/run.py --trace 0`` in each checkout
once per seed, the two sides of a pair in alternating order, and stores
every run's result line in RUNS_JSON as it finishes. The second form reads
RUNS_JSON and prints, per workload and end-to-end metric, each side's
median and quartiles, each side's spread (the distance between its
quartiles over its median) and how many pairs the new side won (ties count
for neither side), with the direction each metric improves in and its bound
taken from ``BENCHMARK.json``. A metric whose old-side spread exceeds its
bound is marked ``unresolved``, unless every new run beats every old run:
such a spread cannot tell a change within the bound from none. A metric
whose new median is worse than the old by more than the bound, read as a
fraction of the old median, is marked ``worse beyond bound``, and the last
line counts such metrics. A metric is marked ``claimable`` where a gain may
be claimed: the new side wins at least 9 in 10 of the pairs, and its median
is better than the old one by more than the distance between the old
side's quartiles. The line before it gives each side's failed and
attempted operations, summed over the pairs, and the failed share, marked
``larger failed share`` where the new side's exceeds the old side's. With
``--record`` it appends one record per side to the trajectory file: the
commit, the benchmark command, those medians and quartiles, the tier-1 wall
time, the numpy version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("old", "new")


def run_pairs(args) -> None:
    runs = []
    seeds = [int(s) for s in args.seeds.split(",")]
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.old if side == "old" else args.new
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=checkout, check=True, capture_output=True, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"pair": i, "seed": seed, "side": side, "result": result})
            with open(args.runs, "w") as fh:
                json.dump({"workload": args.workload, "seconds": args.seconds,
                           "runs": runs}, fh, indent=1)
            print(f"pair {i} seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def spread(q: dict) -> float:
    """Distance between the quartiles as a fraction of the median."""
    return (q["q3"] - q["q1"]) / abs(q["median"])


def summarize(args) -> None:
    with open(args.runs) as fh:
        stored = json.load(fh)
    runs = stored["runs"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    stats = {side: {} for side in SIDES}
    worse = 0
    for name in pairs[0]["old"]["metrics"]:
        workload, metric = name.rsplit(".", 1) if "." in name else ("", name)
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if declared[metric]["better"] == "higher" else -1.0
        wins = sum(sign * (new - old) > 0 for old, new in zip(values["old"], values["new"]))
        for side in SIDES:
            stats[side].setdefault(workload, {})[metric] = quartiles(values[side])
        old, new = (stats[side][workload][metric] for side in SIDES)
        bound = declared[metric]["bound"]
        separated = all(sign * (n - o) > 0 for n in values["new"] for o in values["old"])
        verdict = "  unresolved" if spread(old) > bound and not separated else ""
        gain = sign * (new["median"] - old["median"])
        if gain < -bound * abs(old["median"]):
            verdict += "  worse beyond bound"
            worse += 1
        if wins >= 0.9 * len(pairs) and gain > old["q3"] - old["q1"]:
            verdict += "  claimable"
        print(f"{name}: old {old['median']:.6g} [{old['q1']:.6g}, {old['q3']:.6g}] "
              f"spread {spread(old):.3f}  "
              f"new {new['median']:.6g} [{new['q1']:.6g}, {new['q3']:.6g}] "
              f"spread {spread(new):.3f}  bound {bound:g}  "
              f"new better in {wins}/{len(pairs)}{verdict}")
    failed, attempted, share = {}, {}, {}
    for side in SIDES:
        failed[side] = sum(p[side]["failed"] for p in pairs)
        attempted[side] = sum(p[side]["attempted"] for p in pairs)
        share[side] = failed[side] / attempted[side]
    larger = "  larger failed share" if share["new"] > share["old"] else ""
    print(f"{len(pairs)} pairs; failed/attempted old {failed['old']}/{attempted['old']} "
          f"({share['old']:.4f}), new {failed['new']}/{attempted['new']} "
          f"({share['new']:.4f}){larger}; "
          f"all correct: {all(p[s]['correct'] for p in pairs for s in SIDES)}")
    print(f"{worse} metrics worse beyond bound")
    if not args.record:
        return
    records = []
    if os.path.exists(args.record):
        with open(args.record) as fh:
            records = json.load(fh)
    for i, side in enumerate(SIDES):
        records.append({
            "commit": args.commits[i],
            "bench": f"bench/run.py --workload {stored['workload']} "
                     f"--seconds {stored['seconds']:g} --trace 0",
            "pairs": len(pairs),
            "seeds": [run["seed"] for run in runs if run["side"] == side],
            "workloads": stats[side],
            "tier1_wall_s": args.tier1_s[i],
            "numpy": np.__version__,
            "cores": os.cpu_count(),
        })
    with open(args.record, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summarize", metavar="RUNS_JSON")
    parser.add_argument("paths", nargs="*", help="OLD_CHECKOUT NEW_CHECKOUT RUNS_JSON")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,16")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--record")
    parser.add_argument("--commits", nargs=2)
    parser.add_argument("--tier1-s", nargs=2, type=float)
    args = parser.parse_args(argv)
    if args.summarize:
        if args.record and not (args.commits and args.tier1_s):
            parser.error("--record needs --commits and --tier1-s")
        args.runs = args.summarize
        summarize(args)
        return 0
    if len(args.paths) != 3:
        parser.error("give OLD_CHECKOUT NEW_CHECKOUT RUNS_JSON")
    args.old, args.new, args.runs = (os.path.abspath(p) for p in args.paths)
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
