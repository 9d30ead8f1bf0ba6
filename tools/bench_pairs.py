#!/usr/bin/env python3
"""Alternating parent/change runs of bench/run.py, summarised in one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR PR_DIR --seed 1 --pairs 10 \\
        --seconds 30 --workload frame_roundtrip --out BENCH_11.json

PARENT_DIR and PR_DIR are two checkouts of the repository.  Pair k runs
bench/run.py once in each, with identical arguments and each in a fresh
process of its own: the parent first when k is odd, the change first when
k is even, so a slow drift of the machine falls on both sides alike.  The
final JSON line of every run is kept under "runs".  "summary" gives, for
each end-to-end metric of BENCHMARK.json, both sides' median and
quartiles, the change of the median relative to the parent, the pairs the
change won (ties count for neither), and three verdicts:
"gain_rule_holds": the change won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range; "within_bound": the change's median is no worse
than the parent's by more than the metric's bound in BENCHMARK.json (a
fraction of the parent's median); "unresolved": the parent's
interquartile range exceeds that bound times its median, so the runs
spread too widely to tell, and not every run of the change beats every
run of the parent.  "summary" also holds "failures": each side's
attempted and failed operations summed over its runs, its failure share,
and the verdict "failure_share_rose", true when the change failed a
larger share of its operations than the parent.

Standard library only.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(checkout, workload, seed, seconds):
    """The final JSON line of one bench/run.py run in checkout, with every
    metric name prefixed by its workload."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench_pairs: no result from {checkout} "
                 f"(exit {proc.returncode})")
    if workload != "all":
        result["metrics"] = {f"{workload}.{name}": v
                             for name, v in result["metrics"].items()}
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failure_totals(runs):
    """Attempted and failed operations of each side over all runs, their
    shares, and whether the change's share is the larger."""
    out = {}
    for side in ("parent", "pr"):
        attempted = sum(r[side]["attempted"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        out[f"{side}_attempted"] = attempted
        out[f"{side}_failed"] = failed
        out[f"{side}_share"] = failed / attempted if attempted else None
    # compared as cross products, so a side with no operations needs no
    # division
    out["failure_share_rose"] = (out["pr_failed"] * out["parent_attempted"]
                                 > out["parent_failed"] * out["pr_attempted"])
    return out


def summarize(runs, metrics):
    """Per-metric medians, quartiles, wins and the three verdicts, and
    the failure totals under "failures".

    metrics maps an end-to-end metric name to its BENCHMARK.json entry,
    which gives "better" and "bound".
    """
    summary = {"failures": failure_totals(runs)}
    names = sorted(set(runs[0]["parent"]["metrics"])
                   & set(runs[0]["pr"]["metrics"]))
    for name in names:
        spec = metrics.get(name.split(".", 1)[-1])
        if spec is None:
            continue
        sense, bound = spec["better"], spec["bound"]
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        pr = [r["pr"]["metrics"][name]["value"] for r in runs]
        sign = 1 if sense == "higher" else -1
        wins = sum(1 for a, b in zip(par, pr) if sign * (b - a) > 0)
        p1, pm, p3 = quartiles(par)
        c1, cm, c3 = quartiles(pr)
        summary[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "better": sense,
            "parent_median": pm,
            "parent_q1": p1,
            "parent_q3": p3,
            "pr_median": cm,
            "pr_q1": c1,
            "pr_q3": c3,
            "median_change": cm / pm - 1 if pm else None,
            "pr_wins": wins,
            "pairs": len(runs),
            "gain_rule_holds": (wins >= math.ceil(0.9 * len(runs))
                                and sign * (cm - pm) > p3 - p1),
            "within_bound": sign * (pm - cm) <= bound * abs(pm),
            "unresolved": (p3 - p1 > bound * abs(pm)
                           and min(sign * b for b in pr)
                           <= max(sign * a for a in par)),
        }
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="parent checkout")
    ap.add_argument("pr", type=Path, help="checkout of the change")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds of each run")
    ap.add_argument("--workload", default="all",
                    help="a workload of bench/run.py, or all (default)")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default="parent against change",
                    help="one line saying what is compared")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    for checkout in (args.parent, args.pr):
        if not (checkout / "bench" / "run.py").is_file():
            ap.error(f"{checkout} has no bench/run.py")
    spec = json.loads((args.pr / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for k in range(1, args.pairs + 1):
        first = "parent" if k % 2 else "pr"
        order = [first, "pr" if first == "parent" else "parent"]
        pair = {"pair": k, "first": first}
        for side in order:
            print(f"pair {k}/{args.pairs}: {side}", file=sys.stderr,
                  flush=True)
            pair[side] = bench_once(getattr(args, side), args.workload,
                                    args.seed, args.seconds)
        runs.append(pair)

    out = {
        "what": args.what,
        "command": (f"python3 bench/run.py --workload {args.workload} "
                    f"--seed {args.seed} --seconds {args.seconds:g}"),
        "method": ("alternating pairs, parent first in odd pairs; each "
                   "entry under runs holds the final JSON line of "
                   "bench/run.py"),
        "machine": (f"Python {platform.python_version()}, "
                    f"{os.cpu_count()} CPU, {platform.system()}"),
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    summary = dict(out["summary"])
    fails = summary.pop("failures")
    for name, s in summary.items():
        print(f"{name:36s} parent {s['parent_median']:.6g}  "
              f"pr {s['pr_median']:.6g}  wins {s['pr_wins']}/{s['pairs']}"
              f"  gain {'holds' if s['gain_rule_holds'] else 'fails'}"
              f"  {'within' if s['within_bound'] else 'BEYOND'} bound"
              f"{'  unresolved' if s['unresolved'] else ''}")
    print(f"{'failed operations':36s} parent {fails['parent_failed']}/"
          f"{fails['parent_attempted']}  pr {fails['pr_failed']}/"
          f"{fails['pr_attempted']}  share "
          f"{'ROSE' if fails['failure_share_rose'] else 'did not rise'}")
    return 0 if all(r[side]["correct"] for r in runs
                    for side in ("parent", "pr")) else 1


if __name__ == "__main__":
    sys.exit(main())
