"""Repeat the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b]
                              [--out bench/BASELINE.json]

Runs ``bench/run.py`` once per workload and seed, untraced, one run at a
time; each run lasts the run_seconds of BENCHMARK.json.  For every end-to-end
metric it records the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  One traced run per
workload on the first seed adds the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import WORKLOADS  # noqa: E402
from run import environment  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stdout}"
                         f"{proc.stderr}")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"env": environment(), "seconds": seconds, "seeds": args.seeds,
           "workloads": {}, "traced": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, 0) for s in args.seeds]
        table = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            table[name] = dict(summarize(vals),
                               unit=runs[0]["metrics"][name]["unit"])
            row = table[name]
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:16s} {name:14s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                  f"spread {row['spread']:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
        out["workloads"][workload] = table
        traced = one_run(workload, args.seeds[0], 1)
        out["traced"][workload] = {k: v["value"]
                                   for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
