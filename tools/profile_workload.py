#!/usr/bin/env python3
"""cProfile of a few operations of one benchmark workload.

    python3 tools/profile_workload.py --workload frame_roundtrip \\
        --seed 1 --ops 8

Builds the workload's seeded state as bench/run.py does (bench/inputs.py,
bench/workloads.py and the workload names of bench/layers.py, imported
as they are), runs operation 0 once as a warm-up, then times operations
0 .. K-1 without the profiler and runs them again under cProfile.
Every operation is checked by the benchmark's oracle, outside the timing
and the profile.  It prints the seconds per operation with and without
the profiler, then the top TOP functions by self time and by cumulative
time, each with its calls per operation, its seconds per operation and
its share of the profiled time, and last the number of checked and
failed operations.  The exit code is 1 when an operation failed.

A cli_session operation is a child process, so its profile shows only
the parent's spawning and waiting.  Standard library only.
"""

import argparse
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TOP = 20


def run_ops(workloads, workload, state, ks, failures, prof=None):
    """Run operations ks in order, each under prof when one is given, and
    return their wall seconds.  The oracle checks each result outside the
    timing and the profile; failures collects (k, reason)."""
    wall = 0.0
    for k in ks:
        t0 = perf_counter()
        try:
            if prof is None:
                out = workloads.run(workload, state, k)
            else:
                out = prof.runcall(workloads.run, workload, state, k)
        except Exception as err:  # counted as a failed operation
            wall += perf_counter() - t0
            failures.append((k, f"{type(err).__name__}: {err}"))
            continue
        wall += perf_counter() - t0
        reason = workloads.check(workload, state, k, out)
        if reason:
            failures.append((k, reason))
    return wall


def label(func):
    path, line, name = func
    if path == "~":  # a built-in
        return name
    return f"{Path(path).name}:{line}({name})"


def table(stats, key, top, ops, total):
    """The top rows of stats by key ("tottime" or "cumtime")."""
    rows = sorted(stats.stats.items(),
                  key=lambda kv: kv[1][2 if key == "tottime" else 3],
                  reverse=True)[:top]
    out = [f"{'calls/op':>10} {'self s/op':>10} {'cum s/op':>10} "
           f"{'share':>6}  function"]
    for func, (_, calls, tt, ct, _) in rows:
        t = tt if key == "tottime" else ct
        out.append(f"{calls / ops:10.1f} {tt / ops:10.5f} {ct / ops:10.5f} "
                   f"{t / total:6.1%}  {label(func)}")
    return "\n".join(out)


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import inputs
    import workloads
    from layers import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=8)
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be positive")

    failures = []
    ks = range(args.ops)
    with tempfile.TemporaryDirectory() as workdir:
        state = workloads.build(args.workload,
                                inputs.generate(args.workload, args.seed),
                                workdir)
        run_ops(workloads, args.workload, state, [0], failures)
        workloads.reset(args.workload, state)
        plain = run_ops(workloads, args.workload, state, ks, failures)
        workloads.reset(args.workload, state)
        prof = cProfile.Profile()
        profiled = run_ops(workloads, args.workload, state, ks, failures,
                           prof)
    stats = pstats.Stats(prof)
    # shares are of the time inside workloads.run, the profile's root
    total = sum(v[3] for f, v in stats.stats.items()
                if f[2] == "run" and Path(f[0]).name == "workloads.py")
    print(f"{args.workload} seed {args.seed}: {args.ops} ops after one "
          f"warm-up, {plain / args.ops:.5f} s/op without the profiler, "
          f"{profiled / args.ops:.5f} s/op with it")
    for key, title in (("tottime", "self time"),
                       ("cumtime", "cumulative time")):
        print(f"\ntop {TOP} by {title}:")
        print(table(stats, key, TOP, args.ops, total))
    print(f"\nchecked {1 + 2 * args.ops} ops, failed {len(failures)}")
    for k, reason in failures:
        print(f"  op {k}: {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
