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

A cli_session operation runs here in this process rather than as the
benchmark's child: cli.main on the workload's session file, with stdout
and stderr captured together as the child's output is and SystemExit
taken as the exit code.  Interpreter start and ``import opcurve.cli``
are outside that profile.  Standard library only.
"""

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TOP = 20


def run_ops(op, check, ks, failures, prof=None):
    """Run op(k) for k in ks in order, each under prof when one is given,
    and return their wall seconds.  check(k, out) is the oracle, run
    outside the timing and the profile; failures collects (k, reason)."""
    wall = 0.0
    for k in ks:
        t0 = perf_counter()
        try:
            out = op(k) if prof is None else prof.runcall(op, k)
        except Exception as err:  # counted as a failed operation
            wall += perf_counter() - t0
            failures.append((k, f"{type(err).__name__}: {err}"))
            continue
        wall += perf_counter() - t0
        reason = check(k, out)
        if reason:
            failures.append((k, reason))
    return wall


def cli_op(cli, state, k):
    """Operation k of cli_session in this process; returns (exit code,
    stdout and stderr) as workloads.run_cli does for a child."""
    argv, _ = state["pool"][k % len(state["pool"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(["--session", str(state["session"]), *argv])
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


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
        if args.workload == "cli_session":
            import opcurve.cli as cli
            op = partial(cli_op, cli, state)
        else:
            op = partial(workloads.run, args.workload, state)
        check = partial(workloads.check, args.workload, state)
        run_ops(op, check, [0], failures)
        workloads.reset(args.workload, state)
        plain = run_ops(op, check, ks, failures)
        workloads.reset(args.workload, state)
        prof = cProfile.Profile()
        profiled = run_ops(op, check, ks, failures, prof)
    stats = pstats.Stats(prof)
    # shares are of the time inside op's function, the profile's root
    root = op.func.__code__
    total = stats.stats[(root.co_filename, root.co_firstlineno,
                         root.co_name)][3]
    print(f"{args.workload} seed {args.seed}: {args.ops} ops after one "
          f"warm-up, {plain / args.ops:.5f} s/op without the profiler, "
          f"{profiled / args.ops:.5f} s/op with it")
    if args.workload == "cli_session":
        print("each op runs cli.main in this process: interpreter start "
              "and import opcurve.cli are outside this profile")
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
