"""opcurve benchmark: four seeded closed-loop workloads, one caller each.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Untraced (--trace 0), a run times operations back to back for S seconds
(default: run_seconds of BENCHMARK.json) and reports the end-to-end
metrics: ops_per_s, latency_p50_s, latency_p90_s, setup_s (median of
several fresh-interpreter set-ups) and peak_rss_mb; failure_rate is
printed too.  Traced (--trace 1), it runs a fixed sample of operations
several times, each operation untraced and traced back to back, and
reports the per-layer metrics plus the tracing overhead; the fixed sample makes every count repeat exactly on a seed.
Every operation is checked by an oracle.  ``all`` runs each workload in
a fresh process of its own, so each peak_rss_mb belongs to its workload.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import inputs  # noqa: E402
from layers import WORKLOADS, per_layer_metrics  # noqa: E402

SETUP_REPEATS = 7
TRACE_REPEATS = 3
TRACE_OPS = {"frame_roundtrip": 8, "cusp_backward": 8, "curve_data": 24,
             "cli_session": 16}
END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_library():
    """Import opcurve from this checkout's src/, or exit 2."""
    if not (SRC / "opcurve" / "__init__.py").is_file():
        sys.exit(f"bench: no opcurve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opcurve
    if Path(opcurve.__file__).resolve().parent != SRC / "opcurve":
        sys.exit(f"bench: imported opcurve from {opcurve.__file__}, "
                 f"not from {SRC}")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha()}


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self):
        base = BENCH / "_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=base))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def measure_setup(workload, seed, workdir):
    """Seconds one fresh interpreter takes to import opcurve and build
    the workload's initial state."""
    import workloads
    sub = Path(tempfile.mkdtemp(dir=workdir))
    code, text, _ = workloads.spawn(
        [sys.executable, str(BENCH / "setup_child.py"), workload,
         str(seed), str(sub)], workdir)
    shutil.rmtree(sub, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"set-up child failed ({code}): {text}")
    return float(text.split()[-1])


def run_ops(workload, state, ks, failures, child=None):
    """Run operations ks in order; returns their wall times.  Failed
    operations (raised or rejected by the oracle) are appended to
    failures as (k, reason).  child, when given, maps k to the
    cli_child.py arguments of a cli_session operation."""
    import workloads
    times = []
    for k in ks:
        t0 = perf_counter()
        try:
            out = workloads.run(workload, state, k,
                                None if child is None else child(k))
        except Exception as err:  # counted as a failed operation
            times.append(perf_counter() - t0)
            failures.append((k, f"{type(err).__name__}: {err}"))
            continue
        times.append(perf_counter() - t0)
        reason = workloads.check(workload, state, k, out)
        if reason:
            failures.append((k, reason))
    return times


def warm_up(workload, state, failures):
    """One untimed operation, so lazy set-up and caches are done before
    timing starts; its result is checked like any other."""
    import workloads
    run_ops(workload, state, [0], failures)
    workloads.reset(workload, state)
    gc.collect()


def timed_run(workload, seed, seconds):
    import workloads
    data = inputs.generate(workload, seed)
    failures = []
    with Workdir() as wd:
        state = workloads.build(workload, data, wd)
        warm_failures = []
        warm_up(workload, state, warm_failures)
        # set-up measurements are spread over the run, between operations,
        # so their median sees the same machine as the operations do
        setups = []
        times = []
        start = perf_counter()
        k = 0
        while not times or perf_counter() - start < seconds:
            due = start + len(setups) * seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and perf_counter() >= due:
                setups.append(measure_setup(workload, seed, wd))
                continue
            times += run_ops(workload, state, [k], failures)
            k += 1
        while len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(workload, seed, wd))
    if workload == "cli_session":
        rss_kb = state["peak_rss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = len(times) - len(failures)
    p90 = (statistics.quantiles(times, n=10, method="inclusive")[8]
           if len(times) > 1 else times[0])
    metrics = {
        "ops_per_s": ok / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    return len(times) + 1, warm_failures + failures, metrics, {}


def one_op(workload, state, k, failures, tracer=None):
    """Operation k once, with the tracer's wrappers installed when one is
    given, and its records added to the tracer's.  A cli_session
    operation runs cli_child.py either way, so the two differ only by the
    wrappers.  Returns the wall seconds and, for a traced CLI child, the
    time its ``import opcurve.cli`` took."""
    gc.collect()
    if workload != "cli_session":
        if tracer is None:
            return run_ops(workload, state, [k], failures)[0], None
        with tracer:
            return run_ops(workload, state, [k], failures)[0], None
    if tracer is None:
        return run_ops(workload, state, [k], failures, lambda k: [])[0], None
    path = state["workdir"] / "stats.json"
    wall = run_ops(workload, state, [k], failures,
                   lambda k: ["--trace", str(path)])[0]
    if not path.is_file():
        return wall, None
    stats = json.loads(path.read_text())
    path.unlink()
    tracer.merge(stats["records"])
    return wall, stats["import_s"]


def traced_run(workload, seed):
    """Per-layer metrics over a fixed sample of operations.  After one
    discarded untraced pass, which alone would pay first-pass costs such
    as filling caches, the sample runs TRACE_REPEATS times; each time every
    operation runs untraced and traced back to back, from the same state
    and in alternating order, so a slow drift of the machine's speed
    cancels out of the difference.  The overhead is the median over the
    runs of the mean difference.  Counts are summed over the traced
    runs and normalized per traced operation."""
    import workloads
    from tracing import Tracer
    data = inputs.generate(workload, seed)
    ks = range(TRACE_OPS[workload])
    failures = []
    tracer = Tracer()
    import_s = []
    bases, diffs = [], []
    with Workdir() as wd:
        state = workloads.build(workload, data, wd)
        warm_up(workload, state, failures)
        for k in ks:
            one_op(workload, state, k, failures)
        for rep in range(TRACE_REPEATS):
            workloads.reset(workload, state)
            base = diff = 0.0
            for k in ks:
                snap = workloads.snapshot(workload, state)
                walls = {}
                for traced in ((False, True) if (k + rep) % 2 == 0
                               else (True, False)):
                    workloads.restore(workload, state, snap)
                    walls[traced], imp = one_op(workload, state, k, failures,
                                                tracer if traced else None)
                    if imp is not None:
                        import_s.append(imp)
                base += walls[False]
                diff += walls[True] - walls[False]
            bases.append(base)
            diffs.append(diff)
    n = len(ks)
    metrics = tracer.metrics(n * TRACE_REPEATS)
    metrics["cli.import_s"] = sum(import_s) / (n * TRACE_REPEATS)
    metrics["trace.base_s"] = statistics.median(bases) / n
    metrics["trace.overhead_s"] = statistics.median(diffs) / n
    problems = {}
    missing = tracer.unreached(workload)
    if missing:
        problems["self-check"] = ("traced names never called: "
                                  + ", ".join(missing))
    return (2 * TRACE_REPEATS + 1) * n + 1, failures, metrics, problems


def report(workload, seed, seconds, trace):
    if trace:
        attempted, failures, metrics, problems = traced_run(workload, seed)
    else:
        attempted, failures, metrics, problems = timed_run(
            workload, seed, seconds)
    print(f"workload {workload}  seed {seed}  "
          + ("traced sample" if trace else f"{seconds:g} s"))
    env = environment()
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    units = dict(END_TO_END) if not trace else {
        name: unit for name, unit, _ in per_layer_metrics()}
    baseline = load_baseline().get(workload, {})
    for name, value in metrics.items():
        note = ""
        ref = baseline.get(name)
        if ref and ref["median"]:
            note = (f"  (baseline median {ref['median']:.6g}, "
                    f"{100 * (value / ref['median'] - 1):+.1f}%)")
        print(f"  {name:44s} {value:.6g} {units[name]}{note}")
    print(f"  failure_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    for k, reason in failures[:5]:
        print(f"  FAILED op {k}: {reason}")
    for what, reason in problems.items():
        print(f"  FAILED {what}: {reason}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def load_baseline():
    path = BENCH / "BASELINE.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("workloads", {})


def run_seconds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["run_seconds"]


def run_all(args):
    """Every workload in a fresh process of its own; their results are
    merged with metric names prefixed by the workload."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"bench: workload {w} gave no result "
                     f"(exit {proc.returncode})")
        print("\n".join(lines[:-1]), flush=True)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        final = run_all(args)
    else:
        final = report(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
