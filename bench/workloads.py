"""The four workloads: program state built from seeded inputs, one
operation, and the oracle that checks it.

Operations call the library through module attributes (``sato.x``, not
an imported ``x``), so the traced run's wrappers see every call.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

from opcurve import curvedata, exprs, pipelines, sato, session
from opcurve.exactcore import Matrix, XSeries, ZLaurent
from opcurve.psidocalc import MatrixPsiDO

import inputs
import oracles

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT = 120


def _dressing(item):
    n = item["n"]
    terms = {0: Matrix([[XSeries.one() if i == j else XSeries.zero()
                         for j in range(n)] for i in range(n)])}
    for m, rows in item["terms"].items():
        terms[-m] = Matrix([[XSeries(cs) for cs in row] for row in rows])
    return MatrixPsiDO(n, terms)


def _cusp_pair(item):
    prec = inputs.CUSP_XPREC
    inv2 = XSeries(item["inv2"], prec)
    inv3 = XSeries(item["inv3"], prec)
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), 0: inv2.scale(-2)})
    q = MatrixPsiDO.from_scalars({3: XSeries.one(), 1: inv2.scale(-3),
                                  0: inv3.scale(3)})
    return p, q


def _j_matrix(n):
    rows = [[ZLaurent.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = ZLaurent.one()
    rows[n - 1][0] = ZLaurent.monomial(-1)
    return Matrix(rows)


def _curve_state(item):
    a, b = item["scalar"]
    n = item["jn"]
    jn = _j_matrix(n)
    return {
        "scalar": curvedata.AlgebraSpec(1, [Matrix([[ZLaurent.monomial(-a)]]),
                                            Matrix([[ZLaurent.monomial(-b)]])]),
        "jn": jn,
        "cyclic": curvedata.AlgebraSpec(n, [jn]),
    }


def write_session(bindings, path):
    """The seeded session file, built the way the CLI builds bindings."""
    ses = session.Session()
    ctx = dict(session.DEFAULT_CONTEXT)
    for name, text in bindings.items():
        ses.set(name, exprs.evaluate(text, ses.get, ctx))
    ses.save(path)


def build(workload, data, workdir):
    """Program state for a workload: opcurve objects for the input pool,
    or for cli_session the seeded session file."""
    if workload == "frame_roundtrip":
        return {"pool": data, "objs": [_dressing(it) for it in data]}
    if workload == "cusp_backward":
        return {"pool": data, "objs": [_cusp_pair(it) for it in data]}
    if workload == "curve_data":
        return {"pool": data, "objs": [_curve_state(it) for it in data],
                "base": sato.GrassPoint(2, [], 0),
                "j2": curvedata.AlgebraSpec(2, [_j_matrix(2)])}
    if workload == "cli_session":
        path = Path(workdir) / "session.json"
        write_session(data["bindings"], path)
        return {"pool": data["ops"], "session": path,
                "initial": path.read_bytes(), "workdir": Path(workdir),
                "peak_rss_kb": 0}
    raise ValueError(f"unknown workload {workload!r}")


def snapshot(workload, state):
    """The mutable state as it is now (the session file), for restore."""
    if workload == "cli_session":
        return state["session"].read_bytes()
    return None


def restore(workload, state, snap):
    if workload == "cli_session":
        state["session"].write_bytes(snap)


def reset(workload, state):
    """Return mutable state to its initial value."""
    restore(workload, state, state.get("initial"))


def run(workload, state, k, child=None):
    """Operation k of the workload; returns what the oracle checks.
    child is passed to run_cli for cli_session and ignored otherwise."""
    i = k % len(state["pool"])
    if workload == "frame_roundtrip":
        item = state["pool"][i]
        point = sato.point_from_dressing(state["objs"][i])
        return sato.dressing_from_point(point, depth=item["depth"],
                                        nx=item["nx"])
    if workload == "cusp_backward":
        return pipelines.operators_to_geometric(
            list(state["objs"][i]), depth=inputs.CUSP_DEPTH)
    if workload == "curve_data":
        item = state["pool"][i]
        obj = state["objs"][i]
        return (
            curvedata.semigroup_report(item["pair"]),
            curvedata.semigroup_report(item["triple"]),
            curvedata.filtration_piece(obj["scalar"], item["scalar_bound"]),
            curvedata.condition_report(obj["scalar"]),
            curvedata.filtration_piece(obj["cyclic"], item["jn_bound"]),
            curvedata.condition_report(obj["cyclic"]),
            curvedata.spectral_charpoly(obj["jn"]),
            pipelines.round_trip(state["base"], state["j2"]),
        )
    if workload == "cli_session":
        argv, _ = state["pool"][i]
        return run_cli(state, argv, child)
    raise ValueError(f"unknown workload {workload!r}")


def check(workload, state, k, out):
    """None when operation k's result is right, else the reason."""
    item = state["pool"][k % len(state["pool"])]
    if workload == "frame_roundtrip":
        return oracles.frame(item, out)
    if workload == "cusp_backward":
        return oracles.cusp(item, out)
    if workload == "curve_data":
        return oracles.curve(item, out)
    if workload == "cli_session":
        code, text = out
        return oracles.cli(item[1], code, text)
    raise ValueError(f"unknown workload {workload!r}")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else src + os.pathsep + old
    return env


def spawn(argv, workdir):
    """Run one child to completion.  Returns (exit code, output, peak
    resident kB of that child)."""
    out_path = Path(workdir) / "child.out"
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CLI_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return proc.returncode, text, usage.ru_maxrss


def run_cli(state, argv, child=None):
    """One cold CLI process on the workload's session file: ``python -m
    opcurve.cli``, or with child a list, ``bench/cli_child.py`` with
    those leading arguments (``[]`` for the plain CLI, ``["--trace",
    STATS_JSON]`` for the traced one)."""
    base = ["--session", str(state["session"])] + list(argv)
    if child is None:
        cmd = [sys.executable, "-m", "opcurve.cli"] + base
    else:
        cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py")] \
            + list(child) + base
    code, text, rss = spawn(cmd, state["workdir"])
    state["peak_rss_kb"] = max(state["peak_rss_kb"], rss)
    return code, text
