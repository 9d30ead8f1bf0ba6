"""Every traced layer that a workload must reach is reached by its traced
sample, checked in process.

bench/test_bench.py checks the same with whole traced runs of bench/run.py;
this runs each in-process workload's sample once: the state built from
its seed-1 inputs by bench/workloads.py, operations 0 .. TRACE_OPS - 1
under bench/tracing.Tracer, each checked by the workload's oracle.  It
reads bench/ only, as tools/profile_workload.py does.  cli_session runs
in child processes and stays with bench/test_bench.py.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402
from run import TRACE_OPS  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload",
                         ["frame_roundtrip", "cusp_backward", "curve_data"])
def test_traced_sample_reaches_every_listed_layer(workload):
    state = workloads.build(workload, inputs.generate(workload, 1), None)
    tracer = Tracer()
    for k in range(TRACE_OPS[workload]):
        with tracer:
            out = workloads.run(workload, state, k)
        assert workloads.check(workload, state, k, out) is None
    assert tracer.unreached(workload) == []
