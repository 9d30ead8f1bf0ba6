"""The benchmark's own checks.

    python3 -m pytest bench/test_bench.py

Count-type per-layer metrics repeat exactly across two traced runs on
one seed, every workload reaches the layers listed for it, BENCHMARK.json
names exactly the metrics the runner prints, the seeded cusp inputs
satisfy Q^2 = P^3, and the oracles reject wrong answers.
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import inputs
import oracles
import run
from layers import COUNT_QUANTITIES, WORKLOADS, per_layer_metrics
from tracing import Tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

run.import_library()


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_on_a_seed(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_layers_are_reached(workload):
    first = run.traced_run(workload, 3)
    second = run.traced_run(workload, 3)
    for attempted, failures, metrics, problems in (first, second):
        assert not failures
        assert not problems, problems
        assert set(metrics) == {name for name, _, _ in per_layer_metrics()}
    counts = [{k: v for k, v in r[2].items()
               if k.rsplit(".", 1)[-1] in COUNT_QUANTITIES}
              for r in (first, second)]
    assert counts[0] == counts[1]


def test_self_check_reports_unreached_names():
    tracer = Tracer()
    assert "exactcore.rref" in tracer.unreached("frame_roundtrip")
    assert "cli.main" in tracer.unreached("cli_session")


def test_wrappers_are_removed_after_a_traced_run():
    from opcurve import curvedata, exactcore, sato
    before = (exactcore.rref, sato.rref, curvedata.rank,
              exactcore.XSeries.__mul__, sato.GrassPoint.contains)
    with Tracer():
        assert sato.rref is not before[1]
        assert exactcore.XSeries.__mul__ is not before[3]
    after = (exactcore.rref, sato.rref, curvedata.rank,
             exactcore.XSeries.__mul__, sato.GrassPoint.contains)
    assert after == before


def _leibniz(p, q, prec):
    """Product of two differential operators given as {order: coeffs},
    coefficients truncated at prec, by a p_i D^i o q_j D^j =
    sum_k binom(i, k) p_i q_j^(k) D^(i+j-k).  Returns the product and the
    number of coefficients it determines."""
    out = {}
    known = prec
    for i, a in p.items():
        for j, b in q.items():
            deriv = list(b)
            for k in range(i + 1):
                if k:
                    deriv = [t * c for t, c in enumerate(deriv)][1:]
                    known = min(known, prec - k)
                term = out.setdefault(i + j - k, [Fraction(0)] * prec)
                for s, ca in enumerate(a[:prec]):
                    if ca:
                        for t, cb in enumerate(deriv[:prec - s]):
                            term[s + t] += comb(i, k) * ca * cb
    return out, known


def _cusp_curve_relation(item):
    """Q^2 = P^3 on the window the input series determine."""
    prec = len(item["inv2"])
    one = [Fraction(1)] + [Fraction(0)] * (prec - 1)
    p = {2: one, 0: [-2 * c for c in item["inv2"]]}
    q = {3: one, 1: [-3 * c for c in item["inv2"]],
         0: [3 * c for c in item["inv3"]]}
    qq, k1 = _leibniz(q, q, prec)
    pp, k2 = _leibniz(p, p, prec)
    ppp, k3 = _leibniz(pp, p, min(prec, k2))
    known = min(k1, k3)
    if known < 1:
        return "the window determines no coefficient of the relation"
    for order in set(qq) | set(ppp):
        a = qq.get(order, [Fraction(0)] * prec)[:known]
        b = ppp.get(order, [Fraction(0)] * prec)[:known]
        if a != b:
            return f"Q^2 - P^3 is nonzero at D^{order}"
    return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cusp_inputs_satisfy_the_curve_relation(seed):
    for item in inputs.generate("cusp_backward", seed):
        assert _cusp_curve_relation(item) is None
    item["inv3"][2] += 1
    assert _cusp_curve_relation(item) is not None


def test_oracles_reject_wrong_answers():
    import workloads
    data = inputs.generate("frame_roundtrip", 1)[:1]
    item = data[0]
    state = workloads.build("frame_roundtrip", data, None)
    right = workloads.run("frame_roundtrip", state, 0)
    assert oracles.frame(item, right) is None
    item["terms"][1][0][0][0] += Fraction(1, 3)
    assert oracles.frame(item, right) is not None

    assert oracles.cli(["genus: 1"], 0, "genus: 1\n") is None
    assert oracles.cli(["genus: 1"], 0, "genus: 2\n") is not None
    assert oracles.cli(["genus: 1"], 3, "genus: 1\n") is not None
