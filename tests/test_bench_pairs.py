"""tools/bench_pairs.py: wins, quartiles and the three verdicts on made-up
runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"ops_per_s": {"better": "higher", "bound": 0.25},
           "latency_p50_s": {"better": "lower", "bound": 0.25}}


def _runs(parent, pr, name):
    unit = {"ops_per_s": "1/s", "latency_p50_s": "s"}[name]
    return [{"pair": k + 1,
             "parent": {"metrics": {f"w.{name}": {"value": a, "unit": unit}}},
             "pr": {"metrics": {f"w.{name}": {"value": b, "unit": unit}}}}
            for k, (a, b) in enumerate(zip(parent, pr))]


def test_gain_rule_needs_nine_tenths_of_wins_and_a_gap_above_the_iqr():
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    s = bench_pairs.summarize(_runs(parent, [v + 5 for v in parent],
                                    "ops_per_s"), METRICS)["w.ops_per_s"]
    assert (s["pr_wins"], s["pairs"], s["gain_rule_holds"]) == (10, 10, True)
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (10.25, 11,
                                                                    11.75)
    assert s["median_change"] == 16 / 11 - 1
    # two ties and one loss: 7 of 10 wins is not enough
    pr = [v + 5 for v in parent[:7]] + [10, 11, 11]
    s = bench_pairs.summarize(_runs(parent, pr, "ops_per_s"),
                              METRICS)["w.ops_per_s"]
    assert (s["pr_wins"], s["gain_rule_holds"]) == (7, False)
    # every pair won, but by less than the parent's spread
    s = bench_pairs.summarize(_runs(parent, [v + 0.5 for v in parent],
                                    "ops_per_s"), METRICS)["w.ops_per_s"]
    assert (s["pr_wins"], s["gain_rule_holds"]) == (10, False)


def test_lower_is_better_counts_a_fall_as_a_win():
    parent = [0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.11]
    s = bench_pairs.summarize(_runs(parent, [v / 2 for v in parent],
                                    "latency_p50_s"), METRICS)
    assert s["w.latency_p50_s"]["pr_wins"] == 10
    assert s["w.latency_p50_s"]["gain_rule_holds"]
    assert s["w.latency_p50_s"]["better"] == "lower"


def _summary(parent, pr, name="ops_per_s"):
    return bench_pairs.summarize(_runs(parent, pr, name),
                                 METRICS)[f"w.{name}"]


def test_within_bound_allows_a_fall_up_to_the_bound_of_the_median():
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    # median 11 -> 8.25 is exactly 25% worse: still within
    s = _summary(parent, [v - 2.75 for v in parent])
    assert s["pr_median"] == 8.25 and s["within_bound"]
    s = _summary(parent, [v - 2.8 for v in parent])
    assert not s["within_bound"]
    # a lower-is-better metric may rise by the bound, not beyond it
    lat = [0.4, 0.44, 0.48, 0.4, 0.44, 0.48, 0.4, 0.44, 0.48, 0.44]
    assert _summary(lat, [v + 0.1 for v in lat], "latency_p50_s")[
        "within_bound"]
    assert not _summary(lat, [v + 0.12 for v in lat], "latency_p50_s")[
        "within_bound"]
    assert _summary(lat, [v / 2 for v in lat], "latency_p50_s")[
        "within_bound"]


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    # parent quartiles 6.25 and 13.75 around a median of 10: IQR/median
    # 0.75 > 0.25
    wide = [4, 6, 8, 10, 12, 14, 16, 10, 7, 13]
    s = _summary(wide, [v + 1 for v in wide])
    assert s["parent_q3"] - s["parent_q1"] > 0.25 * s["parent_median"]
    assert s["unresolved"] and s["within_bound"]
    # unless every run of the change beats every run of the parent
    s = _summary(wide, [v + 13 for v in wide])
    assert not s["unresolved"]
    # a tight parent is resolved, whatever the change does
    tight = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    assert not _summary(tight, wide)["unresolved"]
    # lower is better: every change run below every parent run resolves
    s = _summary([v / 10 for v in wide], [v / 100 for v in wide],
                 "latency_p50_s")
    assert not s["unresolved"]
    s = _summary([v / 10 for v in wide], [v / 10 - 0.05 for v in wide],
                 "latency_p50_s")
    assert s["unresolved"]
