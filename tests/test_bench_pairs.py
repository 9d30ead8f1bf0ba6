"""tools/bench_pairs.py: wins, quartiles and the gain rule on made-up runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "latency_p50_s": "lower"}


def _runs(parent, pr, name):
    unit = {"ops_per_s": "1/s", "latency_p50_s": "s"}[name]
    return [{"pair": k + 1,
             "parent": {"metrics": {f"w.{name}": {"value": a, "unit": unit}}},
             "pr": {"metrics": {f"w.{name}": {"value": b, "unit": unit}}}}
            for k, (a, b) in enumerate(zip(parent, pr))]


def test_gain_rule_needs_nine_tenths_of_wins_and_a_gap_above_the_iqr():
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    s = bench_pairs.summarize(_runs(parent, [v + 5 for v in parent],
                                    "ops_per_s"), BETTER)["w.ops_per_s"]
    assert (s["pr_wins"], s["pairs"], s["gain_rule_holds"]) == (10, 10, True)
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (10.25, 11,
                                                                    11.75)
    assert s["median_change"] == 16 / 11 - 1
    # two ties and one loss: 7 of 10 wins is not enough
    pr = [v + 5 for v in parent[:7]] + [10, 11, 11]
    s = bench_pairs.summarize(_runs(parent, pr, "ops_per_s"),
                              BETTER)["w.ops_per_s"]
    assert (s["pr_wins"], s["gain_rule_holds"]) == (7, False)
    # every pair won, but by less than the parent's spread
    s = bench_pairs.summarize(_runs(parent, [v + 0.5 for v in parent],
                                    "ops_per_s"), BETTER)["w.ops_per_s"]
    assert (s["pr_wins"], s["gain_rule_holds"]) == (10, False)


def test_lower_is_better_counts_a_fall_as_a_win():
    parent = [0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.11]
    s = bench_pairs.summarize(_runs(parent, [v / 2 for v in parent],
                                    "latency_p50_s"), BETTER)
    assert s["w.latency_p50_s"]["pr_wins"] == 10
    assert s["w.latency_p50_s"]["gain_rule_holds"]
    assert s["w.latency_p50_s"]["better"] == "lower"
