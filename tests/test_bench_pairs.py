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


def _side(value, unit, name, attempted, failed):
    return {"attempted": attempted, "failed": failed,
            "metrics": {f"w.{name}": {"value": value, "unit": unit}}}


def _runs(parent, pr, name, counts=None):
    """Made-up pairs; counts gives each pair's (attempted, failed) for the
    parent and for the change, by default 100 operations and no
    failure."""
    unit = {"ops_per_s": "1/s", "latency_p50_s": "s"}[name]
    counts = counts or [((100, 0), (100, 0))] * len(parent)
    return [{"pair": k + 1,
             "parent": _side(a, unit, name, *cp),
             "pr": _side(b, unit, name, *cc)}
            for k, (a, b, (cp, cc)) in enumerate(zip(parent, pr, counts))]


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


def _failures(counts):
    values = [10] * len(counts)
    return bench_pairs.failure_totals(_runs(values, values, "ops_per_s",
                                            counts))


def test_failure_share_sums_each_side_over_its_runs():
    counts = [((100, 0), (120, 0)), ((80, 2), (90, 0))]
    f = _failures(counts)
    runs = _runs([10, 11], [10, 11], "ops_per_s", counts)
    assert bench_pairs.summarize(runs, METRICS)["failures"] == f
    assert (f["parent_attempted"], f["parent_failed"]) == (180, 2)
    assert (f["pr_attempted"], f["pr_failed"]) == (210, 0)
    assert f["parent_share"] == 2 / 180 and f["pr_share"] == 0
    assert not f["failure_share_rose"]
    # no failures on either side is no rise
    assert not _failures([((100, 0), (50, 0))] * 3)["failure_share_rose"]


def test_failure_share_rose_compares_shares_not_counts():
    # one failure in 50 is a larger share than two in 200
    assert _failures([((200, 2), (50, 1))])["failure_share_rose"]
    # more failures over more operations at the same share is no rise
    assert not _failures([((100, 1), (300, 3))])["failure_share_rose"]
    # the change failing where the parent never did
    f = _failures([((100, 0), (100, 0)), ((100, 0), (90, 1))])
    assert f["failure_share_rose"] and f["pr_share"] == 1 / 190
    # a side that attempted nothing has no share and cannot rise
    f = _failures([((100, 1), (0, 0))])
    assert f["pr_share"] is None and not f["failure_share_rose"]
