"""scripts/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_pairs.py"


_spec = importlib.util.spec_from_file_location("_bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


def test_a_clear_gain_is_claimable():
    parent = [1.0, 1.1, 0.9, 1.2, 1.0, 0.95, 1.05, 1.1, 1.0, 0.9]
    change = [v / 2 for v in parent]
    s = summarize(parent, change, "lower")
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["parent"][1] == 1.0 and s["change"][1] == 0.5
    assert s["claim"]


def test_eight_wins_in_ten_are_not_enough():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]  # one tie, one loss
    s = summarize(parent, change, "lower")
    assert (s["wins"], s["losses"]) == (8, 1)
    assert not s["claim"]


def test_a_gap_within_the_parent_spread_is_not_enough():
    parent = [1.0, 2.0] * 5  # quartile distance 1.0
    change = [v - 0.5 for v in parent]  # wins every pair by less
    s = summarize(parent, change, "lower")
    assert s["wins"] == 10 and s["parent"][2] - s["parent"][0] == 1.0
    assert not s["claim"]


def test_higher_is_better_counts_the_other_way():
    assert summarize([1.0] * 10, [2.0] * 10, "higher")["claim"]
    s = summarize([1.0] * 10, [2.0] * 10, "lower")
    assert (s["wins"], s["losses"], s["claim"]) == (0, 10, False)


def test_one_pair_has_no_spread():
    s = summarize([2.0], [1.0], "lower")
    assert s["parent"] == (2.0, 2.0, 2.0) and s["claim"]
