"""The claim rule of `tools/bench_pairs.py`, on made-up runs."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # q1 0.9825, q3 1.0175


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs").compare


def test_a_change_better_in_every_pair_and_past_the_spread_meets_the_rule(compare):
    entry = compare(PARENT, [p - 0.1 for p in PARENT], "lower")
    assert entry["change_wins"] == 10
    assert entry["gap_past_parent_iqr"] is True and entry["meets_claim_rule"] is True
    assert entry["change_pct"] == pytest.approx(-10.0, abs=0.2)


@pytest.mark.parametrize("losses, meets", [(1, True), (2, False)])
def test_the_rule_needs_nine_tenths_of_the_pairs(compare, losses, meets):
    change = [p - 0.1 for p in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 0.1
    entry = compare(PARENT, change, "lower")
    assert entry["change_wins"] == 10 - losses and entry["gap_past_parent_iqr"] is True
    assert entry["meets_claim_rule"] is meets


def test_a_gap_inside_the_parents_spread_does_not_meet_it(compare):
    # better in every pair, but the medians differ by 0.01 < q3 - q1 = 0.0325
    entry = compare(PARENT, [p - 0.01 for p in PARENT], "lower")
    assert entry["change_wins"] == 10
    assert entry["gap_past_parent_iqr"] is False and entry["meets_claim_rule"] is False


def test_ties_count_for_neither_side(compare):
    entry = compare(PARENT, list(PARENT), "lower")
    assert entry["change_wins"] == 0 and entry["meets_claim_rule"] is False


def test_higher_is_better_counts_the_other_way(compare):
    up = compare(PARENT, [p + 0.1 for p in PARENT], "higher")
    down = compare(PARENT, [p + 0.1 for p in PARENT], "lower")
    assert up["change_wins"] == 10 and up["meets_claim_rule"] is True
    assert down["change_wins"] == 0 and down["meets_claim_rule"] is False
    # a gap is a gap whichever way it points
    assert down["gap_past_parent_iqr"] is True
