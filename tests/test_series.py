"""The series betting ladder and its score-grid graph."""

import json
from fractions import Fraction

import pytest

from richman import (
    BankrollMismatchError,
    build_series_graph,
    default_move_cap,
    series_bet_plan,
    solve_exact,
    state_id,
    validate,
)

import richman.series
import corpus
from richman.solver import _integers

F = Fraction


def test_pascal_oracle_spot_values():
    # Known by hand: down 0-3 you must win four straight, and the other
    # side wins the next game with probability 1/2 at each rung.
    assert corpus.pascal_red_win(3, 0, 4) == F(1, 16)
    assert corpus.pascal_red_win(0, 3, 4) == F(15, 16)
    assert corpus.pascal_red_win(0, 0, 4) == F(1, 2)
    assert corpus.pascal_red_win(0, 0, 1) == F(1, 2)
    assert corpus.pascal_red_win(2, 2, 3) == F(1, 2)
    # Decided series.
    assert corpus.pascal_red_win(4, 2, 4) == 0
    assert corpus.pascal_red_win(1, 4, 4) == 1


def test_state_id():
    assert state_id(0, 0) == "s0_0"
    assert state_id(2, 3) == "s2_3"


def test_series_graph_shape():
    g1 = build_series_graph(1)
    assert g1.non_terminals == ("s0_0",)
    assert g1.moves["s0_0"] == ("b", "r")

    g4 = build_series_graph(4)
    assert len(g4.vertices) == 18
    assert len(g4.non_terminals) == 16
    for v in g4.non_terminals:
        assert len(g4.moves[v]) == 2
    assert g4.moves["s3_3"] == ("b", "r")
    assert g4.moves["s0_0"] == ("s0_1", "s1_0")
    for k in (1, 2, 3, 5):
        assert validate(build_series_graph(k)).ok
    # Score grids are acyclic, so simulations get the tight cap.
    assert default_move_cap(g4) == 180
    with pytest.raises(ValueError):
        build_series_graph(0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 32, 64])
def test_costs_match_the_binomial_oracle(k):
    costs = solve_exact(build_series_graph(k))
    for i in range(k):
        for j in range(k):
            assert costs[state_id(i, j)] == corpus.pascal_red_win(i, j, k)


def test_bet_plan_for_a_first_to_four_series():
    plan = series_bet_plan(4, F(1, 2))
    assert plan.wins_needed == 4
    assert plan.holdings[(0, 0)] == F(1, 2)
    assert plan.holdings[(0, 3)] == F(15, 16)
    assert plan.holdings[(3, 0)] == F(1, 16)
    assert plan.stakes[(0, 0)] == F(5, 32)
    assert plan.stakes[(3, 3)] == F(1, 2)
    assert len(plan.holdings) == 16
    assert len(plan.stakes) == 16


def test_stake_identity_at_every_state():
    """The stake must bridge the holding to both successor holdings."""
    plan = series_bet_plan(4, F(1, 2))

    def holding(state_key):
        if state_key == "b":
            return plan.target_low
        if state_key == "r":
            return plan.target_high
        i, j = state_key
        return plan.holdings[(i, j)]

    for (i, j), stake in plan.stakes.items():
        up = "r" if j + 1 == 4 else (i, j + 1)
        down = "b" if i + 1 == 4 else (i + 1, j)
        assert holding(up) - holding((i, j)) == stake
        assert holding((i, j)) - holding(down) == stake


def test_bet_plan_for_a_first_to_32_series_equals_the_binomial_sums():
    k = 32
    plan = series_bet_plan(k, F(1, 2))

    def holding(i, j):
        return corpus.pascal_red_win(i, j, k)

    for (i, j), stake in plan.stakes.items():
        assert plan.holdings[(i, j)] == holding(i, j)
        assert stake == holding(i, j + 1) - holding(i, j) == holding(i, j) - holding(i + 1, j)
    assert len(plan.stakes) == k * k


def test_wrong_bankroll_reports_the_required_value():
    with pytest.raises(BankrollMismatchError) as info:
        series_bet_plan(4, F(2, 5))
    assert info.value.given == F(2, 5)
    assert info.value.required == F(1, 2)
    assert "must be 1/2" in str(info.value)
    # Out-of-range bankrolls get the same treatment, not a range error.
    with pytest.raises(BankrollMismatchError):
        series_bet_plan(4, F(7))


def test_custom_payout_targets():
    plan = series_bet_plan(2, F(2), target_low=F(1), target_high=F(3))
    assert plan.holdings[(0, 0)] == 2
    assert plan.holdings[(0, 1)] == 1 + F(3, 4) * 2
    assert plan.stakes[(1, 1)] == 1
    with pytest.raises(BankrollMismatchError) as info:
        series_bet_plan(2, F(1), target_low=F(1), target_high=F(3))
    assert info.value.required == 2


def test_fractional_payout_targets():
    low, high = F(1, 3), F(5, 7)
    cost = solve_exact(build_series_graph(3))

    def holding(i, j):
        vertex = "b" if i == 3 else "r" if j == 3 else state_id(i, j)
        return low + cost[vertex] * (high - low)

    required = holding(0, 0)
    plan = series_bet_plan(3, required, target_low=low, target_high=high)
    assert (plan.bankroll, plan.target_low, plan.target_high) == (required, low, high)
    assert sorted(plan.holdings) == sorted(plan.stakes) == [(i, j) for i in range(3) for j in range(3)]
    for (i, j), held in plan.holdings.items():
        assert held == holding(i, j)
        assert plan.stakes[(i, j)] == holding(i, j + 1) - held == held - holding(i + 1, j)
    with pytest.raises(BankrollMismatchError) as info:
        series_bet_plan(3, required + F(1, 100), target_low=low, target_high=high)
    assert info.value.required == required


def plan_from_the_fraction_table(k, low, high):
    """Holdings, stakes and the required bankroll as built from
    ``solve_exact``'s Fractions, put back into integers over one
    denominator by ``_integers``."""
    g = build_series_graph(k)
    costs = solve_exact(g)
    nums, den = _integers([costs[v] for v in g.vertices])
    (low_num, high_num), scale = _integers((low, high))
    held = {v: F(low_num * den + n * (high_num - low_num), scale * den) for v, n in zip(g.vertices, nums)}
    grid = [(i, j) for i in range(k) for j in range(k)]
    holdings = {(i, j): held[state_id(i, j)] for i, j in grid}
    stakes = {(i, j): held[state_id(i, j + 1) if j + 1 < k else "r"] - held[state_id(i, j)] for i, j in grid}
    return holdings, stakes, held[state_id(0, 0)]


@pytest.mark.parametrize("low, high", [(F(0), F(1)), (F(1, 3), F(5, 4))], ids=["default", "1/3-5/4"])
@pytest.mark.parametrize("k", range(1, 13))
def test_the_plan_equals_the_plan_from_the_fraction_table(k, low, high):
    holdings, stakes, required = plan_from_the_fraction_table(k, low, high)
    plan = series_bet_plan(k, required, target_low=low, target_high=high)
    assert plan == (k, required, low, high, holdings, stakes)
    with pytest.raises(BankrollMismatchError) as info:
        series_bet_plan(k, required + F(1, 7), target_low=low, target_high=high)
    assert info.value.required == required


def test_series_spec_validation():
    with pytest.raises(ValueError, match="at least 1"):
        series_bet_plan(0, F(1, 2))
    with pytest.raises(BankrollMismatchError, match="must be 1/2"):
        series_bet_plan(2, F(3, 2))
    plan = series_bet_plan(2, F(1, 2))
    assert plan.target_low == 0 and plan.target_high == 1


def test_reversed_payout_targets_are_rejected_before_solving(monkeypatch):
    """A bankroll between reversed targets is not the fault: the targets are."""
    solved = []
    solve = richman.series._solve
    monkeypatch.setattr(richman.series, "_solve", lambda g: solved.append(g) or solve(g))
    with pytest.raises(ValueError, match="^target_low 1 is above target_high 0$"):
        series_bet_plan(2, F(1, 2), target_low=F(1), target_high=F(0))
    assert solved == []


def test_bet_plan_json():
    plan = series_bet_plan(1, F(1, 2))
    payload = plan.to_json_dict()
    assert payload["wins_needed"] == 1
    assert payload["bankroll"] == {"num": 1, "den": 2}
    assert payload["holdings"] == {"s0_0": {"num": 1, "den": 2}}
    assert payload["stakes"] == {"s0_0": {"num": 1, "den": 2}}
    json.dumps(payload)
