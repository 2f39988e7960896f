"""Betting ladder for a first-to-k series of even-money games.

The states of a best-of-(2k-1) series form a grid: (i, j) means the blue
team has i wins and the red team j.  Each interior state has exactly two
successors — blue wins the next game or red does — so the bidding-game
averaging identity degenerates to the fair-coin recursion, and the exact
cost table *is* the hedging ladder: hold cost(state) at every state (in
units where you finish with target_low if blue takes the series and
target_high if red does) and stake the successor gap on each game.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .graphs import GameGraph
from .solver import _frac_json, _integers, _solve

__all__ = [
    "BankrollMismatchError",
    "BetPlan",
    "build_series_graph",
    "series_bet_plan",
    "state_id",
]

BLUE_TERMINAL = "b"
RED_TERMINAL = "r"


class BankrollMismatchError(ValueError):
    """The ladder only works from exactly the initial holding."""

    def __init__(self, given: Fraction, required: Fraction):
        self.given = given
        self.required = required
        super().__init__(
            f"bankroll {given} cannot ride the ladder; the initial holding must be {required}"
        )


class BetPlan(NamedTuple):
    """First to ``wins_needed`` takes the series, paying ``target_low`` (in
    grand units) if blue takes it and ``target_high`` if red does; the plan
    is the holding to maintain and the stake to place at every interior
    state, starting from ``bankroll``."""

    wins_needed: int
    bankroll: Fraction
    target_low: Fraction
    target_high: Fraction
    holdings: Mapping[tuple[int, int], Fraction]
    stakes: Mapping[tuple[int, int], Fraction]

    def to_json_dict(self) -> dict:
        return {
            "wins_needed": self.wins_needed,
            "bankroll": _frac_json(self.bankroll),
            "target_low": _frac_json(self.target_low),
            "target_high": _frac_json(self.target_high),
            "holdings": {
                state_id(i, j): _frac_json(q) for (i, j), q in sorted(self.holdings.items())
            },
            "stakes": {
                state_id(i, j): _frac_json(q) for (i, j), q in sorted(self.stakes.items())
            },
        }


def state_id(i: int, j: int) -> str:
    return f"s{i}_{j}"


def _series_states(k: int) -> list[tuple[tuple[int, int], str, str, str]]:
    """Each interior state (i, j) of a first-to-k series with its id and
    the ids of its two successors (blue team wins the game, red team wins
    the game); every id is built once."""
    if k < 1:
        raise ValueError("k must be at least 1")
    # ids[i][j] for i, j <= k: a k-th win is the winner's terminal.
    ids = [[state_id(i, j) for j in range(k)] + [RED_TERMINAL] for i in range(k)] + [[BLUE_TERMINAL] * k]
    return [((i, j), ids[i][j], ids[i + 1][j], ids[i][j + 1]) for i in range(k) for j in range(k)]


def _series_graph(states: list[tuple[tuple[int, int], str, str, str]]) -> GameGraph:
    edges = [(here, after) for _, here, *successors in states for after in successors]
    return GameGraph.from_parts((), edges, blue=BLUE_TERMINAL, red=RED_TERMINAL)


def build_series_graph(k: int) -> GameGraph:
    """Score grid for a first-to-k series; all decided states collapse to
    the two terminals."""
    return _series_graph(_series_states(k))


def series_bet_plan(
    k: int,
    bankroll: Fraction,
    target_low: Fraction = Fraction(0),
    target_high: Fraction = Fraction(1),
) -> BetPlan:
    """Exact ladder for a first-to-k series.

    Rejects target_low > target_high before solving, and any bankroll
    other than the required initial holding — riding the ladder from the
    wrong starting amount is impossible, and the error carries the
    required value.  The ladder reads the solver's certified integers:
    holdings and stakes are integers over one denominator, and a Fraction
    is built only for each returned value.

    The stake is the same whichever team takes the next game, with no
    second check: the solve certified 2 N(v) = N(blue_next) + N(red_next)
    for its numerators N over den, and held(v) = low_num den + N(v)
    spread_num is an affine image of N, so held(red_next) - held(v) =
    held(v) - held(blue_next).
    """
    states = _series_states(k)
    low, high = Fraction(target_low), Fraction(target_high)
    if low > high:
        raise ValueError(f"target_low {low} is above target_high {high}")
    graph = _series_graph(states)
    nums, den = _solve(graph)
    (low_num, high_num), scale = _integers((low, high))
    spread_num = high_num - low_num
    # holding(v) = low + cost(v) (high - low) = held[v] / unit
    held = {v: low_num * den + n * spread_num for v, n in zip(graph._names, nums)}
    unit = scale * den
    start, given = held[states[0][1]], Fraction(bankroll)
    if given.numerator * unit != start * given.denominator:
        raise BankrollMismatchError(given, Fraction(start, unit))
    holdings = {state: Fraction(held[here], unit) for state, here, _, _ in states}
    stakes = {state: Fraction(held[red_next] - held[here], unit) for state, here, _, red_next in states}
    return BetPlan(k, given, low, high, holdings, stakes)
