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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .graphs import GameGraph
from .solver import SolverError, _frac_json, _integer_table, _integers, solve_exact

__all__ = [
    "BankrollMismatchError",
    "BetPlan",
    "SeriesSpec",
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


@dataclass(frozen=True)
class SeriesSpec:
    """First to ``wins_needed`` takes the series; payouts in grand units."""

    wins_needed: int
    bankroll: Fraction
    target_low: Fraction = Fraction(0)
    target_high: Fraction = Fraction(1)

    def __post_init__(self):
        if self.wins_needed < 1:
            raise ValueError("wins_needed must be at least 1")
        if not self.target_low <= self.bankroll <= self.target_high:
            raise ValueError("bankroll must lie between the two payout targets")


class BetPlan(NamedTuple):
    """Holding to maintain and stake to place at every interior state."""

    spec: SeriesSpec
    holdings: Mapping[tuple[int, int], Fraction]
    stakes: Mapping[tuple[int, int], Fraction]

    def to_json_dict(self) -> dict:
        return {
            "wins_needed": self.spec.wins_needed,
            "bankroll": _frac_json(self.spec.bankroll),
            "target_low": _frac_json(self.spec.target_low),
            "target_high": _frac_json(self.spec.target_high),
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
    vertices = {BLUE_TERMINAL, RED_TERMINAL} | {here for _, here, _, _ in states}
    return GameGraph.from_parts(vertices, edges, blue=BLUE_TERMINAL, red=RED_TERMINAL)


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

    Rejects any bankroll other than the required initial holding — riding
    the ladder from the wrong starting amount is impossible, and the error
    carries the required value.  Holdings and stakes are integers over one
    denominator, checked against the two-successor averaging identity
    (stake up = stake down at every state, else SolverError), and each is
    returned as one Fraction.
    """
    states = _series_states(k)
    graph = _series_graph(states)
    nums, den = _integer_table(graph, solve_exact(graph))
    low, high = Fraction(target_low), Fraction(target_high)
    (low_num, high_num), scale = _integers((low, high))
    spread_num = high_num - low_num
    # holding(v) = low + cost(v) (high - low) = held[v] / unit
    held = {v: low_num * den + n * spread_num for v, n in nums.items()}
    unit = scale * den
    start, given = held[states[0][1]], Fraction(bankroll)
    if given.numerator * unit != start * given.denominator:
        raise BankrollMismatchError(given, Fraction(start, unit))
    spec = SeriesSpec(wins_needed=k, bankroll=given, target_low=low, target_high=high)

    holdings: dict[tuple[int, int], Fraction] = {}
    stakes: dict[tuple[int, int], Fraction] = {}
    for state, here, blue_next, red_next in states:
        up = held[red_next] - held[here]
        if up != held[here] - held[blue_next]:
            raise SolverError(f"the ladder breaks the averaging identity at {here}")
        holdings[state] = Fraction(held[here], unit)
        stakes[state] = Fraction(up, unit)
    return BetPlan(spec=spec, holdings=holdings, stakes=stakes)
