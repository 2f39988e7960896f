"""Betting ladder for a first-to-k series of even-money games.

The states of a best-of-(2k-1) series form a grid: (i, j) means the blue
team has i wins and the red team j.  Each interior state has exactly two
successors — blue wins the next game or red does — so the bidding-game
averaging identity degenerates to the fair-coin recursion, and the exact
cost table *is* the hedging ladder: hold cost(state) at every state (in
units where you finish with target_low if blue takes the series and
target_high if red does) and stake the successor gap on each game.

The ladder solves its grid on positions (``_grid``) by the solver's
back-substitution and certificate, with no ``GameGraph``; a test proves
that the grid names into ``build_series_graph``, so it is not validated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .graphs import GameGraph
from .solver import _back_substitute, _frac_json, _integers

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
            "holdings": {state_id(*s): _frac_json(q) for s, q in sorted(self.holdings.items())},
            "stakes": {state_id(*s): _frac_json(q) for s, q in sorted(self.stakes.items())},
        }


def state_id(i: int, j: int) -> str:
    return f"s{i}_{j}"


def _grid(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[int]]:
    """The first-to-k grid on positions: state (i, j) is i k + j, Blue
    k^2, Red k^2 + 1.  Returns the states, their (blue wins next, red wins
    next) successors, and the depth, 2k - 1 - i - j (0 at a terminal)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    blue = k * k
    states = [(i, j) for i in range(k) for j in range(k)]
    succ = [(blue if i + 1 == k else v + k, blue + 1 if j + 1 == k else v + 1) for v, (i, j) in enumerate(states)]
    return states, succ, [2 * k - 1 - i - j for i, j in states] + [0, 0]


def build_series_graph(k: int) -> GameGraph:
    """Score grid for a first-to-k series, ``_grid`` named by ``state_id``;
    all decided states collapse to the two terminals."""
    states, succ, _ = _grid(k)
    names = [state_id(*s) for s in states] + [BLUE_TERMINAL, RED_TERMINAL]
    edges = [(names[v], names[u]) for v, ts in enumerate(succ) for u in ts]
    return GameGraph.from_parts((), edges, blue=BLUE_TERMINAL, red=RED_TERMINAL)


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
    required value.  Holdings and stakes are integers over one
    denominator up to the returned Fractions.

    The stake is the same whichever team takes the next game, with no
    second check: the solve certified 2 N(v) = N(blue_next) + N(red_next)
    for its numerators N over den, and held(v) = low_num den + N(v)
    spread_num is an affine image of N, so held(red_next) - held(v) =
    held(v) - held(blue_next).
    """
    states, succ, depth = _grid(k)
    low, high = Fraction(target_low), Fraction(target_high)
    if low > high:
        raise ValueError(f"target_low {low} is above target_high {high}")
    nums, den = _back_substitute(succ, depth)
    (low_num, high_num), scale = _integers((low, high))
    spread_num = high_num - low_num
    # holding(v) = low + cost(v) (high - low) = held[v] / unit
    held = [low_num * den + n * spread_num for n in nums]
    unit = scale * den
    start, given = held[0], Fraction(bankroll)
    if given.numerator * unit != start * given.denominator:
        raise BankrollMismatchError(given, Fraction(start, unit))
    holdings = {state: Fraction(n, unit) for state, n in zip(states, held)}
    stakes = {state: Fraction(held[red_next] - n, unit) for state, n, (_, red_next) in zip(states, held, succ)}
    return BetPlan(k, given, low, high, holdings, stakes)
