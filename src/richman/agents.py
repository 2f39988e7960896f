"""Bidding strategies.

Both strategies are functions of the arena's cost table, so an agent is
fixed by its arena and colour: it reads the certified numerators N over
one denominator den that ``solver._solve`` keeps on the graph.  Each is
written for the player trying to reach *their* terminal, its goal
(``_oriented``): Blue's goal is the blue terminal and its costs are N;
Red's goal is the red terminal and its costs are den - N, that is
1 - cost.  Each player's cost is then 0 at its goal and 1 at the other
terminal, which turns Red's steepest ascent into steepest descent and
lets one implementation serve both colors.

Agents included:

* ``FullKnowledgeAgent`` ("optimal") sees both bankrolls.  In a losing or
  critical position it bids the classic half-gap (cost(dearest) -
  cost(cheapest))/2 of the total supply, capped at its bankroll, and moves
  by ``_descent_moves``.  In a strictly winning position it plays the
  finite-horizon ladder: find the smallest t with upper-iterate(v, t) below
  its share, bid half the successor gap of table t-1 plus half the slack
  share - upper-iterate(v, t) (always less than its bankroll, so never
  capped), and move to the successor cheapest in table t-1.  That wins
  within t moves no matter how ties are broken; bidding off the limiting
  costs instead can wander down a cheap-but-long branch and miss the
  bound.
* ``SafetyRatioAgent`` ("safety") never reads the opponent's bankroll: it
  bids own_money * (cost(v) - cheapest successor cost) / cost(v), which
  keeps own_share / cost(v) from ever decreasing, and moves by
  ``_descent_moves``.
* ``UniformRandomBidAgent`` ("uniform-random-bid") is a seeded chaos monkey
  for tests.

These strategies are functions of the vertex, so each agent plans every
vertex once, when it is built, on the arena's integer positions
(``GameGraph._names``), and keys its plans by name for the engine: the
optimal agent its losing play (its ``solver._descent_moves`` move and cost
drop), the safety agent its bid rate and move; the random agent reads
the move table.  The optimal agent's ladder is integer: rung t is the
upper iterate as numerators over one power of two (``solver._iterates``),
grown on demand, and the play of each (horizon, vertex) is planned on
first use.

Both strategies bid a share that scales with the money, so an agent bids
in numerators: ``Agent._bid`` takes both bankrolls as integers over one
denominator and returns the bid as a numerator and a scale (the bid is
num / (den * scale)) with its move.  The winning test, the horizon search
and the bid are integer cross-products, and the built-in agents' ``_bid``
builds no ``Fraction``.  The game engine asks ``_bid``; each built-in
``decide`` puts the view's bankrolls over one denominator, asks ``_bid``
and builds one ``Fraction``.  The base class's ``_bid`` asks ``decide``,
so an agent that defines only ``decide`` plays too, and so does a
subclass of a built-in agent that overrides ``decide``.  Bankrolls and
such bids enter the integers through ``solver._integers``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, NamedTuple, NoReturn, Sequence

from .graphs import GameGraph
from .solver import SolverError, _descent_moves, _integers, _iterates, _require_valid, _solve

__all__ = [
    "AGENT_NAMES",
    "Agent",
    "BidDecision",
    "FullKnowledgeAgent",
    "GameState",
    "PlayerView",
    "SafetyRatioAgent",
    "UniformRandomBidAgent",
    "make_agent",
]

COLORS = ("blue", "red")


def _plays_red(color: str) -> bool:
    """Whether ``color`` plays towards the red terminal, reading every cost
    as 1 - cost; ValueError for a colour other than blue and red."""
    if color not in COLORS:
        raise ValueError(f"unknown color {color!r}")
    return color == "red"


class GameState(NamedTuple):
    """Token position plus both bankrolls (exact rationals)."""

    position: str
    blue_money: Fraction
    red_money: Fraction

    @property
    def total(self) -> Fraction:
        return self.blue_money + self.red_money

    def money(self, color: str) -> Fraction:
        return self.red_money if _plays_red(color) else self.blue_money


class PlayerView(NamedTuple):
    """What one player is shown before bidding.

    ``opponent_money`` is None when the opponent's bankroll is withheld;
    agents that need it must fail loudly rather than guess.
    """

    color: str
    position: str
    own_money: Fraction
    opponent_money: Fraction | None


class BidDecision(NamedTuple):
    """A sealed bid plus the move to make if the bid wins."""

    bid: Fraction
    move_to: str


class _InexactBid(Exception):
    """args (color, bid): a ``decide`` bid that is not an int or a Fraction."""


class Agent(ABC):
    """A bidding policy: view -> BidDecision, deterministic given the rng.

    An agent sets ``deterministic`` when its ``decide`` is a function of the
    view alone and never reads ``rng``.  The engine then seeds no generator
    for it (``rng`` is None), and when both agents of a batch declare it,
    its games share every step they play from the same state, so each
    distinct step is decided once per batch.
    """

    name = "agent"
    deterministic = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A class that overrides decide and not _bid is asked through its decide.
        if "decide" in vars(cls) and "_bid" not in vars(cls):
            cls._bid = Agent._bid

    @abstractmethod
    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        raise NotImplementedError

    def _bid(
        self, color: str, position: str, own: int, opp: int | None, den: int, rng: random.Random | None
    ) -> tuple[int, int, str]:
        """The decision of ``color`` at ``position`` with the bankrolls
        own / den and opp / den (opp None when withheld), in numerators:
        (num, scale, move) for the bid num / (den * scale).  This one asks
        ``decide`` (``_InexactBid`` unless its bid is an int or a
        Fraction); the built-in agents bid in integers."""
        view = PlayerView(color, position, Fraction(own, den), None if opp is None else Fraction(opp, den))
        decision = self.decide(view, rng)
        try:
            (num,), scale = _integers((decision.bid,))
        except ValueError:
            raise _InexactBid(color, decision.bid) from None
        return num * den, scale, decision.move_to


def _decision(bid: Callable, agent: Agent, view: PlayerView, rng: random.Random | None) -> BidDecision:
    """A built-in agent's ``decide``: the view's bankrolls over one
    denominator (``solver._integers``, so ValueError unless each is an int
    or a Fraction), then its class's ``_bid``, then one ``Fraction``."""
    own, opp = view.own_money, view.opponent_money
    nums, den = _integers([own] if opp is None else [own, opp])
    opp_num = None if opp is None else nums[1]
    num, scale, move = bid(agent, view.color, view.position, nums[0], opp_num, den, rng)
    return BidDecision(Fraction(num, den * scale), move)


def _oriented(g: GameGraph, color: str) -> tuple[int, Sequence[int], int]:
    """``color``'s goal terminal on g and its costs as integer numerators N
    over one denominator den, 0 at the goal and den at the other terminal:
    the certified table's own numerators (``solver._solve``, which checks
    the arena) for Blue, den - N for Red, all by position (``g._names``)."""
    nums, den = _solve(g)
    blue = len(g._succ)
    if _plays_red(color):
        return blue + 1, [den - n for n in nums], den
    return blue, nums, den


def _no_play(g: GameGraph, v: str) -> NoReturn:
    """Raise for a position an agent has no play at: KeyError off the graph,
    ValueError at a terminal."""
    if v not in g.vertices:
        raise KeyError(v)
    raise ValueError(f"cannot bid at terminal vertex {v!r}")


def _rung_plan(rung: tuple[list[int], int], g: GameGraph, v: int) -> tuple[int, int, str]:
    """Winning play at position v whose horizon is the rung after ``rung``,
    the table N / 2^e: the constant kappa = half the successor gap of this
    table minus half the next rung's value at v, as K / 2^s, and the
    cheapest successor in this table (ties by name).

    With m and M the cheapest and dearest successor numerators, the next
    rung's value is (m + M) / 2^(e+1), so kappa = (M - 3m) / 2^(e+2).
    """
    (nums, e), succ = rung, g._succ[v]
    move = min(succ, key=nums.__getitem__)
    return max(nums[u] for u in succ) - 3 * nums[move], e + 2, g._names[move]


class FullKnowledgeAgent(Agent):
    """Sees both bankrolls; plays the half-gap bid, or the finite-horizon
    ladder when strictly ahead (see the module docstring)."""

    name = "optimal"
    deterministic = True

    def __init__(self, graph: GameGraph, color: str):
        goal, nums, den = _oriented(graph, color)
        self._graph = graph
        self._den = den
        names = graph._names
        # Losing or critical play per non-terminal: the numerators over den
        # of its cost and of the drop to its move, the move and the vertex's
        # position; the bid is drop * total.
        self._critical: dict[str, tuple[int, int, str, int]] = {
            names[v]: (nums[v], nums[v] - nums[lo], names[lo], v)
            for v, lo in enumerate(_descent_moves(graph, goal, nums))
        }
        # Integer upper-iterate ladder towards the goal, grown on demand:
        # rung t is (N, e), the table N / 2^e.  The winning play of each
        # (horizon, vertex) (_rung_plan) is filled on first use.
        self._upper = _iterates(graph, goal, 1)
        self._ladder: list[tuple[list[int], int]] = [next(self._upper)]
        self._plans: dict[tuple[int, int], tuple[int, int, str]] = {}

    def _horizon(self, v: int, p: int, q: int) -> int:
        """Smallest t with upper-iterate(v, t) < p / q at position v, that
        is N_t(v) q < p 2^e_t.  Exists whenever p / q exceeds the exact cost
        of v.  The rungs built so far are bisected; the ladder grows only
        when all of them are >= p / q."""

        def below(rung: tuple[list[int], int]) -> bool:
            return rung[0][v] * q < p << rung[1]

        ladder = self._ladder
        t = bisect_left(ladder, True, key=below)
        while t == len(ladder):
            if t > 100_000:
                raise SolverError(f"no iterate at {self._graph._names[v]!r} ever drops below {Fraction(p, q)}")
            ladder.append(next(self._upper))
            if not below(ladder[t]):
                t += 1
        return t

    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        return _decision(FullKnowledgeAgent._bid, self, view, rng)

    def _bid(
        self, color: str, position: str, own: int, opp: int | None, den: int, rng: random.Random | None
    ) -> tuple[int, int, str]:
        if opp is None:
            raise ValueError("full-knowledge agent requires the opponent's bankroll")
        critical = self._critical.get(position)
        if critical is None:
            _no_play(self._graph, position)
        cost, drop, lo, v = critical
        # share = own / total, total = (own + opp) / den
        total = own + opp

        if total > 0 and own * self._den > cost * total:
            t = self._horizon(v, own, total)
            plan = self._plans.get((t, v))
            if plan is None:
                plan = self._plans[t, v] = _rung_plan(self._ladder[t - 1], self._graph, v)
            kappa, s, move = plan
            # Half the gap of rung t-1 plus half the slack share - rung t, in
            # total units: own/2 + kappa total, which lies in (0, own) with no
            # cap.  With rung t-1 the table N / 2^e and 0 <= m <= M the
            # numerators of the vertex's cheapest and dearest successors,
            # share exceeds rung t at the vertex, (m + M) / 2^(e+1), which is
            # at least both (M - 3m) / 2^(e+1) = 2 kappa and -2 kappa; so
            # |kappa| total < own / 2.
            return (own << (s - 1)) + kappa * total, 1 << s, move

        return min(drop * total, own * self._den), self._den, lo


class SafetyRatioAgent(Agent):
    """Bids own_money * (cost(v) - cheapest)/cost(v); blind to the opponent.
    Moves by ``_descent_moves``, so won ties make progress."""

    name = "safety"
    deterministic = True

    def __init__(self, graph: GameGraph, color: str):
        goal, nums, _ = _oriented(graph, color)
        self._graph = graph
        names = graph._names
        # (rate numerator, rate denominator, move) per non-terminal; the
        # bid is own_money * rate, and the rate is 0 at cost 0.
        self._plan: dict[str, tuple[int, int, str]] = {
            names[v]: (nums[v] - nums[m], nums[v], names[m]) if nums[v] else (0, 1, names[m])
            for v, m in enumerate(_descent_moves(graph, goal, nums))
        }

    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        return _decision(SafetyRatioAgent._bid, self, view, rng)

    def _bid(
        self, color: str, position: str, own: int, opp: int | None, den: int, rng: random.Random | None
    ) -> tuple[int, int, str]:
        plan = self._plan.get(position)
        if plan is None:
            _no_play(self._graph, position)
        rate_num, rate_den, move = plan
        return own * rate_num, rate_den, move


class UniformRandomBidAgent(Agent):
    """Bids a uniform fraction of its bankroll and moves uniformly at random."""

    name = "uniform-random-bid"

    BITS = 32

    def __init__(self, graph: GameGraph, color: str):
        _require_valid(graph)
        _plays_red(color)  # rejects an unknown colour
        self._graph = graph

    def decide(self, view: PlayerView, rng: random.Random) -> BidDecision:
        return _decision(UniformRandomBidAgent._bid, self, view, rng)

    def _bid(
        self, color: str, position: str, own: int, opp: int | None, den: int, rng: random.Random
    ) -> tuple[int, int, str]:
        succ = self._graph.moves.get(position)
        if succ is None:
            _no_play(self._graph, position)
        return own * rng.getrandbits(self.BITS), 1 << self.BITS, rng.choice(succ)


AGENT_NAMES = ("optimal", "safety", "uniform-random-bid")


def make_agent(name: str, graph: GameGraph, color: str) -> Agent:
    """Agent registry used by the CLI; ``name`` is one of AGENT_NAMES."""
    if name == "optimal":
        return FullKnowledgeAgent(graph, color)
    if name == "safety":
        return SafetyRatioAgent(graph, color)
    if name == "uniform-random-bid":
        return UniformRandomBidAgent(graph, color)
    raise ValueError(f"unknown agent {name!r} (choose from {', '.join(AGENT_NAMES)})")
