"""Bidding strategies.

Both strategies are functions of the arena's cost table, so an agent is
fixed by its arena and colour: it keeps the certified numerators N over
one denominator den that ``solver._solve`` keeps on the graph, that very
tuple.  Each is written for the player trying to reach *their* terminal,
its goal: Blue's goal is the blue terminal and its cost at v is N(v);
Red's goal is the red terminal and its cost is den - N(v), that is
1 - cost.  With flip 0 for Blue and den for Red, a player's cost is
|flip - N(v)|, 0 at its goal and 1 at the other terminal, and the drop to
a move is |N(v) - N(move)|.  Its moves are ``solver._descent_moves``
towards its goal on the same N, a dearest successor for Red, so one
implementation serves both colours and neither keeps a second table.

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

These strategies are functions of the vertex, so the agents play on the
arena's integer positions (``GameGraph._names``): the optimal and the
safety agent keep the certified numerators and their
``solver._descent_moves`` by position, and the random agent
reads the successor positions ``GameGraph._succ``.  The optimal agent's
ladder is integer: rung t is the upper iterate as numerators over one
power of two (``solver._iterates``), grown on demand, and the play of
each (horizon, vertex) is planned on first use.

Both strategies bid a share that scales with the money, so a built-in
agent bids in integers: its ``_bid`` takes a non-terminal position and
both bankrolls as numerators over one denominator, and returns the bid as
a numerator and a scale (the bid is num / (den * scale)) with the
position of its move.  The winning test, the horizon search and the bid
are integer cross-products, and ``_bid`` builds no ``Fraction``.  Their
one ``decide`` (``_IntegerAgent``) finds the view's vertex, puts the
view's bankrolls over one denominator, asks ``_bid``, builds one
``Fraction`` and names the move.  The engine asks each seat one way
(``_asker``): a built-in agent through ``_bid``, and any class that
defines its own ``decide`` through ``decide``.  Bankrolls and such bids
enter the integers through ``solver._integers``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, NamedTuple

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


# A decision in integers: the bid num / (den * scale) and its move's position.
_Decision = tuple[int, int, int]


class _Refused(Exception):
    """args (color, reason): a ``decide`` decision the engine cannot read, a
    bid that is not an int or a Fraction or a move that names no vertex, or
    one that breaks a protocol rule (``simulate._violation``)."""


class Agent(ABC):
    """A bidding policy: view -> BidDecision, deterministic given the rng.

    An agent sets ``deterministic`` when its ``decide`` is a function of the
    view alone and never reads ``rng``.  The engine then seeds no generator
    for it (``rng`` is None), and when both agents of a batch declare it,
    its games share every step they play from the same state, so each
    distinct step is decided once per batch.  The engine asks a built-in
    agent through its integer ``_bid`` on positions, and any class that
    defines its own ``decide`` through ``decide`` on vertex names.
    """

    name = "agent"
    deterministic = False

    @abstractmethod
    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        raise NotImplementedError


class _IntegerAgent(Agent):
    """A built-in agent on the arena ``_graph``: ``_bid(v, own, opp, den,
    rng)`` is its decision at the non-terminal position v with the
    bankrolls own / den and opp / den (opp None when withheld), in
    integers: (num, scale, move) for the bid num / (den * scale) and the
    move's position.  ``_withheld``, when set, is the ValueError for a
    view without the opponent's bankroll."""

    _withheld: str | None = None

    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        """The view's bankrolls over one denominator (``solver._integers``,
        so ValueError unless each is an int or a Fraction) and its vertex's
        position (KeyError off the graph, ValueError at a terminal), then
        ``_bid``, one ``Fraction`` and the name of the move."""
        own, opp = view.own_money, view.opponent_money
        nums, den = _integers([own] if opp is None else [own, opp])
        if opp is None and self._withheld:
            raise ValueError(self._withheld)
        g = self._graph
        v = g._position[view.position]
        if v >= len(g._succ):
            raise ValueError(f"cannot bid at terminal vertex {view.position!r}")
        num, scale, move = self._bid(v, nums[0], None if opp is None else nums[1], den, rng)
        return BidDecision(Fraction(num, den * scale), g._names[move])


def _asker(g: GameGraph, agent: Agent, color: str) -> Callable[[int, int, int, int, random.Random | None], _Decision]:
    """How the engine asks ``agent`` in ``color``'s seat on g, with
    ``_bid``'s arguments and result: ``_bid`` itself when the agent's class
    keeps the built-in ``decide``, else its ``decide`` on a ``PlayerView``
    (``_Refused`` unless the bid is an int or a Fraction and the move
    names a vertex)."""
    if type(agent).decide is _IntegerAgent.decide:
        return agent._bid
    names, position = g._names, g._position

    def ask(v: int, own: int, opp: int, den: int, rng: random.Random | None) -> _Decision:
        decision = agent.decide(PlayerView(color, names[v], Fraction(own, den), Fraction(opp, den)), rng)
        bid, move = decision.bid, decision.move_to
        try:
            (num,), scale = _integers((bid,))
        except ValueError:
            raise _Refused(color, f"bid {bid!r} is not an int or a Fraction") from None
        try:
            return num * den, scale, position[move]
        except (KeyError, TypeError):
            raise _Refused(color, f"move to {move!r} is not an edge out of {names[v]!r}") from None

    return ask


def _rung_plan(rung: tuple[list[int], int], g: GameGraph, v: int) -> tuple[int, int, int]:
    """Winning play at position v whose horizon is the rung after ``rung``,
    the table N / 2^e: the constant kappa = half the successor gap of this
    table minus half the next rung's value at v, as K / 2^s, and the
    cheapest successor in this table (ties by name), as a position.

    With m and M the cheapest and dearest successor numerators, the next
    rung's value is (m + M) / 2^(e+1), so kappa = (M - 3m) / 2^(e+2).
    """
    (nums, e), succ = rung, g._succ[v]
    move = min(succ, key=nums.__getitem__)
    return max(nums[u] for u in succ) - 3 * nums[move], e + 2, move


class FullKnowledgeAgent(_IntegerAgent):
    """Sees both bankrolls; plays the half-gap bid, or the finite-horizon
    ladder when strictly ahead (see the module docstring)."""

    name = "optimal"
    deterministic = True
    _withheld = "full-knowledge agent requires the opponent's bankroll"

    def __init__(self, graph: GameGraph, color: str):
        nums, den = _solve(graph)
        red = _plays_red(color)
        goal = len(graph._succ) + red
        self._graph, self._nums, self._den, self._flip = graph, nums, den, den if red else 0
        # The losing or critical move of each non-terminal.
        self._moves = _descent_moves(graph, goal, nums)
        # Integer upper-iterate ladder towards the goal, grown on demand:
        # rung t is (N, e), the table N / 2^e.  The winning play of each
        # (horizon, vertex) (_rung_plan) is filled on first use.
        self._upper = _iterates(graph, goal, 1)
        self._ladder: list[tuple[list[int], int]] = [next(self._upper)]
        self._plans: dict[tuple[int, int], tuple[int, int, int]] = {}

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

    def _bid(self, v: int, own: int, opp: int, den: int, rng: random.Random | None) -> _Decision:
        nums, lo = self._nums, self._moves[v]
        # share = own / total, total = (own + opp) / den
        total = own + opp

        if total > 0 and own * self._den > abs(self._flip - nums[v]) * total:
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

        # The cost drop to the move, in total units, capped at the bankroll.
        return min(abs(nums[v] - nums[lo]) * total, own * self._den), self._den, lo


class SafetyRatioAgent(_IntegerAgent):
    """Bids own_money * (cost(v) - cheapest)/cost(v); blind to the opponent.
    Moves by ``_descent_moves``, so won ties make progress."""

    name = "safety"
    deterministic = True

    def __init__(self, graph: GameGraph, color: str):
        nums, den = _solve(graph)
        red = _plays_red(color)
        self._graph, self._nums, self._flip = graph, nums, den if red else 0
        self._moves = _descent_moves(graph, len(graph._succ) + red, nums)

    def _bid(self, v: int, own: int, opp: int | None, den: int, rng: random.Random | None) -> _Decision:
        # own * (cost - cheapest) / cost; at cost 0 the cheapest costs 0 too.
        nums, move = self._nums, self._moves[v]
        cost = abs(self._flip - nums[v])
        return own * abs(nums[v] - nums[move]), cost or 1, move


class UniformRandomBidAgent(_IntegerAgent):
    """Bids a uniform fraction of its bankroll and moves uniformly at random."""

    name = "uniform-random-bid"

    BITS = 32

    def __init__(self, graph: GameGraph, color: str):
        _require_valid(graph)
        _plays_red(color)  # rejects an unknown colour
        self._graph = graph

    def _bid(self, v: int, own: int, opp: int | None, den: int, rng: random.Random) -> _Decision:
        return own * rng.getrandbits(self.BITS), 1 << self.BITS, rng.choice(self._graph._succ[v])


_AGENTS = {cls.name: cls for cls in (FullKnowledgeAgent, SafetyRatioAgent, UniformRandomBidAgent)}
AGENT_NAMES = tuple(_AGENTS)


def make_agent(name: str, graph: GameGraph, color: str) -> Agent:
    """Agent registry used by the CLI; ``name`` is one of AGENT_NAMES."""
    if name not in _AGENTS:
        raise ValueError(f"unknown agent {name!r} (choose from {', '.join(AGENT_NAMES)})")
    return _AGENTS[name](graph, color)
