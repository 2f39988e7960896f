"""Game execution: the bidding protocol and the coin-flip variant.

All randomness is derived, never ambient: every random draw comes from a
``random.Random`` seeded by a SHA-256 hash of (master seed, purpose, game
index, ...), so a game is a pure function of its arguments and batches can
run in any order without changing results.  A batch builds its generators
once and reseeds them for each game and each tie.

Bids are sealed: both agents are queried before either bid is revealed,
the higher bid wins, the winner pays its own bid to the loser and moves
the token.  Exactly equal bids go to the tiebreak policy ("fair" draws a
derived coin; "always-blue" / "always-red" are adversarial fixtures).

A game plays on the arena's integer positions (``GameGraph._succ``) and
keeps its money as integers: both bankrolls are numerators over one
denominator.  A batch picks once how to ask each seat
(``agents._asker``): a built-in agent through its integer ``_bid``, and
any class that defines its own ``decide`` through ``decide``.  Either way
the engine gets the bid as a numerator and a scale over that denominator
and the move as a position, checks them, and compares the two bids as
integer cross-products.  The winner's payment multiplies the denominator
by its scale, and one gcd of both numerators and the denominator keeps
long games small.  A segment of play keeps its exchanges as integer
tuples and builds their ``Step``s, the ``Fraction``-valued public record
with vertex names, once, when a record is first asked for: ``run_batch``
tallies outcomes and move counts without them and builds a
``GameRecord`` only for ``on_record``.

One engine plays every bidding game, and a batch sets it up once: the
checked arguments and move cap, the start bankrolls in integers, the
generators and the play tree (``play_richman_game`` is a batch of the one
game it plays).  The engine plays from a state until the game ends or a
bid tie needs a coin, and keeps each such segment of steps in the play
tree, whose branches are keyed by the tie winners.  A game follows the
tree from its root, drawing its own coin at each tie, and plays on only
where it leaves the tree.  When both agents are ``deterministic`` (their
decisions are functions of the view alone) the games of a batch share one
tree, so a batch of identical games plays one, and memory is bounded by
the distinct steps the batch played: the games' records share the Step
objects of their common prefix.  Any other pairing plays each game on a
tree of its own, with the agents' generators reseeded per game.

The coin-flip variant has no money and no agents: each move's coin is
the draw of ``Random.choice(("blue", "red"))`` on the game's own derived
generator, and its winner moves by ``solver._pick_policy`` on the
arena's certified numerators, which halts, so every game ends with
probability 1 and Red wins with probability cost(start).
``random_turn_stats`` reads the coins in bulk and walks that move table
on the integer positions, built once per call; a game keeps only where
it stopped.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .agents import Agent, GameState, _asker, _Decision, _Refused
from .graphs import GameGraph
from .solver import _frac_json, _integers, _pick_policy, _require_valid, _solve

__all__ = [
    "BatchStats",
    "GameRecord",
    "ProtocolViolationError",
    "RandomTurnStats",
    "Step",
    "TIEBREAKS",
    "default_move_cap",
    "derived_seed",
    "format_trace",
    "play_richman_game",
    "random_turn_move_cap",
    "random_turn_stats",
    "run_batch",
]

TIEBREAKS = ("fair", "always-blue", "always-red")

BLUE_WINS = "BlueWins"
RED_WINS = "RedWins"
UNRESOLVED = "Unresolved"


class ProtocolViolationError(Exception):
    """An agent bid more than it had, less than zero or inexactly, or moved off-graph."""

    def __init__(self, color: str, reason: str, game_index: int):
        self.color = color
        self.reason = reason
        self.game_index = game_index
        super().__init__(f"{color} agent violated protocol in game {game_index}: {reason}")


def derived_seed(*parts: object) -> int:
    """A 64-bit seed that is a pure function of the given parts."""
    text = ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class Step(NamedTuple):
    """One exchange: sealed bids, resolution, payment, move.

    ``tie`` is None when the bids differed; on equal bids it records the
    tiebreak outcome (True: Blue got the move, False: Red).
    """

    index: int
    position: str
    blue_bid: Fraction
    red_bid: Fraction
    tie: bool | None
    winner: str
    transfer: Fraction
    move_to: str
    blue_after: Fraction
    red_after: Fraction


class GameRecord(NamedTuple):
    """Full trace of one game."""

    start: str
    steps: tuple[Step, ...]
    outcome: str
    move_cap: int

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "outcome": self.outcome,
            "move_cap": self.move_cap,
            "steps": [
                {k: _frac_json(x) if type(x) is Fraction else x for k, x in s._asdict().items()}
                for s in self.steps
            ],
        }


class BatchStats(NamedTuple):
    """Tallies over a batch of games."""

    runs: int
    blue_wins: int
    red_wins: int
    unresolved: int
    move_counts: tuple[int, ...]
    master_seed: int

    def histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for n in self.move_counts:
            out[n] = out.get(n, 0) + 1
        return dict(sorted(out.items()))

    def to_json_dict(self) -> dict:
        payload = self._asdict()
        del payload["move_counts"]
        payload["move_histogram"] = {str(k): v for k, v in self.histogram().items()}
        return payload


def _frac_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def default_move_cap(g: GameGraph) -> int:
    """10 |V| when the non-terminal part is acyclic, else 64 |V|."""
    factor = 64 if g._depth is None else 10
    return factor * len(g.vertices)


def random_turn_move_cap(g: GameGraph, runs: int) -> int:
    """Cap for coin-flip batches, scaled so n games see no draws in practice."""
    return 10 * len(g.vertices) * max(1, math.ceil(math.log2(max(2, runs))))


def _outcome(g: GameGraph, end: int) -> str:
    """The outcome of a game that stopped at position ``end``."""
    blue = len(g._succ)
    return BLUE_WINS if end == blue else RED_WINS if end == blue + 1 else UNRESOLVED


def _violation(color: str, decision: _Decision, own: int, den: int, g: GameGraph, v: int) -> None:
    """Raise ``_Refused`` for the first protocol rule ``color``'s decision
    at position v breaks with the bankroll own / den, if any."""
    num, scale, move = decision
    if num < 0:
        raise _Refused(color, f"negative bid {Fraction(num, den * scale)}")
    if num > own * scale:
        bid, bankroll = Fraction(num, den * scale), Fraction(own, den)
        raise _Refused(color, f"bid {bid} exceeds bankroll {bankroll}")
    if move not in g._succ[v]:
        reason = f"move to {g._names[move]!r} is not an edge out of {g._names[v]!r}"
        raise _Refused(color, reason)


# A bid tie waiting for its coin: step index, position, both decisions,
# and both bankroll numerators and their denominator before the exchange.
_Tie = tuple[int, int, _Decision, _Decision, int, int, int]

# One exchange: the tie it settled, the Step's ``tie`` field, the winner,
# its move's position, and both bankroll numerators and their denominator
# after it.
_Exchange = tuple[_Tie, bool | None, str, int, int, int, int]


def _exchange(tie: _Tie, winner: str, coin: bool | None) -> _Exchange:
    """Exchange ``tie`` won by ``winner``: it pays its bid to the other
    player and moves.  ``coin`` is the Step's ``tie`` field."""
    _, _, (blue_num, blue_scale, blue_move), (red_num, red_scale, red_move), blue, red, den = tie
    # to_blue is what Blue receives over den * scale: the winner's bid, paid
    # by Blue (negative) or to it.
    if winner == "blue":
        move, scale, to_blue = blue_move, blue_scale, -blue_num
    else:
        move, scale, to_blue = red_move, red_scale, red_num
    blue, red, den = blue * scale + to_blue, red * scale - to_blue, den * scale
    common = math.gcd(blue, red, den)  # keeps the integers of long games small
    return tie, coin, winner, move, blue // common, red // common, den // common


def _step(exchange: _Exchange, names: tuple[str, ...]) -> Step:
    """The public record of ``exchange``, its positions named by ``names``."""
    tie, coin, winner, move_to, blue_after, red_after, den_after = exchange
    index, v, (blue_num, blue_scale, _), (red_num, red_scale, _), _, _, den = tie
    blue_bid, red_bid = Fraction(blue_num, den * blue_scale), Fraction(red_num, den * red_scale)
    transfer = blue_bid if winner == "blue" else red_bid
    after = Fraction(blue_after, den_after), Fraction(red_after, den_after)
    return Step(index, names[v], blue_bid, red_bid, coin, winner, transfer, names[move_to], *after)


class _Segment:
    """A node of a batch's play tree: ``exchanges`` run from a state until
    the game ends at position ``end`` (``tie`` None) or a bid tie needs a
    coin (``tie`` the tied exchange); ``after`` maps each coin's winner to
    the next segment, which starts with that exchange.  The segment's Steps
    are built on first request and then shared by every record that
    passes through it."""

    __slots__ = ("exchanges", "tie", "end", "after", "_steps")

    def __init__(self, exchanges: list[_Exchange], tie: _Tie | None, end: int):
        self.exchanges = exchanges
        self.tie = tie
        self.end = end
        self.after: dict[str, _Segment] = {}
        self._steps: tuple[Step, ...] | None = None

    def steps(self, names: tuple[str, ...]) -> tuple[Step, ...]:
        if self._steps is None:
            self._steps = tuple(_step(exchange, names) for exchange in self.exchanges)
        return self._steps


class _Batch:
    """A bidding batch's set-up, done once: the checked arguments and move
    cap, how to ask each seat (``agents._asker``), the start position and
    bankrolls as integers over one denominator (by ``solver._integers``),
    one generator per random role (each agent's, None for a
    ``deterministic`` agent, and the tie coin's), reseeded for each game
    and each tie, and the play tree, its root the entry None.
    Games of two deterministic agents share the tree; any other pair plays
    each game on a tree of its own."""

    def __init__(
        self, g: GameGraph, blue: Agent, red: Agent, start: GameState, tiebreak: str, max_moves: int | None, seed: int
    ):
        _require_valid(g)
        if start.position not in g.vertices:
            raise ValueError(f"unknown start vertex {start.position!r}")
        if g.is_terminal(start.position):
            raise ValueError(f"start position {start.position!r} is terminal; nothing to bid for")
        (blue_money, red_money), den = _integers((start.blue_money, start.red_money))
        if blue_money < 0 or red_money < 0:
            raise ValueError("bankrolls must be nonnegative")
        if tiebreak not in TIEBREAKS:
            raise ValueError(f"unknown tiebreak policy {tiebreak!r} (choose from {TIEBREAKS})")
        if max_moves is not None and max_moves < 0:
            raise ValueError("max_moves must be nonnegative")
        self.g, self.start, self.seed = g, start, seed
        self.asks = _asker(g, blue, "blue"), _asker(g, red, "red")
        self.cap = default_move_cap(g) if max_moves is None else max_moves
        self.root = (0, g._position[start.position], blue_money, red_money, den)
        self.rngs = tuple(None if agent.deterministic else random.Random() for agent in (blue, red))
        # The tie winner, or None when a fair coin decides.
        self.tie_winner = {"always-blue": "blue", "always-red": "red"}.get(tiebreak)
        self.coin = random.Random()
        self.tree: dict[str | None, _Segment] | None = {} if blue.deterministic and red.deterministic else None

    def segment(
        self, exchanges: list[_Exchange], index: int, v: int, blue_money: int, red_money: int, den: int
    ) -> _Segment:
        """Play on from step ``index`` at position v, with the bankrolls
        blue_money / den and red_money / den, to a terminal, the cap or a
        bid tie; ``exchanges`` are the segment's exchanges so far.  A
        decision that breaks the protocol raises ``_Refused``."""
        blue_rng, red_rng = self.rngs
        blue_ask, red_ask = self.asks
        g, succ, cap = self.g, self.g._succ, self.cap
        while index < cap and v < len(succ):
            out = succ[v]
            blue_decision = blue_ask(v, blue_money, red_money, den, blue_rng)
            red_decision = red_ask(v, red_money, blue_money, den, red_rng)
            (blue_num, blue_scale, blue_move), (red_num, red_scale, red_move) = blue_decision, red_decision
            if not (0 <= blue_num <= blue_money * blue_scale and blue_move in out):
                _violation("blue", blue_decision, blue_money, den, g, v)
            if not (0 <= red_num <= red_money * red_scale and red_move in out):
                _violation("red", red_decision, red_money, den, g, v)
            lead = blue_num * red_scale - red_num * blue_scale
            tie = (index, v, blue_decision, red_decision, blue_money, red_money, den)
            if lead == 0:
                return _Segment(exchanges, tie, v)
            exchange = _exchange(tie, "blue" if lead > 0 else "red", None)
            exchanges.append(exchange)
            _, _, _, v, blue_money, red_money, den = exchange
            index += 1
        return _Segment(exchanges, None, v)

    def path(self, game_index: int) -> list[_Segment]:
        """The segments game ``game_index`` plays along the play tree,
        growing the tree where the game leaves it.  Its draws depend only
        on (seed, game_index)."""
        for rng, color in zip(self.rngs, ("blue", "red")):
            if rng is not None:
                rng.seed(derived_seed(self.seed, "agent", game_index, color))
        path = []
        after, winner, tie = {} if self.tree is None else self.tree, None, None
        while True:
            node = after.get(winner)
            if node is None:
                if tie is None:
                    first, state = [], self.root
                else:
                    exchange = _exchange(tie, winner, winner == "blue")
                    first, state = [exchange], (tie[0] + 1, *exchange[3:])
                try:
                    node = after[winner] = self.segment(first, *state)
                except _Refused as err:
                    raise ProtocolViolationError(*err.args, game_index) from None
            path.append(node)
            tie, after = node.tie, node.after
            if tie is None:
                return path
            winner = self.tie_winner
            if winner is None:
                self.coin.seed(derived_seed(self.seed, "tie", game_index, tie[0]))
                winner = self.coin.choice(("blue", "red"))

    def record(self, path: list[_Segment]) -> GameRecord:
        names = self.g._names
        steps = tuple(step for node in path for step in node.steps(names))
        return GameRecord(self.start.position, steps, _outcome(self.g, path[-1].end), self.cap)


def play_richman_game(
    g: GameGraph,
    blue: Agent,
    red: Agent,
    start: GameState,
    tiebreak: str = "fair",
    max_moves: int | None = None,
    seed: int = 0,
    game_index: int = 0,
) -> GameRecord:
    """Run one bidding game to a terminal or the move cap."""
    batch = _Batch(g, blue, red, start, tiebreak, max_moves, seed)
    return batch.record(batch.path(game_index))


def run_batch(
    g: GameGraph,
    blue: Agent,
    red: Agent,
    start: GameState,
    tiebreak: str = "fair",
    max_moves: int | None = None,
    runs: int = 1,
    master_seed: int = 0,
    on_record: Callable[[GameRecord], None] | None = None,
) -> BatchStats:
    """Tallies of ``runs`` seeded games, game i a pure function of
    (master_seed, i); a game's record is built only for ``on_record``."""
    if runs < 0:
        raise ValueError("runs must be nonnegative")
    tallies = {BLUE_WINS: 0, RED_WINS: 0, UNRESOLVED: 0}
    move_counts: list[int] = []
    if runs >= 1:
        batch = _Batch(g, blue, red, start, tiebreak, max_moves, master_seed)
        for i in range(runs):
            path = batch.path(i)
            tallies[_outcome(g, path[-1].end)] += 1
            move_counts.append(sum(len(node.exchanges) for node in path))
            if on_record is not None:
                on_record(batch.record(path))
    outcomes = tallies[BLUE_WINS], tallies[RED_WINS], tallies[UNRESOLVED]
    return BatchStats(runs, *outcomes, tuple(move_counts), master_seed)


def _coin_table(g: GameGraph, start: str) -> list[tuple[int, int]]:
    """Check a coin-flip game's arguments and return its move table on the
    positions (``g._names``), the same in every game: per non-terminal,
    its (Blue, Red) moves, ``_pick_policy`` on the arena's certified
    numerators, which halts by its theorem."""
    if start not in g.vertices:
        raise ValueError(f"unknown start vertex {start!r}")
    return _pick_policy(g, _solve(g)[0])


# A coin is the top byte of a 32-bit word: below 64 Blue (0), 64-127 Red (1),
# 128 and above redrawn (deleted).
_COIN = bytes(b >> 6 & 1 for b in range(256))
_REDRAWN = bytes(range(128, 256))
_CHUNK_WORDS = 64


def _coin_game(step: list[tuple[int, int]], pos: int, cap: int, rng: random.Random) -> int:
    """One coin-flip game on the integer move table ``step`` from index
    ``pos``, to a terminal (an index of at least ``len(step)``) or ``cap``
    moves (none when ``cap`` is 0 or less).  Returns the index where it
    stopped.  Coin 0 moves Blue and coin 1 moves Red; coins drawn after a
    terminal are not played.

    Each coin is what ``rng.choice(("blue", "red"))`` would draw, read in
    bulk: ``choice`` takes the top two bits of the next 32-bit word until
    they are 0 or 1, and a wide ``getrandbits`` fills its words least
    significant first, so each word's top byte is at offset 3 of its four
    little-endian bytes."""
    n = len(step)
    left = cap
    while pos < n and left > 0:
        words = rng.getrandbits(32 * _CHUNK_WORDS).to_bytes(4 * _CHUNK_WORDS, "little")
        coins = words[3::4].translate(_COIN, _REDRAWN)[:left]
        for coin in coins:
            pos = step[pos][coin]
            if pos >= n:
                break
        left -= len(coins)
    return pos


class RandomTurnStats(NamedTuple):
    runs: int
    blue_wins: int
    red_wins: int
    unresolved: int
    frequency: float
    stderr: float
    master_seed: int

    def to_json_dict(self) -> dict:
        return self._asdict()


def random_turn_stats(
    g: GameGraph,
    start: str,
    runs: int,
    master_seed: int = 0,
    max_moves: int | None = None,
) -> RandomTurnStats:
    """n seeded coin-flip games; frequency is the red-win rate."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if max_moves is not None and max_moves < 0:
        raise ValueError("max_moves must be nonnegative")
    step = _coin_table(g, start)
    cap = random_turn_move_cap(g, runs) if max_moves is None else max_moves
    first = g._position[start]
    ends = [0] * len(g._names)
    rng = random.Random()
    for i in range(runs):
        rng.seed(derived_seed(master_seed, "randomturn", i))
        ends[_coin_game(step, first, cap, rng)] += 1
    blue_wins, red_wins = ends[-2:]
    frequency = red_wins / runs
    stderr = math.sqrt(frequency * (1 - frequency) / runs)
    return RandomTurnStats(runs, blue_wins, red_wins, runs - blue_wins - red_wins, frequency, stderr, master_seed)


def format_trace(record: GameRecord) -> str:
    """Line-per-step machine format; money always as num/den.

    step <i> <position> <blue_bid> <red_bid> <tie> <winner> <transfer> <move_to> <blue_after> <red_after>
    outcome <Outcome> steps <n> cap <cap>
    """
    lines = []
    for s in record.steps:
        tie = "-" if s.tie is None else ("blue" if s.tie else "red")
        lines.append(
            f"step {s.index} {s.position} {_frac_text(s.blue_bid)} {_frac_text(s.red_bid)} "
            f"{tie} {s.winner} {_frac_text(s.transfer)} {s.move_to} "
            f"{_frac_text(s.blue_after)} {_frac_text(s.red_after)}"
        )
    outcome = record.outcome
    if outcome == UNRESOLVED:
        outcome = f"Unresolved({record.move_cap})"
    lines.append(f"outcome {outcome} steps {len(record.steps)} cap {record.move_cap}")
    return "\n".join(lines)
