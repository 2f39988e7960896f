"""Shared test helpers: seeded graph corpus and independent oracles.

The oracles here are deliberately written against *different* math than the
package: closed-form binomial sums for the series grid, the classic ruin
quotient for birth-death walks, a by-hand 2x2 elimination for the
two-vertex path, and exhaustive enumeration of successor policies with
dense elimination for small arenas, and the bidding protocol and the
coin-flip game played one game at a time from scratch.  Tests freeze
their outputs and compare the package against them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

import pytest

from richman import (
    Agent,
    BidDecision,
    GameGraph,
    GameRecord,
    GameState,
    PlayerView,
    ProtocolViolationError,
    SolverError,
    Step,
    ValidationReport,
    Violation,
    default_move_cap,
    derived_seed,
    random_turn_move_cap,
    random_turn_stats,
    run_batch,
    solve_exact,
    validate,
)
from richman.agents import _oriented
from richman.simulate import _coin_game, _coin_table
from richman.solver import _descent_moves, _iterates, _pick_policy, _solve

FIG1_TEXT = """\
blue b
red r
edge v m
edge m b
edge m r
edge v c
edge c a
edge a v
"""

PATH_TEXT = """\
blue b
red r
edge v1 b
edge v1 v2
edge v2 v1
edge v2 r
"""

STAR_TEXT = """\
blue b
red r
edge v b
edge v r
"""

# Exact costs of the two-vertex path, derived independently by eliminating
# by substitution in { 2 R(v1) = 0 + R(v2),  2 R(v2) = R(v1) + 1 }:
# R(v2) = 2 R(v1), so 4 R(v1) = R(v1) + 1, so R(v1) = 1/3, R(v2) = 2/3.
PATH_EXACT = {"v1": Fraction(1, 3), "v2": Fraction(2, 3)}


def pascal_red_win(i: int, j: int, k: int) -> Fraction:
    """P(red team reaches k wins before blue), fair coin, from score (i, j).

    Closed form, not the grid recursion: red needs a more wins, blue needs
    m more; red wins iff it collects its a-th win before blue's m-th, i.e.
    sum over blue-win counts s < m of C(a-1+s, s) / 2^(a+s).
    """
    if j >= k:
        return Fraction(1)
    if i >= k:
        return Fraction(0)
    a = k - j
    m = k - i
    # Over the common denominator 2^(a+m-1): one Fraction per call.
    total = sum(math.comb(a - 1 + s, s) << (m - 1 - s) for s in range(m))
    return Fraction(total, 2 ** (a + m - 1))


def ruin_red_probability(position: int, n: int) -> Fraction:
    """Fair birth-death walk on 0..n absorbing at both ends; chance of
    hitting n (the red end) from ``position`` is position/n."""
    return Fraction(position, n)


def _solve_dense(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over Fractions; None when the system is singular."""
    n = len(rhs)
    a = [row[:] for row in matrix]
    b = rhs[:]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
                b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        s = b[i]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


def solve_policy_dense(
    g: GameGraph, policy: Mapping[str, tuple[str, str]]
) -> dict[str, Fraction] | None:
    """Costs under a fixed (lo, hi) successor policy: the linear system
    2 cost(v) = cost(lo(v)) + cost(hi(v)) with the terminal boundary,
    solved densely over Fractions; None when it is singular."""
    interior = list(g.non_terminals)
    index = {v: i for i, v in enumerate(interior)}
    n = len(interior)
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i, v in enumerate(interior):
        a[i][i] += 2
        for target in policy[v]:
            if target == g.red:
                b[i] += 1
            elif target != g.blue:
                a[i][index[target]] -= 1
    solution = _solve_dense(a, b)
    if solution is None:
        return None
    return {g.blue: Fraction(0), g.red: Fraction(1), **dict(zip(interior, solution))}


def solve_exact_by_enumeration(
    g: GameGraph, hint: tuple[tuple[str, str], ...] | None = None
) -> dict[str, Fraction]:
    """Exact solve by trying every (lo, hi) successor policy.

    Each policy induces the linear system 2 cost(v) = cost(lo(v)) + cost(hi(v))
    with the terminal boundary; it is accepted only when the solution lies in
    [0, 1] and lo/hi genuinely attain the min/max over all successors.
    Singular policies are skipped.  The optional hint is tried first; it only
    affects search order, never acceptance.  Exponential in the number of
    non-terminals, so only for small arenas.
    """
    assert validate(g).ok
    interior = list(g.non_terminals)
    succ = {v: sorted(g.moves.get(v, ())) for v in interior}

    def attempt(policy: tuple[tuple[str, str], ...]) -> dict[str, Fraction] | None:
        costs = solve_policy_dense(g, dict(zip(interior, policy)))
        if costs is None or not all(0 <= c <= 1 for c in costs.values()):
            return None
        for i, v in enumerate(interior):
            values = [costs[u] for u in succ[v]]
            lo, hi = policy[i]
            if costs[lo] != min(values) or costs[hi] != max(values):
                return None
        return costs

    if hint is not None:
        found = attempt(hint)
        if found is not None:
            return found
    pair_choices = [[(lo, hi) for lo in succ[v] for hi in succ[v]] for v in interior]
    for policy in itertools.product(*pair_choices):
        if policy != hint:
            found = attempt(policy)
            if found is not None:
                return found
    raise SolverError("no policy admitted a valid cost table")


def ring_graph(n: int) -> GameGraph:
    """Directed n-cycle where every vertex also exits to b, except the last,
    which exits to r instead.

    Unwinding cost(v_i) = cost(v_{i+1}) / 2 around the cycle gives
    cost(v_0) = (cost(v_0) + 1) / 2^n, so cost(v_i) = 2^i / (2^n - 1):
    denominators grow exponentially in n while the graph stays tiny.
    """
    names = [f"v{i:02d}" for i in range(n)]
    edges = []
    for i, v in enumerate(names):
        edges.append((v, names[(i + 1) % n]))
        edges.append((v, "b" if i < n - 1 else "r"))
    return GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")


def two_way_chain(n):
    """v00 .. v<n-1> in a row, each joined both ways to its neighbours,
    with Blue's terminal after v00 and Red's after the last: the costs
    rise one step at a time, so the coin game is a fair walk."""
    names = [f"v{i:02d}" for i in range(n)]
    edges = list(zip(names, names[1:])) + list(zip(names[1:], names)) + [(names[0], "b"), (names[-1], "r")]
    return GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")


def random_game_graph(seed: int, n_interior: int, acyclic: bool, max_out: int = 3) -> GameGraph:
    """Seeded random validated arena with exactly n_interior non-terminals."""
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n_interior)]
    while True:
        edges: set[tuple[str, str]] = set()
        for idx, v in enumerate(names):
            if acyclic:
                pool = names[idx + 1 :] + ["b", "r"]
            else:
                pool = [x for x in names if x != v] + ["b", "r"]
            k = rng.randint(1, min(max_out, len(pool)))
            for u in rng.sample(pool, k):
                edges.add((v, u))
        g = GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")
        if validate(g).ok:
            return g


def uniform_draw_graph(seed: int, n_interior: int) -> GameGraph:
    """Seeded arena whose non-terminals each draw two distinct successors
    uniformly from all other vertices, terminals included; redrawn until
    valid.  Few vertices see a terminal, so play mixes slowly and the
    costs of a 400-vertex arena have denominators of about 280 bits."""
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n_interior)]
    while True:
        edges = []
        for v in names:
            pool = [u for u in names if u != v] + ["b", "r"]
            edges += [(v, u) for u in rng.sample(pool, 2)]
        g = GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")
        if validate(g).ok:
            return g


@lru_cache(maxsize=1)
def corpus200() -> tuple[GameGraph, ...]:
    """200 validated graphs, 1..10 non-terminals, alternating generator mode."""
    graphs = []
    for i in range(200):
        graphs.append(
            random_game_graph(seed=9000 + i, n_interior=1 + i % 10, acyclic=i % 2 == 0)
        )
    return tuple(graphs)


def small_arenas(n: int, max_out: int | None = None) -> Iterator[GameGraph]:
    """Every arena on the non-terminals x0..x(n-1) and the terminals b and
    r in which each non-terminal has a nonempty set of at most ``max_out``
    successors (any number without it) among the non-terminals, itself
    included, and both terminals.  Relabelled copies are kept: names fix
    the tie-breaks, so they are different tests."""
    names = [f"x{i}" for i in range(n)]
    targets = names + ["b", "r"]
    top = len(targets) if max_out is None else max_out
    choices = [c for k in range(1, top + 1) for c in itertools.combinations(targets, k)]
    for picks in itertools.product(choices, repeat=n):
        yield GameGraph.from_parts(names, [(v, u) for v, us in zip(names, picks) for u in us], "b", "r")


def check_small_arena(g: GameGraph) -> bool:
    """Whether ``g`` is valid, after checking that ``validate`` agrees with
    ``reference_validate`` and, on a valid arena, that the certified exact
    table passes the averaging identity and the terminal values, checked
    in Fractions by vertex name along the edge set, and that the coin-flip
    policy on it reaches a terminal with no fallback pick."""
    report = g.validation  # validate(g), kept for the solve
    assert report == reference_validate(g), g
    if not report.ok:
        return False
    nums, den = _solve(g)
    cost = {v: Fraction(n, den) for v, n in by_name(g, nums).items()}
    assert cost.keys() == g.vertices and (cost[g.blue], cost[g.red]) == (0, 1), g
    for v in g.non_terminals:
        values = [cost[u] for a, u in g.edges if a == v]
        assert 2 * cost[v] == min(values) + max(values), (g, v)
    _pick_policy(g, nums, None)  # a fallback would read None[v]
    return True


@lru_cache(maxsize=512)
def exact_table(g: GameGraph) -> dict[str, Fraction]:
    return solve_exact(g)


def by_name(g: GameGraph, values) -> dict:
    """Values listed by the package's arena positions
    (``GameGraph._names``) as a dict keyed by vertex name."""
    return dict(zip(g._names, values))


def named_moves(g: GameGraph, moves) -> dict:
    """Moves listed by non-terminal position, each a position or a tuple of
    positions, as a dict of vertex names."""
    names = g._names
    return {names[v]: names[m] if isinstance(m, int) else tuple(names[u] for u in m) for v, m in enumerate(moves)}


def by_position(g: GameGraph, table: Mapping) -> list:
    """A table keyed by vertex name as a list by position."""
    return [table[v] for v in g._names]


def policy_by_position(g: GameGraph, policy: Mapping[str, tuple[str, str]]) -> list[tuple[int, int]]:
    """A (lo, hi) successor policy keyed by vertex name as position pairs."""
    position = g._position
    return [tuple(position[u] for u in policy[v]) for v in g.moves]


def descent_moves(g: GameGraph, color: str) -> dict[str, str]:
    """The package's steepest-descent move of ``color`` at every non-terminal
    (``solver._descent_moves``), by vertex name."""
    return named_moves(g, _descent_moves(g, *_oriented(g, color)[:2]))


def iterates(g: GameGraph, fill: int):
    """The package's iterates towards the blue terminal
    (``solver._iterates``), each (N, e) with N keyed by vertex name."""
    for nums, e in _iterates(g, g._position[g.blue], fill):
        yield by_name(g, nums), e


def iterate_tables(g: GameGraph, fill: int, t_max: int) -> list[dict[str, Fraction]]:
    """Tables 0..t_max of the package's iterates towards the blue terminal
    (``solver._iterates``) as Fractions: ``fill`` 1 gives the upper
    iterates, weakly decreasing in t, and 0 the lower ones."""
    return [
        {v: Fraction(n, 1 << e) for v, n in nums.items()}
        for nums, e in itertools.islice(iterates(g, fill), t_max + 1)
    ]


def first_vertex_reaching_goal(g: GameGraph, t_cap: int = 64) -> tuple[str, int] | None:
    """(v, t): first sorted non-terminal whose upper iterate drops below 1,
    with the smallest such t."""
    tables = iterate_tables(g, 1, t_cap)
    for v in g.non_terminals:
        for t, table in enumerate(tables):
            if table[v] < 1:
                return v, t
    return None


def first_vertex_with_cost_above(g: GameGraph, floor: Fraction) -> str | None:
    costs = exact_table(g)
    for v in g.non_terminals:
        if costs[v] > floor:
            return v
    return None


def first_vertex_with_cost_between(g: GameGraph, lo: Fraction, hi: Fraction) -> str | None:
    costs = exact_table(g)
    for v in g.non_terminals:
        if lo < costs[v] < hi:
            return v
    return None


@lru_cache(maxsize=1)
def acyclic50() -> tuple[GameGraph, ...]:
    """50 acyclic graphs, each with a non-terminal costing strictly between
    1/100 and 1 — which also guarantees a vertex that can reach the blue
    goal, so every strategy scenario in the suite has an eligible start."""
    graphs = []
    i = 0
    while len(graphs) < 50:
        seed = 7000 + i
        i += 1
        g = random_game_graph(seed=seed, n_interior=2 + i % 8, acyclic=True)
        if first_vertex_with_cost_between(g, Fraction(1, 100), Fraction(1)) is None:
            continue
        graphs.append(g)
    return tuple(graphs)


def money_before(step) -> tuple[Fraction, Fraction]:
    """Reconstruct both bankrolls at the start of a step from its record."""
    if step.winner == "blue":
        return step.blue_after + step.transfer, step.red_after - step.transfer
    return step.blue_after - step.transfer, step.red_after + step.transfer


def reference_game(
    g: GameGraph,
    blue: Agent,
    red: Agent,
    start: GameState,
    tiebreak: str = "fair",
    max_moves: int | None = None,
    seed: int = 0,
    game_index: int = 0,
) -> GameRecord:
    """One bidding game played alone, step by step, in ``Fraction``
    arithmetic: both agents are asked at every step, each with its own
    generator seeded from (seed, "agent", game_index, color); the bids are
    checked, the higher bid wins, and an exact tie takes the tiebreak (a
    coin seeded from (seed, "tie", game_index, step) when "fair").  Nothing
    is shared with other games."""
    cap = default_move_cap(g) if max_moves is None else max_moves
    rngs = {c: random.Random(derived_seed(seed, "agent", game_index, c)) for c in ("blue", "red")}
    money = {"blue": start.blue_money, "red": start.red_money}
    position = start.position
    steps: list[Step] = []
    while not g.is_terminal(position) and len(steps) < cap:
        decisions = {
            "blue": blue.decide(PlayerView("blue", position, money["blue"], money["red"]), rngs["blue"]),
            "red": red.decide(PlayerView("red", position, money["red"], money["blue"]), rngs["red"]),
        }
        # The engine asks each agent for its bid in integers, Blue first, so
        # an inexact bid is found before any other rule is checked.
        for color, decision in decisions.items():
            if not isinstance(decision.bid, (int, Fraction)):
                reason = f"bid {decision.bid!r} is not an int or a Fraction"
                raise ProtocolViolationError(color, reason, game_index)
        for color, decision in decisions.items():
            if decision.bid < 0:
                raise ProtocolViolationError(color, f"negative bid {decision.bid}", game_index)
            if decision.bid > money[color]:
                raise ProtocolViolationError(
                    color, f"bid {decision.bid} exceeds bankroll {money[color]}", game_index
                )
            if decision.move_to not in g.moves.get(position, ()):
                raise ProtocolViolationError(
                    color, f"move to {decision.move_to!r} is not an edge out of {position!r}", game_index
                )
        tie = None
        if decisions["blue"].bid != decisions["red"].bid:
            winner = "blue" if decisions["blue"].bid > decisions["red"].bid else "red"
        elif tiebreak == "fair":
            winner = random.Random(derived_seed(seed, "tie", game_index, len(steps))).choice(("blue", "red"))
            tie = winner == "blue"
        else:
            winner = tiebreak.removeprefix("always-")
            tie = winner == "blue"
        loser = "red" if winner == "blue" else "blue"
        transfer = decisions[winner].bid
        money[winner] -= transfer
        money[loser] += transfer
        steps.append(
            Step(
                index=len(steps),
                position=position,
                blue_bid=decisions["blue"].bid,
                red_bid=decisions["red"].bid,
                tie=tie,
                winner=winner,
                transfer=transfer,
                move_to=decisions[winner].move_to,
                blue_after=money["blue"],
                red_after=money["red"],
            )
        )
        position = decisions[winner].move_to
    outcome = {g.blue: "BlueWins", g.red: "RedWins"}.get(position, "Unresolved")
    return GameRecord(start.position, tuple(steps), outcome, cap)


def reference_validate(g: GameGraph) -> ValidationReport:
    """``validate`` written on vertex names from the edge set alone: the
    moves are the edges from a vertex other than the terminals to a known
    vertex, and the vertices that reach a terminal are grown to a fixed
    point along them."""
    vs, terminals = g.vertices, (g.blue, g.red)
    found = []
    if g.blue == g.red:
        found.append(Violation("BLUE_EQUALS_RED", g.blue, "blue and red are the same vertex"))
    for name, t in zip(("blue", "red"), terminals):
        if t not in vs:
            found.append(Violation("MISSING_TERMINAL", t, f"{name} vertex {t!r} is not in the vertex set"))
    for a, b in sorted(g.edges):
        for end in (a, b):
            if end not in vs:
                found.append(Violation("BAD_EDGE_ENDPOINT", end, f"edge ({a}, {b}) mentions unknown vertex {end!r}"))
    for t in sorted(set(terminals)):
        if (t, t) in g.edges:
            found.append(Violation("TERMINAL_SELF_LOOP", t, f"terminal {t!r} has a self-loop"))
    moves = {(a, b) for a, b in g.edges if a in vs and a not in terminals and b in vs}
    for v in sorted(vs - set(terminals)):
        if all(a != v for a, _ in moves):
            found.append(Violation("DEAD_END", v, f"non-terminal {v!r} has no outgoing edges"))
    reached = {t for t in terminals if t in vs}
    while more := {a for a, b in moves if b in reached} - reached:
        reached |= more
    for v in sorted(vs - reached):
        found.append(Violation("UNREACHABLE_TERMINALS", v, f"no path from {v!r} to a terminal"))
    found.sort(key=lambda w: (w.code, w.subject))
    return ValidationReport(not found, tuple(found))


def side(g: GameGraph, costs, color: str) -> tuple[GameGraph, dict[str, Fraction]]:
    """The arena and the costs as ``color`` plays them, its goal the blue
    terminal: Red's mirror swaps the terminals and reads 1 - cost."""
    if color == "red":
        mirror = GameGraph.from_parts(g.vertices, g.edges, blue=g.red, red=g.blue)
        return mirror, {v: 1 - costs[v] for v in g.vertices}
    return g, {v: costs[v] for v in g.vertices}


def naive_descent_moves(g: GameGraph, cost) -> dict[str, str]:
    """Each non-terminal's move towards the blue terminal: a cheapest
    successor, ties to the fewest steepest-descent steps to that terminal
    (``naive_descent_distances``), then to the first name."""
    dist = naive_descent_distances(g, cost)
    moves = {}
    for v in g.non_terminals:
        succ = sorted(g.moves.get(v, ()))
        floor = [u for u in succ if cost[u] == min(cost[w] for w in succ)]
        moves[v] = min(floor, key=lambda u: (dist[u] is None, dist[u] or 0, u))
    return moves


def reference_coin_game(
    g: GameGraph,
    costs: Mapping[str, Fraction],
    start: str,
    max_moves: int,
    seed: int = 0,
    game_index: int = 0,
) -> list[str]:
    """One coin-flip game played alone, one move at a time, as the list of
    vertices it visits, ``start`` first: a generator of its own seeded from
    (seed, "randomturn", game_index), one ``choice(("blue", "red"))`` per
    move, and the winner of the coin moves on its own side of the arena by
    ``naive_descent_moves``.  At most ``max_moves`` moves (none when it is
    0 or less)."""
    moves = {color: naive_descent_moves(*side(g, costs, color)) for color in ("blue", "red")}
    rng = random.Random(derived_seed(seed, "randomturn", game_index))
    path = [start]
    while not g.is_terminal(path[-1]) and len(path) <= max_moves:
        path.append(moves[rng.choice(("blue", "red"))][path[-1]])
    return path


def coin_game_end(g: GameGraph, start: str, cap: int, seed: int, game_index: int) -> str:
    """Where game ``game_index`` of a coin-flip batch seeded ``seed`` ends,
    played alone by the package's coin walk (``_coin_game`` on
    ``_coin_table``) on a generator of its own."""
    names, step = _coin_table(g, start)
    rng = random.Random(derived_seed(seed, "randomturn", game_index))
    return names[_coin_game(step, names.index(start), cap, rng)]


def end_tallies(g: GameGraph, ends: list[str]) -> tuple[int, int, int]:
    """Blue wins, Red wins and unresolved games of a list of end vertices."""
    return ends.count(g.blue), ends.count(g.red), len(ends) - ends.count(g.blue) - ends.count(g.red)


def check_coin_games_equal_the_reference(
    g: GameGraph, start: str, runs: int, seed: int, max_moves: int | None
) -> list[list[str]]:
    """At the batch's cap, games 0..runs-1 of the coin walk end where
    ``reference_coin_game`` ends, and the tallies of ``random_turn_stats``
    count those ends (a negative ``max_moves`` is a ValueError there).
    Returns the reference paths of the batch."""
    cap = random_turn_move_cap(g, runs) if max_moves is None else max_moves
    paths = [reference_coin_game(g, exact_table(g), start, cap, seed, i) for i in range(runs)]
    ends = [path[-1] for path in paths]
    assert [coin_game_end(g, start, cap, seed, i) for i in range(runs)] == ends
    if cap < 0:
        with pytest.raises(ValueError, match="max_moves must be nonnegative"):
            random_turn_stats(g, start, runs, master_seed=seed, max_moves=max_moves)
        return paths
    stats = random_turn_stats(g, start, runs, master_seed=seed, max_moves=max_moves)
    assert (stats.blue_wins, stats.red_wins, stats.unresolved) == end_tallies(g, ends)
    return paths


class SeventhsAgent(Agent):
    """A third-party agent: it defines only ``decide``, so the engine asks
    it through the base class.  It bids k/7 of its money, k uniform in
    0..7, and moves to a uniform successor, drawing from ``rng``."""

    name = "sevenths"

    def __init__(self, graph: GameGraph):
        self.graph = graph

    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        if self.deterministic:
            rng = random.Random(repr(view))
        succ = sorted(self.graph.moves.get(view.position, ()))
        return BidDecision(view.own_money * rng.randint(0, 7) / 7, rng.choice(succ))


class DeterministicSeventhsAgent(SeventhsAgent):
    """``SeventhsAgent`` with its draws seeded by the view alone, so it may
    declare ``deterministic`` and share play between the games of a batch."""

    deterministic = True


class StallingAgent(Agent):
    """A test-only adversary: it bids 0 and moves by a fixed table, so it
    stalls wherever its opponent bids 0 and the ties go its way.  With
    ``FIG1_CYCLE`` it circles v -> c -> a on fig1, where the safety bid
    and the optimal agent's losing or critical bid are 0, because both
    successors of v cost 1/2."""

    name = "stalling"
    deterministic = True

    def __init__(self, moves: dict[str, str]):
        self.moves = moves

    def decide(self, view: PlayerView, rng: random.Random | None) -> BidDecision:
        return BidDecision(Fraction(0), self.moves[view.position])


FIG1_CYCLE = {"v": "c", "c": "a", "a": "v"}


def kept_records(*args, **kwargs) -> list[GameRecord]:
    """The records ``run_batch(*args, **kwargs)`` passes to ``on_record``,
    in order."""
    kept: list[GameRecord] = []
    run_batch(*args, **kwargs, on_record=kept.append)
    return kept


def tallies(records) -> tuple[int, int, int, tuple[int, ...]]:
    """Blue wins, Red wins, unresolved games and move counts of a list of
    game records, in ``BatchStats`` terms."""
    outcomes = [r.outcome for r in records]
    counts = tuple(len(r.steps) for r in records)
    return outcomes.count("BlueWins"), outcomes.count("RedWins"), outcomes.count("Unresolved"), counts


def check_money_conservation(record: GameRecord) -> None:
    totals = {before[0] + before[1] for before in map(money_before, record.steps)}
    totals |= {s.blue_after + s.red_after for s in record.steps}
    assert len(totals) <= 1, f"money not conserved: {sorted(totals)}"


def safety_ratio(costs, v: str, own_share: Fraction, color: str = "blue") -> Fraction | None:
    """own_share over the player's cost of v, Blue's cost(v) or Red's
    1 - cost(v); None where that cost is 0."""
    cost = costs[v] if color == "blue" else 1 - costs[v]
    return None if cost == 0 else own_share / cost


def safety_ratios(record: GameRecord, costs: Mapping[str, Fraction], color: str) -> list[Fraction | None]:
    """The player's safety ratio at the start of every step plus the end.

    None encodes an infinite ratio (the player's cost there is zero).
    """
    out: list[Fraction | None] = []
    for step in record.steps:
        blue_money, red_money = money_before(step)
        total = blue_money + red_money
        own = blue_money if color == "blue" else red_money
        out.append(safety_ratio(costs, step.position, own / total, color=color))
    if record.steps:
        last = record.steps[-1]
        total = last.blue_after + last.red_after
        own = last.blue_after if color == "blue" else last.red_after
        out.append(safety_ratio(costs, last.move_to, own / total, color=color))
    return out


def check_safety_ratio_monotone(record: GameRecord, costs: Mapping[str, Fraction], color: str) -> None:
    """Exact non-decrease of the safety ratio along a trace (None = infinite)."""
    ratios = safety_ratios(record, costs, color)
    for earlier, later in zip(ratios, ratios[1:]):
        if earlier is None:
            assert later is None, f"{color} ratio fell from infinite to {later}"
        elif later is not None:
            assert later >= earlier, f"{color} ratio fell: {earlier} -> {later}"


def check_stats_match_recorded_games(g: GameGraph, start: str, runs: int, seed: int) -> None:
    """``random_turn_stats`` agrees game by game with the same games played
    one by one (``coin_game_end``): the tallies of every prefix of the
    batch (at the batch's cap) count the ends of that prefix."""
    cap = random_turn_move_cap(g, runs)
    ends = [coin_game_end(g, start, cap, seed, i) for i in range(runs)]
    for n in range(1, runs + 1):
        stats = random_turn_stats(g, start, n, master_seed=seed, max_moves=cap)
        assert (stats.blue_wins, stats.red_wins, stats.unresolved) == end_tallies(g, ends[:n])
    assert stats == random_turn_stats(g, start, runs, master_seed=seed)


def min_cost_successors(g: GameGraph, costs) -> dict[str, set[str]]:
    """The successors of each non-terminal that cost the least."""
    return {
        x: {u for u in g.moves.get(x, ()) if costs[u] == min(costs[w] for w in g.moves.get(x, ()))}
        for x in g.non_terminals
    }


def naive_descent_distances(g: GameGraph, costs) -> dict[str, int | None]:
    """Steepest-descent distance to the blue terminal, one level at a time:
    a vertex is one further than the nearest of its cheapest successors."""
    down = min_cost_successors(g, costs)
    dist = {g.blue: 0}
    while level := {x for x, us in down.items() if x not in dist and us & dist.keys()}:
        dist.update(dict.fromkeys(level, max(dist.values()) + 1))
    return {v: dist.get(v) for v in g.vertices}


def _sweeps(g: GameGraph, fill: int):
    """Iterate tables t = 0, 1, 2, ... in Fractions: ``fill`` on the
    non-terminals, then one averaging sweep after another."""
    table = {v: Fraction(fill) for v in g.vertices}
    table[g.blue] = Fraction(0)
    table[g.red] = Fraction(1)
    while True:
        yield table
        table = {
            v: table[v] if v in (g.blue, g.red)
            else (min(table[u] for u in g.moves.get(v, ())) + max(table[u] for u in g.moves.get(v, ()))) / 2
            for v in g.vertices
        }


def _upper_iterates(g: GameGraph):
    """Blue's share needed to win within t moves, t = 0, 1, 2, ...: 1 on
    the non-terminals, then one averaging sweep after another."""
    return _sweeps(g, 1)


def _lower_iterates(g: GameGraph):
    """Blue's share needed to stop Red from winning within t moves: 0 on
    the non-terminals, then one averaging sweep after another."""
    return _sweeps(g, 0)


def reference_decision(
    name: str, g: GameGraph, costs: Mapping[str, Fraction], color: str, view: PlayerView, rng: random.Random
) -> BidDecision:
    """One agent decision worked out from scratch with the strategies'
    formulas, nothing kept between calls: Red plays the mirrored arena
    (terminals swapped, costs 1 - cost).

    * optimal: ahead of its cost, the smallest t whose upper iterate at v is
      below its share; bid half the successor gap of iterate t-1 plus half
      the slack, capped at its bankroll; move to the cheapest successor in
      iterate t-1.  Otherwise bid the cost drop to the cheapest successor
      times the total, capped, and move by ``naive_descent_moves``.
    * safety: bid own * (cost(v) - cheapest) / cost(v) (0 where the cost is
      0) and move by ``naive_descent_moves``: to the cheapest successor
      nearest the goal by steepest descent, then by name.
    * uniform-random-bid: a 32-bit uniform fraction of its bankroll, then a
      uniform choice among the sorted successors.
    """
    g, cost = side(g, costs, color)
    v, own = view.position, view.own_money
    if name == "optimal" and view.opponent_money is None:
        raise ValueError("full-knowledge agent requires the opponent's bankroll")
    if v not in g.vertices:
        raise KeyError(v)
    succ = sorted(g.moves.get(v, ()))
    if not succ:
        raise ValueError(f"cannot bid at terminal vertex {v!r}")
    if name == "uniform-random-bid":
        fraction = Fraction(rng.getrandbits(32), 2**32)
        return BidDecision(own * fraction, rng.choice(succ))
    cheapest = naive_descent_moves(g, cost)[v]
    if name == "safety":
        bid = Fraction(0) if cost[v] == 0 else own * (cost[v] - cost[cheapest]) / cost[v]
        return BidDecision(bid, cheapest)
    total = own + view.opponent_money
    if total > 0 and own / total > cost[v]:
        share = own / total
        prev = None
        for table in _upper_iterates(g):
            if table[v] < share:
                break
            prev = table
        bid = (max(prev[u] for u in succ) - min(prev[u] for u in succ)) / 2 * total
        bid += min((share - table[v]) * total / 2, own - bid)
        return BidDecision(bid, min(succ, key=lambda u: (prev[u], u)))
    return BidDecision(min((cost[v] - cost[cheapest]) * total, own), cheapest)
