"""Property tests on generated arenas: the exact solver against independent
checks (the enumeration oracle on small arenas, the exact iteration
bracket on larger ones), the policy picked on the exact values of any
halting policy halting too (every such policy of the smallest arenas,
and drawn ones) and its integer elimination agreeing with dense
elimination, the command line ending any file and any flags in a
documented exit code, the text format's round trip and its parser
against a token-by-token reference, monotone iterates, coin-flip tallies equal to the same games played one by one
and their ends equal to the coin games played from scratch, the coin
game's move table ending every game with Red's chance of winning equal
to the cost table and equal to the safety agent's moves, the arena
walks (the move table, the interior cycle test and order, each player's
steepest-descent moves) against naive searches, every agent's decisions
against a from-scratch reference, the optimal agent's ladder bids
inside its bankroll, two optimal agents at the critical
share playing the coin-flip game, and seeded batches of bidding games
(their records and their tallies, built-in agents and an agent that
defines only ``decide``) against the same games played one at a time
from scratch."""

import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from richman import (
    AGENT_NAMES,
    TIEBREAKS,
    GameGraph,
    GameState,
    GraphFormatError,
    PlayerView,
    SafetyRatioAgent,
    derived_seed,
    make_agent,
    parse_game_graph,
    play_richman_game,
    run_batch,
    satisfies_exact_identity,
    serialize_game_graph,
    solve_exact,
    solve_iterative,
    validate,
)
from richman.simulate import _coin_table, _seeder
from richman.cli import _fraction, main
from richman.solver import _pick_policy, _solve, _solve_policy

import corpus

TERMINALS = ["b", "r"]


@st.composite
def arenas(draw, min_size: int, max_size: int, acyclic: bool = False) -> GameGraph:
    """Valid arenas with out-degree 1-3.

    Each vertex's first successor is a terminal or an earlier vertex, so
    every vertex reaches a terminal; up to two more successors are drawn
    from all vertices, self-loops included, which makes cycles common.
    With ``acyclic`` they are drawn from the terminals and the earlier
    vertices only, so the interior has no cycle.
    """
    n = draw(st.integers(min_size, max_size))
    names = [f"v{i:02d}" for i in range(n)]
    edges = set()
    for i, v in enumerate(names):
        edges.add((v, draw(st.sampled_from(TERMINALS + names[:i]))))
        extra = names[:i] if acyclic else names
        for u in draw(st.lists(st.sampled_from(TERMINALS + extra), max_size=2)):
            edges.add((v, u))
    g = GameGraph.from_parts(TERMINALS + names, edges, "b", "r")
    assert validate(g).ok
    return g


@settings(derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.text(st.characters(blacklist_categories=("Cs",)))), min_size=1, max_size=6))
def test_a_seeder_of_any_head_gives_the_derived_seed_of_head_and_rest(parts):
    """The prefix hashed once and the rest hashed on its copy give the seed
    of all the parts, for every split into a head and a nonempty rest."""
    for i in range(len(parts)):
        assert _seeder(*parts[:i])(*parts[i:]) == derived_seed(*parts)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arenas(1, 6))
def test_solve_exact_equals_the_enumeration_oracle(g):
    table = solve_exact(g)
    approx = solve_iterative(g, tol=1e-12)
    upper = approx.upper
    hint = tuple(
        (min(g.moves[v], key=lambda u: (upper[u], u)), min(g.moves[v], key=lambda u: (-upper[u], u)))
        for v in g.non_terminals
    )
    assert table == corpus.solve_exact_by_enumeration(g, hint=hint)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(arenas(10, 60))
def test_solve_exact_lies_inside_the_iteration_bracket(g):
    table = solve_exact(g)
    assert satisfies_exact_identity(g, table)
    approx = solve_iterative(g, tol=1e-9)
    for v in g.vertices:
        assert approx.lower[v] <= table[v] <= approx.upper[v]


def solve_output(g: GameGraph, *flags: str) -> str:
    """The stdout of ``richman solve`` on g."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arena.rg"
        path.write_text(serialize_game_graph(g))
        with contextlib.redirect_stdout(out):
            assert main(["solve", str(path), *flags]) == 0
    return out.getvalue()


_ID = st.sampled_from(["b", "r", "v", "w", "x"])
# Lines that are not quite directives, or directives with odd ids: a
# comment character, a byte order mark and a line separator in an id.
_STRAY = st.one_of(
    st.text(max_size=6), st.sampled_from(["# note", "red", "edge v", "edge v #", "edge \ufeffv b", "edge v\x85w b"])
)


@st.composite
def graph_files(draw) -> str:
    """A terminal line of each colour and up to eight edges over a few
    vertex ids, with at most one stray line, in any order: some files are
    valid arenas, some invalid ones, and many are near misses."""
    lines = [f"blue {draw(_ID)}", f"red {draw(_ID)}"]
    lines += [f"edge {draw(_ID)} {draw(_ID)}" for _ in range(draw(st.integers(0, 8)))]
    lines += draw(st.lists(_STRAY, max_size=1))
    return "\n".join(draw(st.permutations(lines)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.text(), st.binary(), graph_files(), graph_files()))
def test_solve_on_any_file_exits_0_2_or_3_without_a_traceback(content):
    """Any file ``solve`` is given is an arena (0), text it cannot parse
    (2) or an invalid arena (3), never a crash or an internal error."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.rg"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() == "") == (code != 0)


# Every valid arena with one or two non-terminals.
SMALL_VALID = [g for n in (1, 2) for g in corpus.small_arenas(n) if g.validation.ok]
# Flag values that are not what a flag wants: empty, words, floats for
# integers, a zero denominator, dashes, hex and non-ASCII digits.
_JUNK = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1/2", "-1/2", "3/0", "0.5", "1e3", "-", "--", "0x10", "\u0663"]
)
# --runs, --wins, --max-iters and --max-moves set how much work a command
# does, and large values still run unbounded, so they stay small here.
_WORK = st.integers(-2, 6)
_MONEY = st.one_of(st.integers(-1, 9), st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map("{0[0]}/{0[1]}".format))
_START = st.sampled_from(["x0", "x1", "b", "r"])
_OUTPUT = ("--output", st.sampled_from(["table", "json"]), False)
# Each subcommand's flags: (flag, its values or None for a switch, required).
_FLAGS = {
    "solve": [
        ("--exact", None, False),
        ("--iterate", None, False),
        ("--tol", st.one_of(st.floats(), st.integers()), False),
        ("--max-iters", _WORK, False),
        _OUTPUT,
    ],
    "simulate": [
        ("--start", _START, True),
        ("--blue-money", _MONEY, True),
        ("--red-money", _MONEY, True),
        ("--blue", st.sampled_from(AGENT_NAMES), False),
        ("--red", st.sampled_from(AGENT_NAMES), False),
        ("--tiebreak", st.sampled_from(TIEBREAKS), False),
        ("--runs", _WORK, False),
        ("--seed", st.integers(), False),
        ("--max-moves", _WORK, False),
        ("--trace", None, False),
        _OUTPUT,
    ],
    "randomturn": [("--start", _START, True), ("--runs", _WORK, False), ("--seed", st.integers(), False), _OUTPUT],
    "series": [("--wins", _WORK, True), ("--bankroll", _MONEY, True), _OUTPUT],
}


@st.composite
def command_lines(draw, path: str) -> list[str]:
    """argv for one subcommand: its file and a subset of its flags, in any
    order, each with a drawn value.  Half the command lines are well
    typed: the file exists, every required flag is there and every value
    has its flag's type, though it may be negative, zero or out of range.
    The other half may miss the file or any flag and mix in junk values."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    typed = draw(st.booleans())
    files = [] if command == "series" else [path if typed else draw(st.sampled_from([path, path + ".missing"]))]
    parts = []
    for flag, values, required in _FLAGS[command]:
        if (typed and required) or draw(st.booleans()):
            if values is None:
                parts.append([flag])
            else:
                parts.append([flag, str(draw(values if typed else st.one_of(values, _JUNK)))])
    return [command, *files, *(word for part in draw(st.permutations(parts)) for word in part)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(SMALL_VALID), st.data())
def test_any_flags_exit_with_a_documented_code_without_a_traceback(g, data):
    """Every subcommand, on a valid arena with one or two non-terminals,
    with its flags present or missing and their values drawn from numbers,
    negatives, fractions, nan and junk text, exits 0, 2, 3, 4 or 6, or 1
    from a solver error, writes no traceback, and prints only on success."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arena.rg"
        path.write_text(serialize_game_graph(g))
        argv = data.draw(command_lines(str(path)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4, 6), (argv, err.getvalue())
    assert code != 1 or err.getvalue().startswith("internal solver error: "), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() == "") == (code != 0), argv


# v1 costs 1/2 and v0 1/4, over the shared denominator 4: the rows of v1
# and r are printed from unreduced numerators.
UNREDUCED = GameGraph.from_parts((), [("v0", "b"), ("v0", "v1"), ("v1", "b"), ("v1", "r")], "b", "r")


def test_the_unreduced_example_has_a_denominator_above_a_reduced_one():
    nums, den = _solve(UNREDUCED)
    assert (nums, den) == ((1, 2, 0, 4), 4)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(arenas(1, 12), arenas(1, 12, acyclic=True)))
@example(UNREDUCED)
def test_solve_rows_are_the_rows_of_the_fraction_table(g):
    """Each row printed from the certified integers is the row of the
    table's Fraction: ``0 0.0`` and ``1 1.0`` at the terminals, lowest
    terms and the same float elsewhere, as a table and as JSON."""
    table = sorted(solve_exact(g).items())
    rows = [f"{v} {q} {float(q)}" for v, q in table]
    assert solve_output(g).splitlines() == ["vertex cost float", *rows]
    assert rows[:2] == ["b 0 0.0", "r 1 1.0"]
    costs = {v: {"num": q.numerator, "den": q.denominator, "float": float(q)} for v, q in table}
    want = json.dumps({"mode": "exact", "kind": "exact", "costs": costs}, sort_keys=True)
    assert solve_output(g, "--output", "json") == want + "\n"


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 2**70)
@example(-(3**50) * 2**64, 3**45 * 2**66)
@example(2**64 + 1, 2**64 - 1)
def test_the_row_formatter_prints_the_fraction(num, den):
    """``solve``'s and ``series``'s rows print N/D through ``_fraction``."""
    assert _fraction(num, den) == str(Fraction(num, den))


@st.composite
def arenas_with_one_exit(draw, max_size: int) -> GameGraph:
    """Valid arenas whose only terminal edges leave v00.

    Every other vertex first steps to an earlier vertex and may add up to
    two successors among all vertices, so most vertices have no terminal
    successor of their own and values far from the costs can close a
    cycle off from the terminals.
    """
    n = draw(st.integers(2, max_size))
    names = [f"v{i:02d}" for i in range(n)]
    edges = {(names[0], "b"), (names[0], "r")}
    for i, v in enumerate(names[1:], start=1):
        edges.add((v, draw(st.sampled_from(names[:i]))))
        for u in draw(st.lists(st.sampled_from(names), max_size=2)):
            edges.add((v, u))
    return GameGraph.from_parts(TERMINALS + names, edges, "b", "r")


def test_the_pick_on_the_values_of_every_halting_policy_halts():
    """``_pick_policy``'s theorem on every (ordered) halting policy of
    every valid arena with one or two non-terminals: the pick on the
    policy's exact values reaches a terminal from every vertex."""
    picks = 0
    for g in SMALL_VALID:
        for policy in corpus.halting_policies(g):
            nums, _ = _solve_policy(policy)
            assert corpus.policy_halts(g, _pick_policy(g, nums)), (g, policy)
            picks += 1
    assert picks == 4_948


@st.composite
def halting_policies(draw, g: GameGraph) -> list[tuple[int, int]]:
    """A halting (lo, hi) policy of ``g`` by position: each non-terminal,
    in a drawn order, takes a successor that already reaches a terminal,
    so those moves grow a forest into the terminals, and any successor as
    its other move, in a drawn order.  Every halting policy can be drawn."""
    blue = len(g._succ)
    reached, forest = {blue, blue + 1}, {}
    while len(forest) < blue:
        ready = sorted(v for v, ts in enumerate(g._succ) if v not in forest and reached.intersection(ts))
        v = draw(st.sampled_from(ready))
        forest[v] = draw(st.sampled_from([u for u in g._succ[v] if u in reached]))
        reached.add(v)
    policy = []
    for v, ts in enumerate(g._succ):
        pair = (forest[v], draw(st.sampled_from(ts)))
        policy.append(pair[::-1] if draw(st.booleans()) else pair)
    return policy


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_the_pick_on_the_values_of_a_halting_policy_halts(data):
    """``_pick_policy``'s theorem on drawn arenas whose only terminal edges
    leave one vertex, where a pick on other values can close a cycle off
    from the terminals; and the all-zero pick, the solve's first round,
    halts by itself.  Each system's integer elimination agrees with dense
    elimination over Fractions."""
    g = data.draw(arenas_with_one_exit(12))
    policy = data.draw(halting_policies(g))
    assert corpus.policy_halts(g, policy)
    values, _ = _solve_policy(policy)
    for pick in (_pick_policy(g, values), _pick_policy(g, [0] * len(g.vertices))):
        assert corpus.policy_halts(g, pick)
        nums, den = _solve_policy(pick)
        dense = corpus.solve_policy_dense(g, corpus.named_moves(g, pick))
        assert {v: Fraction(n, den) for v, n in corpus.by_name(g, nums).items()} == dense


@st.composite
def raw_graphs(draw) -> GameGraph:
    """Graphs built directly, valid or not: any vertex set, edges and
    terminals over a few names, so edges may mention unknown vertices."""
    names = st.sampled_from(["b", "r", "v0", "v1", "v2", "v3", "x"])
    vertices = frozenset(draw(st.sets(names)))
    edges = frozenset(draw(st.sets(st.tuples(names, names), max_size=12)))
    return GameGraph(vertices, edges, draw(names), draw(names))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(raw_graphs(), arenas(1, 12)))
def test_validate_matches_the_name_based_reference_on_any_graph(g):
    assert validate(g) == corpus.reference_validate(g)


def test_every_arena_with_at_most_three_non_terminals():
    """``corpus.check_small_arena`` on each of the 30 023 arenas of
    ``corpus.small_arenas`` with one to three non-terminals."""
    valid = Counter(corpus.check_small_arena(g) for n in (1, 2, 3) for g in corpus.small_arenas(n))
    assert valid == {True: 26_694, False: 3_329}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arenas(1, 20))
def test_serialization_round_trips(g):
    assert parse_game_graph(serialize_game_graph(g)) == g


# Every line break str.splitlines knows: each one ends a line of the format.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_FIELD = st.sampled_from(["b", "r", "v", "w", "#", "#x", "x#"])
_ARITY = {"blue": 1, "red": 1, "edge": 2}


@st.composite
def format_lines(draw) -> str:
    """A directive (every keyword, unknown ones and ``#``-words too, with
    its own arity or 0-4 fields), a comment or a blank line, each after
    some leading whitespace."""
    lead = draw(st.sampled_from(["", " ", "\t", " \t "]))
    kind = draw(st.sampled_from(["directive"] * 4 + ["comment", "blank"]))
    if kind == "blank":
        return lead
    if kind == "comment":
        return lead + draw(st.sampled_from(["#", "# note", "#blue b", "##"]))
    keyword = draw(st.sampled_from([*_ARITY] * 3 + ["frob", "Edge", "x#", "#x"]))
    arity = _ARITY.get(keyword, 1)
    fields = draw(st.one_of(st.lists(_FIELD, min_size=arity, max_size=arity), st.lists(_FIELD, max_size=4)))
    return lead + draw(st.sampled_from([" ", "\t", "  "])).join([keyword, *fields])


@st.composite
def format_texts(draw) -> str:
    """Up to ten lines, each ended by any line break, often after a blue
    and a red declaration: valid arenas, duplicate and missing
    declarations, ``blue == red`` and every error a line can hold."""
    lines = draw(st.lists(format_lines(), max_size=8))
    if draw(st.booleans()):
        lines[:0] = [f"blue {draw(_FIELD)}", f"red {draw(_FIELD)}"]
    lines = draw(st.permutations(lines))
    return "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)


def parsed(parse, text: str):
    """The graph ``parse`` reads from text, or its error's message and line."""
    try:
        return parse(text)
    except GraphFormatError as err:
        return str(err), err.line


@settings(derandomize=True, deadline=None, max_examples=500)
@given(format_texts())
@example("blue #\n")
@example("blue b\nblue #\n")
@example("edge # a b\n")
@example("frob #\n")
@example("blue b\r\nred r\r\nedge v b\r\nedge v r\r\n")
@example("blue b\nred r\nedge v b # to blue\nedge v #x\n")
def test_the_parser_equals_the_token_by_token_reference(text):
    assert parsed(parse_game_graph, text) == parsed(corpus.reference_parse, text)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(arenas(1, 12))
def test_iterates_are_monotone(g):
    above, below = corpus.iterate_tables(g, 1, 30), corpus.iterate_tables(g, 0, 30)
    for t in range(30):
        for v in g.vertices:
            assert above[t + 1][v] <= above[t][v]
            assert below[t + 1][v] >= below[t][v]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(arenas(1, 12))
def test_integer_iterates_equal_the_fraction_sweeps(g):
    for fill, sweeps in ((1, corpus._upper_iterates(g)), (0, corpus._lower_iterates(g))):
        for (nums, e), table in islice(zip(corpus.iterates(g, fill), sweeps), 41):
            assert {v: Fraction(n, 2**e) for v, n in nums.items()} == table
            assert e == 0 or any(n % 2 for n in nums.values())  # no common factor 2 left


@settings(derandomize=True, deadline=None, max_examples=30)
@given(arenas(1, 12), st.integers(0, 2**32))
def test_random_turn_stats_match_the_recorded_games(g, seed):
    for start in g.vertices:
        corpus.check_stats_match_recorded_games(g, start, 20, seed)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(arenas(1, 12), st.integers(0, 2**32))
def test_coin_games_equal_the_reference_games(g, seed):
    """From every start, at caps below one (no move), small, on both sides
    of a full coin chunk (64 coins) and the defaults."""
    for start in sorted(g.vertices):
        for cap in (-1, 0, 1, 2, 5, 63, 64, 65, None):
            corpus.check_coin_games_equal_the_reference(g, start, 3, seed, cap)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arenas(1, 12))
def test_coin_moves_end_every_game_and_are_the_safety_moves(g):
    """The paper's random-turn theorem as an exact check: on the coin
    game's move table every vertex reaches a terminal, so every game ends,
    and Red's chance to win is the cost table.  Each player's coin move,
    the exact solver's pick on the certified table, is the safety agent's
    move on its own orientation of that table: one move rule."""
    costs = solve_exact(g)
    names, step = g._names, _coin_table(g, g.blue)
    table = {names[i]: (names[blue], names[red]) for i, (blue, red) in enumerate(step)}
    assert corpus.policy_halts(g, step)
    nums, den = _solve_policy(step)
    assert {v: Fraction(n, den) for v, n in corpus.by_name(g, nums).items()} == costs
    for column, color in enumerate(("blue", "red")):
        agent = SafetyRatioAgent(g, color)
        for v, pair in table.items():
            assert agent.decide(PlayerView(color, v, Fraction(1), None), None).move_to == pair[column]


def interior_has_cycle_by_peeling(g: GameGraph) -> bool:
    """Remove interior vertices with no interior successor left until none
    can go; a cycle remains exactly when some vertex does."""
    left = set(g.non_terminals)
    while True:
        sinks = {v for v in left if left.isdisjoint(g.moves.get(v, ()))}
        if not sinks:
            return bool(left)
        left -= sinks


@st.composite
def arenas_with_terminal_edges(draw, max_size: int, acyclic: bool = False) -> GameGraph:
    """``arenas`` plus up to four edges out of the terminals, self-loops
    included: edges that play never takes."""
    g = draw(arenas(1, max_size, acyclic))
    out = st.tuples(st.sampled_from(TERMINALS), st.sampled_from(sorted(g.vertices)))
    return GameGraph.from_parts(g.vertices, g.edges | set(draw(st.lists(out, max_size=4))), "b", "r")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arenas_with_terminal_edges(12))
def test_move_table_lists_the_sorted_successors_of_each_non_terminal(g):
    assert list(g.moves) == list(g.non_terminals)
    for v in g.non_terminals:
        assert g.moves[v] == tuple(sorted(b for a, b in g.edges if a == v))
    assert g.blue not in g.moves and g.red not in g.moves


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(
        arenas(1, 12),
        arenas(1, 12, acyclic=True),
        arenas_with_terminal_edges(12),
        arenas_with_terminal_edges(12, acyclic=True),
    )
)
def test_interior_has_cycle_matches_peeling(g):
    assert (g._depth is None) == interior_has_cycle_by_peeling(g)
    if g._depth is not None:
        # The most non-terminals on a path to a terminal, itself included.
        depth = corpus.by_name(g, g._depth)
        assert depth[g.blue] == depth[g.red] == 0
        assert all(depth[v] == 1 + max(depth[u] for u in g.moves[v]) for v in g.non_terminals)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(arenas(1, 12), arenas(1, 12, acyclic=True)))
def test_descent_walks_match_naive_searches(g):
    """Each player's steepest-descent moves are the rule the reference coin
    game moves by, and a vertex has a descent path to each player's goal
    exactly when that player's cost of it is below 1."""
    costs = solve_exact(g)
    for color in ("blue", "red"):
        side, cost = corpus.side(g, costs, color)
        assert corpus.descent_moves(g, color) == corpus.naive_descent_moves(side, cost)
        dist = corpus.naive_descent_distances(side, cost)
        assert all((dist[v] is None) == (cost[v] == 1) for v in g.vertices)


def outcome(decide):
    """The decision, or the type and text of the error raised instead."""
    try:
        return decide()
    except (KeyError, ValueError) as err:
        return type(err), str(err)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(arenas(1, 8), st.integers(0, 2**32))
def test_agents_match_the_per_decision_reference(g, seed):
    costs = solve_exact(g)
    for color in ("blue", "red"):
        for name in AGENT_NAMES:
            agent = make_agent(name, g, color)
            cases = [(v, Fraction(1, 2), opp) for v in ("b", "r", "zz") for opp in (None, Fraction(1, 2))]
            for v in g.non_terminals:
                cost = costs[v] if color == "blue" else 1 - costs[v]
                cases.append((v, Fraction(0), Fraction(0)))
                cases.append((v, Fraction(1, 3), None))
                for share in sorted({cost / 2, cost, (cost + 1) / 2, Fraction(1)}):
                    cases.append((v, share * 3 / 2, (1 - share) * 3 / 2))
            for v, own, opp in cases:
                view = PlayerView(color, v, own, opp)
                mine = outcome(lambda: agent.decide(view, random.Random(seed)))
                reference = outcome(
                    lambda: corpus.reference_decision(name, g, costs, color, view, random.Random(seed))
                )
                assert mine == reference, (name, color, view)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(arenas(1, 10))
def test_ladder_bids_lie_strictly_inside_the_bankroll(g):
    """The optimal agent's winning-branch bid needs no cap at its bankroll:
    at every share above its cost it bids more than 0 and less than all."""
    costs = solve_exact(g)
    for color in ("blue", "red"):
        agent = make_agent("optimal", g, color)
        for v in g.non_terminals:
            cost = costs[v] if color == "blue" else 1 - costs[v]
            for k in range(1, 9):
                share = cost + (1 - cost) * Fraction(k, 8)
                if share > cost:
                    bid = agent.decide(PlayerView(color, v, share, 1 - share), None).bid
                    assert 0 < bid < share, (color, v, share)


def check_critical_share_games(g: GameGraph, costs, start: str, runs: int, seed: int):
    """A fair-tie batch of two optimal agents with Blue's share at its cost
    of ``start``.  Both bid the same cost drop, since 2 cost(v) = cheapest +
    dearest, so every step is a tie; the tie winner moves by its
    ``_descent_moves`` and pays the drop, so Blue's money after each step
    is its cost of the new position.  Returns the batch's tallies."""
    blue, red = (make_agent("optimal", g, color) for color in ("blue", "red"))
    moves = {color: corpus.descent_moves(g, color) for color in ("blue", "red")}
    start_state = GameState(start, costs[start], 1 - costs[start])
    records = []
    stats = run_batch(g, blue, red, start_state, runs=runs, master_seed=seed, on_record=records.append)
    for record in records:
        for step in record.steps:
            assert step.tie is not None
            assert step.blue_after == costs[step.move_to]
            assert step.move_to == moves[step.winner][step.position]
    return stats


@pytest.mark.parametrize(
    "arena",
    [lambda fig1: fig1, lambda fig1: corpus.ring_graph(12), lambda fig1: corpus.two_way_chain(8)],
    ids=["fig1", "ring12", "chain8"],
)
def test_optimal_agents_at_the_critical_share_play_the_coin_flip_game(arena, fig1):
    g = arena(fig1)
    costs = solve_exact(g)
    for start in g.non_terminals:
        assert check_critical_share_games(g, costs, start, 20, 1).unresolved == 0


def test_every_critical_share_game_from_fig1_v_ends(fig1, fig1_costs):
    """Both successors of v cost 1/2; the tie winner moves to m, not
    round the cycle v -> c -> a, so the game ends."""
    stats = check_critical_share_games(fig1, fig1_costs, "v", 200, 5)
    assert (stats.runs, stats.unresolved) == (200, 0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(arenas(1, 12))
def test_optimal_agents_at_the_critical_share_play_the_coin_flip_game_anywhere(g):
    costs = solve_exact(g)
    for start in g.non_terminals:
        assert check_critical_share_games(g, costs, start, 5, 0).unresolved == 0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(arenas(1, 6))
def test_optimal_agent_at_and_beside_each_rung(g):
    """Shares on an upper-iterate value and 1/2^(e+8) either side of it,
    from a total with an odd denominator: the integer horizon and bid agree
    with the reference, and a share equal to rung t is not below it, so
    the horizon moves on past t."""
    costs = solve_exact(g)
    total = Fraction(7, 5)
    for color in ("blue", "red"):
        agent = make_agent("optimal", g, color)
        mirror, own_costs = corpus.side(g, costs, color)
        for v in g.non_terminals:
            cost = own_costs[v]
            for t, table in enumerate(islice(corpus._upper_iterates(mirror), 8)):
                rung = table[v]
                step = Fraction(1, rung.denominator << 8)
                for share in (rung - step, rung, rung + step):
                    if not 0 <= share <= 1:
                        continue
                    view = PlayerView(color, v, share * total, (1 - share) * total)
                    rng = random.Random(0)
                    assert agent.decide(view, rng) == corpus.reference_decision(
                        "optimal", g, costs, color, view, rng
                    ), (color, v, t, share)
                if rung > cost:
                    horizon = next(u for u, later in enumerate(corpus._upper_iterates(mirror)) if later[v] < rung)
                    assert horizon > t
                    assert agent._horizon(g._position[v], rung.numerator, rung.denominator) == horizon


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    arenas(1, 8),
    st.data(),
    st.integers(2, 8),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.sampled_from((None, 1, 2, 5, 12)),
    st.integers(0, 2**32),
)
def test_batches_equal_the_reference_games(g, data, runs, money, max_moves, seed):
    """Every agent pairing and tiebreak: a batch's games, shared between
    games or not, equal the same games played alone by the reference and
    by ``play_richman_game``.  Bankrolls in thirds tie often."""
    position = data.draw(st.sampled_from(g.non_terminals))
    start = GameState(position, Fraction(money[0], 3), Fraction(money[1], 3))
    for blue_name in AGENT_NAMES:
        blue = make_agent(blue_name, g, "blue")
        for red_name in AGENT_NAMES:
            red = make_agent(red_name, g, "red")
            for tiebreak in TIEBREAKS:
                check_batch_equals_the_reference((g, blue, red, start, tiebreak, max_moves), runs, seed)


def check_batch_equals_the_reference(args: tuple, runs: int, seed: int) -> list:
    """A batch's records equal the same games played alone by the
    reference and by ``play_richman_game``; ``run_batch`` without
    ``on_record`` gives the reference games' tallies and move counts, and
    with it the same tallies and the batch's records.  Returns the
    records."""
    reference = [corpus.reference_game(*args, seed=seed, game_index=i) for i in range(runs)]
    assert [play_richman_game(*args, seed=seed, game_index=i) for i in range(runs)] == reference
    stats = run_batch(*args, runs=runs, master_seed=seed)
    assert (stats.blue_wins, stats.red_wins, stats.unresolved, stats.move_counts) == corpus.tallies(reference)
    batch = []
    assert run_batch(*args, runs=runs, master_seed=seed, on_record=batch.append) == stats
    assert batch == reference
    return batch


@pytest.mark.parametrize("tiebreak", TIEBREAKS)
def test_long_random_bid_games_equal_the_reference_games(tiebreak):
    """Random bids on both sides of a 16-vertex two-way chain at the
    default cap: games of up to ~100 moves, each exchange growing the
    money's denominator by up to 2^32, equal the reference games."""
    g = corpus.two_way_chain(16)
    blue, red = (make_agent("uniform-random-bid", g, color) for color in ("blue", "red"))
    start = GameState("v08", Fraction(1, 3), Fraction(2, 3))
    batch = check_batch_equals_the_reference((g, blue, red, start, tiebreak, None), 12, 1)
    assert max(len(r.steps) for r in batch) > 60


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    arenas(1, 8),
    st.data(),
    st.integers(2, 5),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.sampled_from((None, 2, 12)),
    st.integers(0, 2**32),
)
def test_third_party_agents_equal_the_reference_games(g, data, runs, money, max_moves, seed):
    """An agent that defines only ``decide`` and bids sevenths of its
    money, declared deterministic or not, against every built-in agent on
    either side and under every tiebreak: the engine asks it through its
    ``decide``, and its games equal the reference games."""
    position = data.draw(st.sampled_from(g.non_terminals))
    start = GameState(position, Fraction(money[0], 3), Fraction(money[1], 3))
    for third_party in (corpus.SeventhsAgent(g), corpus.DeterministicSeventhsAgent(g)):
        for name in AGENT_NAMES:
            for blue, red in (
                (third_party, make_agent(name, g, "red")),
                (make_agent(name, g, "blue"), third_party),
            ):
                for tiebreak in TIEBREAKS:
                    check_batch_equals_the_reference((g, blue, red, start, tiebreak, max_moves), runs, seed)
