"""Cost tables: iterates, exact solving, and descent structure.

The frozen tables below were derived by hand, one averaging sweep at a
time, before being pinned here; the exact values come from independent
linear algebra (see corpus.PATH_EXACT).
"""

import json
import math
from fractions import Fraction
from itertools import islice

import pytest

from richman import (
    FullKnowledgeAgent,
    NotConvergedError,
    PlayerView,
    SafetyRatioAgent,
    SolverError,
    build_series_graph,
    default_move_cap,
    parse_game_graph,
    random_turn_stats,
    satisfies_exact_identity,
    solve_exact,
    solve_iterative,
    validate,
)

import richman.cli
import richman.graphs
import richman.solver
import corpus

F = Fraction


def table_at(tables, t, names):
    return {v: tables[t][v] for v in names}


def test_upper_iterates_fig1_hand_table(fig1):
    tables = corpus.iterate_tables(fig1, 1, 5)
    names = ("v", "m", "c", "a")
    assert table_at(tables, 0, names) == {"v": 1, "m": 1, "c": 1, "a": 1}
    assert table_at(tables, 1, names) == {"v": 1, "m": F(1, 2), "c": 1, "a": 1}
    assert table_at(tables, 2, names) == {"v": F(3, 4), "m": F(1, 2), "c": 1, "a": 1}
    assert table_at(tables, 3, names) == {"v": F(3, 4), "m": F(1, 2), "c": 1, "a": F(3, 4)}
    assert table_at(tables, 4, names) == {"v": F(3, 4), "m": F(1, 2), "c": F(3, 4), "a": F(3, 4)}
    assert table_at(tables, 5, names) == {
        "v": F(5, 8),
        "m": F(1, 2),
        "c": F(3, 4),
        "a": F(3, 4),
    }
    # Terminals stay pinned in every table.
    for t in range(6):
        assert tables[t]["b"] == 0
        assert tables[t]["r"] == 1


def test_lower_iterates_fig1_hand_table(fig1):
    tables = corpus.iterate_tables(fig1, 0, 5)
    assert [tables[t]["v"] for t in range(6)] == [0, 0, F(1, 4), F(1, 4), F(1, 4), F(3, 8)]
    assert [tables[t]["m"] for t in range(6)] == [0, F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)]
    assert [tables[t]["a"] for t in range(6)] == [0, 0, 0, F(1, 4), F(1, 4), F(1, 4)]
    assert [tables[t]["c"] for t in range(6)] == [0, 0, 0, 0, F(1, 4), F(1, 4)]


def test_upper_iterates_path_hand_table(path_graph):
    tables = corpus.iterate_tables(path_graph, 1, 4)
    assert [tables[t]["v1"] for t in range(5)] == [1, F(1, 2), F(1, 2), F(3, 8), F(3, 8)]
    assert [tables[t]["v2"] for t in range(5)] == [1, 1, F(3, 4), F(3, 4), F(11, 16)]


def test_star_iterates_settle_after_one_step(star):
    above = corpus.iterate_tables(star, 1, 3)
    below = corpus.iterate_tables(star, 0, 3)
    assert above[0]["v"] == 1 and below[0]["v"] == 0
    for t in (1, 2, 3):
        assert above[t]["v"] == F(1, 2)
        assert below[t]["v"] == F(1, 2)


def test_star_iterates_stay_two_bits_wide_for_100000_rungs(star):
    # Without the common power of two divided out, rung t would carry
    # (t+1)-bit numerators and the optimal agent's 100 000-rung ladder
    # would take over a gigabyte.
    nums, e = next(islice(corpus.iterates(star, 1), 100_000, None))
    assert nums == {"b": 0, "r": 2, "v": 1} and e == 1
    assert max(n.bit_length() for n in nums.values()) <= 2


def test_upper_iterate_drops_below_one_exactly_at_goal_distance(fig1):
    # Moves needed to reach b: m needs 1, v needs 2, a needs 3, c needs 4.
    tables = corpus.iterate_tables(fig1, 1, 6)
    for v, d in (("m", 1), ("v", 2), ("a", 3), ("c", 4)):
        assert tables[d - 1][v] == 1
        assert tables[d][v] < 1


def test_iterate_argument_validation(fig1, data_dir):
    # A budget of no sweeps stops at table 0, the bracket [0, 1].
    with pytest.raises(NotConvergedError) as info:
        solve_iterative(fig1, max_iters=0)
    assert (info.value.iterations, info.value.gap) == (0, 1)
    # Both readers of the iterates check the arena first.
    bad = parse_game_graph((data_dir / "bad.rg").read_text())
    with pytest.raises(ValueError, match="DEAD_END"):
        solve_iterative(bad)
    with pytest.raises(ValueError, match="DEAD_END"):
        FullKnowledgeAgent(bad, "blue")


def test_solve_iterative_path_converges_in_thirty_sweeps(path_graph):
    approx = solve_iterative(path_graph, tol=1e-9)
    assert approx.iterations == 30
    assert approx.gap == F(1, 2**30)
    for v, exact in corpus.PATH_EXACT.items():
        assert approx.lower[v] <= exact <= approx.upper[v]


def test_solve_iterative_raises_when_out_of_budget(path_graph):
    with pytest.raises(NotConvergedError) as info:
        solve_iterative(path_graph, tol=1e-9, max_iters=5)
    err = info.value
    assert err.iterations == 5
    assert err.gap == F(1, 32)
    assert err.upper["v1"] - err.lower["v1"] <= err.gap


@pytest.mark.parametrize("max_iters", [0, -1])
def test_solve_iterative_without_budget_raises_at_once(path_graph, max_iters):
    with pytest.raises(NotConvergedError) as info:
        solve_iterative(path_graph, tol=1e-9, max_iters=max_iters)
    err = info.value
    assert err.iterations == 0
    assert err.gap == 1
    assert err.upper == {v: 0 if v == "b" else 1 for v in path_graph.vertices}
    assert err.lower == {v: 1 if v == "r" else 0 for v in path_graph.vertices}


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_solve_iterative_stops_after_sweep_0_on_a_nan_or_infinite_tol(path_graph, tol):
    # No gap is above them, so the first bracket already counts as closed.
    approx = solve_iterative(path_graph, tol=tol)
    assert (approx.iterations, approx.gap) == (0, 1)


def test_solve_iterative_stop_test_is_exact_at_the_tolerance(path_graph):
    # The gap after t sweeps is 2^-t: a tol of exactly 2^-30 closes at 30,
    # the next float below it at 31, and -inf never closes.
    assert solve_iterative(path_graph, tol=2.0**-30).iterations == 30
    assert solve_iterative(path_graph, tol=math.nextafter(2.0**-30, 0)).iterations == 31
    with pytest.raises(NotConvergedError) as info:
        solve_iterative(path_graph, tol=-math.inf, max_iters=3)
    assert (info.value.iterations, info.value.gap) == (3, F(1, 8))


def test_solve_exact_fig1_is_all_halves(fig1, fig1_costs):
    assert set(fig1_costs) == fig1.vertices
    for v in ("v", "m", "c", "a"):
        assert fig1_costs[v] == F(1, 2)
    assert fig1_costs["b"] == 0
    assert fig1_costs["r"] == 1


def test_solve_exact_path_matches_hand_elimination(path_costs):
    assert {v: path_costs[v] for v in corpus.PATH_EXACT} == corpus.PATH_EXACT


def test_solve_exact_star(star_costs):
    assert star_costs["v"] == F(1, 2)


def test_integers_put_values_over_their_least_common_denominator():
    assert richman.solver._integers((F(1, 6), F(5, 14), 2)) == ([7, 15, 84], 42)
    assert richman.solver._integers(()) == ([], 1)
    for bad in (0.5, "1/2", None):
        with pytest.raises(ValueError, match=f"ints or Fractions, got {bad!r}$"):
            richman.solver._integers((F(1, 2), bad, 0.75))


def test_exact_identity_checks(star, star_costs):
    assert satisfies_exact_identity(star, star_costs)
    # Wrong interior value: 2 * 2/5 != 0 + 1.
    assert not satisfies_exact_identity(
        star, {"b": F(0), "r": F(1), "v": F(2, 5)}
    )
    # Wrong boundary.
    assert not satisfies_exact_identity(
        star, {"b": F(1, 10), "r": F(1), "v": F(11, 20)}
    )
    # Out of range.
    assert not satisfies_exact_identity(
        star, {"b": F(0), "r": F(1), "v": F(3, 2)}
    )
    # Missing vertex.
    assert not satisfies_exact_identity(star, {"b": F(0), "r": F(1)})
    # A value that is neither an int nor a Fraction fails, even a float that
    # would pass the identity.
    assert not satisfies_exact_identity(star, {"b": F(0), "r": F(1), "v": 0.5})
    assert not satisfies_exact_identity(
        star, {"b": 0.0, "r": F(1), "v": F(1, 2)}
    )
    # Int-valued terminals are accepted.
    assert satisfies_exact_identity(star, {"b": 0, "r": 1, "v": F(1, 2)})
    # Out of range but averaging: a closed cycle that never reaches a
    # terminal (an invalid arena) leaves the identity without a unique
    # solution, so only the range check rejects 2 there.
    loop = richman.GameGraph.from_parts(["v", "w"], [("v", "b"), ("v", "r"), ("w", "w")], "b", "r")
    assert not satisfies_exact_identity(
        loop, {"b": 0, "r": 1, "v": F(1, 2), "w": 2}
    )
    # A dead end (another invalid arena) has nothing to average.
    dead_end = richman.GameGraph.from_parts(["v", "sink"], [("v", "b"), ("v", "sink")], "b", "r")
    assert not satisfies_exact_identity(
        dead_end, {"b": 0, "r": 1, "v": 0, "sink": 0}
    )
    # A terminal outside the vertex set has no cost, whatever the table says.
    no_red = richman.GameGraph(frozenset({"b", "v"}), frozenset({("v", "b")}), "b", "r")
    assert not satisfies_exact_identity(no_red, {"b": 0, "r": 1, "v": 0})


def test_enumeration_agrees_with_rationalized_iteration(fig1, path_graph, star):
    for g in (fig1, path_graph, star):
        by_policy = corpus.solve_exact_by_enumeration(g)
        by_iteration = solve_exact(g)
        assert by_policy == by_iteration


def test_solve_exact_eleven_vertex_chain_matches_the_oracle():
    # Eleven non-terminals in a line; out-degree 1 leaves the oracle 4 policies.
    names = [f"v{i:02d}" for i in range(11)]
    edges = [(names[i], names[i + 1]) for i in range(10)] + [
        (names[10], "b"),
        (names[10], "r"),
    ]
    from richman import GameGraph

    chain = GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")
    assert validate(chain).ok
    table = solve_exact(chain)
    assert satisfies_exact_identity(chain, table)
    assert table == corpus.solve_exact_by_enumeration(chain)


def test_solve_exact_ring21_matches_the_closed_form():
    # Every cost of the 21-cycle has denominator 2**21 - 1 = 2097151.
    for n in (4, 21):
        ring = corpus.ring_graph(n)
        assert validate(ring).ok
        table = solve_exact(ring)
        for i in range(n):
            assert table[f"v{i:02d}"] == F(2**i, 2**n - 1)


def test_one_way_chain_of_256_equals_its_binary_fractions():
    # v_i moves to v_(i+1) or to the terminal of bit t_i (red on odd i), and
    # the last vertex to either terminal, so cost(v_i) is the binary fraction
    # 0.t_i t_(i+1) ... t_254 1: v_0 needs all 256 halvings of the acyclic
    # back-substitution, one per non-terminal on its path.
    n = 256
    bits = [i % 2 for i in range(n - 1)]
    names = [f"v{i:03d}" for i in range(n)]
    edges = list(zip(names, names[1:])) + [(names[-1], "b"), (names[-1], "r")]
    edges += [(v, "r" if t else "b") for v, t in zip(names, bits)]
    g = richman.GameGraph.from_parts(["b", "r"] + names, edges, "b", "r")
    table = solve_exact(g)
    for i, v in enumerate(names):
        digits = "".join(map(str, bits[i:])) + "1"
        assert table[v] == F(int(digits, 2), 2 ** len(digits))


def test_back_substitution_rescales_the_values_found_so_far():
    """Found with the ``arenas`` strategy of test_properties.  In the second
    policy round v05 (2/3) and v00 (1/3) are found over 3; then
    v04 = (v02 + v00) / 2 needs 6, so the denominator and both values found
    so far are doubled."""
    edges = [
        ("v00", "b"), ("v00", "v05"), ("v01", "v00"), ("v02", "b"), ("v03", "v00"),
        ("v04", "v00"), ("v04", "v02"), ("v05", "r"), ("v05", "v00"),
    ]  # fmt: skip
    g = richman.GameGraph.from_parts(["b", "r"], edges, "b", "r")
    thirds = {"v00": F(1, 3), "v01": F(1, 3), "v03": F(1, 3), "v05": F(2, 3)}
    assert solve_exact(g) == {"b": 0, "r": 1, "v02": 0, "v04": F(1, 6), **thirds}
    policy = {
        "v00": ("b", "v05"), "v01": ("v00", "v00"), "v02": ("b", "b"),
        "v03": ("v00", "v00"), "v04": ("v02", "v00"), "v05": ("v00", "r"),
    }  # fmt: skip
    nums, den = richman.solver._solve_policy(g, corpus.policy_by_position(g, policy))
    assert den == 6
    assert corpus.by_name(g, nums) == {"b": 0, "r": 6, "v00": 2, "v01": 2, "v02": 0, "v03": 2, "v04": 1, "v05": 4}


def test_solve_exact_repicks_the_policy_from_exact_values():
    # x chooses between p (cost 1/2) and q (cost 1/2 + 1/(2^60 - 1)), which
    # the first policy, picked by distance alone, treats as tied.  Red's tie
    # goes to p (as near red as q, and first by name), so the first policy
    # is wrong; the second, read from its exact values, is certified.
    ring = corpus.ring_graph(60)
    from richman import GameGraph

    g = GameGraph.from_parts(
        ring.vertices | {"x", "p", "q"},
        ring.edges | {("x", "p"), ("x", "q"), ("p", "b"), ("p", "r"), ("q", "r"), ("q", "v01")},
        "b",
        "r",
    )
    table = solve_exact(g)
    assert table["q"] == F(1, 2) + F(1, 2**60 - 1)
    assert table["x"] == F(1, 2) + F(1, 2 * (2**60 - 1))


def test_solve_exact_near_tie_on_both_sides_is_not_singular():
    # v sits 1/(16 (2^26 - 1)) below a and as far above c.  Counting such
    # near-ties as tied would let v pick itself for both players, a policy
    # that never reaches a terminal; exact ties give lo = c, hi = a.
    ring = corpus.ring_graph(26)
    from richman import GameGraph

    extra = {
        ("v", "v"), ("v", "a"), ("v", "c"),
        ("a", "a1"), ("a", "h"), ("a1", "b"), ("a1", "m"), ("m", "r"), ("m", "v00"),
        ("h", "h2"), ("h2", "r"),
        ("c", "r"), ("c", "l"), ("l", "l1"), ("l1", "l2"), ("l2", "b"), ("l2", "q"),
        ("q", "b"), ("q", "r"),
    }  # fmt: skip
    g = GameGraph.from_parts(ring.vertices | {u for e in extra for u in e}, ring.edges | extra, "b", "r")
    assert validate(g).ok
    table = solve_exact(g)
    delta = F(1, 16 * (2**26 - 1))
    assert table["a"] - table["v"] == delta
    assert table["v"] - table["c"] == delta
    assert satisfies_exact_identity(g, table)


def test_solver_error_is_base_class():
    assert issubclass(NotConvergedError, SolverError)


def critical_move(g, costs, color, v):
    """The optimal agent's move at v in a critical position (its share
    equal to its cost of v): its ``_descent_moves`` move, a cheapest
    successor for Blue and a dearest for Red."""
    share = costs[v] if color == "blue" else 1 - costs[v]
    view = PlayerView(color, v, share, 1 - share)
    return FullKnowledgeAgent(g, color).decide(view, None).move_to


def test_optimal_agent_critical_moves(fig1, fig1_costs, path_graph, path_costs):
    assert [critical_move(fig1, fig1_costs, c, "m") for c in ("blue", "red")] == ["b", "r"]
    # Both successors of v cost 1/2: both players take m, one step from
    # their goal, not c on the cycle v -> c -> a -> v.
    assert [critical_move(fig1, fig1_costs, c, "v") for c in ("blue", "red")] == ["m", "m"]
    assert [critical_move(path_graph, path_costs, c, "v2") for c in ("blue", "red")] == ["v1", "r"]
    with pytest.raises(ValueError):
        critical_move(fig1, fig1_costs, "blue", "b")


def descent_walk(g, color, v):
    """The vertices ``color`` visits from v moving by its steepest-descent
    moves alone, until a terminal or a vertex it has visited."""
    moves = corpus.descent_moves(g, color)
    walk = [v]
    while walk[-1] in moves and moves[walk[-1]] not in walk:
        walk.append(moves[walk[-1]])
    return walk


def test_descent_walks_fig1(fig1):
    # v's cheapest successors are c and m; Blue takes m, nearer its goal.
    assert descent_walk(fig1, "blue", "m") == ["m", "b"]
    assert descent_walk(fig1, "blue", "v") == ["v", "m", "b"]
    assert descent_walk(fig1, "red", "v") == ["v", "m", "r"]
    assert descent_walk(fig1, "blue", "r") == ["r"]
    assert set(corpus.descent_moves(fig1, "blue")) == set(fig1.non_terminals)


# The optimal agent (both colours), the safety agent and the coin-flip game
# all move along steepest descent, and each checks the arena first.
@pytest.mark.parametrize(
    "walk",
    [
        lambda g: FullKnowledgeAgent(g, "blue"),
        lambda g: FullKnowledgeAgent(g, "red"),
        lambda g: SafetyRatioAgent(g, "blue"),
        lambda g: random_turn_stats(g, "v", 1),
    ],
    ids=["optimal-blue", "optimal-red", "safety-blue", "coin-game"],
)
def test_descent_walks_reject_an_invalid_arena(data_dir, walk):
    bad = parse_game_graph((data_dir / "bad.rg").read_text())
    with pytest.raises(ValueError, match="invalid graph: DEAD_END at 'sink'"):
        walk(bad)


def test_descent_walk_lengths_fig1(fig1):
    # Blue's descent moves take each vertex to b in its steepest-descent
    # distance: m 1, v 2, a 3, c 4.
    assert {v: len(descent_walk(fig1, "blue", v)) - 1 for v in fig1.vertices - {"r"}} == {
        "b": 0,
        "m": 1,
        "v": 2,
        "a": 3,
        "c": 4,
    }


def test_descent_ties_go_by_descent_distance_not_edge_distance():
    """At v0 (cost 1/4) Red's dearest successors v2 and v6 both cost 1/2.
    Along any edges both are two steps from r (v2 -> v1 -> r, v6 -> v4 ->
    r), which would give the tie to the first name, v2.  But v1 (5/8) is
    not v2's dearest successor: Red's steepest descent from v2 is v2 -> v5
    (3/4) -> v4 (1) -> r, three steps, so Red moves to v6."""
    edges = [
        ("v0", "b"), ("v0", "v2"), ("v0", "v6"), ("v1", "r"), ("v1", "v0"), ("v2", "v0"), ("v2", "v1"),
        ("v2", "v5"), ("v3", "v2"), ("v4", "r"), ("v5", "v3"), ("v5", "v4"), ("v6", "b"), ("v6", "v4"),
    ]  # fmt: skip
    g = richman.GameGraph.from_parts(["b", "r"], edges, "b", "r")
    costs = solve_exact(g)
    assert [costs[v] for v in ("v0", "v1", "v2", "v5", "v6")] == [F(1, 4), F(5, 8), F(1, 2), F(3, 4), F(1, 2)]
    assert corpus.descent_moves(g, "red")["v0"] == "v6"
    assert descent_walk(g, "red", "v2") == ["v2", "v5", "v4", "r"]


def test_cost_table_helpers(star_costs):
    assert star_costs.get("nope") is None
    payload = richman.cli._table_json(star_costs, "exact")
    assert payload["kind"] == "exact"
    assert list(payload["costs"]) == sorted(payload["costs"])
    assert payload["costs"]["v"] == {"num": 1, "den": 2, "float": 0.5}


def test_iterate_labels(capsys, data_dir):
    """The iterate tables carry no step; the CLI labels them with the sweep
    count ``iterations``."""
    assert richman.cli.main(["solve", str(data_dir / "path.rg"), "--iterate", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iterations"] == 30
    assert payload["upper"]["kind"] == "upper-iterate(30)"
    assert payload["lower"]["kind"] == "lower-iterate(30)"


def test_uniform_chain_matches_the_ruin_quotient():
    # b - v1 - v2 - ... - vn - r with moves both ways: the classic ruin
    # walk, absorbed at position i with probability i/(n+1) on the red
    # side.
    from richman import GameGraph

    for n in (5, 160):
        names = [f"v{i}" for i in range(1, n + 1)]
        stops = ["b"] + names + ["r"]
        edges = []
        for left, right in zip(stops, stops[1:]):
            edges.append((left, right))
            edges.append((right, left))
        chain = GameGraph.from_parts(stops, edges, "b", "r")
        table = solve_exact(chain)
        for i, v in enumerate(names, start=1):
            assert table[v] == corpus.ruin_red_probability(i, n + 1)


def test_uniform_draw_arena_passes_the_identity():
    # 400 vertices, slowly mixing, three policy rounds, ~280-bit denominators.
    g = corpus.uniform_draw_graph(seed=0, n_interior=400)
    table = solve_exact(g)
    assert set(table) == g.vertices
    assert satisfies_exact_identity(g, table)


def test_acyclic_arenas_are_solved_without_a_policy(monkeypatch):
    calls = []
    solve_policy = richman.solver._solve_policy
    monkeypatch.setattr(
        richman.solver, "_solve_policy", lambda g, policy: calls.append(g) or solve_policy(g, policy)
    )
    for g in (build_series_graph(12), *corpus.acyclic50()):
        assert satisfies_exact_identity(g, solve_exact(g))
    assert calls == []
    solve_exact(corpus.ring_graph(4))
    assert len(calls) == 1


def test_an_acyclic_solve_walks_the_interior_once(monkeypatch):
    """The interior's depths come from one walk of the arena's index,
    shared by ``interior_order``, the acyclic solve and the move cap; the
    only other walk is validation's reachability check."""
    walks = []
    walk = richman.graphs._walk
    monkeypatch.setattr(richman.graphs, "_walk", lambda *args: walks.append(args) or walk(*args))
    g = build_series_graph(12)
    assert g.interior_order is not None
    assert satisfies_exact_identity(g, solve_exact(g))
    assert default_move_cap(g) == 10 * len(g.vertices)
    counting = [args for args in walks if len(args) == 3 and isinstance(args[2], list)]
    assert (len(counting), len(walks)) == (1, 2)


def test_random_corpus_properties():
    for g in corpus.corpus200()[:30]:
        exact = corpus.exact_table(g)
        assert satisfies_exact_identity(g, exact)
        above = corpus.iterate_tables(g, 1, 40)
        below = corpus.iterate_tables(g, 0, 40)
        for v in g.non_terminals:
            ups = [t[v] for t in above]
            downs = [t[v] for t in below]
            assert all(x >= y for x, y in zip(ups, ups[1:]))
            assert all(x <= y for x, y in zip(downs, downs[1:]))
            assert downs[-1] <= exact[v] <= ups[-1]
            assert 0 <= exact[v] <= 1
