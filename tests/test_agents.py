"""Bidding strategies: bids, moves, mirrors, and knowledge hygiene."""

import random
from fractions import Fraction

import pytest

from richman import (
    AGENT_NAMES,
    Agent,
    BidDecision,
    FullKnowledgeAgent,
    GameGraph,
    GameState,
    PlayerView,
    SafetyRatioAgent,
    SolverError,
    UniformRandomBidAgent,
    make_agent,
    parse_game_graph,
    play_richman_game,
    random_turn_stats,
    solve_exact,
)

from richman.series import build_series_graph
from richman.solver import _solve

import corpus

F = Fraction


def view(color, pos, own, opp):
    return PlayerView(color=color, position=pos, own_money=own, opponent_money=opp)


@pytest.fixture()
def zchain():
    g = GameGraph.from_parts(
        ["b", "r", "v", "z1", "z2", "m"],
        [("v", "z1"), ("v", "m"), ("z1", "z2"), ("z2", "b"), ("m", "b"), ("m", "r")],
        "b",
        "r",
    )
    return g


def test_game_state_accessors():
    s = GameState("v", F(3, 5), F(2, 5))
    assert (s.position, s.blue_money, s.red_money) == ("v", F(3, 5), F(2, 5))
    assert s == ("v", F(3, 5), F(2, 5))
    assert not hasattr(s, "total") and not hasattr(s, "money")


def critical_bids(g, costs, v, total):
    """Both optimal agents' bids at v when Blue holds exactly cost(v) of
    ``total``: each is critical, so each bids the half-gap."""
    blue_money = costs[v] * total
    blue = FullKnowledgeAgent(g, "blue").decide(view("blue", v, blue_money, total - blue_money), None)
    red = FullKnowledgeAgent(g, "red").decide(view("red", v, total - blue_money, blue_money), None)
    return blue.bid, red.bid


def test_optimal_bid_examples(fig1, fig1_costs, path_graph, path_costs):
    # The half-gap is the same bid for either player.
    assert critical_bids(fig1, fig1_costs, "m", F(1)) == (F(1, 2), F(1, 2))
    assert critical_bids(fig1, fig1_costs, "v", F(1)) == (0, 0)
    assert critical_bids(path_graph, path_costs, "v1", F(1)) == (F(1, 3), F(1, 3))
    # Scales with the money supply.
    assert critical_bids(fig1, fig1_costs, "m", F(10)) == (5, 5)


def test_safety_ratio_examples(fig1_costs):
    assert corpus.safety_ratio(fig1_costs, "m", F(3, 5)) == F(6, 5)
    assert corpus.safety_ratio(fig1_costs, "r", F(1)) == 1
    assert corpus.safety_ratio(fig1_costs, "b", F(1, 2)) is None
    # Red's cost runs the other way.
    assert corpus.safety_ratio(fig1_costs, "b", F(1, 2), color="red") == F(1, 2)
    assert corpus.safety_ratio(fig1_costs, "r", F(1, 2), color="red") is None
    assert corpus.safety_ratio(fig1_costs, "m", F(1, 4), color="red") == F(1, 2)


def test_descent_moves_examples(fig1, path_graph):
    assert corpus.descent_moves(fig1, "blue")["m"] == "b"
    assert corpus.descent_moves(fig1, "red")["m"] == "r"
    assert corpus.descent_moves(path_graph, "blue")["v2"] == "v1"
    assert corpus.descent_moves(path_graph, "red")["v2"] == "r"
    # At v both successors cost 1/2; m is one step from either goal, and
    # c only leads back to v (c -> a -> v), so both players move to m.
    assert corpus.descent_moves(fig1, "blue")["v"] == "m"
    assert corpus.descent_moves(fig1, "red")["v"] == "m"


def test_full_knowledge_critical_bids(fig1):
    rng = random.Random(0)
    blue = FullKnowledgeAgent(fig1, "blue")
    red = FullKnowledgeAgent(fig1, "red")
    # At m with a split pot both sides bid the half-gap 1/2 and aim home.
    assert blue.decide(view("blue", "m", F(1, 2), F(1, 2)), rng) == BidDecision(F(1, 2), "b")
    assert red.decide(view("red", "m", F(1, 2), F(1, 2)), rng) == BidDecision(F(1, 2), "r")
    # At v every successor ties at 1/2: bid zero and move to m, the one
    # nearer each goal by steepest descent.
    assert blue.decide(view("blue", "v", F(1, 2), F(1, 2)), rng) == BidDecision(F(0), "m")
    assert red.decide(view("red", "v", F(1, 2), F(1, 2)), rng) == BidDecision(F(0), "m")


def test_full_knowledge_bid_is_capped_by_bankroll(fig1):
    rng = random.Random(0)
    red = FullKnowledgeAgent(fig1, "red")
    # Red holds 1/4 of a unit pot at m; the uncapped bid would be 1/2.
    decision = red.decide(view("red", "m", F(1, 4), F(3, 4)), rng)
    assert decision == BidDecision(F(1, 4), "r")


def test_full_knowledge_path_bids(path_graph):
    rng = random.Random(0)
    blue = FullKnowledgeAgent(path_graph, "blue")
    red = FullKnowledgeAgent(path_graph, "red")
    assert blue.decide(view("blue", "v2", F(2, 3), F(1, 3)), rng) == BidDecision(F(1, 3), "v1")
    assert red.decide(view("red", "v2", F(1, 3), F(2, 3)), rng) == BidDecision(F(1, 3), "r")


def test_full_knowledge_winning_branch_star(star):
    rng = random.Random(0)
    agent = FullKnowledgeAgent(star, "blue")
    # Horizon 1; gap bid 1/2, slack 2/5, so the raise adds 1/5.
    assert agent.decide(view("blue", "v", F(9, 10), F(1, 10)), rng) == BidDecision(F(7, 10), "b")


def test_full_knowledge_horizon_gives_up_after_100000_rungs(star):
    # Star's upper iterate at v is 1/2 from rung 1 on, never below 1/2.
    agent = FullKnowledgeAgent(star, "blue")
    v = star._position["v"]
    assert agent._horizon(v, 10**9 + 2, 2 * 10**9) == 1
    with pytest.raises(SolverError, match="ever drops below 1/2"):
        agent._horizon(v, 1, 2)


def test_full_knowledge_winning_branch_picks_short_circuit(zchain):
    """The exact-cheapest successor (a long free chain) is a trap; the
    horizon table sends the token down the two-move branch instead."""
    g = zchain
    rng = random.Random(0)
    blue = FullKnowledgeAgent(g, "blue")
    decision = blue.decide(view("blue", "v", F(7, 8), F(1, 8)), rng)
    # Horizon 2: gap bid (1 - 1/2)/2 = 1/4, raise (7/8 - 3/4)/2 = 1/16.
    assert decision == BidDecision(F(5, 16), "m")
    # And the whole game closes in 2 moves even when every tie goes to red.
    record = play_richman_game(
        g,
        blue,
        FullKnowledgeAgent(g, "red"),
        GameState("v", F(7, 8), F(1, 8)),
        tiebreak="always-red",
    )
    assert record.outcome == "BlueWins"
    assert len(record.steps) == 2
    assert [s.move_to for s in record.steps] == ["m", "b"]


def test_full_knowledge_win_within_horizon_despite_hostile_ties(fig1):
    share = F(7, 10)
    tables = corpus.iterate_tables(fig1, 1, 10)
    horizon = next(t for t in range(11) if tables[t]["v"] < share)
    assert horizon == 5
    record = play_richman_game(
        fig1,
        FullKnowledgeAgent(fig1, "blue"),
        FullKnowledgeAgent(fig1, "red"),
        GameState("v", share, 1 - share),
        tiebreak="always-red",
    )
    assert record.outcome == "BlueWins"
    assert len(record.steps) <= horizon


def test_full_knowledge_demands_the_opponent_bankroll(fig1):
    agent = FullKnowledgeAgent(fig1, "blue")
    with pytest.raises(ValueError, match="opponent"):
        agent.decide(view("blue", "m", F(1, 2), None), random.Random(0))


def test_full_knowledge_rejects_terminal_positions(fig1):
    agent = FullKnowledgeAgent(fig1, "blue")
    with pytest.raises(ValueError, match="terminal"):
        agent.decide(view("blue", "b", F(1, 2), F(1, 2)), random.Random(0))


def test_safety_agent_bids(fig1, path_graph):
    rng = random.Random(0)
    agent = SafetyRatioAgent(fig1, "blue")
    # At v the floor equals cost(v): bid nothing, walk the short descent (m,
    # one hop from home) rather than the lexicographic plateau choice.
    assert agent.decide(view("blue", "v", F(3, 10), None), rng) == BidDecision(F(0), "m")
    # At m the cheapest successor is the goal itself: all-in.
    assert agent.decide(view("blue", "m", F(3, 10), None), rng) == BidDecision(F(3, 10), "b")
    walker = SafetyRatioAgent(path_graph, "blue")
    assert walker.decide(view("blue", "v1", F(1, 2), None), rng) == BidDecision(F(1, 2), "b")
    # Red mirror on the path: from v2 its goal r is adjacent, cost 1/3 away.
    guard = SafetyRatioAgent(path_graph, "red")
    assert guard.decide(view("red", "v2", F(1, 2), None), rng) == BidDecision(F(1, 2), "r")


def test_safety_agent_never_reads_the_opponent(fig1):
    agent = SafetyRatioAgent(fig1, "blue")
    baseline = agent.decide(view("blue", "v", F(3, 10), F(7, 10)), random.Random(0))
    for opp in (None, F(0), F(1, 7), F(999)):
        assert agent.decide(view("blue", "v", F(3, 10), opp), random.Random(0)) == baseline


def test_safety_ratio_never_decreases_against_chaos(fig1, fig1_costs):
    for seed in range(10):
        record = play_richman_game(
            fig1,
            SafetyRatioAgent(fig1, "blue"),
            UniformRandomBidAgent(fig1, "red"),
            GameState("v", F(7, 10), F(3, 10)),
            seed=seed,
        )
        corpus.check_money_conservation(record)
        corpus.check_safety_ratio_monotone(record, fig1_costs, "blue")


def test_uniform_random_agent_is_seeded_and_legal(fig1):
    agent = UniformRandomBidAgent(fig1, "red")
    first = agent.decide(view("red", "v", F(2, 5), F(3, 5)), random.Random(42))
    again = agent.decide(view("red", "v", F(2, 5), F(3, 5)), random.Random(42))
    assert first == again
    for seed in range(20):
        d = agent.decide(view("red", "v", F(2, 5), F(3, 5)), random.Random(seed))
        assert 0 <= d.bid <= F(2, 5)
        assert d.move_to in {"m", "c"}


def test_agent_registry(fig1):
    assert AGENT_NAMES == ("optimal", "safety", "uniform-random-bid")
    for name in AGENT_NAMES:
        agent = make_agent(name, fig1, "blue")
        assert isinstance(agent, Agent)
        assert agent.name == name
    with pytest.raises(ValueError, match="unknown agent"):
        make_agent("greedy", fig1, "blue")
    with pytest.raises(TypeError):
        Agent()


def test_oriented_mirror_rejects_unknown_color(fig1):
    for name in AGENT_NAMES:
        with pytest.raises(ValueError, match="unknown color 'green'"):
            make_agent(name, fig1, "green")


def test_red_agents_build_no_second_arena(fig1, monkeypatch):
    built = []
    real = GameGraph.from_parts.__func__
    monkeypatch.setattr(
        GameGraph, "from_parts", classmethod(lambda cls, *args, **kw: built.append(args) or real(cls, *args, **kw))
    )
    FullKnowledgeAgent(fig1, "red")
    SafetyRatioAgent(fig1, "red")
    assert built == []


def test_agents_reject_an_invalid_arena(data_dir):
    bad = parse_game_graph((data_dir / "bad.rg").read_text())
    for name in AGENT_NAMES:
        for color in ("blue", "red"):
            with pytest.raises(ValueError, match="^invalid graph: DEAD_END at 'sink'"):
                make_agent(name, bad, color)


def test_decide_rejects_a_float_bankroll(fig1):
    views = [view("blue", "v", 0.5, 0.5), view("blue", "v", F(1, 2), 0.5), view("blue", "v", 0.5, None)]
    for agent in (FullKnowledgeAgent(fig1, "blue"), SafetyRatioAgent(fig1, "blue")):
        for v in views:
            with pytest.raises(ValueError, match="ints or Fractions"):
                agent.decide(v, None)


def test_winning_branch_share_keeps_clearing_the_next_rung(zchain):
    """After each exchange the winner-to-be's share still beats the next
    iterate table: the invariant behind the win-within-horizon bound."""
    g = zchain
    share = F(7, 8)
    tables = corpus.iterate_tables(g, 1, 10)
    record = play_richman_game(
        g,
        FullKnowledgeAgent(g, "blue"),
        FullKnowledgeAgent(g, "red"),
        GameState("v", share, 1 - share),
        tiebreak="always-red",
    )
    horizon = next(t for t in range(11) if tables[t]["v"] < share)
    positions = [record.steps[0].position] + [s.move_to for s in record.steps]
    for k, step in enumerate(record.steps):
        blue_money, red_money = corpus.money_before(step)
        rung = tables[horizon - k][positions[k]]
        assert blue_money / (blue_money + red_money) > rung
    assert record.outcome == "BlueWins"


# Arenas the planning tests run on, each with a start for the coin-flip game.
planned_arenas = pytest.mark.parametrize(
    "build, start",
    [
        (lambda: parse_game_graph(corpus.FIG1_TEXT), "v"),
        (lambda: corpus.ring_graph(12), "v00"),
        (lambda: build_series_graph(4), "s0_0"),
    ],
    ids=["fig1", "ring12", "series4"],
)


@planned_arenas
def test_oriented_reads_the_table_as_numerators(build, start):
    """Each agent reads its colour's cost off Blue's numerators N over den
    as |flip - N(v)|: cost(v) for Blue, 1 - cost(v) for Red, so 0 at its
    goal and 1 at the other terminal."""
    g = build()
    costs = solve_exact(g)
    den = _solve(g)[1]
    for color, goal, other in (("blue", g.blue, g.red), ("red", g.red, g.blue)):
        for agent in (FullKnowledgeAgent(g, color), SafetyRatioAgent(g, color)):
            cost = {v: F(abs(agent._flip - n), den) for v, n in corpus.by_name(g, agent._nums).items()}
            assert cost[goal] == 0 and cost[other] == 1
            assert all(cost[v] == (costs[v] if color == "blue" else 1 - costs[v]) for v in g.vertices)


@planned_arenas
def test_agents_keep_the_certified_table_itself(build, start):
    """Neither player keeps a second table: both agents of both colours
    hold the very tuple ``_solve`` keeps on the graph."""
    g = build()
    for color in ("blue", "red"):
        for agent in (FullKnowledgeAgent(g, color), SafetyRatioAgent(g, color)):
            assert agent._nums is _solve(g)[0]


@planned_arenas
def test_agents_and_coin_game_plan_without_fraction_arithmetic(build, start, monkeypatch):
    g = build()

    def refuse(*args):
        raise AssertionError("Fraction arithmetic while planning")

    for op in ("__sub__", "__rsub__", "__truediv__", "__lt__", "__gt__"):
        monkeypatch.setattr(Fraction, op, refuse)
    for color in ("blue", "red"):
        FullKnowledgeAgent(g, color)
        SafetyRatioAgent(g, color)
    stats = random_turn_stats(g, start, 20, master_seed=3)
    monkeypatch.undo()
    assert stats.blue_wins + stats.red_wins + stats.unresolved == 20


def test_safety_agent_bids_nothing_at_cost_zero():
    g = parse_game_graph("blue b\nred r\nedge v b\n")
    costs = solve_exact(g)
    assert costs["v"] == 0
    for color in ("blue", "red"):
        decision = SafetyRatioAgent(g, color).decide(view(color, "v", F(1, 2), None), None)
        assert decision == BidDecision(F(0), "b")
