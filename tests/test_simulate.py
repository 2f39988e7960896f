"""Game execution: protocol, seeding, caps, tallies, and trace format."""

import json
import math
import random
from fractions import Fraction

import pytest

import richman.agents
import richman.graphs
import richman.simulate
import richman.solver
from richman import (
    Agent,
    BidDecision,
    FullKnowledgeAgent,
    GameGraph,
    GameState,
    PlayerView,
    ProtocolViolationError,
    SafetyRatioAgent,
    Step,
    UniformRandomBidAgent,
    default_move_cap,
    derived_seed,
    format_trace,
    make_agent,
    parse_game_graph,
    play_richman_game,
    random_turn_move_cap,
    random_turn_stats,
    run_batch,
    solve_exact,
)
from richman.series import build_series_graph
from richman.simulate import _coin_game, _coin_table

import corpus

F = Fraction


class FixedAgent(Agent):
    """Test stub: always the same decision."""

    def __init__(self, bid, move_to):
        self.decision = BidDecision(Fraction(bid), move_to)

    def decide(self, view, rng):
        return self.decision


@pytest.fixture()
def optimal_pair(fig1):
    return (
        make_agent("optimal", fig1, "blue"),
        make_agent("optimal", fig1, "red"),
    )


@pytest.fixture(scope="module")
def chain_standoff():
    """Two optimal agents on a 64-vertex two-way chain with Blue's share
    at its cost of the middle vertex v32: both bid the same cost drop at
    every step, so with fair ties the game is a fair walk of about 1 000
    moves."""
    g = corpus.two_way_chain(64)
    costs = solve_exact(g)
    agents = (make_agent("optimal", g, "blue"), make_agent("optimal", g, "red"))
    return g, *agents, GameState("v32", costs["v32"], 1 - costs["v32"])


def test_derived_seed_is_stable_and_sensitive():
    assert derived_seed(0, "tie", 0, 0) == 15220288310468689684
    assert derived_seed(5, "agent", 2, "blue") == 4860830734878008140
    assert derived_seed(0, "tie", 0, 0) != derived_seed(0, "tie", 0, 1)
    assert random.Random(derived_seed(7, "x")).random() == random.Random(derived_seed(7, "x")).random()


def test_single_step_game_record(star):
    record = play_richman_game(
        star,
        make_agent("optimal", star, "blue"),
        make_agent("optimal", star, "red"),
        GameState("v", F(9, 10), F(1, 10)),
    )
    assert record.outcome == "BlueWins"
    assert record.move_cap == 30
    assert record.steps[-1].move_to == "b"
    (step,) = record.steps
    assert step.index == 0
    assert step.position == "v"
    assert step.blue_bid == F(7, 10)
    assert step.red_bid == F(1, 10)
    assert step.tie is None
    assert step.winner == "blue"
    assert step.transfer == F(7, 10)
    assert step.move_to == "b"
    assert step.blue_after == F(1, 5)
    assert step.red_after == F(4, 5)


def test_format_trace_bytes(star):
    record = play_richman_game(
        star,
        make_agent("optimal", star, "blue"),
        make_agent("optimal", star, "red"),
        GameState("v", F(9, 10), F(1, 10)),
    )
    assert format_trace(record) == (
        "step 0 v 7/10 1/10 - blue 7/10 b 1/5 4/5\n"
        "outcome BlueWins steps 1 cap 30"
    )


def test_start_validation(fig1, data_dir):
    blue = make_agent("optimal", fig1, "blue")
    red = make_agent("optimal", fig1, "red")
    with pytest.raises(ValueError, match="terminal"):
        play_richman_game(fig1, blue, red, GameState("b", F(1), F(1)))
    with pytest.raises(ValueError, match="unknown start"):
        play_richman_game(fig1, blue, red, GameState("zz", F(1), F(1)))
    with pytest.raises(ValueError, match="nonnegative"):
        play_richman_game(fig1, blue, red, GameState("v", F(-1), F(2)))
    with pytest.raises(ValueError, match="tiebreak"):
        play_richman_game(fig1, blue, red, GameState("v", F(1), F(1)), tiebreak="coin")
    bad = parse_game_graph((data_dir / "bad.rg").read_text())
    with pytest.raises(ValueError, match="invalid graph"):
        play_richman_game(bad, blue, red, GameState("v", F(1), F(1)))


class FloatBidAgent(Agent):
    """A third-party agent that defines only ``decide`` and bids a float."""

    def __init__(self, graph):
        self.graph = graph

    def decide(self, view, rng):
        return BidDecision(0.25, self.graph.moves[view.position][0])


@pytest.mark.parametrize("color", ["blue", "red"])
def test_an_inexact_bid_is_a_protocol_violation(fig1, optimal_pair, color):
    blue, red = optimal_pair
    if color == "blue":
        blue = FloatBidAgent(fig1)
    else:
        red = FloatBidAgent(fig1)
    start = GameState("v", F(1, 2), F(1, 2))
    reason = "bid 0.25 is not an int or a Fraction"
    for play in (play_richman_game, corpus.reference_game):
        with pytest.raises(ProtocolViolationError, match=f"^{color} agent .* in game 5: {reason}$") as info:
            play(fig1, blue, red, start, game_index=5)
        assert (info.value.color, info.value.reason, info.value.game_index) == (color, reason, 5)
    with pytest.raises(ProtocolViolationError, match=f"^{color} agent .* in game 0: {reason}$"):
        run_batch(fig1, blue, red, start, runs=3)


@pytest.mark.parametrize("move", ["zz", None, ["m"]], ids=["zz", "None", "list"])
@pytest.mark.parametrize("color", ["blue", "red"])
def test_a_move_that_names_no_vertex_is_a_protocol_violation(fig1, optimal_pair, color, move):
    blue, red = optimal_pair
    if color == "blue":
        blue = FixedAgent(0, move)
    else:
        red = FixedAgent(0, move)
    start = GameState("v", F(1, 2), F(1, 2))
    reason = f"move to {move!r} is not an edge out of 'v'"
    for play in (play_richman_game, corpus.reference_game):
        with pytest.raises(ProtocolViolationError) as info:
            play(fig1, blue, red, start, game_index=5)
        assert (info.value.color, info.value.reason, info.value.game_index) == (color, reason, 5)
    with pytest.raises(ProtocolViolationError) as info:
        run_batch(fig1, blue, red, start, runs=3)
    assert (info.value.color, info.value.reason, info.value.game_index) == (color, reason, 0)


def test_a_move_that_names_no_vertex_is_found_before_an_overbid(fig1):
    """Each agent's decision is read into integers and positions when it
    is asked, Blue first, and only then are the bids checked against the
    bankrolls: Red's move to no vertex is reported before Blue's overbid,
    while Red's move to a vertex off the edges is not."""
    start = GameState("v", F(1, 2), F(1, 2))
    overbid = FixedAgent(1, "m")
    for play in (play_richman_game, corpus.reference_game):
        with pytest.raises(ProtocolViolationError) as info:
            play(fig1, overbid, FixedAgent(0, "zz"), start)
        assert (info.value.color, info.value.reason) == ("red", "move to 'zz' is not an edge out of 'v'")
        with pytest.raises(ProtocolViolationError) as info:
            play(fig1, overbid, FixedAgent(0, "r"), start)
        assert (info.value.color, info.value.reason) == ("blue", "bid 1 exceeds bankroll 1/2")


def test_a_bankroll_that_is_neither_int_nor_fraction_is_rejected_up_front(fig1, optimal_pair):
    blue, red = optimal_pair
    for start in (GameState("v", 0.5, 0.5), GameState("v", F(1, 2), 0.5), GameState("v", 1.0, F(0))):
        with pytest.raises(ValueError, match="ints or Fractions"):
            play_richman_game(fig1, blue, red, start)
        with pytest.raises(ValueError, match="ints or Fractions"):
            run_batch(fig1, blue, red, start, runs=3)
        assert run_batch(fig1, blue, red, start, runs=0).runs == 0
    assert play_richman_game(fig1, blue, red, GameState("v", 1, F(1, 3))).outcome == "BlueWins"


def test_protocol_violations_are_attributed(fig1):
    honest = make_agent("optimal", fig1, "blue")
    state = GameState("v", F(1, 2), F(1, 2))
    with pytest.raises(ProtocolViolationError) as info:
        play_richman_game(fig1, honest, FixedAgent(F(3, 4), "m"), state, game_index=7)
    assert info.value.color == "red"
    assert info.value.game_index == 7
    assert "game 7" in str(info.value)
    with pytest.raises(ProtocolViolationError, match="negative"):
        play_richman_game(fig1, FixedAgent(F(-1, 8), "m"), honest, state)
    with pytest.raises(ProtocolViolationError, match="not an edge"):
        play_richman_game(fig1, FixedAgent(F(0), "r"), honest, state)


def test_zero_money_game_is_legal(fig1):
    # Both broke: every bid is 0; the tiebreak decides everything.
    record = play_richman_game(
        fig1,
        make_agent("safety", fig1, "blue"),
        make_agent("safety", fig1, "red"),
        GameState("m", F(0), F(0)),
        tiebreak="always-blue",
    )
    assert record.outcome == "BlueWins"
    assert len(record.steps) == 1


def test_critical_standoff_hits_the_cap(fig1, optimal_pair):
    """With a split pot at v the optimal agent bids 0 on the cycle
    v -> c -> a; an opponent that bids 0 too and wins every tie just laps
    the cycle, so the game ends only at the cap."""
    blue, red = optimal_pair
    stalling = corpus.StallingAgent(corpus.FIG1_CYCLE)
    for tiebreak, tie_value, pair in (
        ("always-blue", True, (stalling, red)),
        ("always-red", False, (blue, stalling)),
    ):
        record = play_richman_game(
            fig1, *pair, GameState("v", F(1, 2), F(1, 2)), tiebreak=tiebreak
        )
        assert record.outcome == "Unresolved"
        assert record.move_cap == 384
        assert len(record.steps) == 384
        assert {s.tie for s in record.steps} == {tie_value}
        assert {s.move_to for s in record.steps} == {"v", "c", "a"}
        assert format_trace(record).splitlines()[-1] == (
            "outcome Unresolved(384) steps 384 cap 384"
        )
        corpus.check_money_conservation(record)


def test_fair_ties_use_the_derived_coin(chain_standoff):
    g, blue, red, state = chain_standoff
    record = play_richman_game(g, blue, red, state, tiebreak="fair", seed=11)
    twin = play_richman_game(g, blue, red, state, tiebreak="fair", seed=11)
    assert record == twin
    assert {s.tie for s in record.steps} == {True, False}


def test_max_moves_override(chain_standoff):
    g, blue, red, state = chain_standoff
    record = play_richman_game(g, blue, red, state, max_moves=5)
    assert record.move_cap == 5
    assert len(record.steps) == 5
    assert record.outcome == "Unresolved"


def test_default_move_caps(fig1, path_graph, star):
    assert default_move_cap(fig1) == 384  # interior cycle: 64 * 6
    assert default_move_cap(path_graph) == 256  # interior cycle: 64 * 4
    assert default_move_cap(star) == 30  # acyclic interior: 10 * 3
    assert random_turn_move_cap(star, 1000) == 300
    assert random_turn_move_cap(star, 2) == 30


def test_batch_is_reproducible_and_additive(fig1):
    blue = make_agent("safety", fig1, "blue")
    red = make_agent("uniform-random-bid", fig1, "red")
    state = GameState("v", F(7, 10), F(3, 10))
    first: list = []
    stats = run_batch(
        fig1, blue, red, state, runs=25, master_seed=6, on_record=first.append
    )
    again = run_batch(fig1, blue, red, state, runs=25, master_seed=6)
    assert stats == again
    assert stats.runs == 25
    assert stats.blue_wins + stats.red_wins + stats.unresolved == 25
    assert len(stats.move_counts) == 25
    assert sum(stats.histogram().values()) == 25
    # Game i is a pure function of (master_seed, i): replay one alone.
    solo = play_richman_game(fig1, blue, red, state, seed=6, game_index=10)
    assert solo == first[10]


def test_empty_batch(fig1, optimal_pair):
    blue, red = optimal_pair
    stats = run_batch(fig1, blue, red, GameState("v", F(1, 2), F(1, 2)), runs=0)
    assert stats.runs == 0
    assert stats.move_counts == ()
    assert stats.histogram() == {}
    payload = stats.to_json_dict()
    assert payload["move_histogram"] == {}
    json.dumps(payload)


def test_empty_batch_checks_nothing(fig1, optimal_pair):
    blue, red = optimal_pair
    stats = run_batch(fig1, blue, red, GameState("b", F(-1), F(1)), tiebreak="coin", runs=0)
    assert (stats.runs, stats.move_counts) == (0, ())


class CountingAgent(Agent):
    """Test stub: asks an inner agent and counts the calls; it does not
    declare ``deterministic``, so every game has its own generator."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def decide(self, view, rng):
        assert isinstance(rng, random.Random)
        self.calls += 1
        return self.inner.decide(view, rng)


def test_undeclared_agents_are_asked_every_step_of_every_game(chain_standoff):
    g, *agents, standoff = chain_standoff
    blue, red = (CountingAgent(agent) for agent in agents)
    for state, distinct in ((GameState("v32", F(1), F(0)), 1), (standoff, 20)):
        blue.calls = red.calls = 0
        records = corpus.kept_records(g, blue, red, state, runs=20, master_seed=4)
        assert len(set(records)) == distinct
        assert blue.calls == red.calls == sum(len(r.steps) for r in records)


def test_a_batch_builds_steps_only_for_the_records_it_passes_on(monkeypatch):
    """Random bids against the optimal agent share no play: an untraced
    batch builds no Step and no PlayerView, and a traced one builds one
    Step per move and still no PlayerView."""
    g = build_series_graph(12)
    built = []

    def counted(cls):
        new = cls.__new__

        def __new__(klass, *args, **kwargs):
            built.append(cls)
            return new(klass, *args, **kwargs)

        return __new__

    for cls in (Step, PlayerView):
        monkeypatch.setattr(cls, "__new__", counted(cls))
    blue = make_agent("uniform-random-bid", g, "blue")
    red = make_agent("optimal", g, "red")
    args = (g, blue, red, GameState("s0_0", F(2, 5), F(3, 5)))
    stats = run_batch(*args, runs=200, master_seed=6)
    assert built == []
    kept = []
    assert run_batch(*args, runs=200, master_seed=6, on_record=kept.append) == stats
    assert len(kept) == 200
    assert built == [Step] * sum(stats.move_counts) and sum(stats.move_counts) > 200


def counting(base):
    """A subclass of ``base`` that overrides ``decide`` to count its calls;
    a deterministic agent must get no generator, any other one its own."""

    class Counting(base):
        calls = 0

        def decide(self, view, rng):
            assert (rng is None) == self.deterministic
            self.calls += 1
            return super().decide(view, rng)

    return Counting


CountingOptimal = counting(FullKnowledgeAgent)


def test_deterministic_agents_play_a_tie_free_batch_once(monkeypatch):
    g = corpus.ring_graph(12)
    costs = solve_exact(g)
    blue, red = CountingOptimal(g, "blue"), CountingOptimal(g, "red")
    seeds = []
    real = richman.simulate.derived_seed
    monkeypatch.setattr(richman.simulate, "derived_seed", lambda *parts: seeds.append(parts) or real(*parts))
    share = costs["v00"] / 2
    records = corpus.kept_records(g, blue, red, GameState("v00", share, 1 - share), runs=200, master_seed=3)
    (game,) = set(records)
    assert len(game.steps) == 12 and game.outcome == "RedWins"
    assert all(s.tie is None for s in game.steps)
    assert all(r.steps[i] is game.steps[i] for r in records for i in range(12))
    assert blue.calls == red.calls == 12
    assert seeds == []  # no "agent" seed, and no tie to draw a coin for


@pytest.mark.parametrize("base", [FullKnowledgeAgent, SafetyRatioAgent, UniformRandomBidAgent])
def test_a_subclass_that_overrides_decide_is_asked_through_it_once_per_step(base):
    """The engine asks a subclass of a built-in agent through the ``decide``
    it defines, once per step it plays (a step that deterministic games
    share counts once), and its games are those of the built-in agent."""
    g = corpus.ring_graph(12)
    share = solve_exact(g)["v00"] / 2
    start = GameState("v00", share, 1 - share)
    blue, red = counting(base)(g, "blue"), counting(base)(g, "red")
    records = []
    stats = run_batch(g, blue, red, start, runs=50, master_seed=3, on_record=records.append)
    assert stats == run_batch(g, base(g, "blue"), base(g, "red"), start, runs=50, master_seed=3)
    steps = {id(s): s for r in records for s in r.steps}
    assert all(s.tie is None for s in steps.values())  # so each step is one decision per seat
    assert blue.calls == red.calls == len(steps) >= 12


class ScriptedAgent(Agent):
    """Test stub: a fixed (bid, move) per position, declared deterministic."""

    deterministic = True

    def __init__(self, script):
        self.script = script

    def decide(self, view, rng):
        assert rng is None
        bid, move = self.script[view.position]
        return BidDecision(F(bid), move)


def test_a_violation_on_a_shared_branch_names_the_game_that_reached_it(fig1):
    """Both bid 0 at v, so a fair coin splits the games: Blue's branch wins
    at m, Red's branch overbids at c.  Game 0 takes Blue's branch, and the
    first game whose coin falls to Red is the one reported."""
    blue = ScriptedAgent({"v": (0, "m"), "m": (F(1, 2), "b"), "c": (0, "a")})
    red = ScriptedAgent({"v": (0, "c"), "m": (0, "r"), "c": (2, "a")})
    coins = [random.Random(derived_seed(0, "tie", i, 0)).choice(("blue", "red")) for i in range(50)]
    k = coins.index("red")
    assert k > 0
    with pytest.raises(ProtocolViolationError) as info:
        corpus.kept_records(fig1, blue, red, GameState("v", F(1), F(1)), runs=50, master_seed=0)
    assert (info.value.color, info.value.game_index) == ("red", k)
    assert str(info.value) == f"red agent violated protocol in game {k}: bid 2 exceeds bankroll 1"


def test_game_record_json_shape(star):
    record = play_richman_game(
        star,
        make_agent("optimal", star, "blue"),
        make_agent("optimal", star, "red"),
        GameState("v", F(9, 10), F(1, 10)),
    )
    payload = record.to_json_dict()
    assert payload["start"] == "v"
    assert payload["outcome"] == "BlueWins"
    assert payload["move_cap"] == 30
    assert payload["steps"][0]["blue_bid"] == {"num": 7, "den": 10}
    assert payload["steps"][0]["tie"] is None
    json.dumps(payload)


def first_coin(seed, game_index):
    """The first coin of coin-flip game ``game_index`` of a batch seeded
    ``seed``, drawn by ``Random.choice``."""
    return random.Random(derived_seed(seed, "randomturn", game_index)).choice(("blue", "red"))


def test_random_turn_game_basics(fig1):
    # A terminal start is legal, and its game ends there before any coin.
    assert random_turn_stats(fig1, "b", 3).blue_wins == 3
    assert random_turn_stats(fig1, "r", 3).red_wins == 3
    names, step = fig1._names, _coin_table(fig1, "b")
    rng = random.Random(0)
    state = rng.getstate()
    assert _coin_game(step, names.index("b"), 384, rng) == names.index("b")
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="unknown start"):
        random_turn_stats(fig1, "zz", 1)
    with pytest.raises(ValueError, match="unknown start"):
        _coin_table(fig1, "zz")

    # Game 9 of seed 4 from m: Red wins the first coin and moves home, and
    # the same seed and index replay the same game.
    assert first_coin(4, 9) == "red"
    for _ in range(2):
        assert corpus.coin_game_end(fig1, "m", 384, 4, 9) == "r"
    batch = random_turn_stats(fig1, "m", 10, master_seed=4)
    assert batch == random_turn_stats(fig1, "m", 10, master_seed=4)
    assert batch.red_wins == [first_coin(4, i) for i in range(10)].count("red")


def test_random_turn_moves_follow_the_coin(fig1):
    ends = set()
    for i in range(50):
        end = corpus.coin_game_end(fig1, "m", 384, 1, i)
        assert end == {"blue": "b", "red": "r"}[first_coin(1, i)]
        ends.add(end)
    assert ends == {"b", "r"}


def test_coins_equal_choice_across_chunk_refills():
    """The engine reads coins in chunks of at most 64.  A fair walk from
    the middle of a 64-vertex two-way chain lasts about 1 000 moves, so
    most games play as many coins as their cap: 260 (at least five
    chunks) or, for every 20th seed, 1 000 (at least 16).  Each game must
    end where one ``choice`` per move on its generator takes it: Blue
    steps towards b, Red towards r."""
    g = corpus.two_way_chain(64)
    names, step = g._names, _coin_table(g, "v32")
    full = {260: 0, 1000: 0}
    for i in range(1000):
        cap = 1000 if i % 20 == 0 else 260
        rng = random.Random(derived_seed(7, "randomturn", i))
        k, moves = 32, 0
        while 0 <= k < 64 and moves < cap:
            k += 1 if rng.choice(("blue", "red")) == "red" else -1
            moves += 1
        expected = "b" if k < 0 else "r" if k == 64 else f"v{k:02d}"
        rng.seed(derived_seed(7, "randomturn", i))
        assert names[_coin_game(step, names.index("v32"), cap, rng)] == expected
        full[cap] += moves == cap
    assert full[260] >= 800 and full[1000] >= 15


def test_coin_games_end_mid_chunk_after_refills():
    """A fair walk on a 16-vertex two-way chain from its middle lasts 72
    moves on average, so many games end at a terminal inside a later
    chunk."""
    g = corpus.two_way_chain(16)
    paths = corpus.check_coin_games_equal_the_reference(g, "v08", 200, 2, 500)
    assert sum(len(path) > 129 and path[-1] in ("b", "r") for path in paths) > 20


def test_random_turn_stats_frozen(path_graph):
    stats = random_turn_stats(path_graph, "v1", 200, master_seed=3)
    assert (stats.blue_wins, stats.red_wins, stats.unresolved) == (147, 53, 0)
    assert stats.frequency == 53 / 200
    assert stats.stderr == pytest.approx(math.sqrt(0.265 * 0.735 / 200))
    assert json.dumps(stats.to_json_dict())
    with pytest.raises(ValueError, match="runs"):
        random_turn_stats(path_graph, "v1", 0)


def test_estimate_from_a_terminal_is_exact(path_graph):
    stats = random_turn_stats(path_graph, "r", 50)
    assert stats.frequency == 1.0
    assert stats.stderr == 0.0


def test_validate_runs_once_per_graph(data_dir, monkeypatch):
    calls = []
    real = richman.graphs.validate
    monkeypatch.setattr(richman.graphs, "validate", lambda g: calls.append(g) or real(g))
    # A graph object of its own: the session fixtures may be validated already.
    g = parse_game_graph((data_dir / "fig1.rg").read_text())
    blue = make_agent("optimal", g, "blue")
    red = make_agent("optimal", g, "red")
    stats = run_batch(g, blue, red, GameState("v", F(3, 5), F(2, 5)), runs=200, master_seed=2)
    assert stats.runs == 200
    assert random_turn_stats(g, "m", 2000, master_seed=2).runs == 2000
    for name, cap in (("fig1", 384), ("path", 256), ("star", 30)):
        assert default_move_cap(parse_game_graph((data_dir / f"{name}.rg").read_text())) == cap
    assert calls == [g]


def test_each_graph_object_is_solved_once(data_dir, monkeypatch):
    """The certified table is kept on the graph object: solving it twice,
    all four agents, two bidding batches and a coin-flip batch run the
    identity checks of one solve between them."""
    checked = []
    real = richman.solver._identity_holds
    monkeypatch.setattr(richman.solver, "_identity_holds", lambda g, *table: checked.append(g) or real(g, *table))
    # Graph objects of their own: the session fixtures may be solved already.
    fresh = parse_game_graph((data_dir / "fig1.rg").read_text())
    solve_exact(fresh)
    one_solve = len(checked)  # one per policy round
    checked.clear()
    g = parse_game_graph((data_dir / "fig1.rg").read_text())
    costs = solve_exact(g)
    agents = [make_agent(name, g, color) for name in ("optimal", "safety") for color in ("blue", "red")]
    for blue, red in (agents[:2], agents[2:]):
        assert run_batch(g, blue, red, GameState("v", F(3, 5), F(2, 5)), runs=50, master_seed=2).runs == 50
    assert random_turn_stats(g, "m", 200, master_seed=2).runs == 200
    assert solve_exact(g) == costs
    assert len(checked) == one_solve and all(h is g for h in checked)


def test_no_game_graph_is_built_after_parsing(data_dir, monkeypatch):
    """The parsed graph holds the arena on integer positions, so solving,
    building both players' agents and playing build no second arena."""
    built = []
    real = GameGraph.__init__
    monkeypatch.setattr(GameGraph, "__init__", lambda self, *args, **kw: built.append(self) or real(self, *args, **kw))
    g = parse_game_graph((data_dir / "fig1.rg").read_text())
    assert len(built) == 1 and built[0] is g
    agents = [make_agent(name, g, color) for name in ("optimal", "safety") for color in ("blue", "red")]
    for blue, red in (agents[:2], agents[2:]):
        assert run_batch(g, blue, red, GameState("v", F(3, 5), F(2, 5)), runs=50, master_seed=2).runs == 50
    assert random_turn_stats(g, "m", 200, master_seed=2).runs == 200
    assert len(built) == 1 and built[0] is g


@pytest.mark.parametrize(
    "g, start",
    [(build_series_graph(12), "s0_0"), (corpus.ring_graph(12), "v00")],
    ids=["series12", "ring12"],
)
def test_agents_plan_each_vertex_once(g, start, monkeypatch):
    """The agents keep their losing moves by position from when they are
    built, and plan the winning play of each (horizon, vertex) on first
    use: a second batch, on a play tree of its own, plans nothing."""
    calls = []
    real = richman.agents._rung_plan
    monkeypatch.setattr(richman.agents, "_rung_plan", lambda *args: calls.append(args) or real(*args))
    costs = solve_exact(g)
    blue = make_agent("optimal", g, "blue")
    red = make_agent("optimal", g, "red")
    assert calls == []
    # Blue is ahead of its cost, so both the ladder and the half-gap play run.
    share = (costs[start] + 1) / 2
    state = GameState(start, share, 1 - share)
    run_batch(g, blue, red, state, runs=200, master_seed=3)
    planned = len(calls)
    assert planned > 0
    stats = run_batch(g, blue, red, state, runs=200, master_seed=3)
    assert stats.runs == 200
    assert len(calls) == planned


@pytest.mark.parametrize(
    "graph, costs, start",
    [
        ("fig1", "fig1_costs", "m"),
        ("fig1", "fig1_costs", "v"),
        ("path_graph", "path_costs", "v1"),
        ("path_graph", "path_costs", "v2"),
        ("star", "star_costs", "v"),
    ],
)
def test_random_turn_stats_match_the_recorded_games(request, graph, costs, start):
    """The batch counts the games played one by one, and Red wins within
    three standard errors of the exact cost of the start: the coin-flip
    game's Red-win chance is the cost."""
    g, cost = request.getfixturevalue(graph), request.getfixturevalue(costs)[start]
    corpus.check_stats_match_recorded_games(g, start, 100, seed=5)
    stats = random_turn_stats(g, start, 100, master_seed=5)
    assert abs(stats.frequency - cost) <= 3 * math.sqrt(cost * (1 - cost) / 100)


def test_random_turn_stats_rejects_bad_arguments(fig1):
    with pytest.raises(ValueError, match="unknown start"):
        random_turn_stats(fig1, "zz", 10)
    dead_end = GameGraph.from_parts(["b", "r", "v", "w"], [("v", "b"), ("v", "w")], "b", "r")
    with pytest.raises(ValueError, match="invalid graph: DEAD_END"):
        random_turn_stats(dead_end, "v", 10)


def test_negative_counts_are_value_errors(fig1, optimal_pair):
    blue, red = optimal_pair
    start = GameState("v", F(1, 2), F(1, 2))
    with pytest.raises(ValueError, match="runs must be nonnegative"):
        run_batch(fig1, blue, red, start, runs=-3)
    with pytest.raises(ValueError, match="max_moves must be nonnegative"):
        play_richman_game(fig1, blue, red, start, max_moves=-2)
    with pytest.raises(ValueError, match="max_moves must be nonnegative"):
        run_batch(fig1, blue, red, start, max_moves=-1, runs=2)
    with pytest.raises(ValueError, match="max_moves must be nonnegative"):
        random_turn_stats(fig1, "v", 10, max_moves=-1)
    # No moves at all is a legal cap.
    assert play_richman_game(fig1, blue, red, start, max_moves=0).outcome == "Unresolved"
    assert random_turn_stats(fig1, "v", 10, max_moves=0).unresolved == 10
