"""The package's public names are exactly its modules' public names."""

import richman
from richman import agents, graphs, series, simulate, solver

PUBLIC = [
    "AGENT_NAMES",
    "Agent",
    "ApproxSolve",
    "BankrollMismatchError",
    "BatchStats",
    "BetPlan",
    "BidDecision",
    "CostTable",
    "FullKnowledgeAgent",
    "GameGraph",
    "GameRecord",
    "GameState",
    "GraphFormatError",
    "NotConvergedError",
    "PlayerView",
    "ProtocolViolationError",
    "RandomTurnStats",
    "SafetyRatioAgent",
    "SeriesSpec",
    "SolverError",
    "Step",
    "TIEBREAKS",
    "UniformRandomBidAgent",
    "ValidationReport",
    "Violation",
    "build_series_graph",
    "default_move_cap",
    "derived_seed",
    "distances_to",
    "format_trace",
    "make_agent",
    "parse_game_graph",
    "play_richman_game",
    "post_order",
    "random_turn_move_cap",
    "random_turn_stats",
    "run_batch",
    "satisfies_exact_identity",
    "serialize_game_graph",
    "series_bet_plan",
    "solve_exact",
    "solve_iterative",
    "state_id",
    "validate",
]


def test_package_all_is_the_union_of_the_module_lists():
    modules = (agents, graphs, series, simulate, solver)
    assert set(richman.__all__) == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(richman, name) is getattr(m, name)


def test_public_surface_is_pinned():
    """Growing or shrinking the public surface takes an edit here."""
    assert richman.__all__ == PUBLIC
