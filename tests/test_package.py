"""The package's public names are exactly its modules' public names, and
its value records are named tuples."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import richman
from richman import agents, graphs, series, simulate, solver

F = Fraction

PUBLIC = [
    "AGENT_NAMES",
    "Agent",
    "ApproxSolve",
    "BankrollMismatchError",
    "BatchStats",
    "BetPlan",
    "BidDecision",
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
    "SolverError",
    "Step",
    "TIEBREAKS",
    "UniformRandomBidAgent",
    "ValidationReport",
    "Violation",
    "build_series_graph",
    "default_move_cap",
    "derived_seed",
    "format_trace",
    "make_agent",
    "parse_game_graph",
    "play_richman_game",
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


def test_the_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(richman.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)


def test_public_surface_is_pinned():
    """Growing or shrinking the public surface takes an edit here."""
    assert richman.__all__ == PUBLIC


def test_no_public_name_is_a_dataclass():
    """GameGraph is a plain class that caches on its instance ``__dict__``;
    every other record is a tuple, and a cost table is a plain dict."""
    assert [n for n in richman.__all__ if dataclasses.is_dataclass(getattr(richman, n))] == []


def test_importing_the_cli_leaves_dataclasses_out():
    """No ``richman`` process imports ``dataclasses`` (and ``inspect`` with
    it); a fresh interpreter shows it, as this one has it loaded."""
    src = pathlib.Path(richman.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, richman.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


_TABLE = {"b": F(0), "r": F(1)}

# One instance of each value record, with hashable fields where the type allows.
RECORDS = [
    graphs.Violation("DEAD_END", "v", "non-terminal 'v' has no outgoing edges"),
    graphs.ValidationReport(True, ()),
    solver.ApproxSolve(_TABLE, _TABLE, 2, F(1, 4)),
    agents.GameState("v", F(1, 3), F(2, 3)),
    agents.PlayerView("red", "v", F(2, 3), None),
    agents.BidDecision(F(1, 2), "m"),
    simulate.Step(0, "v", F(1, 3), F(1, 3), True, "blue", F(1, 3), "m", F(0), F(1)),
    simulate.GameRecord("v", (), "Unresolved", 0),
    simulate.BatchStats(3, 2, 1, 0, (2, 4, 2), 7),
    simulate.RandomTurnStats(4, 1, 3, 0, 0.75, 0.25, 0),
    series.BetPlan(1, F(1, 2), F(0), F(1), {(0, 0): F(1, 2)}, {(0, 0): F(1, 4)}),
]
# These hold dicts, so they do not hash, as their dicts do not.
UNHASHABLE = {"ApproxSolve", "BetPlan"}


def test_every_value_record_is_pinned():
    assert sorted(type(r).__name__ for r in RECORDS) == sorted(
        n for n in richman.__all__ if isinstance(getattr(richman, n), type) and issubclass(getattr(richman, n), tuple)
    )
    assert len(RECORDS) == 11


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_compare_and_hash_by_value(record):
    twin = type(record)(*record)
    assert twin is not record and twin == record and record == tuple(record)
    assert record._replace(**{record._fields[0]: "other"}) != record
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    else:
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_keep_their_repr(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_stats_json_dicts_are_pinned():
    assert simulate.BatchStats(3, 2, 1, 0, (2, 4, 2), 7).to_json_dict() == {
        "runs": 3,
        "blue_wins": 2,
        "red_wins": 1,
        "unresolved": 0,
        "master_seed": 7,
        "move_histogram": {"2": 2, "4": 1},
    }
    assert simulate.RandomTurnStats(4, 1, 3, 0, 0.75, 0.25, 0).to_json_dict() == {
        "runs": 4,
        "blue_wins": 1,
        "red_wins": 3,
        "unresolved": 0,
        "frequency": 0.75,
        "stderr": 0.25,
        "master_seed": 0,
    }
