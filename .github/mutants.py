"""Fail unless each listed source edit (a mutant) makes its named tests fail.

Usage: python .github/mutants.py

Each mutant replaces one exact snippet of a file under src/richman in a
temporary copy of src/ and tests/ and runs the named tests there with
pytest.  The named tests must first pass on the unedited copy, and then
fail (pytest exit code 1) on each of their mutants.  A snippet that is not
found exactly once is an error too, so a mutant cannot go stale silently.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "the descent tie-break takes the first cheapest successor by name",
        "src/richman/solver.py",
        "min(ts, key=dist.__getitem__)",
        "ts[0]",
        ("tests/test_properties.py::test_the_pick_on_the_values_of_every_halting_policy_halts",),
    ),
    Mutant(
        "Red's descent takes a cheapest successor instead of a dearest one",
        "src/richman/solver.py",
        "pick = min if goal == len(g._succ) else max",
        "pick = min",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "the elimination divides the row by its content but not the right-hand side",
        "src/richman/solver.py",
        "                new_rhs //= divisor\n",
        "",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "the ladder plans its winning bid on rung t instead of rung t-1",
        "src/richman/agents.py",
        "_rung_plan(self._ladder[t - 1], self._graph, v)",
        "_rung_plan(self._ladder[t], self._graph, v)",
        ("tests/test_agents.py::test_full_knowledge_winning_branch_picks_short_circuit",),
    ),
    Mutant(
        "the safety agent bids half its rate",
        "src/richman/agents.py",
        "        return own * abs(nums[v] - nums[move]), cost or 1, move\n",
        "        return own * abs(nums[v] - nums[move]), 2 * (cost or 1), move\n",
        ("tests/test_agents.py::test_safety_agent_bids",),
    ),
    Mutant(
        "the ladder's plan drops the half-slack term (half the next rung's value)",
        "src/richman/agents.py",
        "    return max(nums[u] for u in succ) - 3 * nums[move], e + 2, move\n",
        "    return 2 * (max(nums[u] for u in succ) - nums[move]), e + 2, move\n",
        ("tests/test_agents.py::test_full_knowledge_winning_branch_star",),
    ),
    Mutant(
        "the losing bid is not capped at the bankroll",
        "src/richman/agents.py",
        "        return min(abs(nums[v] - nums[lo]) * total, own * self._den), self._den, lo\n",
        "        return abs(nums[v] - nums[lo]) * total, self._den, lo\n",
        ("tests/test_agents.py::test_full_knowledge_bid_is_capped_by_bankroll",),
    ),
    Mutant(
        "Red's cost reads Blue's numerator instead of den - N",
        "src/richman/agents.py",
        "self._flip = graph, nums, den if red else 0\n",
        "self._flip = graph, nums, 0\n",
        ("tests/test_agents.py::test_safety_agent_bids",),
    ),
    Mutant(
        "the descent walk drops its floor test and steps along every edge",
        "src/richman/solver.py",
        "lambda x, u: nums[u] == floors[x]",
        "lambda x, u: True",
        ("tests/test_solver.py::test_descent_ties_go_by_descent_distance_not_edge_distance",),
    ),
    Mutant(
        "the constructor builds the predecessor lists from the wrong end of each edge",
        "src/richman/graphs.py",
        "                pred[u].append(x)\n",
        "                pred[x].append(u)\n",
        ("tests/test_graphs.py::test_validate_matches_the_name_based_reference",),
    ),
    Mutant(
        "the constructor keeps a successor position for an edge to an unknown vertex",
        "src/richman/graphs.py",
        "[position[u] for u in ts if u in vertices]",
        "[position[u] for u in ts]",
        ("tests/test_graphs.py::test_validate_matches_the_name_based_reference",),
    ),
    Mutant(
        "GameGraph equality ignores the edge set",
        "src/richman/graphs.py",
        "(self.vertices, self.edges, self.blue, self.red) == (other.vertices, other.edges, other.blue, other.red)",
        "(self.vertices, self.blue, self.red) == (other.vertices, other.blue, other.red)",
        ("tests/test_graphs.py::test_game_graph_is_a_frozen_value_of_its_four_fields",),
    ),
    Mutant(
        "the height walk takes a position at its first successor instead of its last",
        "src/richman/graphs.py",
        "                    if keep[x]:\n                        continue\n",
        "",
        ("tests/test_properties.py::test_interior_has_cycle_matches_peeling",),
    ),
    Mutant(
        "the engine asks _bid of every agent that has one, not only of those that keep the built-in decide",
        "src/richman/agents.py",
        "    if type(agent).decide is _IntegerAgent.decide:\n",
        '    if hasattr(agent, "_bid"):\n',
        ("tests/test_simulate.py::test_deterministic_agents_play_a_tie_free_batch_once",),
    ),
    Mutant(
        "the engine asks every agent through decide",
        "src/richman/agents.py",
        "    if type(agent).decide is _IntegerAgent.decide:\n",
        "    if False:\n",
        ("tests/test_simulate.py::test_a_batch_builds_steps_only_for_the_records_it_passes_on",),
    ),
    Mutant(
        "the parser leaves the edge endpoints out of the vertex set",
        "src/richman/graphs.py",
        "GameGraph(frozenset((blue, red)).union(*edges),",
        "GameGraph(frozenset((blue, red)),",
        ("tests/test_properties.py::test_the_parser_equals_the_token_by_token_reference",),
    ),
    Mutant(
        "the parser drops its test for a lone '#' token",
        "src/richman/graphs.py",
        '        if "#" in parts:\n            raise GraphFormatError("bad vertex id \'#\'", lineno)\n',
        "",
        ("tests/test_properties.py::test_the_parser_equals_the_token_by_token_reference",),
    ),
    Mutant(
        "the engine reports every protocol fault as game 0",
        "src/richman/simulate.py",
        "raise ProtocolViolationError(*err.args, game_index) from None",
        "raise ProtocolViolationError(*err.args, 0) from None",
        ("tests/test_simulate.py::test_protocol_violations_are_attributed",),
    ),
    Mutant(
        "the winner's bid is paid to Blue when Blue wins",
        "src/richman/simulate.py",
        "move, scale, to_blue = blue_move, blue_scale, -blue_num",
        "move, scale, to_blue = blue_move, blue_scale, blue_num",
        ("tests/test_simulate.py::test_single_step_game_record",),
    ),
    Mutant(
        "a step records its own position as its move",
        "src/richman/simulate.py",
        "names[move_to], *after)",
        "names[v], *after)",
        ("tests/test_simulate.py::test_single_step_game_record",),
    ),
    Mutant(
        "the series grid lists each state's red-next successor before its blue-next one",
        "src/richman/series.py",
        "(blue if i + 1 == k else v + k, blue + 1 if j + 1 == k else v + 1)",
        "(blue + 1 if j + 1 == k else v + 1, blue if i + 1 == k else v + k)",
        ("tests/test_series.py::test_the_positional_grid_names_into_the_series_graph",),
    ),
    Mutant(
        "the row formatter skips its gcd and prints N/D unreduced",
        "src/richman/cli.py",
        'return f"{num // common}" if common == den else f"{num // common}/{den // common}"',
        'return f"{num}" if den == 1 else f"{num}/{den}"',
        ("tests/test_properties.py::test_solve_rows_are_the_rows_of_the_fraction_table",),
    ),
]


def pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code = pytest(tree, tests)
            print(f"unedited: {' '.join(tests)} -> exit {code}")
            if code != 0:
                failures.append(f"{' '.join(tests)} fails on the unedited source (exit {code})")
        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text()
            found = original.count(m.old)
            if found != 1:
                failures.append(f"{m.name}: snippet found {found} times in {m.path}, not once")
                continue
            target.write_text(original.replace(m.old, m.new))
            try:
                code = pytest(tree, m.tests)
            finally:
                target.write_text(original)
            print(f"{m.name}: {' '.join(m.tests)} -> exit {code}")
            if code != 1:
                failures.append(f"{m.name}: survived ({' '.join(m.tests)} gave exit {code}, not 1)")
    for line in failures:
        print(f"error: {line}")
    if failures:
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
