"""Run the small-scope arena check on every arena of one set.

Usage: python .github/small_arenas.py N [MAX_OUT]

Builds every arena of ``small_arenas(N, MAX_OUT)`` from tests/corpus.py
(N non-terminals, each with at most MAX_OUT successors) and runs
``check_small_arena`` on it: validation against the name-based
reference, the certified exact table against a name-based Fraction check,
and the halting of the policy pick on it (the coin-flip game's moves),
whose columns are each colour's descent moves on that one table.
It also checks that every policy the solve's rounds pick halts, as
``solver._pick_policy``'s theorem says.  Prints the number of arenas, of
valid ones, and how many valid arenas needed each number of policy rounds
(0 for the acyclic solve).  Fails on the first check that does not hold.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402
from richman import solver  # noqa: E402


def main(argv: list[str]) -> int:
    n, max_out = int(argv[0]), int(argv[1]) if len(argv) > 1 else None
    rounds = [0]
    real = solver._solve_policy

    def counted(policy):  # g is the arena the loop below is checking
        rounds[0] += 1
        assert corpus.policy_halts(g, policy), (g, policy)
        return real(policy)

    solver._solve_policy = counted
    arenas, histogram = 0, Counter()
    for g in corpus.small_arenas(n, max_out):
        arenas += 1
        rounds[0] = 0
        if corpus.check_small_arena(g):
            histogram[rounds[0]] += 1
    valid = sum(histogram.values())
    spread = ", ".join(f"{k}: {histogram[k]}" for k in sorted(histogram))
    print(f"n {n}, out-degree <= {max_out or 'any'}: {arenas} arenas, {valid} valid; policy rounds: {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
