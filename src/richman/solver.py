"""Cost tables for bidding games, computed exactly.

The cost of a vertex is the fraction of the total money Blue must hold to
force a win from there: 0 at the blue terminal, 1 at the red terminal, and
at every other vertex the average of the cheapest and the dearest successor
cost.  On a finite arena that averaging identity has a unique solution with
the terminal boundary values, and it is always rational.

``solve_exact`` takes one route: float sweeps pick a (cheapest, dearest)
successor policy, that policy's linear system is solved exactly, and the
table is returned only once it passes the exact averaging identity, which
by uniqueness certifies it.  ``solve_iterative`` brackets the costs with
monotone iterations from above and below in exact arithmetic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping

from .graphs import GameGraph, distances_to, post_order

__all__ = [
    "ApproxSolve",
    "CostTable",
    "NotConvergedError",
    "SolverError",
    "descent_distances",
    "extremal_successors",
    "iterate_above",
    "iterate_below",
    "satisfies_exact_identity",
    "solve_exact",
    "solve_iterative",
    "steepest_descent_closure",
]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 100_000
# The float sweeps only guide the choice of policy; the exact solve and the
# certificate decide.
FLOAT_SWEEP_TOL = 1e-14


class SolverError(Exception):
    """Base class for solver failures."""


class NotConvergedError(SolverError):
    """Iteration stopped at max_iters with the bracket still wider than tol.

    The achieved bracket is reported as-is: ``upper``, ``lower``, ``gap``
    and ``iterations`` describe what was actually computed.
    """

    def __init__(self, gap: Fraction, iterations: int, upper: "CostTable", lower: "CostTable"):
        self.gap = gap
        self.iterations = iterations
        self.upper = upper
        self.lower = lower
        super().__init__(f"no convergence after {iterations} iterations, gap {float(gap):.3e}")


@dataclass(frozen=True)
class CostTable:
    """Vertex costs plus a tag saying how they were computed.

    ``kind`` is one of "exact", "upper-iterate", "lower-iterate", "approx";
    iterate tables carry their step index in ``step``.
    """

    costs: Mapping[str, Fraction]
    kind: str
    step: int | None = None

    def __getitem__(self, v: str) -> Fraction:
        return self.costs[v]

    def get(self, v: str, default: Fraction | None = None) -> Fraction | None:
        return self.costs.get(v, default)

    @property
    def label(self) -> str:
        if self.step is None:
            return self.kind
        return f"{self.kind}({self.step})"

    def to_json_dict(self) -> dict:
        table = {v: _cost_json(c) for v, c in sorted(self.costs.items())}
        return {"kind": self.label, "costs": table}


@dataclass(frozen=True)
class ApproxSolve:
    """Bracketing pair of iterate tables: lower(v) <= cost(v) <= upper(v)."""

    upper: CostTable
    lower: CostTable
    iterations: int
    gap: Fraction


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _cost_json(q: Fraction) -> dict:
    return {**_frac_json(q), "float": float(q)}


def _require_valid(g: GameGraph) -> None:
    report = g.validation
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"invalid graph: {first.code} at {first.subject!r} ({first.message})")


def _boundary(g: GameGraph, fill: Fraction) -> dict[str, Fraction]:
    costs = {v: fill for v in g.vertices}
    costs[g.blue] = ZERO
    costs[g.red] = ONE
    return costs


def _average_step(g: GameGraph, costs: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """One synchronous sweep of cost(v) <- (min + max over successors) / 2."""
    out = dict(costs)
    for v in g.non_terminals:
        values = [costs[u] for u in g.successors(v)]
        out[v] = (min(values) + max(values)) / 2
    out[g.blue] = ZERO
    out[g.red] = ONE
    return out


def _iterates(g: GameGraph, fill: Fraction) -> Iterator[dict[str, Fraction]]:
    """Iterate tables 0, 1, 2, ... from ``fill`` on the non-terminals, each a
    fresh dict: the boundary table, then one averaging sweep after another."""
    costs = _boundary(g, fill)
    while True:
        yield costs
        costs = _average_step(g, costs)


def _iterate(g: GameGraph, t_max: int, fill: Fraction, kind: str) -> list[CostTable]:
    _require_valid(g)
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    iterates = islice(_iterates(g, fill), t_max + 1)
    return [CostTable(costs, kind, t) for t, costs in enumerate(iterates)]


def iterate_above(g: GameGraph, t_max: int) -> list[CostTable]:
    """Iterates started at 1 on the non-terminals; weakly decreasing in t.

    Table t answers: what share does Blue need to force a win in at most t
    moves?  Index 0 is the starting table.
    """
    return _iterate(g, t_max, ONE, "upper-iterate")


def iterate_below(g: GameGraph, t_max: int) -> list[CostTable]:
    """Iterates started at 0 on the non-terminals; weakly increasing in t.

    Table t answers: what share does Blue need to stop Red from forcing a
    win in at most t moves?
    """
    return _iterate(g, t_max, ZERO, "lower-iterate")


def _gap(g: GameGraph, upper: Mapping[str, Fraction], lower: Mapping[str, Fraction]) -> Fraction:
    return max(upper[v] - lower[v] for v in g.vertices)


def solve_iterative(
    g: GameGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ApproxSolve:
    """Run both iterations in lockstep until the bracket closes to tol.

    All arithmetic is exact; only the stopping test compares against the
    float tolerance.  Raises NotConvergedError rather than returning a
    bracket wider than tol.
    """
    _require_valid(g)
    for t, (upper, lower) in enumerate(zip(_iterates(g, ONE), _iterates(g, ZERO))):
        gap = _gap(g, upper, lower)
        if not gap > tol or t >= max_iters:  # not `gap <= tol`: they differ on a NaN tol
            break
    result = ApproxSolve(
        upper=CostTable(upper, "upper-iterate", t),
        lower=CostTable(lower, "lower-iterate", t),
        iterations=t,
        gap=gap,
    )
    if gap > tol:
        raise NotConvergedError(gap, t, result.upper, result.lower)
    return result


def satisfies_exact_identity(g: GameGraph, table: CostTable) -> bool:
    """True when the table is a genuine cost table for g.

    Checks the terminal boundary, the [0, 1] range, and the averaging
    identity 2 cost(v) = min + max over successors, all exactly.
    """
    costs = table.costs
    if costs.get(g.blue) != ZERO or costs.get(g.red) != ONE:
        return False
    for v in g.vertices:
        c = costs.get(v)
        if c is None or c < ZERO or c > ONE:
            return False
    for v in g.non_terminals:
        values = [costs[u] for u in g.successors(v)]
        if 2 * costs[v] != min(values) + max(values):
            return False
    return True


def _float_costs(g: GameGraph) -> dict[str, float]:
    """Gauss-Seidel sweeps of the averaging step in floats, from above.

    Rounding is monotone, so the iterates never rise and the loop ends.
    """
    x = {v: 1.0 for v in g.vertices}
    x[g.blue] = 0.0
    rows = [(v, tuple(g.successors(v))) for v in g.non_terminals]
    change = 1.0
    while change > FLOAT_SWEEP_TOL:
        change = 0.0
        for v, succ in rows:
            values = [x[u] for u in succ]
            new = (min(values) + max(values)) / 2
            change = max(change, x[v] - new)
            x[v] = new
    return x


def _pick_policy(
    g: GameGraph,
    x: Mapping[str, float | Fraction],
    to_blue: Mapping[str, int],
    to_red: Mapping[str, int],
) -> dict[str, tuple[str, str]]:
    """(cheapest, dearest) successor per non-terminal, always reaching a terminal.

    A tie goes to the successor nearest the choosing player's own terminal
    (Blue picks the cheapest, Red the dearest), so on the true costs the
    policy reaches a terminal from every vertex.  Values that are only
    near the true costs can still close a cycle off from the terminals;
    each vertex so cut off then moves the choice of the player whose
    terminal is nearer onto the successor nearest that terminal.  Distance
    to the nearer terminal falls along every moved choice, so every vertex
    reaches a terminal and the policy's system is never singular.
    """
    far = len(g.vertices)
    policy = {}
    for v in g.non_terminals:
        succ = g.successors(v)
        floor = min(x[u] for u in succ)
        ceiling = max(x[u] for u in succ)
        lo = min((u for u in succ if x[u] == floor), key=lambda u: (to_blue.get(u, far), u))
        hi = min((u for u in succ if x[u] == ceiling), key=lambda u: (to_red.get(u, far), u))
        policy[v] = (lo, hi)
    halting = distances_to((g.blue, g.red), ((v, u) for v, pair in policy.items() for u in pair))
    for v in g.non_terminals:
        if v in halting:
            continue
        lo, hi = policy[v]
        succ = g.successors(v)
        if to_blue.get(v, far) <= to_red.get(v, far):
            lo = min(succ, key=lambda u: (to_blue.get(u, far), u))
        else:
            hi = min(succ, key=lambda u: (to_red.get(u, far), u))
        policy[v] = (lo, hi)
    return policy


def _solve_policy(g: GameGraph, policy: Mapping[str, tuple[str, str]]) -> dict[str, Fraction]:
    """Exact solution of 2 x(v) = x(lo(v)) + x(hi(v)) with the terminals fixed.

    Sparse elimination in DFS post-order: each vertex's row is reduced by
    the expressions of the vertices eliminated before it (lowest rank
    first, since an expression only names later vertices) and solved for
    x(v) in terms of vertices not yet eliminated; back-substitution in
    reverse order then gives the values.  On an acyclic policy every
    expression is a constant.  A zero pivot means the policy has a closed
    cycle that never reaches a terminal, which ``_pick_policy`` rules out.
    """
    order = post_order(policy)
    rank = {v: i for i, v in enumerate(order)}
    solved: dict[str, tuple[Fraction, dict[str, Fraction]]] = {}
    for v in order:
        const = ZERO
        row: dict[str, Fraction] = {}
        for u in policy[v]:
            if u == g.red:
                const += HALF
            elif u != g.blue:
                row[u] = row.get(u, ZERO) + HALF
        pending = [rank[u] for u in row if u in solved]
        heapq.heapify(pending)
        while pending:
            u = order[heapq.heappop(pending)]
            a = row.pop(u)
            u_const, u_row = solved[u]
            const += a * u_const
            for w, b in u_row.items():
                if w not in row:
                    row[w] = ZERO
                    if w in solved:
                        heapq.heappush(pending, rank[w])
                row[w] += a * b
        pivot = 1 - row.pop(v, ZERO)
        if pivot == 0:
            raise SolverError(f"singular policy: {v!r} never reaches a terminal")
        solved[v] = (const / pivot, {w: b / pivot for w, b in row.items() if b})
    x = {g.blue: ZERO, g.red: ONE}
    for v in reversed(order):
        const, row = solved[v]
        x[v] = const + sum((b * x[w] for w, b in row.items()), ZERO)
    return x


def solve_exact(g: GameGraph) -> CostTable:
    """Exact cost table, certified by the averaging identity before return.

    Float sweeps pick a (cheapest, dearest) successor policy, whose linear
    system is solved exactly.  The cost function is the unique solution of
    the identity, so a table that satisfies it is the answer.  When it does
    not, the policy is re-picked from the exact values and solved again.
    Every picked policy reaches a terminal, so its system has one solution;
    the re-picking is not proved to end, and a policy seen before raises
    SolverError rather than looping.
    """
    _require_valid(g)
    moves = [(x, u) for x in g.non_terminals for u in g.successors(x)]
    to_blue = distances_to([g.blue], moves)
    to_red = distances_to([g.red], moves)
    policy = _pick_policy(g, _float_costs(g), to_blue, to_red)
    tried: set[tuple[tuple[str, str], ...]] = set()
    while True:
        key = tuple(policy.values())
        if key in tried:
            raise SolverError("policy improvement revisited a policy")
        tried.add(key)
        table = CostTable(_solve_policy(g, policy), "exact")
        if satisfies_exact_identity(g, table):
            return table
        policy = _pick_policy(g, table.costs, to_blue, to_red)


def extremal_successors(
    g: GameGraph, costs: CostTable | Mapping[str, Fraction], v: str
) -> tuple[str, str]:
    """(cheapest, dearest) successor of v, ties broken lexicographically."""
    succ = sorted(g.successors(v))
    if not succ:
        raise ValueError(f"{v!r} is a terminal vertex")
    lo = min(succ, key=lambda u: (costs[u], u))
    hi = min(succ, key=lambda u: (-costs[u], u))
    return lo, hi


def _descent_edges(
    g: GameGraph, costs: CostTable | Mapping[str, Fraction]
) -> list[tuple[str, str]]:
    """Steepest-descent edges (x, u): cost(u) is minimal over the successors
    of x.  ``costs`` must cover every vertex."""
    edges = []
    for x in g.non_terminals:
        succ = g.successors(x)
        if succ:
            floor = min(costs[u] for u in succ)
            edges.extend((x, u) for u in succ if costs[u] == floor)
    return edges


def steepest_descent_closure(
    g: GameGraph, costs: CostTable | Mapping[str, Fraction], v: str
) -> frozenset[str]:
    """All vertices reachable from v along steepest-descent edges.

    v itself is included.  If cost(v) < 1 the closure contains the blue
    terminal.
    """
    if v not in g.vertices:
        raise KeyError(v)
    return frozenset(distances_to([v], ((u, x) for x, u in _descent_edges(g, costs))))


def descent_distances(
    g: GameGraph, costs: CostTable | Mapping[str, Fraction]
) -> dict[str, int | None]:
    """Length of the shortest steepest-descent path to the blue terminal.

    None marks vertices with no descent path to blue (their cost is 1, or
    they sit in a region that only descends elsewhere).
    """
    dist = distances_to([g.blue], _descent_edges(g, costs))
    return {v: dist.get(v) for v in g.vertices}
