"""Cost tables for bidding games, computed exactly.

The cost of a vertex is the fraction of the total money Blue must hold to
force a win from there: 0 at the blue terminal, 1 at the red terminal, and
at every other vertex the average of the cheapest and the dearest successor
cost.  On a finite arena that averaging identity has a unique solution with
the terminal boundary values, and it is always rational.

``solve_exact`` uses no floats, and no Fractions until it returns.  Its
tables are integer numerators N(v) over one shared denominator D.  When
the non-terminals alone have no cycle it back-substitutes over D = 2^E,
with E the most non-terminals on a path to a terminal: each N(v) is
(min + max) / 2 of numerators already found, a halving that stays exact
because a vertex with at most d non-terminals on any path from it (itself
included) has a cost that is a multiple of 2^-d.  Otherwise it runs policy rounds: a (cheapest,
dearest) successor policy, each player's choice picked by the one
steepest-descent move rule ``_descent_moves`` (first on the all-zero
table, where it is distance to the player's terminal), has its linear
system solved exactly, with integer rows eliminated fraction-free in
minimum-degree order and back-substituted over one common denominator,
and is re-picked from the exact numerators until the table passes the
averaging identity.  Every route returns a table only
once it passes that identity, checked in integers as 2 N(v) = min + max,
which by uniqueness certifies it; the returned Fractions are built once,
from (N, D).
``solve_iterative`` brackets the costs with monotone iterations from above
and below in exact arithmetic.

Every iterate table is dyadic.  ``_iterates`` yields table t as (N, e):
integer numerators N(v) over one shared 2^e, with the common power of two
divided out, so e = 0 or some numerator is odd.  ``solve_iterative``
(whose gap is an integer difference over the larger 2^e) builds Fractions
only for the two tables it returns; the optimal agent's ladder keeps the
integers.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .graphs import GameGraph, distances_to

__all__ = [
    "ApproxSolve",
    "NotConvergedError",
    "SolverError",
    "satisfies_exact_identity",
    "solve_exact",
    "solve_iterative",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 100_000


class SolverError(Exception):
    """Base class for solver failures."""


class NotConvergedError(SolverError):
    """Iteration stopped at max_iters with the bracket still wider than tol.

    The achieved bracket is reported as-is: ``upper``, ``lower``, ``gap``
    and ``iterations`` describe what was actually computed.
    """

    def __init__(self, gap: Fraction, iterations: int, upper: dict[str, Fraction], lower: dict[str, Fraction]):
        self.gap = gap
        self.iterations = iterations
        self.upper = upper
        self.lower = lower
        super().__init__(f"no convergence after {iterations} iterations, gap {float(gap):.3e}")


class ApproxSolve(NamedTuple):
    """Bracketing pair of iterate tables, both after ``iterations`` sweeps:
    lower[v] <= cost(v) <= upper[v]."""

    upper: dict[str, Fraction]
    lower: dict[str, Fraction]
    iterations: int
    gap: Fraction


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _require_valid(g: GameGraph) -> None:
    report = g.validation
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"invalid graph: {first.code} at {first.subject!r} ({first.message})")


def _iterates(g: GameGraph, goal: str, fill: int) -> Iterator[tuple[dict[str, int], int]]:
    """Iterate tables 0, 1, 2, ... as integer numerators over a shared power
    of two: each yielded (N, e) is the table N(v) / 2^e, in a fresh dict.

    Table 0 is 0 at the ``goal`` terminal, 1 at the other terminal and
    ``fill`` (0 or 1) elsewhere, with e = 0: Blue's iterates for the blue
    goal, Red's for the red one.  A sweep sets N'(v) = min + max of the
    successors' numerators and the other terminal to 2^(e+1): over 2^(e+1)
    that is the averaging step (min + max) / 2.  It then divides out the
    trailing zeros of the OR of all numerators, at most e + 1 because the
    other terminal's numerator is 2^(e+1).  Without that reduction a table
    that stops moving would still grow by one bit per sweep.
    """
    other = g.red if goal == g.blue else g.blue
    nums = dict.fromkeys(g.vertices, fill)
    nums[goal] = 0
    nums[other] = 1
    e = 0
    while True:
        yield nums, e
        e += 1
        new = {goal: 0, other: 1 << e}
        common = new[other]
        for v, succ in g.moves.items():
            values = [nums[u] for u in succ]
            n = new[v] = min(values) + max(values)
            common |= n
        shift = (common & -common).bit_length() - 1
        if shift:
            new = {v: n >> shift for v, n in new.items()}
            e -= shift
        nums = new


def _table(g: GameGraph, nums: Mapping[str, int], den: int) -> dict[str, Fraction]:
    """The table N(v) / den, one Fraction per vertex."""
    return {v: Fraction(nums[v], den) for v in g.vertices}


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
    for t, ((upper, e_up), (lower, e_low)) in enumerate(
        zip(_iterates(g, g.blue, 1), _iterates(g, g.blue, 0))
    ):
        e = max(e_up, e_low)
        up, low = e - e_up, e - e_low
        gap = Fraction(max((upper[v] << up) - (lower[v] << low) for v in upper), 1 << e)
        if not gap > tol or t >= max_iters:  # not `gap <= tol`: they differ on a NaN tol
            break
    result = ApproxSolve(
        upper=_table(g, upper, 1 << e_up),
        lower=_table(g, lower, 1 << e_low),
        iterations=t,
        gap=gap,
    )
    if gap > tol:
        raise NotConvergedError(gap, t, result.upper, result.lower)
    return result


def _identity_holds(g: GameGraph, nums: Mapping[str, int], den: int) -> bool:
    """True when N(v) / den is a genuine cost table for g.

    Checks the terminal boundary, the [0, 1] range, and the averaging
    identity 2 N(v) = min + max over successors, all in integers.  A dead
    end has no successors to average, so it fails.
    """
    if nums.get(g.blue) != 0 or nums.get(g.red) != den:
        return False
    for v in g.vertices:
        n = nums.get(v)
        if n is None or n < 0 or n > den:
            return False
    for v, succ in g.moves.items():
        values = [nums[u] for u in succ]
        if not values or 2 * nums[v] != min(values) + max(values):
            return False
    return True


def _integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over the lcm of their denominators:
    the package's one way into integers.  ValueError names the first value
    that is not an int or a Fraction."""
    for q in values:
        if not isinstance(q, (int, Fraction)):
            raise ValueError(f"values must be ints or Fractions, got {q!r}")
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def _integer_table(g: GameGraph, table: Mapping[str, Fraction]) -> tuple[dict[str, int], int]:
    """The table as integer numerators over one denominator (``_integers``):
    KeyError for a vertex of g it lacks, ValueError for a cost that is not
    an int or a Fraction."""
    nums, den = _integers([table[v] for v in g.vertices])
    return dict(zip(g.vertices, nums)), den


def satisfies_exact_identity(g: GameGraph, table: Mapping[str, Fraction]) -> bool:
    """True when the table is a genuine cost table for g.

    Checks the terminal boundary, the [0, 1] range, and the averaging
    identity 2 cost(v) = min + max over successors, all exactly.  A table
    missing a vertex, or with a value other than an int or a Fraction,
    fails.
    """
    try:
        nums, den = _integer_table(g, table)
    except (KeyError, ValueError):
        return False
    return _identity_holds(g, nums, den)


def _descent_moves(g: GameGraph, goal: str, nums: Mapping[str, int]) -> dict[str, str]:
    """Every non-terminal's move towards ``goal`` on the numerators ``nums``,
    lowest the best (only their order matters): a cheapest successor, ties
    to the fewest steepest-descent steps to the goal, then to the first
    name.  The optimal agent (losing or critical), the safety agent, the
    coin-flip game and the exact solver's policy rounds move by it.

    When a fair coin picks who moves and both players move by it on the
    true costs (Blue on the costs, Red on 1 - cost), every game ends with
    probability 1.  If not, the chain has a closed class C of
    non-terminals.  Blue's move is a cheapest successor and Red's a
    dearest, so each cost is the average of the costs of the two moves:
    the cost is harmonic on C, and by the maximum principle it is one
    constant c there.  So every successor of every vertex of C costs c.
    If c < 1, every vertex of C has a finite steepest-descent distance to
    the blue terminal (a vertex of cost below 1 reaches it along cheapest
    successors), every successor is a descent step, and Blue's move goes
    to a vertex of C one step nearer; but a vertex of C nearest the blue
    terminal has no such move.  If c = 1, the same holds for Red on
    1 - cost.  The chance that Red wins is then harmonic with the terminal
    values 0 and 1, so it is the cost: the paper's random-turn theorem.

    Two optimal agents with Blue's share at cost(v) both bid the drop
    cost(v) - cheapest = dearest - cost(v); the tie winner pays it and
    moves by this rule, so Blue's share stays at the cost: with fair ties
    that bidding game is the coin-flip game, and it too ends.
    """
    cheapest = {}
    for v, succ in g.moves.items():
        floor = min(nums[u] for u in succ)
        cheapest[v] = [u for u in succ if nums[u] == floor]
    dist = distances_to([goal], ((v, u) for v, floor in cheapest.items() for u in floor))
    far = len(g.vertices)  # no vertex is |V| steps away
    # Successors are in name order and min keeps the first of equals; a lone
    # cheapest successor needs no distance.
    return {
        v: floor[0] if len(floor) == 1 else min(floor, key=lambda u: dist.get(u, far))
        for v, floor in cheapest.items()
    }


def _pick_policy(
    g: GameGraph, x: Mapping[str, int], first: Mapping[str, tuple[str, str]]
) -> dict[str, tuple[str, str]]:
    """(cheapest, dearest) successor per non-terminal, always reaching a terminal.

    ``x`` holds the integer numerators of a table over one denominator;
    only their order matters.  Blue's choice is its ``_descent_moves`` on
    ``x`` and Red's its ``_descent_moves`` on ``-x``, so on the true costs
    the policy is the coin-flip game's and reaches a terminal from every
    vertex.  Other values can still close a cycle off from the terminals;
    each vertex so cut off takes both choices of ``first``, a policy that
    reaches a terminal from every vertex, so the picked one does too and
    its system is never singular.

    ``first`` is the pick on the all-zero table, which needs no ``first``:
    there every successor ties, so Blue's choice is a successor nearest the
    blue terminal and Red's one nearest the red terminal.  Every vertex of
    a valid arena reaches a terminal, and one of its two choices is a step
    nearer the nearer one, so every vertex reaches a terminal.
    """
    blue = _descent_moves(g, g.blue, x)
    red = _descent_moves(g, g.red, {v: -n for v, n in x.items()})
    policy = {v: (blue[v], red[v]) for v in g.moves}
    halting = distances_to((g.blue, g.red), ((v, u) for v, pair in policy.items() for u in pair))
    return {v: pair if v in halting else first[v] for v, pair in policy.items()}


def _solve_policy(
    g: GameGraph, policy: Mapping[str, tuple[str, str]]
) -> tuple[dict[str, int], int]:
    """Exact solution of 2 x(v) = x(lo(v)) + x(hi(v)) with the terminals fixed.

    Each non-terminal v has the integer row 2 x(v) - x(lo) - x(hi) =
    [lo = red] + [hi = red], and rows stay integral under fraction-free
    elimination (Bareiss 1968): eliminating the pivot v from a row r sets
    r to pivot * r - r[v] * row(v), and then divides out the gcd of the
    new row once.  The next pivot is the remaining vertex of least degree
    (entries in its row plus rows naming it, ties by name), taken from a
    lazy heap, which keeps fill-in low.

    Back-substitution in reverse elimination order keeps every value as an
    integer numerator over one common denominator ``den``, and the result
    is (nums, den): x(v) = nums[v] / den, with nums[blue] = 0 and
    nums[red] = den.  Row v gives x(v) = t / (pivot den), with t = b den
    minus the row's other entries times their numerators.  When the pivot
    divides t, nums[v] = t / pivot; otherwise den and every numerator found
    so far are multiplied by pivot / gcd(t, pivot), and nums[v] =
    t / gcd(t, pivot).

    A policy that reaches a terminal from every vertex (``_pick_policy``
    sees to it) has a nonsingular M-matrix: its off-diagonal entries are
    <= 0, and so is every Schur complement, so every pivot of every
    symmetric elimination order is positive.  Each row here is a Schur
    complement row times a positive number, so the signs carry over, and
    fill never cancels to 0: off the diagonal, pivot * r[w] <= 0 and
    r[v] * row(v)[w] is a product of two negative entries, so the new
    entry is < 0; on the diagonal it is a pivot to come, > 0.  A zero
    pivot would mean a closed cycle that never reaches a terminal, and
    raises SolverError.
    """
    rows: dict[str, dict[str, int]] = {}
    rhs: dict[str, int] = {}
    naming: dict[str, set[str]] = {v: set() for v in policy}  # active rows naming each column
    for v, pair in policy.items():
        row = {v: 2}
        rhs[v] = 0
        for u in pair:
            if u == g.red:
                rhs[v] += 1
            elif u != g.blue:
                row[u] = row.get(u, 0) - 1
        rows[v] = {u: a for u, a in row.items() if a}
        for u in rows[v]:
            naming[u].add(v)
    heap = [(len(row) + len(naming[v]), v) for v, row in rows.items()]
    heapq.heapify(heap)
    eliminated: list[tuple[str, int, int, dict[str, int]]] = []
    while heap:
        degree, v = heapq.heappop(heap)
        row = rows.get(v)
        if row is None or degree != len(row) + len(naming[v]):
            continue  # eliminated already, or a stale degree
        del rows[v]
        pivot = row.pop(v, 0)
        if pivot == 0:
            raise SolverError(f"singular policy: {v!r} never reaches a terminal")
        b = rhs.pop(v)
        naming[v].discard(v)
        for w in row:
            naming[w].discard(v)
        for r in naming.pop(v):
            old = rows[r]
            a = old.pop(v)
            new = {w: pivot * c for w, c in old.items()}
            for w, c in row.items():
                new[w] = new.get(w, 0) - a * c
                naming[w].add(r)
            new_rhs = pivot * rhs[r] - a * b
            divisor = math.gcd(new_rhs, *new.values())
            if divisor > 1:
                new = {w: c // divisor for w, c in new.items()}
                new_rhs //= divisor
            rows[r] = new
            rhs[r] = new_rhs
            heapq.heappush(heap, (len(new) + len(naming[r]), r))
        for w in row:
            heapq.heappush(heap, (len(rows[w]) + len(naming[w]), w))
        eliminated.append((v, pivot, b, row))
    nums = {g.blue: 0, g.red: 1}
    den = 1
    for v, pivot, b, row in reversed(eliminated):
        t = b * den - sum(c * nums[w] for w, c in row.items())
        divisor = math.gcd(t, pivot)
        if divisor < pivot:
            scale = pivot // divisor
            den *= scale
            for w in nums:
                nums[w] *= scale
        nums[v] = t // divisor
    return nums, den


def solve_exact(g: GameGraph) -> dict[str, Fraction]:
    """Exact cost table, one Fraction per vertex, certified by the averaging
    identity before return.

    No floats are used, and every table is integer numerators over one
    denominator until the certified one is returned as Fractions.  With no
    cycle among the non-terminals, each numerator over 2^E (E the interior's
    depth) is (min + max) / 2 of numerators already found, in DFS
    post-order.  Otherwise a (cheapest, dearest) successor policy is picked
    on the all-zero table, where each player's steepest-descent move is a
    successor nearest its terminal, and its linear system is solved
    exactly; the table is the answer once it satisfies the identity, whose
    solution is unique.  Until then each player's choice is re-picked by
    its steepest-descent move on the exact numerators (``_pick_policy``)
    and the policy solved again.  Every picked policy reaches a terminal,
    so its system has one solution; the re-picking is not proved to end,
    and a policy seen before raises SolverError rather than looping.
    """
    _require_valid(g)
    if g.interior_order is not None:
        depth = {g.blue: 0, g.red: 0}  # most non-terminals on a path to a terminal
        for v in g.interior_order:
            depth[v] = 1 + max(depth[u] for u in g.moves[v])
        den = 1 << max(depth.values())
        nums = {g.blue: 0, g.red: den}
        for v in g.interior_order:
            values = [nums[u] for u in g.moves[v]]
            nums[v] = (min(values) + max(values)) >> 1
        if not _identity_holds(g, nums, den):
            raise SolverError("back-substitution broke the averaging identity")
        return _table(g, nums, den)
    policy = first = _pick_policy(g, dict.fromkeys(g.vertices, 0), {})  # halts by itself
    tried: set[tuple[tuple[str, str], ...]] = set()
    while True:
        key = tuple(policy.values())
        if key in tried:
            raise SolverError("policy improvement revisited a policy")
        tried.add(key)
        nums, den = _solve_policy(g, policy)
        if _identity_holds(g, nums, den):
            return _table(g, nums, den)
        policy = _pick_policy(g, nums, first)
