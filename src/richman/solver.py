"""Cost tables for bidding games, computed exactly.

The cost of a vertex is the fraction of the total money Blue must hold to
force a win from there: 0 at the blue terminal, 1 at the red terminal, and
at every other vertex the average of the cheapest and the dearest successor
cost.  On a finite arena that averaging identity has a unique solution with
the terminal boundary values, and it is always rational.

Every table, move list and policy inside is a list by the arena's
integer positions (``GameGraph._names``: non-terminals 0..n-1, Blue n,
Red n+1); names come back only in the returned Fractions.

``solve_exact`` uses no floats, and no Fractions until it returns.  Its
tables are integer numerators N(v) over one shared denominator D.  When
the non-terminals alone have no cycle it back-substitutes over D = 2^E,
with E the most non-terminals on a path to a terminal: each N(v) is
(min + max) / 2 of numerators already found, a halving that stays exact
because a vertex with at most d non-terminals on any path from it (itself
included) has a cost that is a multiple of 2^-d.  Otherwise it runs policy
rounds: a (cheapest, dearest) successor policy, each player's choice
picked by the one steepest-descent move rule ``_descent_moves`` (first on
the all-zero table, where it is distance to the player's terminal),
reaches a terminal from every vertex (``_pick_policy``'s theorem); its
integer rows are eliminated fraction-free in minimum-degree order and
back-substituted over one common denominator, and it is re-picked from
the exact numerators until the table passes the averaging identity.  ``_solve`` returns (N, D) only once
it passes that identity, checked in integers as 2 N(v) = min + max, which
by uniqueness certifies it, and keeps it on the graph.  Both agents,
the coin-flip game and the CLI read those integers, and the series
ladder solves its grid's lists by the same back-substitution and
certificate (``_back_substitute``); Fractions are built only for the
public returns.
``solve_iterative`` brackets the costs with monotone iterations from above
and below, each table integer numerators over a power of two
(``_iterates``, which the optimal agent's ladder reads too), and builds
Fractions only for the two tables it returns.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .graphs import GameGraph, _walk

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


def _iterates(g: GameGraph, goal: int, fill: int) -> Iterator[tuple[list[int], int]]:
    """Iterate tables 0, 1, 2, ... as integer numerators over a shared power
    of two: each yielded (N, e) is the table N(v) / 2^e, in a fresh list.

    Table 0 is 0 at the ``goal`` terminal, 1 at the other terminal and
    ``fill`` (0 or 1) elsewhere, with e = 0: Blue's iterates for the blue
    goal, Red's for the red one.  A sweep sets N'(v) = min + max of the
    successors' numerators and the other terminal to 2^(e+1): over 2^(e+1)
    that is the averaging step (min + max) / 2.  It then divides out the
    gcd of all numerators, a power of two because the other terminal's
    numerator is 2^(e+1).  Without that reduction a table that stops moving
    would still grow by one bit per sweep.
    """
    succ = g._succ
    ends = [0, 1] if goal == len(succ) else [1, 0]
    nums, e = [fill] * len(succ) + ends, 0
    while True:
        yield nums, e
        e += 1
        new = [min(values) + max(values) for values in [[nums[u] for u in ts] for ts in succ]]
        new += [n << e for n in ends]
        shift = math.gcd(*new).bit_length() - 1
        if shift:
            new = [n >> shift for n in new]
            e -= shift
        nums = new


def _table(g: GameGraph, nums: Sequence[int], den: int) -> dict[str, Fraction]:
    """The table N(v) / den, one Fraction per vertex."""
    return {v: Fraction(n, den) for v, n in zip(g._names, nums)}


def solve_iterative(g: GameGraph, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> ApproxSolve:
    """Run both iterations in lockstep until the bracket closes to tol.

    All arithmetic is exact: the gap is an integer over 2^e and tol the
    ratio p / q of integers, so the bracket is closed when gap q <= p 2^e.
    A NaN or infinite tol has no such ratio: NaN and +inf close every
    bracket and -inf none, as comparing the gap with them would.  Raises
    NotConvergedError rather than returning a bracket wider than tol.
    """
    _require_valid(g)
    try:
        p, q = tol.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinity or NaN
        p, q = -1 if tol < 0 else 1, 0
    blue = len(g._succ)
    for t, ((upper, e_up), (lower, e_low)) in enumerate(zip(_iterates(g, blue, 1), _iterates(g, blue, 0))):
        e = max(e_up, e_low)
        up, low = e - e_up, e - e_low
        gap = max((a << up) - (b << low) for a, b in zip(upper, lower))
        closed = gap * q <= p << e
        if closed or t >= max_iters:
            break
    result = ApproxSolve(_table(g, upper, 1 << e_up), _table(g, lower, 1 << e_low), t, Fraction(gap, 1 << e))
    if not closed:
        raise NotConvergedError(result.gap, t, result.upper, result.lower)
    return result


def _identity_holds(succ: Sequence[Sequence[int]], nums: Sequence[int], den: int) -> bool:
    """True when N(v) / den is a genuine cost table for the successor
    lists ``succ``.

    Checks the terminal boundary, the [0, 1] range, and the averaging
    identity 2 N(v) = min + max over successors, all in integers.  A dead
    end has no successors to average, so it fails.
    """
    if nums[len(succ)] != 0 or nums[len(succ) + 1] != den or min(nums) < 0 or max(nums) > den:
        return False
    for n, ts in zip(nums, succ):
        values = [nums[u] for u in ts]
        if not values or 2 * n != min(values) + max(values):
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


def satisfies_exact_identity(g: GameGraph, table: Mapping[str, Fraction]) -> bool:
    """True when the table is a genuine cost table for g.

    Checks the terminal boundary, the [0, 1] range, and the averaging
    identity 2 cost(v) = min + max over successors, all exactly.  A table
    missing a vertex, or with a value other than an int or a Fraction,
    fails.
    """
    try:
        nums, den = _integers([table[v] for v in g._names])
    except (KeyError, ValueError):
        return False
    return {g.blue, g.red} <= g.vertices and _identity_holds(g._succ, nums, den)


def _descent_moves(g: GameGraph, goal: int, nums: Sequence[int]) -> list[int]:
    """Every non-terminal's move towards ``goal`` on the numerators ``nums``,
    lowest the best (only their order matters): a cheapest successor, ties
    to the fewest steepest-descent steps to the goal, then to the first
    name.  The optimal agent (losing or critical), the safety agent, the
    coin-flip game and the exact solver's policy rounds move by it.

    On the true costs, Blue's move by it and Red's on 1 - cost are
    ``_pick_policy``'s pick, which halts (its theorem): a fair coin game
    ends, and as the two moves' costs average to the cost, Red wins it
    with probability cost(v), the paper's random-turn theorem.

    Two optimal agents with Blue's share at cost(v) both bid the drop
    cost(v) - cheapest = dearest - cost(v); the tie winner pays it and
    moves by this rule, so Blue's share stays at the cost: with fair ties
    that bidding game is the coin-flip game, and it too ends.
    """
    floors, cheapest = [], []
    for succ in g._succ:
        floor = min([nums[u] for u in succ])
        floors.append(floor)
        cheapest.append([u for u in succ if nums[u] == floor])
    # The walk keeps the edges to a cheapest successor.  Successors are in
    # name order and min keeps the first of equals.
    dist = _walk(g._pred, (goal,), lambda x, u: nums[u] == floors[x])
    return [ts[0] if len(ts) == 1 else min(ts, key=dist.__getitem__) for ts in cheapest]


def _pick_policy(g: GameGraph, x: Sequence[int]) -> list[tuple[int, int]]:
    """(cheapest, dearest) successor per non-terminal: Blue's
    ``_descent_moves`` on the numerators ``x`` and Red's on ``-x``.

    Theorem: if x is the exact value table of a policy that halts (reaches
    a terminal from every vertex), the pick on x halts.  Lemma: if
    x(v) < 1, v reaches the blue terminal along edges to a cheapest
    successor.  If not, the least x on the set A those edges reach from v,
    mu < 1, is taken at a non-terminal u (the blue terminal is not in A,
    the red one is worth 1).  u's successors are worth at least mu, as its
    cheapest lie in A, and its two policy successors average to mu, so
    both are cheapest, worth mu and in A: the level mu of A is closed
    under the halting policy, which is absurd.  Likewise x(v) > 0 gives a
    path to the red terminal along edges to a dearest successor.  Proof:
    the non-terminals C from which the pick reaches no terminal are closed
    under both picked moves.  If some vertex of C has x < 1, take one with
    the fewest steepest-descent steps to the blue terminal (finite by the
    lemma): Blue's move from it is a vertex of C one step nearer, and a
    cheapest successor, worth at most the average x, which is absurd.  So
    x = 1 on C, and Red's moves make C empty the same way.

    On the all-zero table every successor ties, so Blue picks a successor
    nearest the blue terminal and Red one nearest the red terminal.  Every
    vertex of a valid arena reaches a terminal, and one of the two is a
    step nearer the nearer one, so that pick halts.  By induction every
    round of ``_solve`` picks a halting policy.  The certified table is the
    exact value of a halting policy (the last round's, or any on an acyclic
    interior), so the coin-flip game's pick on it halts.
    """
    blue = len(g._succ)
    return list(zip(_descent_moves(g, blue, x), _descent_moves(g, blue + 1, [-n for n in x])))


def _solve_policy(g: GameGraph, policy: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
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

    A policy that reaches a terminal from every vertex (by its theorem,
    each of ``_solve``'s picks) has a nonsingular M-matrix: its
    off-diagonal entries are <= 0, and so is every Schur complement, so
    every pivot of every symmetric elimination order is positive.  Each row here is a Schur
    complement row times a positive number, so the signs carry over, and
    fill never cancels to 0: off the diagonal, pivot * r[w] <= 0 and
    r[v] * row(v)[w] is a product of two negative entries, so the new
    entry is < 0; on the diagonal it is a pivot to come, > 0.  A zero
    pivot, which the theorem rules out, raises SolverError as a guard.
    """
    n = len(policy)
    rows: list[dict[int, int] | None] = []
    rhs: list[int] = []
    naming: list[set[int]] = [set() for _ in policy]  # active rows naming each column
    for v, pair in enumerate(policy):
        row = {v: 2}
        rhs.append(pair.count(n + 1))
        for u in pair:
            if u < n:
                row[u] = row.get(u, 0) - 1
        rows.append({u: a for u, a in row.items() if a})
        for u in rows[v]:
            naming[u].add(v)
    heap = [(len(row) + len(naming[v]), v) for v, row in enumerate(rows)]
    heapq.heapify(heap)
    eliminated: list[tuple[int, int, int, dict[int, int]]] = []
    while heap:
        degree, v = heapq.heappop(heap)
        row = rows[v]
        if row is None or degree != len(row) + len(naming[v]):
            continue  # eliminated already, or a stale degree
        rows[v] = None
        pivot = row.pop(v, 0)
        if pivot == 0:
            raise SolverError(f"singular policy: {g._names[v]!r} never reaches a terminal")
        b = rhs[v]
        naming[v].discard(v)
        for w in row:
            naming[w].discard(v)
        for r in naming[v]:
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
    nums = [0] * n + [0, 1]
    den = 1
    for v, pivot, b, row in reversed(eliminated):
        t = b * den - sum(c * nums[w] for w, c in row.items())
        divisor = math.gcd(t, pivot)
        if divisor < pivot:
            scale = pivot // divisor
            den *= scale
            nums = [x * scale for x in nums]
        nums[v] = t // divisor
    return nums, den


def _back_substitute(succ: Sequence[Sequence[int]], depth: Sequence[int]) -> tuple[list[int], int]:
    """The certified (nums, den) of an acyclic interior by position:
    ``succ`` as ``GameGraph._succ`` and ``depth`` as ``GameGraph._depth``.
    A depth that is wrong for ``succ`` fails the certificate: SolverError."""
    den = 1 << max(depth)
    nums = [0] * len(depth)
    nums[-1] = den
    for v in sorted(range(len(succ)), key=depth.__getitem__):
        values = [nums[u] for u in succ[v]]
        nums[v] = (min(values) + max(values)) >> 1
    if not _identity_holds(succ, nums, den):
        raise SolverError("back-substitution broke the averaging identity")
    return nums, den


def _solve(g: GameGraph) -> tuple[tuple[int, ...], int]:
    """The exact table as (nums, den) by position, certified by the
    averaging identity (the routes are in the module docstring) and kept
    on the graph, which is frozen, so each graph object is solved once.
    Every picked policy halts (``_pick_policy``'s theorem), so its system
    has one solution; the re-picking is not proved to end, and a policy
    seen before raises SolverError (and keeps nothing) rather than looping.
    """
    if "_exact" in vars(g):
        return vars(g)["_exact"]
    _require_valid(g)
    succ, depth = g._succ, g._depth
    if depth is not None:
        nums, den = _back_substitute(succ, depth)
    else:
        policy = _pick_policy(g, [0] * (len(succ) + 2))
        tried: set[tuple[tuple[int, int], ...]] = set()
        while True:
            key = tuple(policy)
            if key in tried:
                raise SolverError("policy improvement revisited a policy")
            tried.add(key)
            nums, den = _solve_policy(g, policy)
            if _identity_holds(succ, nums, den):
                break
            policy = _pick_policy(g, nums)
    exact = vars(g)["_exact"] = tuple(nums), den
    return exact


def solve_exact(g: GameGraph) -> dict[str, Fraction]:
    """Exact cost table, one Fraction per vertex (``_solve``)."""
    return _table(g, *_solve(g))
