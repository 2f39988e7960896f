"""Seeded arenas and the benchmark's own oracles.

Nothing here imports the package: arenas are plain edge lists written out
in the text format, and every check is done against that edge list with
independent arithmetic (the averaging identity, the ring and ruin closed
forms, the binomial sum for the series grid, and the identity solved as a
linear system).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

BLUE = "b"
RED = "r"


@dataclass(frozen=True)
class Arena:
    """An arena as the benchmark knows it: name, edges and terminals."""

    name: str
    edges: tuple[tuple[str, str], ...]
    blue: str = BLUE
    red: str = RED

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset({self.blue, self.red}) | {x for e in self.edges for x in e}

    def successors(self) -> dict[str, list[str]]:
        """Successor lists of the non-terminals; edges out of terminals are ignored."""
        out: dict[str, list[str]] = {}
        for a, b in sorted(self.edges):
            if a not in (self.blue, self.red):
                out.setdefault(a, []).append(b)
        return out

    def text(self) -> str:
        lines = [f"# {self.name}", f"blue {self.blue}", f"red {self.red}"]
        lines += [f"edge {a} {b}" for a, b in self.edges]
        return "\n".join(lines) + "\n"


def _parse(name: str, text: str) -> Arena:
    blue = red = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "blue":
            blue = parts[1]
        elif parts[0] == "red":
            red = parts[1]
        else:
            edges.append((parts[1], parts[2]))
    return Arena(name, tuple(edges), blue, red)


# The three hand-made arenas of the package's documentation.
FIG1 = _parse("fig1", """
blue b
red r
edge v m
edge m b
edge m r
edge v c
edge c a
edge a v
""")
PATH = _parse("path", """
blue b
red r
edge v1 b
edge v1 v2
edge v2 v1
edge v2 r
""")
STAR = _parse("star", """
blue b
red r
edge v b
edge v r
""")
FIXTURES = (FIG1, PATH, STAR)


def _vid(i: int) -> str:
    return f"v{i:02d}"


def ring(n: int) -> Arena:
    """Directed n-cycle; every vertex also exits to b except the last, which
    exits to r.  cost(v_i) = cost(v_(n-1)) / 2^(n-1-i), so cost(v_i) = 2^i / (2^n - 1)."""
    edges = []
    for i in range(n):
        edges.append((_vid(i), _vid((i + 1) % n)))
        edges.append((_vid(i), BLUE if i < n - 1 else RED))
    return Arena(f"ring{n}", tuple(edges))


def ring_cost(n: int, i: int) -> Fraction:
    return Fraction(2**i, 2**n - 1)


def chain(n: int) -> Arena:
    """Two-way chain b - v00 - ... - v(n-1) - r: the fair ruin walk, so
    cost(v_i) = (i + 1) / (n + 1)."""
    stops = [BLUE] + [_vid(i) for i in range(n)] + [RED]
    edges = []
    for left, right in zip(stops, stops[1:]):
        if left != BLUE:
            edges.append((left, right))
        if right != RED:
            edges.append((right, left))
    return Arena(f"chain{n}", tuple(edges))


def chain_cost(n: int, i: int) -> Fraction:
    return Fraction(i + 1, n + 1)


def series_state(i: int, j: int) -> str:
    return f"s{i}_{j}"


@functools.cache
def series(k: int) -> Arena:
    """First-to-k series grid: state s{i}_{j} has i blue and j red wins.

    Cached, so that only the first of a run's set-ups pays for building the
    grids that the series commands name for their refusal check."""
    edges = []
    for i in range(k):
        for j in range(k):
            edges.append((series_state(i, j), BLUE if i + 1 == k else series_state(i + 1, j)))
            edges.append((series_state(i, j), RED if j + 1 == k else series_state(i, j + 1)))
    return Arena(f"series{k}", tuple(edges))


def series_cost(k: int, i: int, j: int) -> Fraction:
    """Chance the red team reaches k wins first from (i, j), fair games:
    red needs a more wins, blue m more; sum over s < m of C(a-1+s, s)/2^(a+s)."""
    a, m = k - j, k - i
    return sum((Fraction(math.comb(a - 1 + s, s), 2 ** (a + s)) for s in range(m)), Fraction(0))


def reaches_terminal(arena: Arena) -> bool:
    """Every vertex has a directed path to a terminal (reverse search)."""
    incoming: dict[str, list[str]] = {}
    for a, succ in arena.successors().items():
        for b in succ:
            incoming.setdefault(b, []).append(a)
    seen = {arena.blue, arena.red}
    frontier = list(seen)
    while frontier:
        for p in incoming.get(frontier.pop(), ()):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen == arena.vertices


def random_arena(rng: random.Random, name: str, n: int, acyclic: bool) -> Arena:
    """n non-terminals, each with two distinct successors.

    A cyclic arena draws each successor as a terminal with probability 1/3,
    else uniformly among the other non-terminals.  Uniform draws over all
    vertices give a heavy tail of slowly mixing arenas: one in a few seeds
    needs tens of thousands of exact sweeps, minutes of solving, and the
    workload's time would depend on the seed.  The two-way chains cover
    slow mixing on purpose, the same on every seed.  An acyclic arena draws
    uniformly among the later non-terminals and the terminals.  Redrawn
    until every vertex reaches a terminal.
    """
    names = [_vid(i) for i in range(n)]
    while True:
        edges = []
        for idx, v in enumerate(names):
            if acyclic:
                picks = rng.sample(names[idx + 1:] + [BLUE, RED], 2)
            else:
                others = names[:idx] + names[idx + 1:]
                picks = []
                while len(picks) < 2:
                    u = rng.choice((BLUE, RED)) if rng.random() < 1 / 3 else rng.choice(others)
                    if u not in picks:
                        picks.append(u)
            edges += [(v, u) for u in picks]
        arena = Arena(name, tuple(edges))
        if reaches_terminal(arena):
            return arena


def identity_holds(arena: Arena, costs: dict[str, Fraction]) -> bool:
    """Terminals at 0 and 1, every vertex present, and 2 cost(v) = min + max."""
    if costs.get(arena.blue) != 0 or costs.get(arena.red) != 1:
        return False
    if set(costs) != set(arena.vertices):
        return False
    for v, succ in arena.successors().items():
        values = [costs[u] for u in succ]
        if 2 * costs[v] != min(values) + max(values):
            return False
    return True


def solve_linear(arena: Arena) -> dict[str, Fraction]:
    """The exact cost table by Gauss-Jordan elimination over the rationals.

    Every vertex of the benchmark's arenas has one or two successors, so
    min + max over them is their sum (twice the one successor's cost) and
    the averaging identity is a linear system.  It has one solution when
    every vertex reaches a terminal.
    """
    succ = arena.successors()
    if any(len(us) > 2 for us in succ.values()):
        raise ValueError(f"{arena.name}: a vertex has more than two successors")
    order = sorted(succ)
    col = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = []
    for v in order:  # 2 cost(v) - sum of the successors' costs = red's share
        row = [Fraction(0)] * (n + 1)
        row[col[v]] += 2
        weight = 2 // len(succ[v])
        for u in succ[v]:
            if u == arena.red:
                row[n] += weight
            elif u != arena.blue:
                row[col[u]] -= weight
        rows.append(row)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        head = rows[c][c]
        rows[c] = [x / head for x in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    table = {arena.blue: Fraction(0), arena.red: Fraction(1)}
    table.update((v, rows[col[v]][n]) for v in order)
    return table


def closed_form(arena: Arena) -> dict[str, Fraction] | None:
    """The known exact table of a ring, chain or series arena, else None."""
    kind = arena.name.rstrip("0123456789")
    if kind not in ("ring", "chain", "series"):
        return None
    n = int(arena.name[len(kind):])
    table = {arena.blue: Fraction(0), arena.red: Fraction(1)}
    if kind == "series":
        table.update((series_state(i, j), series_cost(n, i, j)) for i in range(n) for j in range(n))
    else:
        cost = ring_cost if kind == "ring" else chain_cost
        table.update((_vid(i), cost(n, i)) for i in range(n))
    return table
