"""Game arenas: finite directed graphs with a blue and a red terminal vertex.

Text format (UTF-8, line oriented):

* blank lines, and lines whose first token starts with ``#``, are
  ignored; there are no trailing comments,
* exactly one ``blue <id>`` line and exactly one ``red <id>`` line,
* zero or more ``edge <from> <to>`` lines.

A vertex id is any whitespace-free token other than ``#``, and the
vertices are the terminals and the edge endpoints.  The canonical
serialization emits the blue line, the red line, then the edges sorted
lexicographically by (from, to).  Parsing it back yields an equal graph
when every vertex is a terminal or an edge endpoint, so for every valid
arena: the format has no line for a vertex on no edge.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, NamedTuple


__all__ = [
    "GameGraph",
    "GraphFormatError",
    "ValidationReport",
    "Violation",
    "parse_game_graph",
    "serialize_game_graph",
    "validate",
]


class GraphFormatError(ValueError):
    """Graph text that cannot be parsed.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GameGraph:
    """Immutable arena, equal, hashed and shown as the value of its four
    fields.  ``blue`` and ``red`` are the terminal vertices.  The move table
    ``moves`` maps each non-terminal, in name order, to its successors
    sorted by name; edges out of a terminal may exist in the edge set (the
    parser keeps them), but the terminals have no entry: play stops there.

    The constructor also puts the arena on the integer positions that every
    walk, solve and game reads: ``_names`` holds the non-terminals 0..n-1
    in ``moves`` order, Blue n and Red n+1, with the name → position map
    ``_position``, each non-terminal's successor positions ``_succ`` (an
    edge to an unknown vertex is left out, as ``validate`` reads it) and
    each position's predecessors ``_pred``.
    """

    def __init__(self, vertices: frozenset[str], edges: frozenset[tuple[str, str]], blue: str, red: str):
        non_terminals = tuple(sorted(vertices - {blue, red}))
        out: dict[str, list[str]] = {v: [] for v in non_terminals}
        for a, b in edges:
            if a in out:
                out[a].append(b)
        moves = {v: tuple(sorted(ts)) for v, ts in out.items()}
        names = (*non_terminals, blue, red)
        position = {v: i for i, v in enumerate(names)}
        succ = [tuple([position[u] for u in ts if u in vertices]) for ts in moves.values()]
        pred: list[list[int]] = [[] for _ in names]
        for x, ts in enumerate(succ):
            for u in ts:
                pred[u].append(x)
        vars(self).update(vertices=vertices, edges=edges, blue=blue, red=red, non_terminals=non_terminals)
        vars(self).update(moves=moves, _names=names, _position=position, _succ=succ, _pred=pred)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges, self.blue, self.red) == (other.vertices, other.edges, other.blue, other.red)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.blue, self.red))

    def __repr__(self) -> str:
        fields = f"vertices={self.vertices!r}, edges={self.edges!r}, blue={self.blue!r}, red={self.red!r}"
        return f"{self.__class__.__qualname__}({fields})"

    @classmethod
    def from_parts(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]], blue: str, red: str) -> GameGraph:
        """The arena on ``vertices``, the two terminals and every edge
        endpoint: a vertex exists once an edge or a terminal names it."""
        es = frozenset((a, b) for a, b in edges)
        return cls(frozenset(vertices).union((blue, red), *es), es, blue, red)

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate(self)``, run once per graph: the graph is frozen."""
        return validate(self)

    @cached_property
    def _depth(self) -> list[int] | None:
        """Per position, the most non-terminals on a path from it to a
        terminal, or None when the non-terminals contain a directed cycle:
        the walk counts down each position's successors and takes the edge
        to its last one, so a position on or before a cycle is never reached."""
        left = [len(ts) for ts in self._succ] + [0, 0]
        depth = _walk(self._pred, [i for i, k in enumerate(left) if not k], left)
        return None if len(depth) in depth else depth

    def is_terminal(self, v: str) -> bool:
        if v not in self.vertices:
            raise KeyError(v)
        return v == self.blue or v == self.red


class Violation(NamedTuple):
    code: str
    subject: str
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def _walk(pred: list[list[int]], targets: Iterable[int], keep: Callable | list[int] | None = None) -> list[int]:
    """The one walk: fewest edges from each position to one of ``targets``
    along the predecessor lists, taking an edge (x, u) only where
    ``keep(x, u)`` (any without ``keep``); ``len(pred)`` if none is reached.
    A list ``keep`` counts successors, and is used up: only the edge to x's
    last one is taken."""
    far = len(pred)
    dist = [far] * far
    frontier, steps = list(targets), 0
    for t in frontier:
        dist[t] = 0
    count = isinstance(keep, list)
    while frontier:
        steps += 1
        reached = []
        for u in frontier:
            for x in pred[u]:
                if dist[x] < far:
                    continue
                if count:
                    keep[x] -= 1
                    if keep[x]:
                        continue
                elif keep and not keep(x, u):
                    continue
                dist[x] = steps
                reached.append(x)
        frontier = reached
    return dist


def validate(g: GameGraph) -> ValidationReport:
    """Check the structural rules of a playable arena.

    Reported codes: BLUE_EQUALS_RED, MISSING_TERMINAL, BAD_EDGE_ENDPOINT,
    TERMINAL_SELF_LOOP, DEAD_END (non-terminal without outgoing edges) and
    UNREACHABLE_TERMINALS (no directed path to either terminal).
    """
    found: list[Violation] = []

    if g.blue == g.red:
        found.append(Violation("BLUE_EQUALS_RED", g.blue, "blue and red are the same vertex"))
    for name, t in (("blue", g.blue), ("red", g.red)):
        if t not in g.vertices:
            found.append(Violation("MISSING_TERMINAL", t, f"{name} vertex {t!r} is not in the vertex set"))
    vs = g.vertices
    for a, b in sorted((a, b) for a, b in g.edges if a not in vs or b not in vs):
        for end in (a, b):
            if end not in vs:
                found.append(Violation("BAD_EDGE_ENDPOINT", end, f"edge ({a}, {b}) mentions unknown vertex {end!r}"))
    for t in sorted({g.blue, g.red}):
        if (t, t) in g.edges:
            found.append(Violation("TERMINAL_SELF_LOOP", t, f"terminal {t!r} has a self-loop"))

    for v, succ in zip(g._names, g._succ):
        if not succ:
            found.append(Violation("DEAD_END", v, f"non-terminal {v!r} has no outgoing edges"))

    # Every vertex must reach one of the terminals; edges out of a terminal
    # cannot change which do.
    reached = _walk(g._pred, [g._position[t] for t in (g.blue, g.red) if t in vs])
    for v in sorted(v for v in vs if reached[g._position[v]] == len(reached)):
        found.append(Violation("UNREACHABLE_TERMINALS", v, f"no path from {v!r} to a terminal"))

    found.sort(key=lambda w: (w.code, w.subject))
    return ValidationReport(ok=not found, violations=tuple(found))


def parse_game_graph(text: str) -> GameGraph:
    terminals: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        keyword = parts[0]
        if keyword == "edge":
            if len(parts) != 3:
                raise GraphFormatError("expected 'edge <from> <to>'", lineno)
        elif keyword in ("blue", "red"):
            if len(parts) != 2:
                raise GraphFormatError(f"expected '{keyword} <id>'", lineno)
        else:
            raise GraphFormatError(f"unknown directive {keyword!r}", lineno)
        if "#" in parts:
            raise GraphFormatError("bad vertex id '#'", lineno)
        if keyword == "edge":
            edges.add((parts[1], parts[2]))
        elif keyword in terminals:
            raise GraphFormatError(f"duplicate {keyword} declaration", lineno)
        else:
            terminals[keyword] = parts[1]

    for keyword in ("blue", "red"):
        if keyword not in terminals:
            raise GraphFormatError(f"missing {keyword} declaration")
    blue, red = terminals["blue"], terminals["red"]
    if blue == red:
        raise GraphFormatError("blue and red must be distinct vertices")
    return GameGraph(frozenset((blue, red)).union(*edges), frozenset(edges), blue, red)


def serialize_game_graph(g: GameGraph) -> str:
    """The canonical text of ``g``.  Parsing it back gives ``g`` again when
    every vertex is a terminal or an edge endpoint, as in every valid
    arena; a non-terminal on no edge has no line, so it is lost."""
    lines = [f"blue {g.blue}", f"red {g.red}"]
    lines.extend(f"edge {a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"
