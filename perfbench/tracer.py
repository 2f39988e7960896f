"""Outside-in tracing of the ``richman`` layers, installed from the benchmark.

No package source changes.  Every public function of the layer modules
(the names in each module's ``__all__`` that the module itself defines) is
found by object identity in every ``richman.*`` namespace and replaced
there by a timing wrapper, so a function bound under several names (for
example ``validate`` in ``graphs``, ``solver`` and ``cli``) is traced on
every path.  ``decide`` on every ``Agent`` subclass and ``to_json_dict`` on
every public class are wrapped too.

Each call is a span with a link to the span that caused it; self time is
the span minus the time its child spans cover.  Spans are folded into
per-name and per-(parent, child) totals as they close, so memory stays
flat on runs with hundreds of thousands of calls.  Counts the layers do
not report themselves are read from return values (sweeps, games, moves,
ties, refusals, denominator sizes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "solver", "agents", "simulate", "series", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.links: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()
        self.max_den_bits = 0
        self._stack: list[list] = []  # open spans: [name, child_s]

    def wrap(self, name: str, fn, observe=None):
        stack, spans, links = self._stack, self.spans, self.links
        spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record = spans[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                links[(parent[0] if parent else None, name)] += 1
                if observe is not None:
                    observe(self, result, error)

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n


# --- counts read from return values ------------------------------------------
# Each observer reads attributes by name and ignores results that lack them,
# so a refactor that changes a return type drops a count instead of failing.


def _sweeps(tracer: Tracer, result, error) -> None:
    iterations = getattr(result if error is None else error, "iterations", None)
    if isinstance(iterations, int):
        tracer.count("solver.sweeps", iterations)


def _rationalize(tracer: Tracer, result, error) -> None:
    if error is None and result is not None:
        tracer.count("solver.rationalize.hits")


def _solve_exact(tracer: Tracer, result, error) -> None:
    if error is not None:
        tracer.count("solver.refusals")
        return
    costs = getattr(result, "costs", None)
    if costs:
        bits = max(q.denominator.bit_length() for q in costs.values())
        tracer.max_den_bits = max(tracer.max_den_bits, bits)


def _game(tracer: Tracer, result, error) -> None:
    steps = getattr(result, "steps", None)
    if error is not None or steps is None:
        return
    tracer.count("simulate.games")
    tracer.count("simulate.moves", len(steps))
    tracer.count("simulate.unresolved", getattr(result, "outcome", None) == "Unresolved")


def _bidding_game(tracer: Tracer, result, error) -> None:
    _game(tracer, result, error)
    if error is None:
        steps = getattr(result, "steps", ())
        tracer.count("simulate.ties", sum(getattr(s, "tie", None) is not None for s in steps))


OBSERVERS = {
    "solver.solve_iterative": _sweeps,
    "solver.rationalize": _rationalize,
    "solver.solve_exact": _solve_exact,
    "simulate.play_richman_game": _bidding_game,
    "simulate.play_random_turn_game": _game,
}


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def install(tracer: Tracer):
    """Wrap the layers in place; returns a function that unwraps them."""
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr: str, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"richman.{layer}")
        except ModuleNotFoundError:
            continue  # a layer that is gone reports its metrics as absent
    targets: dict[int, tuple[object, object]] = {}
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                targets[id(obj)] = (obj, tracer.wrap(name, obj, OBSERVERS.get(name)))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                method = vars(obj).get("to_json_dict")
                if inspect.isfunction(method):
                    replace(obj, "to_json_dict", tracer.wrap(f"{layer}.{attr}.to_json_dict", method))
    for name, module in list(sys.modules.items()):
        if name != "richman" and not name.startswith("richman."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                replace(module, attr, hit[1])
    agent = getattr(modules.get("agents"), "Agent", None)
    for cls in _subclasses(agent) if inspect.isclass(agent) else ():
        method = vars(cls).get("decide")
        if inspect.isfunction(method):
            replace(cls, "decide", tracer.wrap(f"agents.{cls.__name__}.decide", method))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
