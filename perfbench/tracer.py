"""In-memory spans and counters for one traced twfediag invocation.

The program is not changed: ``instrument`` replaces the public functions
of twfediag's layer modules with wrappers, from outside. Because modules
import their helpers by name (``from .lsq import solve_least_squares``),
each function object is rebound wherever any twfediag module holds it,
not only in the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable, Optional

# counter(args, kwargs, result) -> {counter name: amount}
Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    """Spans as [name, start, end, parent index, invocation id]; counts as
    name -> total.

    Every call of a wrapped function also adds 1 to ``<span name>.calls``.
    """

    def __init__(self, invocation: str = "", clock: Callable[[], float] = time.perf_counter):
        self.invocation = invocation
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.invocation])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def instrument(
    tracer: Tracer,
    modules: Iterable[ModuleType],
    layers: Iterable[str],
    counters: Optional[dict[str, Counter]] = None,
) -> list[str]:
    """Wrap every public function defined in a module named
    ``<package>.<layer>`` as span ``<layer>.<function>``, then rebind every
    module-level name, in any of ``modules``, that refers to one of those
    function objects. Returns the rebound ``module.name`` aliases."""
    modules = list(modules)
    layers = set(layers)
    counters = counters or {}
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in layers:
            continue
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and value.__name__ == attr and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(value)] = (value, tracer.wrap(name, value, counters.get(name)))
    rebound = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                rebound.append(f"{module.__name__}.{attr}")
    return rebound


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
