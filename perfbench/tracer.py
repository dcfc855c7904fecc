"""Spans around the library's layer functions, for the traced run only.

``Tracer`` wraps every public function of the layer modules, in every
``preproj`` module namespace that holds it (``continuous.ideal_of`` is
``finite.ideal_of``), plus ``PLFunc.at``.  ``install`` and ``uninstall`` swap
the wrappers in and out, so an untraced call runs the original functions.

Each op is a root span named ``cli.main``.  A wrapper records a span (name,
start, end, parent, op) and adds its duration minus its children's to the
function's self time, so the self times of one op sum to its wall time.
Spans are kept in memory up to ``SPAN_CAP`` and written out at the end; the
self times and counters cover every call.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from math import lcm
from time import perf_counter

LAYERS = ("symgroup", "finite", "linalg", "permuton", "continuous", "plfunc",
          "sheets", "jsonio")
ROOT = "cli.main"
PACKAGE = "preproj"
SPAN_CAP = 20000


def _counters(tracer: "Tracer") -> dict:
    """Work counters computed from the arguments and results of a call."""
    c = tracer.counts

    def reduced_words(args, result):
        c["symgroup.reduced_words"] += len(result)

    def hom_dim(args, result):
        a, b = args[0], args[1]
        c["finite.hom_dim.unknowns"] += sum(x * y for x, y in zip(a.dims, b.dims))
        c["finite.hom_dim.zero"] += result == 0

    def rows(args, result):
        c["linalg.rows"] += len(args[0])

    def from_perm(args, result):
        tracer.distinct_perms.add(args[0].one_line)

    def refine(args, result):
        factor = int(args[1])
        if factor > 1:
            c["permuton.refine.cells"] += (args[0].m * factor) ** 2

    def ideal_leq(args, result):
        # _comparison_apexes: common-grid points and cell midpoints
        c["continuous.ideal_leq.apexes"] += 2 * lcm(args[0].mu.m, args[1].mu.m) - 1

    return {
        "symgroup.all_reduced_words": reduced_words,
        "finite.hom_dim": hom_dim,
        "linalg.rank_of_sparse_rows": rows,
        "permuton.from_perm": from_perm,
        "permuton.refine": refine,
        "continuous.ideal_leq": ideal_leq,
    }


class Tracer:
    def __init__(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_perms: set = set()
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        counters = _counters(self)

        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(fn, name, counters.get(name))
        # (namespace, attribute, original, wrapper) for every place a
        # wrapped function is reachable from
        self.patches = []
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self.patches.append((module, attr, value, wrappers[id(value)]))
        plfunc = modules["plfunc"].PLFunc
        self.patches.append((plfunc, "at", plfunc.at,
                             self._wrap(plfunc.at, "plfunc.PLFunc.at", None)))

    # ------------------------------------------------------------ wrappers

    def install(self) -> None:
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self.patches:
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else None, self._op,
                               name, start, end))
        else:
            self.dropped += 1
        return duration

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(args, result)
                return result
            finally:
                self._close(frame)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.perfbench_span = name
        return traced

    # ------------------------------------------------------------ ops

    @contextmanager
    def op(self, op_id: int):
        """The body of the ``with`` block runs as one traced op, under the
        root span, with the wrappers installed."""
        self._op = op_id
        self.install()
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame)
            self.uninstall()

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer; the root span is the cli layer."""
        totals = {layer: [0, 0.0] for layer in ("cli",) + LAYERS}
        for name, seconds in self.self_time.items():
            layer = name.split(".", 1)[0]
            totals[layer][0] += self.calls[name]
            totals[layer][1] += seconds
        totals["cli"][0] = self.calls[ROOT]
        return {layer: (calls, secs) for layer, (calls, secs) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["id", "parent", "op", "name", "start",
                                            "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def wrapped_functions() -> list[str]:
    """Every ``module.attribute`` of the package that currently holds a
    benchmark wrapper; empty when nothing is traced."""
    found = []
    for modname, module in sorted(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(value):
                found += [f"{modname}.{attr}.{m}" for m, v in vars(value).items()
                          if hasattr(v, "perfbench_span")]
    return found
