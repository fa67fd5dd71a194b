"""Spans around the calls into each `mahonian` layer, recorded from outside.

`install` replaces every binding through which a traced function is
reached -- module attributes, `from ... import` copies in other modules,
values of module-level dicts such as `verify.STATISTICS`, and class
attributes such as `Tableau.validate` -- with one wrapper per function.
While the tracer is active each wrapper records a span (name, start, end,
parent); spans live in flat arrays and are written out at the end.

Pool workers forked while tracing inherit the wrappers; the tracer turns
itself off in the child, so worker time shows only as child CPU in the
benchmark process.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter_ns
from types import FunctionType, ModuleType

# (module, qualified name) of every traced function.
TARGETS = (
    ("patterns", "count_occurrences"),
    ("patterns", "eval_sum"),
    ("words", "code"),
    ("words", "inverse_descent_set"),
    ("words", "adj"),
    ("words", "decode"),
    ("words", "stat"),
    ("tableaux", "rsk"),
    ("tableaux", "inverse_rsk"),
    ("tableaux", "foata_j"),
    ("tableaux", "Tableau.validate"),
    ("involution", "phi"),
    ("involution", "burstein_p"),
    ("involution", "phi_on_class"),
    ("involution", "decompose"),
    ("involution", "recompose"),
    ("verify", "check"),
    ("verify", "run_all"),
    ("cli", "main"),
)


def _check_label(args, kwargs):
    return str(args[0] if args else kwargs["name"])


def _cli_label(args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    return f"{argv[0]}_{argv[1]}" if argv[0] == "map" else argv[0]


# Spans of these functions are named after their first argument, e.g.
# "verify.check.thm-1.1" or "cli.main.map_phi".
_LABELS = {"verify.check": _check_label, "cli.main": _cli_label}


class Tracer:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.active = False
        self.current = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.wrappers: dict[int, FunctionType] = {}
        self.originals: dict[int, object] = {}
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str):
        label = _LABELS.get(span_name)
        fixed_id = self.name_id(span_name)
        name_col, parent_col = self.name, self.parent
        start_col, end_col = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start_col)
            name_col.append(
                fixed_id if label is None else self.name_id(f"{span_name}.{label(args, kwargs)}")
            )
            parent_col.append(self.current)
            end_col.append(0)
            self.current = idx
            start_col.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter_ns()
                self.current = parent_col[idx]

        return wrapper

    # ------------------------------------------------------------ analysis

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (span minus the
        time covered by its direct child spans)."""
        count = len(self.start)
        child_ns = [0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(count):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = end[i] - start[i]
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the spans: a JSON header line, then the four int64 columns."""
        with open(path, "wb") as out:
            meta = {**header, "names": self.names, "spans": len(self.start),
                    "columns": ["name", "parent", "start_ns", "end_ns"], "dtype": "int64"}
            out.write(json.dumps(meta).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def _package_modules() -> list[ModuleType]:
    return [m for key, m in sorted(sys.modules.items()) if key == "mahonian" or key.startswith("mahonian.")]


def _resolve(module: str, qualname: str):
    obj = sys.modules[f"mahonian.{module}"]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(originals: dict[int, object]):
    """Every (container, key) whose value is one of `originals`."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if id(value) in originals:
                yield module, key, value
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in originals:
                        yield value, k, v
            elif isinstance(value, type) and value.__module__.startswith("mahonian"):
                for k, v in list(vars(value).items()):
                    if id(v) in originals:
                        yield value, k, v


def install(tracer: Tracer) -> None:
    """Wrap every binding of every target."""
    for module, qualname in TARGETS:
        fn = _resolve(module, qualname)
        tracer.originals[id(fn)] = fn
        tracer.wrappers[id(fn)] = tracer.wrap(fn, f"{module}.{qualname}")
    for container, key, value in list(_bindings(tracer.originals)):
        wrapper = tracer.wrappers[id(value)]
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)


def unwrapped(tracer: Tracer) -> list[str]:
    """Bindings, closures or defaults that still reach an unwrapped target."""
    originals = tracer.originals
    wrappers = {id(w) for w in tracer.wrappers.values()}
    left = [f"{getattr(c, '__name__', type(c).__name__)}[{k!r}]" for c, k, _ in _bindings(originals)]
    for module in _package_modules():
        for key, value in vars(module).items():
            if isinstance(value, FunctionType) and id(value) not in wrappers:
                reachable = [c.cell_contents for c in value.__closure__ or ()]
                reachable += list(value.__defaults__ or ())
                if any(id(v) in originals for v in reachable):
                    left.append(f"{module.__name__}.{key} (closure or default)")
    return left
