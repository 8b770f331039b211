"""Spans around the package's functions, installed from outside the package.

`Tracer.install()` replaces every public function of the six modules, the
public methods of their classes and the arithmetic operators of the value
types by wrappers, everywhere the package binds them, and `uninstall()`
puts the originals back. Each call records a span: name, start, end, parent
span and operation id. Spans stay in memory until `write()`.
`NumClass.__post_init__` and `PhiVector.__post_init__` are only counted.
Generator functions are left alone, since their work happens while the
caller iterates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from time import perf_counter

LAYERS = ("lattice", "oracle", "fundamental", "components", "verify", "cli")
# private helpers worth their own span
EXTRA = {"oracle": ("_enumerate_with_values", "_best_sequences")}
ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
COUNTED = {"lattice.numclass_new": ("lattice", "NumClass"), "oracle.phivector_new": ("oracle", "PhiVector")}


def _traced(name: str, obj) -> bool:
    return (
        inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
        and (not name.startswith("_") or name in ARITHMETIC)
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []  # outermost calls only
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = dict.fromkeys(COUNTED, 0)
        self._op_first_span = 0
        self._active: list[list[int]] = []  # per wrapper: calls in progress
        self._patches: list[tuple[object, str, object, object]] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_first_span = len(self.span_start)
        del self.stack[1:]

    def end_op(self, t_end: float) -> None:
        """Repair what a deadline interrupt may have left: drop a span it
        cut off while being recorded, close open spans at t_end and reset
        the nesting state."""
        arrays = (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)
        n = min(len(a) for a in arrays)
        for a in arrays:
            del a[n:]
        end = self.span_end
        for sid in range(self._op_first_span, n):
            if math.isnan(end[sid]):
                end[sid] = t_end
        del self.stack[1:]
        for cell in self._active:
            cell[0] = 0

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        calls, inclusive, stack = self.calls, self.inclusive, self.stack
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        active = [0]
        self._active.append(active)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(tracer.op)
            s_end.append(math.nan)
            stack.append(sid)
            active[0] += 1
            t0 = perf_counter()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s_end[sid] = t1
                stack.pop()
                active[0] -= 1
                calls[nid] += 1
                if not active[0]:
                    inclusive[nid] += t1 - t0

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj):
            counts[key] += 1
            return fn(obj)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"enriques.{layer}") for layer in LAYERS}
        wrappers = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traced(attr, obj) or attr in EXTRA.get(layer, ()):
                    wrappers[obj] = self._span_wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if _traced(meth, fn):
                            if fn not in wrappers:
                                wrappers[fn] = self._span_wrapper(f"{layer}.{attr}.{meth}", fn)
                            self._patch(obj, meth, wrappers[fn])
        for key, (layer, cls_name) in COUNTED.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__post_init__", self._count_wrapper(key, cls.__post_init__))
        for mod in (importlib.import_module("enriques"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def suspend(self) -> None:
        """Put the originals back, keeping the wrappers for `resume()`."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.suspend()
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds inside each layer's spans, minus the part covered by
        their child spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        out = dict.fromkeys(LAYERS, 0.0)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        parent, name = self.span_parent, self.span_name
        for i in range(n):
            out[layer_of[name[i]]] += dur[i]
            p = parent[i]
            if p >= 0:
                out[layer_of[name[p]]] -= dur[i]
        return out

    def function_stats(self, name: str) -> tuple[int, float]:
        """(calls, seconds in outermost calls) of one wrapped function."""
        nid = self.names.index(name)
        return self.calls[nid], self.inclusive[nid]

    def write(self, path) -> None:
        """One line per span: id, parent id (-1 for none), operation id,
        name, start and end in seconds of the benchmark's clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as f:
            f.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
