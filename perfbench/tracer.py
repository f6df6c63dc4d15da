"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each cmtheta layer from the outside.  A
module-level function is replaced in every loaded module that bound the
original object (so `from .exact import solve_exact` in cmfield is caught too);
a method is replaced on its class, under every name that refers to it (so
`CycloElem.__rmul__ = __mul__` is caught).  `remove()` puts every original back.

Each call becomes a span (id, parent id, layer, name, start, end, key) kept in
memory.  The program is single-threaded, so one stack gives the parent.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

SPAN_FIELDS = ("id", "parent", "layer", "name", "start", "end", "key")


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn, key=None):
        """A wrapper recording one span per call; key(args) tags the span."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            tag = key(args) if key is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end, tag))

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_function(self, layer: str, module: types.ModuleType, attr: str, key=None) -> None:
        """Replace module.attr in every loaded module that bound the same object."""
        original = getattr(module, attr)
        traced = self.wrap(layer, attr, original, key)
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not isinstance(names, dict):
                continue
            for name, value in list(names.items()):
                if value is original:
                    self._patch(mod, name, traced)

    def patch_method(self, layer: str, cls: type, attr: str, key=None) -> None:
        """Replace cls.attr (plain function or classmethod) under every alias in the class."""
        raw = vars(cls)[attr]
        label = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(layer, label, raw.__func__, key))
        else:
            traced = self.wrap(layer, label, raw, key)
        for name, value in list(vars(cls).items()):
            if value is raw:
                self._patch(cls, name, traced)

    def patch_list(self, layer: str, registry: list, name_at: int, fn_at: int) -> None:
        """Wrap the callables stored in a list of tuples, such as a check registry."""
        for i, entry in enumerate(registry):
            new = list(entry)
            new[fn_at] = self.wrap(layer, entry[name_at], entry[fn_at])
            self._patches.append((registry, i, entry))
            registry[i] = tuple(new)

    def remove(self) -> list[tuple[object, object, object]]:
        """Put every original back; return the (owner, attr, original) bindings restored."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored


def is_restored(bindings) -> bool:
    """True when every (owner, attr, original) binding holds its original again."""
    for owner, attr, original in bindings:
        current = owner[attr] if isinstance(owner, list) else vars(owner).get(attr)
        if current is not original:
            return False
    return True


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _layer, _name, start, end, _key in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _p, _l, _n, start, end, _k in spans}


def write_spans(spans, path) -> None:
    """Spans as tab-separated text, one per line, times in seconds."""
    with open(path, "w") as fh:
        fh.write("\t".join(SPAN_FIELDS) + "\n")
        for sid, parent, layer, name, start, end, key in spans:
            fh.write(f"{sid}\t{parent}\t{layer}\t{name}\t{start!r}\t{end!r}\t{'' if key is None else key}\n")


def self_test() -> dict[str, bool]:
    """Self-time arithmetic on nested spans, and patch/restore on a throwaway module."""
    results = {}
    # f (layer a, 0..10) > g (b, 2..5) > f (a, 3..4); f > g (b, 6..8)
    spans = [
        (3, 2, "a", "f", 3.0, 4.0, None),
        (2, 1, "b", "g", 2.0, 5.0, None),
        (4, 1, "b", "g", 6.0, 8.0, None),
        (1, -1, "a", "f", 0.0, 10.0, None),
    ]
    own = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for span in spans:
        by_layer[span[2]] += own[span[0]]
    results["tracer-self-time"] = own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0} and by_layer == {"a": 6.0, "b": 4.0}

    mod = types.ModuleType("perfbench_tracer_probe")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "class Box:\n    def get(self):\n        return inner(1)\n    alias = get\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    originals = (mod.inner, mod.outer, vars(mod.Box)["get"], vars(mod.Box)["make"])
    registry = [("probe", mod.outer)]
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    try:
        tracer.patch_function("x", mod, "inner")
        tracer.patch_function("x", mod, "outer")
        tracer.patch_method("y", mod.Box, "get")
        tracer.patch_method("y", mod.Box, "make")
        tracer.patch_list("z", registry, 0, 1)
        value = mod.outer(1) + mod.Box.make().alias() + registry[0][1](0)
        names = [s[3] for s in tracer.spans]
        parents_ok = tracer.spans[0][1] == tracer.spans[1][0]  # inner's parent is outer
    finally:
        bindings = tracer.remove()
        del sys.modules[mod.__name__]
    results["tracer-spans"] = value == 8 and len(bindings) == 6 and parents_ok and names == [
        "inner", "outer", "Box.make", "inner", "Box.get", "inner", "probe"
    ]
    results["tracer-restore"] = (
        is_restored(bindings)
        and (mod.inner, mod.outer, vars(mod.Box)["get"], vars(mod.Box)["make"]) == originals
        and vars(mod.Box)["alias"] is originals[2]
        and registry[0][1] is originals[1]
    )
    return results
