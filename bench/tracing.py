"""Spans and work counters at the kostka package's module boundaries.

Nothing here edits the package.  `install` rebinds, inside each kostka
module, the names that module looked up in another kostka module (for
example `kostka.wreath.kostka_multi` or `kostka.counting.normalize`, and
the modules `kostka.cli` imported whole), so every call across a module
boundary runs inside a span.  Spans fold into per-layer totals as they
close: a layer's self time is the time of its spans minus the time of the
spans they caused.

Hook points are found by looking, not listed: one that a later version of
the package no longer has is simply absent from `Tracer.hooks`, and the
metrics that need it read None.
"""

import functools
import importlib
import inspect
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("partitions", "tableaux", "counting", "wreath", "ggg")


def _layer(obj):
    """The kostka layer an object was defined in, or None."""
    name = getattr(obj, "__module__", None) or getattr(obj, "__name__", "")
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "kostka" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    def __init__(self):
        self.stack = [0.0]  # time covered by child spans, per open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = Counter()
        self.hooks = set()  # "caller.name" of every hook point installed

    def _open(self):
        self.stack.append(0.0)
        return perf_counter()

    def _close(self, layer, name, start):
        elapsed = perf_counter() - start
        child = self.stack.pop()
        self.stack[-1] += elapsed
        self.self_s[layer] += elapsed - child
        self.inclusive_s[name] += elapsed

    def wrap(self, layer, fn, counter=None):
        """fn inside a span of `layer`; a generator gets one span per
        resume, and `counter` counts the items it yields."""
        name = fn.__name__

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[layer] += 1
                it = fn(*args, **kwargs)
                while True:
                    start = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(layer, name, start)
                    if counter:
                        self.counts[counter] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, name, start)
            if name == "decompose_permutation_character":
                self.counts["wreath.constituents"] += len(result)
            return result

        return traced

    def hook(self, caller, name, layer, fn):
        self.hooks.add(f"{caller}.{name}")
        counter = "splits." + caller if fn.__name__ == "bounded_compositions" else None
        return self.wrap(layer, fn, counter)


def _traceable(value):
    return callable(value) and not inspect.isclass(value) and _layer(value)


def install(tracer, api):
    """Trace every cross-module name in the package and every api entry.

    `api` maps "module.function" to the function the benchmark calls; the
    result has the same keys, with traced functions.
    """
    for caller in LAYERS + ("cli",):
        try:
            module = importlib.import_module("kostka." + caller)
        except ImportError:
            continue
        for name, value in list(vars(module).items()):
            if isinstance(value, types.ModuleType) and _layer(value):
                setattr(module, name, _proxy(tracer, caller, value))
            elif _traceable(value) and _layer(value) != caller:
                setattr(module, name, tracer.hook(caller, name, _layer(value), value))
    wreath = importlib.import_module("kostka.wreath")
    if hasattr(wreath, "_allowed_labels"):
        tracer.hooks.add("wreath._allowed_labels")
        wreath._allowed_labels = tracer.wrap(
            "wreath", wreath._allowed_labels, "wreath.labels_tried"
        )
    return {
        key: tracer.hook("bench", key, key.split(".")[0], fn) if _layer(fn) else fn
        for key, fn in api.items()
    }


def _proxy(tracer, caller, module):
    """Stand-in for a kostka module that `caller` imported whole."""
    layer = _layer(module)
    attrs = {}
    for name, value in vars(module).items():
        if _traceable(value) == layer:
            value = tracer.hook(caller, f"{layer}.{name}", layer, value)
        attrs[name] = value
    return types.SimpleNamespace(**attrs)


def cache_counters():
    """Totals of the counting engine's global cache, if it still has one."""
    counting = importlib.import_module("kostka.counting")
    cache = getattr(counting, "_strip_count", None)
    if not hasattr(cache, "cache_info"):
        return None
    info = cache.cache_info()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def snapshot(tracer):
    """Raw totals of one process, to be added up across processes."""
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "inclusive_s": dict(tracer.inclusive_s),
        "counts": dict(tracer.counts),
        "hooks": sorted(tracer.hooks),
        "cache": cache_counters(),
    }


def merge(snapshots):
    """The sum of the snapshots of several processes, as one snapshot."""
    total = {key: Counter() for key in ("calls", "self_s", "inclusive_s", "counts")}
    hooks, cache = set(), None
    for snap in snapshots:
        for key in total:
            total[key].update(snap[key])
        hooks.update(snap["hooks"])
        if snap["cache"] is not None:
            cache = cache or Counter()
            cache.update(snap["cache"])
    return {**total, "hooks": sorted(hooks), "cache": cache}
