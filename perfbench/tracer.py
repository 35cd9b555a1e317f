"""Per-layer tracing by wrapping library functions from outside.

The tracer replaces selected invgen functions and methods with timing
wrappers, records spans in memory, and puts every original back on
``restore``.  Nothing under ``src/`` changes.  A span's self time is its
duration minus the time of the wrapped calls it made; its total time is
inclusive and counted once when the same name nests.

``Perm.__mul__`` is never wrapped (it runs millions of times per analysis);
its cost shows in the self time of the wrapped functions that call it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import weakref
from pathlib import Path

# (layer name, module, function).  Every invgen module that bound the
# function under its own name is patched, since several import by name.
FUNCTIONS = (
    ("structure.table", "invgen.structure", "group_table"),
    ("structure.classes", "invgen.structure", "conjugacy_classes"),
    ("structure.chief", "invgen.structure", "chief_series"),
    ("structure.fuse", "invgen.structure", "fuse_classes_under"),
    ("maximal", "invgen.maximal", "maximal_subgroups"),
    ("maximal.sylow", "invgen.maximal", "_sylow_indices"),
    ("maximal.sylow_lattices", "invgen.maximal", "_sylow_subgroup_classes"),
    ("maximal.intervals", "invgen.maximal", "_interval_maximals"),
    ("maximal.sweep", "invgen.maximal", "_sweep_small_maximals"),
    # certify never runs on A5..A8, so it gives no metric; it is wrapped so
    # that its time on the catalog is not counted as sweep self time
    ("maximal.certify", "invgen.maximal", "_certify_maximal"),
    ("generation.profile", "invgen.generation", "build_profile"),
    ("generation.d_i", "invgen.generation", "d_i_exact"),
    ("generation.refuter", "invgen.generation", "invgen_sample_refuter"),
    ("chebotarev.c_exact", "invgen.chebotarev", "chebotarev_exact"),
    ("chebotarev.mc", "invgen.chebotarev", "chebotarev_mc"),
    ("families.instantiate", "invgen.families", "instantiate"),
)

# (layer name, module, class, method)
METHODS = (
    ("group.permgroup", "invgen.group", "PermGroup", "__init__"),
    ("group.random_element", "invgen.group", "PermGroup", "random_element"),
    ("structure.closure", "invgen.structure", "GroupTable", "closure"),
)

# Leaf calls made hundreds of thousands of times: counted and timed, but
# kept out of the span list so that it stays small.
UNRECORDED = frozenset({"group.random_element", "structure.closure"})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}   # outcome counters
        self.spans: list[list] = []          # [name, parent, start, end]
        self._stack: list[list] = []         # open: [name, start, child_s, span]
        self._open: dict[str, int] = {}      # name -> open spans of that name
        self._patches: list[tuple] = []      # (owner, attribute, original)
        self._searched = weakref.WeakSet()   # groups whose maxima were counted
        self.installed: set[str] = set()     # layer names wrapped
        self.coverage: dict[str, list] = {}  # benchmark span -> covered shares

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        span = parent
        if name not in UNRECORDED:
            span = len(self.spans)
            self.spans.append([name, parent, 0.0, 0.0])
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, 0.0, 0.0, span]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration - child_s
        self._open[name] -= 1
        if not self._open[name]:
            st[2] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if name not in UNRECORDED:
            self.spans[span][2:] = [start, end]
        return child_s / duration if duration else 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a phase."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self.coverage.setdefault(name, []).append(self._exit(frame))

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- outcome counters ----------------------------------------------------

    def _on_closure(self, args, result) -> None:
        if result is None:
            self._count("structure.closure_aborts")

    def _on_maximal(self, args, result) -> None:
        group = args[0]
        if group not in self._searched:
            self._searched.add(group)
            self._count("maximal.classes_found", len(result))

    def _on_mc(self, args, result) -> None:
        self._count("chebotarev.mc_draws", round(result.mean * result.trials))

    # -- patching ------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function; return the layer names not found."""
        hooks = {"structure.closure": self._on_closure,
                 "maximal": self._on_maximal,
                 "chebotarev.mc": self._on_mc}
        missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "invgen" or n.startswith("invgen.")]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            self.installed.add(name)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                missing.append(name)
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hooks.get(name)))
            self.installed.add(name)
        return missing

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-unit layer metrics as {name: (value, unit)}; absent layers
        give no metrics."""
        out: dict[str, tuple[float, str]] = {}
        fields = ("calls", "self_s", "total_s")

        def put(metric, layer, field, unit="s"):
            if layer in self.installed:
                st = self.stats.get(layer, [0, 0.0, 0.0])
                out[metric] = (st[fields.index(field)] / units, unit)

        def count(metric, key, layer):
            if layer in self.installed:
                out[metric] = (self.counts.get(key, 0) / units, "count")

        def ratio(metric, key, layer):
            # a ratio over no calls has no value, and 0 would read as one
            calls = self.stats.get(layer, [0])[0]
            if layer in self.installed and calls:
                out[metric] = (self.counts.get(key, 0) / calls, "ratio")

        put("group.permgroup_builds", "group.permgroup", "calls", "count")
        put("group.permgroup.self_s", "group.permgroup", "self_s")
        put("group.random_element_calls", "group.random_element", "calls",
            "count")
        put("group.random_element.self_s", "group.random_element", "self_s")
        for layer in ("structure.table", "structure.classes",
                      "structure.chief", "structure.fuse"):
            put(f"{layer}.total_s", layer, "total_s")
        put("structure.closure_calls", "structure.closure", "calls", "count")
        put("structure.closure.self_s", "structure.closure", "self_s")
        ratio("structure.closure_abort_ratio", "structure.closure_aborts",
              "structure.closure")
        put("maximal.total_s", "maximal", "total_s")
        for stage in ("sylow", "sylow_lattices", "intervals", "sweep"):
            layer = f"maximal.{stage}"
            put(f"{layer}.calls", layer, "calls", "count")
            put(f"{layer}.self_s", layer, "self_s")
            put(f"{layer}.total_s", layer, "total_s")
        count("maximal.classes_found", "maximal.classes_found", "maximal")
        for layer in ("generation.profile", "generation.d_i",
                      "generation.refuter", "chebotarev.c_exact",
                      "chebotarev.mc", "families.instantiate"):
            put(f"{layer}.total_s", layer, "total_s")
        count("chebotarev.mc_draws", "chebotarev.mc_draws", "chebotarev.mc")
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans and per-name totals as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, stats=self.stats, counts=self.counts,
                   spans=self.spans)
        path.write_text(json.dumps(doc))
