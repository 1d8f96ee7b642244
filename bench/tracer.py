"""In-memory span tracer wrapped around rbt_lab's public functions.

`Tracer.install` replaces each target function by a timing wrapper in every
rbt_lab module that imported it (methods are replaced on the class), so
calls made from inside the package are traced too.  Each call adds to its
target's call count and self time, where self time is the call's duration
minus the time spent in traced calls it made.  Calls to cold targets are
also kept as spans (id, parent id, job, name, start, end) and written out
once, at the end of the run; hot targets are only counted.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

# layer name -> targets as "module:attribute" or "module:Class.method"
LAYERS: dict[str, list[str]] = {
    "search.closure": ["search:allowed_last_graph_mask"],
    "search.guard": ["search:rbt_free_bits"],
    "search.exhaustive": ["search:exhaustive_max_sum", "search:exhaustive_max_product"],
    "search.local": ["search:local_search_product"],
    "canonical.canonical_bits": ["canonical:canonical_bits"],
    "canonical.canonical_system_bits": ["canonical:canonical_system_bits"],
    "systems.find_rainbow": ["systems:find_rainbow_triangle"],
    "systems.parse": ["systems:system_from_json", "systems:system_from_json_dict"],
    "systems.nest_reduce": ["systems:nest_reduce"],
    "graph.Graph": ["graph:Graph.__init__", "graph:Graph.from_edges", "graph:Graph.from_bits",
                    "graph:Graph.from_hex"],
    "graph.algebra": ["graph:Graph.__and__", "graph:Graph.__or__", "graph:Graph.is_subgraph_of"],
    "graph.triangles": ["graph:Graph.triangles", "graph:Graph.is_triangle_free"],
    "matching.maximum_matching": ["matching:maximum_matching"],
    "partition.mantel_partition": ["partition:mantel_partition"],
    "certify.claims": ["certify:certify_sum_t3", "certify:certify_sum_t",
                       "certify:certify_weighted_sum", "certify:certify_nearly_matchable",
                       "certify:certify_product_nested", "certify:conjecture_margin",
                       "certify:certify_partition_bounds"],
    "certify.scan": ["certify:scan_lpq_inequality", "certify:scan_alpha_beta_inequality"],
    "cli.main": ["cli:main"],
}

# called up to millions of times per pass: counted, not kept as spans
HOT = {"search.closure", "search.guard", "canonical.canonical_bits",
       "canonical.canonical_system_bits", "graph.Graph", "graph.algebra", "graph.triangles"}

# the calls metric of a layer counts these targets only (default: all of them)
CALL_TARGETS = {"graph.Graph": ["graph:Graph.__init__"]}


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.totals: dict[str, list] = {}  # target -> [calls, self seconds]
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._last_id = 0
        # open calls: [start, child seconds, parent span id, id their children see]
        self._stack: list[list] = []

    def _enter(self, keep: bool) -> list:
        parent = self._stack[-1][3] if self._stack else None
        if keep:
            self._last_id += 1
        frame = [perf_counter(), 0.0, parent, self._last_id if keep else parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, target: str, keep: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        if self._stack:
            self._stack[-1][1] += duration
        total = self.totals[target]
        total[0] += 1
        total[1] += duration - frame[1]
        if keep:
            self.spans.append((frame[3], frame[2], self.job, target, frame[0], end))

    def _wrap(self, target: str, fn, keep: bool):
        self.totals[target] = [0, 0.0]
        if inspect.isgeneratorfunction(fn):
            # time each resumption, not the consumer's work between them
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = self._enter(keep)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, target, keep)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                frame = self._enter(keep)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(frame, target, keep)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "rbt_lab" or name.startswith("rbt_lab.")]
        for layer, targets in LAYERS.items():
            keep = layer not in HOT
            for target in targets:
                module_name, attr = target.split(":")
                owner = sys.modules.get(f"rbt_lab.{module_name}")
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name, None)
                    raw = cls.__dict__.get(method) if cls is not None else None
                    if raw is None:
                        self.missing.append(target)
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(self._wrap(target, raw.__func__, keep)))
                    else:
                        setattr(cls, method, self._wrap(target, raw, keep))
                    continue
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(target, fn, keep)
                for module in modules:
                    for name in [k for k, v in vars(module).items() if v is fn]:
                        setattr(module, name, wrapper)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds, summed over its targets."""
        out = {}
        for layer, targets in LAYERS.items():
            counted = CALL_TARGETS.get(layer, targets)
            present = [t for t in targets if t in self.totals]
            out[layer] = {
                "calls": sum(self.totals[t][0] for t in counted if t in self.totals),
                "self_s": sum(self.totals[t][1] for t in present),
            }
        return out

    def write(self, path: Path, jobs: list[str]) -> None:
        doc: dict[str, Any] = {
            "jobs": jobs,
            "fields": ["id", "parent", "job", "name", "start", "end"],
            "spans": self.spans,
            "totals": self.totals,
        }
        path.write_text(json.dumps(doc))
