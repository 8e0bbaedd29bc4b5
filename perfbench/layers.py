"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: in a traced run it wraps the public
entry points of each ``repro`` layer with timing shims (installed and
removed by :class:`LayerTracer`) and merges in the spans the program
already records through ``Recorder.traced()`` (``query``,
``traverse.*``, ``refine.*``). All spans share ``time.perf_counter``,
so one nesting pass over both sources yields a single tree per
operation, from which layer self times are read.

A span is ``[name, start, end, op_id]``; spans stay in memory and are
written out only when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span-name prefix -> layer. Names not listed (the program's ``query``
#: root, the benchmark's ``op`` root) belong to no layer: their self
#: time is what ``obs.untracked.frac`` reports.
LAYER_PREFIXES = (
    ("roadnet.", "roadnet"),
    ("index.", "index"),
    ("core.", "core"),
    ("traverse", "core"),
    ("refine", "core"),
    ("dynamic.", "dynamic"),
)


def layer_of(name: str) -> Optional[str]:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


class LayerTracer:
    """Wraps layer entry points and records spans while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _shim(self, fn: Callable, name_of: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def shim(*args, **kwargs):
            name = name_of(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, start, clock(), self.op_id])

        shim.__wrapped__ = fn
        return shim

    def _patch(self, owner, attr: str, name_of: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._shim(original, name_of))

    def wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda args, kwargs: name)

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it was imported."""
        original = getattr(sys.modules[module_name], attr)
        shim = self._shim(original, lambda args, kwargs: name)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, shim)

    def install(self) -> "LayerTracer":
        from repro.core.refinement import PairKernel
        from repro.dynamic.continuous import ContinuousQueryRegistry
        from repro.dynamic.maintenance import DynamicIndexMaintainer
        from repro.index.road_index import RoadIndex
        from repro.index.social_index import SocialIndex
        from repro.network import SpatialSocialNetwork
        from repro.roadnet.engines import CSREngine

        def sssp_name(args, kwargs):
            limit = kwargs.get("max_distance", args[2] if len(args) > 2 else math.inf)
            return "roadnet.sssp_full" if math.isinf(limit) else "roadnet.sssp_bounded_kernel"

        self._patch(CSREngine, "sssp", sssp_name)
        self._patch(CSREngine, "sssp_dense", sssp_name)
        self.wrap(CSREngine, "point_to_point", "roadnet.p2p")
        self.wrap(SpatialSocialNetwork, "poi_distances_within", "roadnet.sssp_bounded")
        self.wrap(RoadIndex, "region", "index.region")
        self.wrap(RoadIndex, "__init__", "index.build")
        self.wrap(SocialIndex, "__init__", "index.build")
        self.wrap_function("repro.index.pivots", "select_pivots_road", "index.pivots")
        self.wrap_function("repro.index.pivots", "select_pivots_social", "index.pivots")
        self.wrap(PairKernel, "best_region", "core.kernel.best_region")
        self.wrap(PairKernel, "member_row", "core.kernel.member_row")
        self.wrap(DynamicIndexMaintainer, "apply", "dynamic.maintain")
        self.wrap(DynamicIndexMaintainer, "flush", "dynamic.maintain.flush")
        self.wrap(ContinuousQueryRegistry, "reanswer", "dynamic.reanswer")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.op_id])

    def adopt_program_spans(self, tracer) -> None:
        """Move the program's own ``Recorder.traced()`` spans in."""
        for root in tracer.roots:
            for span, _depth in root.walk():
                self.spans.append([span.name, span.start, span.end, self.op_id])
        tracer.clear()


# -- analysis ----------------------------------------------------------------


def nest(spans: Sequence[list]) -> List[dict]:
    """Rebuild the span forest by interval containment (one thread)."""
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    roots: List[dict] = []
    stack: List[dict] = []
    for name, start, end, op_id in ordered:
        node = {"name": name, "start": start, "end": end, "op": op_id, "children": []}
        while stack and start >= stack[-1]["end"]:
            stack.pop()
        (stack[-1]["children"] if stack else roots).append(node)
        stack.append(node)
    return roots


def records(spans: Sequence[list]):
    """Span records with ``id`` and ``parent`` links, parents first."""
    next_id = 0

    def emit(nodes, parent):
        nonlocal next_id
        for node in nodes:
            span_id, next_id = next_id, next_id + 1
            yield {"id": span_id, "parent": parent, "name": node["name"],
                   "start": node["start"], "end": node["end"], "op": node["op"]}
            yield from emit(node["children"], span_id)

    yield from emit(nest(spans), None)


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node["children"])


def self_time(node: dict) -> float:
    own = node["end"] - node["start"]
    return max(own - sum(c["end"] - c["start"] for c in node["children"]), 0.0)


def summarize(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``sec`` and ``self_sec``; plus
    ``layer:<name>`` totals and ``untracked``, the self time of spans
    that belong to no layer (the ``op`` and ``query`` roots)."""
    out: Dict[str, Dict[str, float]] = {}

    def add(key: str, sec: float, self_sec: float) -> None:
        entry = out.setdefault(key, {"count": 0, "sec": 0.0, "self_sec": 0.0})
        entry["count"] += 1
        entry["sec"] += sec
        entry["self_sec"] += self_sec

    for node in walk(nest(spans)):
        sec = node["end"] - node["start"]
        own = self_time(node)
        add(node["name"], sec, own)
        layer = layer_of(node["name"])
        if layer is not None:
            add("layer:" + layer, sec, own)
        else:
            add("untracked", own, own)
    return out
