"""Wall-clock spans around each layer's public entry points.

Used only by the traced run.  :class:`SpanTracer` replaces the entry
points listed in :data:`ENTRY_POINTS` (and the public functions of the
native API modules) with wrappers that time each call with
``perf_counter_ns`` and record ``(name, start, end, parent, call)``:
the parent is the enclosing wrapped call, and every span opened under
one guest API call shares that call's id.  Nothing inside the program
is edited; :meth:`SpanTracer.uninstall` puts every original back.

A layer's self time is the duration of its spans minus the part their
child spans cover (:func:`aggregate`).
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:Class", methods) — the entry points the traced run
#: times.  Methods are wrapped on the class that defines them.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("guest", "repro.guest.library:GuestRuntime", ("submit", "flush")),
    ("codec", "repro.remoting.speccodec:SpecializedCodec",
     ("encode_command", "decode_command", "encode_reply", "decode_reply")),
    ("xfercache", "repro.remoting.xfercache:TransferCache", ("consider",)),
    ("xfercache", "repro.server.xferstore:TransferStore",
     ("has", "get", "insert")),
    ("transport", "repro.transport.base:Transport",
     ("deliver", "deliver_batch")),
    ("router", "repro.hypervisor.router:Router", ("deliver",)),
    ("server", "repro.server.api_server:ApiServerWorker", ("execute",)),
    ("recorder", "repro.migration.recorder:CallRecorder", ("record",)),
    ("vclock", "repro.vclock:VirtualClock", ("advance", "advance_to")),
    ("telemetry", "repro.telemetry.tracer:Tracer",
     ("record_span", "start_span", "end_span")),
    ("pool", "repro.hypervisor.pool:PoolScheduler", ("run",)),
    ("pool", "repro.hypervisor.pool:DevicePool", ("place",)),
)

#: native API modules: the generated servers call their functions
#: through module attributes, so wrapping the attributes times them
NATIVE_MODULES = {"repro.opencl.api": "cl", "repro.mvnc.api": "mvnc"}

#: layer of the spans opened at the guest library boundary (the
#: generated stub an application calls)
ROOT_LAYER = "stub"

#: allowed gap between the summed self times (plus time outside any
#: span) and the pass's wall time, as a share of the wall time
SUM_TOLERANCE = 0.01

_ENCODERS = ("encode_command", "encode_reply")


def wrap_public(library: Any,
                wrap: Callable[[str, Callable[..., Any]], Any]) -> Any:
    """A namespace with ``library``'s public attributes, each callable
    replaced by ``wrap(name, callable)``."""
    namespace = SimpleNamespace()
    for attr in dir(library):
        if attr.startswith("_"):
            continue
        value = getattr(library, attr)
        setattr(namespace, attr, wrap(attr, value) if callable(value)
                else value)
    return namespace


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    return getattr(importlib.import_module(module_name), class_name)


class SpanTracer:
    """Records wall-clock spans in memory while installed."""

    def __init__(self) -> None:
        #: name id → (layer, name)
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        #: one tuple per finished span, in start order
        self.rows: List[Any] = []
        self._stack: List[int] = []
        self.call_id = 0
        #: call id when the current pass began
        self.first_call = 0
        #: bytes returned by encoders
        self.encoded_bytes = 0
        #: TransferCache.consider outcomes: elided payloads and bytes
        self.cache_hits = 0
        self.cache_hit_bytes = 0
        #: (owner, attribute, original) for uninstall
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span tracer already installed")
        for layer, target, methods in ENTRY_POINTS:
            owner = _resolve(target)
            for method in methods:
                self._patch(owner, method, layer,
                            f"{owner.__name__}.{method}")
        for module_name, prefix in NATIVE_MODULES.items():
            module = importlib.import_module(module_name)
            for attr, value in sorted(vars(module).items()):
                if (attr.startswith(prefix) and callable(value)
                        and getattr(value, "__module__", None)
                        == module_name):
                    self._patch(module, attr, "native", attr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def originals(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) for every patched entry point."""
        return list(self._patched)

    def _patch(self, owner: Any, attr: str, layer: str, name: str) -> None:
        # entry points are patched where they are defined, so a moved
        # one fails loudly here instead of going untimed
        original = vars(owner)[attr]
        observe = None
        if layer == "codec" and attr in _ENCODERS:
            observe = self._count_bytes
        elif layer == "xfercache" and attr == "consider":
            observe = self._count_hit
        setattr(owner, attr,
                self._wrap(self.name_id(layer, name), original, observe))
        self._patched.append((owner, attr, original))

    # -- recording ----------------------------------------------------------

    def _wrap(self, name_id: int, fn: Callable[..., Any],
              observe: Optional[Callable[[Any], None]] = None,
              root: bool = False) -> Callable[..., Any]:
        rows = self.rows
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if root:
                tracer.call_id += 1
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[index] = (name_id, start, end, parent, tracer.call_id)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _count_bytes(self, frame: Any) -> None:
        self.encoded_bytes += len(frame)

    def _count_hit(self, outcome: Any) -> None:
        ref = outcome[0]
        if ref is not None:
            self.cache_hits += 1
            self.cache_hit_bytes += ref.size

    def wrap_library(self, library: Any) -> Any:
        """The guest library as the application sees it, each call a
        root span with a fresh call id."""
        return wrap_public(library, lambda attr, fn: self._wrap(
            self.name_id(ROOT_LAYER, attr), fn, root=True))

    def reset(self) -> None:
        """Drop recorded spans and counters (between passes)."""
        if self._stack:
            raise RuntimeError("reset while spans are open")
        self.rows.clear()
        self.first_call = self.call_id
        self.encoded_bytes = 0
        self.cache_hits = 0
        self.cache_hit_bytes = 0

    def write(self, path: str) -> None:
        """Write the recorded spans as gzip'd CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("layer,name,start_ns,end_ns,parent,call_id\n")
            for name_id, start, end, parent, call in self.rows:
                layer, name = self.names[name_id]
                out.write(f"{layer},{name},{start},{end},{parent},{call}\n")


def aggregate(tracer: SpanTracer, start_ns: int,
              end_ns: int) -> Dict[str, Any]:
    """Self time and counts per layer for one pass, with the checks.

    A span's self time is its duration minus the union of its
    children's intervals.  Time outside every root span is the ``app``
    layer (workload code between API calls).  Self times are kept per
    *position*: the pass's n-th guest API call, which with everything
    up to the next call forms one step of the pass.  They sum to the
    pass's wall time exactly when no two sibling spans overlap and every
    span lies inside its parent — the bookkeeping this checks, within
    :data:`SUM_TOLERANCE`.

    Returns ``by_pos`` (layer → self ns per position), ``outer`` (layer
    → spans not nested in a span of the same layer), ``inclusive_ns``
    (layer → duration of those outermost spans), ``spans`` (name →
    count), ``name_ns`` (name → summed duration), ``roots`` (guest API
    calls) and ``problems`` (bookkeeping errors; empty when sound).
    """
    rows = tracer.rows
    names = tracer.names
    problems: List[str] = []
    # rows are in start order, so each parent's children arrive sorted
    covered_ns = [0] * len(rows)
    reach = [0] * len(rows)
    for name_id, start, end, parent, _call in rows:
        if parent < 0:
            continue
        p_start, p_end = rows[parent][1], rows[parent][2]
        if start < p_start or end > p_end:
            problems.append(f"{names[name_id][1]} outside its parent")
        covered_ns[parent] += max(0, end - max(start, reach[parent]))
        reach[parent] = max(reach[parent], end)
    first = tracer.first_call
    positions = max(1, tracer.call_id - first)
    by_pos: Dict[str, List[int]] = {}
    outer: Counter = Counter()
    inclusive_ns: Counter = Counter()
    spans: Counter = Counter()
    name_ns: Counter = Counter()
    roots = 0
    previous_end = start_ns
    app = by_pos.setdefault("app", [0] * positions)
    for index, (name_id, start, end, parent, call) in enumerate(rows):
        layer, name = names[name_id]
        position = min(positions - 1, max(0, call - first - 1))
        own = by_pos.get(layer)
        if own is None:
            own = by_pos[layer] = [0] * positions
        own[position] += end - start - covered_ns[index]
        spans[name] += 1
        name_ns[name] += end - start
        if parent < 0 or names[rows[parent][0]][0] != layer:
            outer[layer] += 1
            inclusive_ns[layer] += end - start
        if parent < 0:
            if start < previous_end:
                problems.append(f"{name} overlaps the previous call")
            app[position] += start - previous_end
            previous_end = end
            roots += layer == ROOT_LAYER
    app[-1] += end_ns - previous_end
    total = sum(sum(values) for values in by_pos.values())
    wall_ns = end_ns - start_ns
    if abs(total - wall_ns) > SUM_TOLERANCE * wall_ns:
        problems.append(
            f"self times sum to {total} ns, pass wall is {wall_ns} ns")
    return {"by_pos": by_pos, "outer": outer,
            "inclusive_ns": inclusive_ns, "spans": spans,
            "name_ns": name_ns, "roots": roots, "problems": problems}
