"""Spans recorded from outside the program, by wrapping public functions.

The benchmark must not edit the code it measures, so per-layer numbers come
from wrappers installed around the public functions of each layer:

* a function is replaced in its defining module **and** under every alias a
  ``repro`` module bound with ``from ... import name`` (``repro.protocol.service``
  binds ``execution_input_hash`` by name, ``repro.fleet.transport`` binds
  ``canonical_bytes``), or only under the aliases a caller names;
* methods are replaced on their class;
* every thread keeps its own span stack (pipeline stage threads and the fleet
  drain pool run spans concurrently);
* spans are recorded in the installing process only: fleet workers fork with
  the wrappers in place and must call straight through.

A span's self time is its duration minus the time of the spans it directly
contains.  Aggregates are kept per span name; nothing is kept per call.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``units(args, kwargs, result) -> float`` counts work done by one call.
UnitFn = Callable[[tuple, dict, Any], float]


@dataclass
class SpanStats:
    """Aggregate of every recorded call of one span name."""

    calls: int = 0
    #: Inclusive seconds, counting only calls not nested in the same name.
    total_s: float = 0.0
    #: Inclusive seconds of calls whose parent span is in another layer
    #: (the layer prefix is the name up to the first ``.``).
    layer_entry_s: float = 0.0
    #: Inclusive seconds of calls entered with no span open on the thread.
    top_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Wrappers record only while this is set; otherwise they call
        #: straight through, so untraced rounds run (almost) unwrapped.
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, SpanStats] = {}
        #: ``(parent name, child name) -> calls``; parent is ``""`` at top.
        self.edges: Dict[Tuple[str, str], int] = {}
        self._patches: List[Tuple[object, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, units: Optional[UnitFn] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, seconds spent in direct children]
            stack.append(frame)
            start = perf_counter()
            result = None
            finished = False
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                recursive = any(open_frame[0] == name for open_frame in stack)
                count = units(args, kwargs, result) \
                    if units is not None and finished else 0.0
                tracer._record(name, parent[0] if parent else "", elapsed,
                               elapsed - frame[1], recursive, count)

        return wrapper

    def _record(self, name: str, parent: str, elapsed: float, self_s: float,
                recursive: bool, units: float) -> None:
        with self._lock:
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = SpanStats()
            span.calls += 1
            span.self_s += self_s
            span.units += units
            if not recursive:
                span.total_s += elapsed
            if not parent:
                span.top_s += elapsed
            if layer_of(parent) != layer_of(name):
                span.layer_entry_s += elapsed
            edge = (parent, name)
            self.edges[edge] = self.edges.get(edge, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self.spans = {}
            self.edges = {}

    def snapshot(self) -> Tuple[Dict[str, SpanStats], Dict[Tuple[str, str], int]]:
        with self._lock:
            spans = {name: SpanStats(**vars(span)) for name, span in self.spans.items()}
            return spans, dict(self.edges)

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       units: Optional[UnitFn] = None,
                       aliases: Optional[Iterable[str]] = None) -> None:
        """Wrap ``module.attr`` wherever it is bound.

        With ``aliases=None`` every loaded ``repro`` module holding the same
        function object is patched; otherwise only the named modules are.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, units)
        if aliases is None:
            targets = [mod for mod_name, mod in sorted(sys.modules.items())
                       if mod is not None and (mod_name == "repro"
                                               or mod_name.startswith("repro."))]
        else:
            targets = [sys.modules[mod_name] for mod_name in aliases]
        patched = 0
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, value))
                    setattr(target, key, wrapper)
                    patched += 1
        if patched == 0:
            raise RuntimeError(f"{name}: {module.__name__}.{attr} is bound nowhere")

    def patch_method(self, cls: type, attr: str, name: str,
                     units: Optional[UnitFn] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, units))

    def uninstall(self) -> None:
        """Restore every patched binding (latest first)."""
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches = []
