"""Span recorder for the traced run.

The recorder wraps the public entry points of each simulator layer (see
:mod:`layers`) for the duration of a traced run and puts the originals
back afterwards, including when the run raises.  Every call into a
wrapped entry point while recording is a *span*; a span's self time is
its duration minus the durations of the spans it contains, so the self
times of all spans add up to the time spent inside top-level spans, net
of the recorder's own overhead, which is charged to no layer.

Spans are kept in memory (up to a cap) and written out as Chrome-trace
JSON when the run ends.  Optional probes turn a call's arguments and
result into a count (bytes translated, words protected, ...); the time
a probe takes is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["EntryPoint", "Probe", "SpanRecorder"]

#: spans kept for the Chrome trace; later ones are counted as dropped
MAX_SPANS = 50_000

#: ``probe(args, kwargs)`` runs before the call and returns a function
#: of the call's result giving the amount to add to the probe's counter
Probe = Callable[[tuple, dict], Callable[[object], float]]


@dataclass(frozen=True)
class EntryPoint:
    """Entry points of one layer inside one module.

    ``owner`` names a class (``None`` for module-level functions);
    empty ``names`` on a class means every public method the class
    itself defines.
    """

    layer: str
    module: str
    owner: Optional[str]
    names: Tuple[str, ...] = ()


def _wrappable(raw: object) -> bool:
    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    # a generator's span would close before any of its work runs
    return inspect.isfunction(func) and not inspect.isgeneratorfunction(func)


class SpanRecorder:
    """Layer-tagged self-time accounting over patched entry points."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: record spans only while True (see :meth:`recording`)
        self.active = False
        #: keep individual spans for the Chrome trace
        self.keep_events = False
        self._stack: List[List[int]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.layer_of: Dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and count (patches stay in place)."""
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.events: List[Tuple[str, str, int, int]] = []
        self.dropped_events = 0

    # -- recording -------------------------------------------------------

    def _close(self, layer: str, qualname: str, start: int, end: int,
               child_ns: int) -> None:
        self.self_ns[layer] = self.self_ns.get(layer, 0) + (end - start - child_ns)
        self.calls[qualname] = self.calls.get(qualname, 0) + 1
        if self.keep_events:
            if len(self.events) < MAX_SPANS:
                self.events.append((qualname, layer, start, end - start))
            else:
                self.dropped_events += 1

    def _wrap(self, layer: str, qualname: str, fn: Callable,
              probe: Optional[Tuple[str, Probe]]) -> Callable:
        rec = self
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack
            outer = clock()
            try:
                finish = probe[1](args, kwargs) if probe is not None else None
                frame = [0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    rec._close(layer, qualname, start, end, frame[0])
                if finish is not None:
                    name = probe[0]
                    rec.counts[name] = rec.counts.get(name, 0) + finish(result)
                return result
            finally:
                # the parent's child time covers the probe as well, so
                # probe cost lands in no layer's self time
                if stack:
                    stack[-1][0] += clock() - outer

        return span

    @contextlib.contextmanager
    def recording(self, keep_events: bool = False) -> Iterator["SpanRecorder"]:
        """Record spans inside the block."""
        self.keep_events = keep_events
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.keep_events = False
            self._stack.clear()

    # -- patching --------------------------------------------------------

    def _set(self, target: object, name: str, value: object) -> None:
        self._saved.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def patch(self, entry_points: Sequence[EntryPoint],
              probes: Mapping[str, Tuple[str, Probe]] = {}) -> None:
        """Wrap every entry point.  Pair with :meth:`unpatch` (or use
        :meth:`patched`)."""
        if self._saved:
            raise RuntimeError("entry points are already patched")
        try:
            for ep in entry_points:
                module = importlib.import_module(ep.module)
                if ep.owner is None:
                    for name in ep.names:
                        self._patch_function(ep.layer, module, name, probes)
                else:
                    self._patch_class(ep, getattr(module, ep.owner), probes)
        except BaseException:
            self.unpatch()
            raise

    def _patch_function(self, layer: str, module: object, name: str,
                        probes: Mapping[str, Tuple[str, Probe]]) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(layer, name, original, probes.get(name))
        self.layer_of[name] = layer
        # rebind every module global of the same package that holds the
        # function, so callers that imported it by name see the wrapper
        package = original.__module__.split(".", 1)[0]
        for mod_name in sorted(sys.modules):
            mod = sys.modules[mod_name]
            if mod is None or mod_name.split(".", 1)[0] != package:
                continue
            if vars(mod).get(name) is original:
                self._set(mod, name, wrapper)

    def _patch_class(self, ep: EntryPoint, cls: type,
                     probes: Mapping[str, Tuple[str, Probe]]) -> None:
        names = ep.names or tuple(
            name for name, raw in vars(cls).items()
            if not name.startswith("_") and _wrappable(raw)
        )
        for name in names:
            raw = vars(cls)[name]
            if not _wrappable(raw):
                raise TypeError(f"{cls.__name__}.{name} is not a plain method")
            qualname = f"{cls.__name__}.{name}"
            self.layer_of[qualname] = ep.layer
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            func = raw.__func__ if kind is not None else raw
            wrapper = self._wrap(ep.layer, qualname, func, probes.get(qualname))
            self._set(cls, name, kind(wrapper) if kind is not None else wrapper)

    def unpatch(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    @contextlib.contextmanager
    def patched(self, entry_points: Sequence[EntryPoint],
                probes: Mapping[str, Tuple[str, Probe]] = {}) -> Iterator["SpanRecorder"]:
        self.patch(entry_points, probes)
        try:
            yield self
        finally:
            self.unpatch()

    # -- results ---------------------------------------------------------

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for qualname, n in self.calls.items():
            layer = self.layer_of[qualname]
            out[layer] = out.get(layer, 0) + n
        return out

    def chrome_trace(self) -> Dict:
        """The kept spans as Chrome-trace "complete" events (µs)."""
        t0 = min((start for _, _, start, _ in self.events), default=0)
        return {
            "traceEvents": [
                {
                    "name": qualname,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - t0) / 1e3,
                    "dur": dur / 1e3,
                    "pid": 1,
                    "tid": 1,
                }
                for qualname, layer, start, dur in self.events
            ],
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_events},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
