"""In-memory span tracer for the public functions of the supertrees layers.

The tracer wraps every public function of the layer modules under every
name any loaded ``supertrees`` module binds it to, so a call through
``ordering.power_iteration`` and one through ``spectral.power_iteration``
both become spans named ``spectral.power_iteration``.  Binding by identity
rather than by a list of import sites keeps tracing correct after a
refactor moves an import.  No code inside ``src/`` knows about spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

LAYERS = ("hypergraph", "constructors", "spectral", "certificates", "ordering", "cli")
PACKAGE = "supertrees"


class Span(NamedTuple):
    """One call: ``parent`` is the enclosing span id (-1 at top level) and
    ``root`` the id of the top-level span, shared by every span of one item.
    ``work`` is a count the span's probe read off the call (0 without one);
    ``error`` is the exception type name when the call raised."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    root: int
    work: int = 0
    error: str = ""


class Tracer:
    """Records spans in memory; ``probes`` maps a span name to a function
    ``(args, result) -> int`` whose value is stored as the span's work."""

    def __init__(self, probes=None):
        self.spans: list[Span | None] = []
        self.probes = dict(probes or {})
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        probe = self.probes.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else sid
            spans.append(None)
            stack.append(sid)
            error = ""
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                work = probe(args, result) if probe is not None and not error else 0
                spans[sid] = Span(sid, name, start, end, parent, root, work, error)

        return traced

    def install(self) -> None:
        """Rebind every public layer function in every loaded supertrees module."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def finished(self) -> list[Span]:
        """Spans of completed calls, in call order."""
        return [s for s in self.spans if s is not None]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    errors: int = 0


def aggregate(spans: list[Span]) -> dict[str, Totals]:
    """Per span name: calls, inclusive time, self time, summed work, errors."""
    selfs = self_times(spans)
    out: dict[str, Totals] = defaultdict(Totals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += selfs[s.id]
        t.work += s.work
        t.errors += bool(s.error)
    return dict(out)
