"""Per-layer tracing for the benchmark, installed from outside the library.

Spans are recorded by wrapping public functions and methods of ``repro``
at module or class level, in the traced process only, and only while a
traced op runs: :meth:`Tracer.installed` patches the names where they
are looked up and restores the originals on exit, so the untraced op
that precedes each traced one runs the library unmodified.

Two kinds of record share one call stack:

- **Coarse spans** (op, setup, solve, ``build_simulator``, verify) are
  kept individually with their op id and parent span.  A span's self
  time is its duration minus the union of its coarse children's
  intervals (:func:`self_time`) minus the time spent in hot calls made
  directly under it.
- **Hot counters** aggregate per-call methods (node steps, deliveries,
  PHY resolution, trace calls ...) into a call count, accumulated time
  and accumulated child time; their self time is ``total - child``.
  The wrapper's own cost per call, calibrated when the tracer is made,
  is taken out of both the callee's and the caller's figures.

Every patched name belongs to one layer (the ``layer`` of its
:class:`Hook`), so the per-layer self times of one op add up, together
with the self time of the benchmark's own coarse spans, to the op's
duration.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = [
    "Counter",
    "Hook",
    "OpLayers",
    "Span",
    "Tracer",
    "collect_op",
    "interval_union",
    "self_time",
]

_MISSING = object()


@dataclass
class Counter:
    """Aggregate of one layer's hot calls within one op."""

    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    #: layer-specific tallies (PHY candidate rows, useful refreshes ...).
    items: int = 0

    @property
    def self_s(self) -> float:
        return self.total - self.child


@dataclass
class Span:
    """One coarse span, kept individually."""

    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    #: time of hot calls made directly under this span (not via a coarse child).
    hot_child: float = 0.0


def interval_union(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_time(span: Span, spans: Sequence[Span]) -> float:
    """``span``'s duration minus the union of its direct children's
    intervals (clipped to ``span``) minus its direct hot-call time.
    Grandchildren lie inside their parent's interval, so they never
    count twice."""
    children = [
        (max(s.start, span.start), min(s.end, span.end))
        for s in spans
        if s.parent == span.id
    ]
    return (span.end - span.start) - interval_union(children) - span.hot_child


@dataclass(frozen=True)
class Hook:
    """One name to wrap: ``owner.attr`` (a module or a class).

    ``layer`` names the :class:`Counter` the calls accumulate into; a
    ``coarse`` hook records each call as its own :class:`Span` instead.
    ``count`` optionally tallies ``Counter.items`` from a call's
    ``(args, result, before)``, where ``before`` is ``probe(args)``
    evaluated just before the call.
    """

    owner: Any
    attr: str
    layer: str
    coarse: bool = False
    count: Callable[[tuple[Any, ...], Any, Any], int] | None = None
    probe: Callable[[tuple[Any, ...]], Any] | None = None


class Tracer:
    """Spans and hot counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.op = -1
        # Frames of the live call stack: [child_seconds, coarse_span|None].
        self._stack: list[list[Any]] = [[0.0, None]]
        self._clock = time.perf_counter
        # Wrapper cost per hot call, measured once: ``inner`` is the part
        # a call's own clock reads include, ``overhead`` all a call adds
        # for its caller.  Self times exclude both, so traced layer times
        # approximate the untraced run's (trace.overhead reports the rest).
        self.inner = self.overhead = 0.0
        self.inner, self.overhead = self._calibrate()
        self._stack = [[0.0, None]]

    def _calibrate(self, calls: int = 20_000, rounds: int = 9) -> tuple[float, float]:
        """Median over rounds of a wrapped two-argument no-op's extra cost
        (bare and wrapped loops alternate, so host drift cancels)."""

        def noop(a: Any, b: Any) -> None:
            pass

        wrapped = self._hot("calibrate", noop)
        clock = self._clock
        extra = []
        for _ in range(rounds):
            t0 = clock()
            for _ in range(calls):
                noop(1, 2)
            t1 = clock()
            for _ in range(calls):
                wrapped(1, 2)
            t2 = clock()
            extra.append(((t2 - t1) - (t1 - t0)) / calls)
        ctr = self.counters.pop("calibrate")
        return ctr.total / ctr.calls, statistics.median(extra)

    def counter(self, layer: str) -> Counter:
        ctr = self.counters.get(layer)
        if ctr is None:
            ctr = self.counters[layer] = Counter()
        return ctr

    def begin_op(self, op: int) -> None:
        """Start a fresh op: counters restart, spans accumulate."""
        self.op = op
        self.counters = {}

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a coarse span around the ``with`` body."""
        stack = self._stack
        parent_frame = stack[-1]
        parent = parent_frame[1]
        sp = Span(
            id=len(self.spans),
            name=name,
            op=self.op,
            parent=parent.id if parent is not None else None,
            start=self._clock(),
        )
        self.spans.append(sp)
        frame = [0.0, sp]
        stack.append(frame)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()
            sp.hot_child = frame[0]
            # A coarse parent subtracts this interval by union; a hot
            # parent only knows accumulated child time.
            if parent is None:
                parent_frame[0] += sp.end - sp.start

    def _hot(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = self._clock
        inner, overhead = self.inner, self.overhead
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - inner
                stack.pop()
                ctr = tracer.counters.get(layer)
                if ctr is None:
                    ctr = tracer.counters[layer] = Counter()
                ctr.calls += 1
                ctr.total += dt
                ctr.child += frame[0]
                stack[-1][0] += dt + overhead

        return wrapper

    def _coarse(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self._coarse(hook.layer, fn) if hook.coarse else self._hot(hook.layer, fn)
        if hook.count is None:
            return inner
        count, probe, tracer, layer = hook.count, hook.probe, self, hook.layer

        def counting(*args: Any, **kwargs: Any) -> Any:
            before = probe(args) if probe is not None else None
            result = inner(*args, **kwargs)
            tracer.counter(layer).items += count(args, result, before)
            return result

        return counting

    @contextmanager
    def installed(self, hooks: Sequence[Hook]) -> Iterator[None]:
        """Patch every hook's name for the duration of the ``with``."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                raw = vars(hook.owner).get(hook.attr, _MISSING)
                saved.append((hook.owner, hook.attr, raw))
                current = raw if raw is not _MISSING else getattr(hook.owner, hook.attr)
                setattr(hook.owner, hook.attr, self._wrap_descriptor(hook, current))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    def _wrap_descriptor(self, hook: Hook, current: Any) -> Any:
        if isinstance(current, classmethod):
            return classmethod(self._wrap(hook, current.__func__))
        if isinstance(current, property):
            return property(self._wrap(hook, current.fget))
        return self._wrap(hook, current)

    # ------------------------------------------------------------------
    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def dump(self) -> list[dict[str, Any]]:
        """All coarse spans, with their self time, for the span file."""
        return [{**asdict(s), "self": self_time(s, self.spans)} for s in self.spans]


@dataclass
class OpLayers:
    """One traced op's layer figures: hot counters plus coarse self times."""

    counters: dict[str, Counter] = field(default_factory=dict)
    coarse_self: dict[str, float] = field(default_factory=dict)

    def self_s(self, layer: str) -> float:
        ctr = self.counters.get(layer)
        return (ctr.self_s if ctr is not None else 0.0) + self.coarse_self.get(layer, 0.0)

    def calls(self, layer: str) -> int:
        ctr = self.counters.get(layer)
        return ctr.calls if ctr is not None else 0

    def items(self, layer: str) -> int:
        ctr = self.counters.get(layer)
        return ctr.items if ctr is not None else 0


def collect_op(tracer: Tracer, op: int) -> OpLayers:
    """Snapshot ``tracer``'s figures for ``op`` (call before the next op)."""
    spans = tracer.op_spans(op)
    coarse: dict[str, float] = {}
    for s in spans:
        coarse[s.name] = coarse.get(s.name, 0.0) + self_time(s, spans)
    return OpLayers(counters=dict(tracer.counters), coarse_self=coarse)
