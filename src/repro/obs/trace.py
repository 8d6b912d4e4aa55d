"""Spans: a dependency-free tracer for the discovery pipeline.

The model is deliberately small.  A :class:`Tracer` is created per
request (per :func:`~repro.core.runner.discover_inds` call, per serve
request); it hands out :class:`Span` records through the
:meth:`Tracer.span` context manager.  Spans carry a monotonic start
timestamp, a duration, a parent id and free-form attributes.  Nesting is
implicit: a span opened while another is open on the *same thread*
becomes its child — the parent stack is thread-local, so concurrent
serve requests (each on its own thread, each with its own tracer) never
cross wires.

Worker processes do not hold a tracer.  They stamp a plain dict per task
(:func:`stamp`, two ``time.monotonic()`` calls and a small dict — cheap
enough to run unconditionally) and ship it back inside the task outcome;
the parent adopts those dicts under the enclosing phase span with
:meth:`Tracer.add_task_spans`.  Because ``CLOCK_MONOTONIC`` is
system-wide on Linux, worker and parent timestamps land on one coherent
timeline without any clock translation.

Serialisation: :meth:`Tracer.to_dict` produces a JSON-safe payload with
starts normalised to the trace epoch; :func:`chrome_events` converts
that payload to the Chrome ``chrome://tracing`` event format; and
:func:`phase_summary` / :func:`coverage` reduce it to the per-phase
seconds the paper report and the acceptance gate consume.

Everything here imports only the standard library — ``repro.obs`` sits
below every other layer so any of them may instrument itself freely.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "maybe_span",
    "stamp",
    "chrome_events",
    "phase_summary",
    "coverage",
]


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start`` is a raw ``time.monotonic()`` timestamp (seconds); it is
    only meaningful relative to other spans in the same trace and is
    normalised to the trace epoch at serialisation time.  ``attrs`` is a
    free-form JSON-safe dict; callers may mutate it while the span is
    open (the context manager yields the live object).
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    attrs: dict = field(default_factory=dict)
    pid: int = 0


class Tracer:
    """Collects spans for one request into one coherent tree.

    Thread-safe: spans may be opened from multiple threads (each thread
    sees its own implicit parent stack) and worker-stamped spans may be
    adopted concurrently.  The tracer never samples and never drops —
    a discovery run produces at most a few thousand spans, so the whole
    tree is kept and serialised.
    """

    def __init__(self) -> None:
        """Start an empty trace with a fresh random ``trace_id``."""
        self.trace_id = uuid.uuid4().hex[:16]
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        """This thread's implicit-parent stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> int | None:
        """The id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the innermost open span on this thread.

        Yields the live :class:`Span` so the caller can attach attributes
        discovered mid-flight (``sp.attrs["hit"] = True``).  The duration
        is stamped and the span recorded when the block exits — including
        on exception, so failed phases still show up in the timeline.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent,
            name=name,
            start=time.monotonic(),
            duration=0.0,
            attrs=dict(attrs),
            pid=os.getpid(),
        )
        stack.append(sp.span_id)
        try:
            yield sp
        finally:
            stack.pop()
            sp.duration = time.monotonic() - sp.start
            with self._lock:
                self._spans.append(sp)

    def add_span(
        self,
        parent_id: int | None,
        name: str,
        start: float,
        duration: float,
        **attrs,
    ) -> int:
        """Record a span retroactively from explicit timestamps.

        The overlapped pipeline records its export and pretest phases
        this way once both pool jobs are done, each window reaching back to
        an instant taken before the job ran.  This records such a
        reconstructed span directly under ``parent_id`` and returns its
        fresh id so worker task spans can be adopted beneath it with
        :meth:`add_task_spans`.  ``start`` is a raw ``time.monotonic()``
        reading, like every other span.
        """
        with self._lock:
            sp = Span(
                span_id=next(self._ids),
                parent_id=parent_id,
                name=name,
                start=start,
                duration=duration,
                attrs=dict(attrs),
                pid=os.getpid(),
            )
            self._spans.append(sp)
            return sp.span_id

    def add_task_spans(self, parent_id: int | None, spans) -> None:
        """Adopt worker-stamped span dicts (see :func:`stamp`) as children.

        Each raw dict gets a fresh span id under ``parent_id`` — worker
        processes know nothing about the parent's id space, so ids are
        assigned here.  Malformed entries are skipped rather than raised:
        a trace must never break the pipeline that produced it.
        """
        if not spans:
            return
        with self._lock:
            for raw in spans:
                if not isinstance(raw, dict) or "name" not in raw:
                    continue
                self._spans.append(
                    Span(
                        span_id=next(self._ids),
                        parent_id=parent_id,
                        name=str(raw["name"]),
                        start=float(raw.get("start", 0.0)),
                        duration=float(raw.get("duration", 0.0)),
                        attrs=dict(raw.get("attrs", {})),
                        pid=int(raw.get("pid", 0)),
                    )
                )

    def to_dict(self) -> dict:
        """Serialise the trace: JSON-safe, starts relative to the epoch.

        The epoch is the earliest span start; ``total_seconds`` is the
        distance from the epoch to the latest span end.  Spans are sorted
        by start time so the payload reads as a timeline.
        """
        with self._lock:
            spans = sorted(self._spans, key=lambda s: (s.start, s.span_id))
        if not spans:
            return {
                "trace_id": self.trace_id,
                "clock": "monotonic",
                "total_seconds": 0.0,
                "spans": [],
            }
        epoch = min(s.start for s in spans)
        total = max(s.start + s.duration for s in spans) - epoch
        return {
            "trace_id": self.trace_id,
            "clock": "monotonic",
            "total_seconds": total,
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "start": s.start - epoch,
                    "duration": s.duration,
                    "pid": s.pid,
                    "attrs": s.attrs,
                }
                for s in spans
            ],
        }


def maybe_span(tracer: Tracer | None, name: str, **attrs):
    """A span when tracing is on, a no-op context otherwise.

    This is the zero-overhead-ish switch: call sites write one line and
    pay a single ``None`` check when tracing is off.  The yielded value
    is the live :class:`Span` or ``None``, so attribute writes must be
    guarded (``if sp is not None: sp.attrs[...] = ...``).
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, **attrs)


def stamp(name: str, start: float, end: float, **attrs) -> dict:
    """Build a worker-side raw span dict for one executed task.

    ``start``/``end`` are ``time.monotonic()`` readings taken around the
    work.  The dict is the wire format :meth:`Tracer.add_task_spans`
    adopts — keeping its shape in one function means the pool never
    hand-rolls it.
    """
    return {
        "name": name,
        "start": start,
        "duration": end - start,
        "pid": os.getpid(),
        "attrs": attrs,
    }


def chrome_events(trace: dict) -> list[dict]:
    """Convert a serialised trace to Chrome ``chrome://tracing`` events.

    Emits complete (``ph="X"``) events with microsecond timestamps; each
    process id becomes its own lane, so pooled task spans line up under
    their worker pid next to the parent's phase spans.  Load the JSON
    array in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = []
    for span in trace.get("spans", []):
        args = dict(span.get("attrs", {}))
        args["span_id"] = span.get("id")
        if span.get("parent") is not None:
            args["parent"] = span["parent"]
        events.append(
            {
                "name": span.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": round(span.get("start", 0.0) * 1e6, 3),
                "dur": round(span.get("duration", 0.0) * 1e6, 3),
                "pid": span.get("pid", 0),
                "tid": span.get("pid", 0),
                "args": args,
            }
        )
    return events


def _top_level(trace: dict) -> tuple[list[dict], float]:
    """The trace's phase spans and the wall-clock denominator.

    With a single root span (the runner's ``discover``) the phases are
    its direct children and the denominator is the root's duration;
    without one, every parentless span is a phase and the denominator is
    ``total_seconds``.
    """
    spans = trace.get("spans", [])
    roots = [s for s in spans if s.get("parent") is None]
    if len(roots) == 1:
        root = roots[0]
        phases = [s for s in spans if s.get("parent") == root["id"]]
        return phases, float(root.get("duration", 0.0))
    return roots, float(trace.get("total_seconds", 0.0))


def phase_summary(trace: dict) -> dict:
    """Per-phase seconds: top-level span durations summed by name.

    The paper report records it for each run of its "Parallel brute
    force" section (``benchmarks/REPORT.md``) — small enough to diff by
    eye, faithful enough to decompose a speedup.
    """
    summary: dict = {}
    phases, _ = _top_level(trace)
    for span in phases:
        name = span.get("name", "?")
        summary[name] = summary.get(name, 0.0) + float(
            span.get("duration", 0.0)
        )
    return summary


def coverage(trace: dict) -> float:
    """Fraction of wall clock accounted for by top-level phase spans.

    The acceptance gate for the tracing layer: a healthy trace covers
    ≥ 0.95 — anything lower means a phase is running untimed.  Clamped
    to 1.0 (sequential phases cannot truly overlap; a tiny overshoot is
    float noise).
    """
    phases, denom = _top_level(trace)
    if denom <= 0.0:
        return 1.0 if not trace.get("spans") else 0.0
    covered = sum(float(s.get("duration", 0.0)) for s in phases)
    return min(1.0, covered / denom)
