"""Thread-safe span tracer with a no-op fast path.

Design:

* **Per-thread buffers.**  Each OS thread appends finished spans to its own
  private list (``threading.local``), so the hot emit path takes no lock and
  threads never contend.  Buffers are registered once per thread under
  ``_merge_lock`` and merged (sorted by domain and start time) when
  :meth:`Tracer.records` is called — after the emitting threads are
  joined, so the merge sees complete buffers.  ``_merge_lock`` is
  deliberately *not* named ``_lock``: it guards only the buffer registry,
  and per-thread buffers are lock-free by construction (the narrow-lock
  convention of ``repro.analysis.locks``).

* **Two clocks.**  ``span()`` stamps wall time (``time.perf_counter`` by
  default; injectable for tests).  ``add_span()`` takes explicit start/end
  times — that is how ``repro.sim`` stamps spans with its *virtual* clock.

* **No-op fast path.**  When tracing is off, the ambient tracer is a
  :class:`NullTracer` whose ``span()`` returns a shared do-nothing context
  manager and whose ``add_span()`` returns immediately; instrumented call
  sites additionally guard bulk emission behind ``tracer.enabled``.  This
  is what keeps disabled-tracing overhead within the ≤3% budget on the
  micro-kernel benches.

Usage::

    from repro.obs import Tracer, use_tracer, current_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        with current_tracer().span("worker.step", cat="worker", worker=0):
            ...
    tracer.dump_jsonl("run.jsonl", meta={"method": "dgs"})
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
import time
from typing import Any, Callable, Iterator, Mapping

from .span import span_record

__all__ = [
    "NullTracer",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
]


class _SpanHandle:
    """Context manager for one in-flight span; ``set()`` attaches args."""

    __slots__ = ("_tracer", "_name", "_cat", "_domain", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, domain: str, args: "dict[str, Any]") -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._domain = domain
        self._args = args
        self._t0 = 0.0

    def set(self, **args: Any) -> "_SpanHandle":
        """Attach/override span args (e.g. byte counts known only at exit)."""
        self._args.update(args)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = self._tracer.clock()
        self._tracer._emit(
            span_record(
                self._name,
                self._t0,
                t1 - self._t0,
                threading.current_thread().name,
                cat=self._cat,
                domain=self._domain,
                args=self._args,
            )
        )


class _NullSpan:
    """Shared do-nothing span handle (the disabled-tracing fast path)."""

    __slots__ = ()

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; the default ambient tracer."""

    enabled = False

    def span(self, name: str, cat: str = "default", domain: str = "wall", **args: Any):
        return _NULL_SPAN

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        tid: str = "",
        cat: str = "default",
        domain: str = "virtual",
        args: "Mapping[str, Any] | None" = None,
    ) -> None:
        return None

    def records(self) -> "list[dict[str, Any]]":
        return []

    def absorb(self, records: "Iterable[Mapping[str, Any]]") -> int:
        return 0


class Tracer:
    """Collects spans from any number of threads and two clock domains."""

    enabled = True

    def __init__(self, clock: "Callable[[], float] | None" = None, meta: "Mapping[str, Any] | None" = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self._merge_lock = threading.Lock()
        self._buffers: list[list[dict[str, Any]]] = []
        self._tls = threading.local()

    # ------------------------------------------------------------------
    def _buffer(self) -> "list[dict[str, Any]]":
        buf = getattr(self._tls, "buffer", None)
        if buf is None:
            buf = []
            self._tls.buffer = buf
            with self._merge_lock:
                self._buffers.append(buf)
        return buf

    def _emit(self, record: "dict[str, Any]") -> None:
        self._buffer().append(record)

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "default", domain: str = "wall", **args: Any) -> _SpanHandle:
        """Context manager timing a block on this tracer's clock."""
        return _SpanHandle(self, name, cat, domain, args)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        tid: str = "",
        cat: str = "default",
        domain: str = "virtual",
        args: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Record a span with explicit timestamps (the simulator's path)."""
        self._emit(
            span_record(
                name,
                start,
                end - start,
                tid or threading.current_thread().name,
                cat=cat,
                domain=domain,
                args=args,
            )
        )

    def absorb(self, records: "Iterable[Mapping[str, Any]]") -> int:
        """Merge records produced by another tracer (e.g. a worker process).

        The caller is expected to have stamped them with
        :func:`repro.obs.span.relabel_records` so lanes stay distinct.
        Returns the number of records absorbed.
        """
        batch = [dict(rec) for rec in records]
        if not batch:
            return 0
        with self._merge_lock:
            self._buffers.append(batch)
        return len(batch)

    # ------------------------------------------------------------------
    def records(self) -> "list[dict[str, Any]]":
        """All spans merged across thread buffers, in (domain, start) order."""
        with self._merge_lock:
            merged = [rec for buf in self._buffers for rec in buf]
        merged.sort(key=lambda r: (r.get("domain", "wall"), r.get("ts", 0.0)))
        return merged

    def clear(self) -> None:
        with self._merge_lock:
            for buf in self._buffers:
                buf.clear()

    def dump_jsonl(
        self,
        path: "str | pathlib.Path",
        meta: "Mapping[str, Any] | None" = None,
        metrics: "list[dict[str, Any]] | None" = None,
    ) -> int:
        """Write a meta record, every span, and optional metric snapshots.

        Returns the number of records written.  ``metrics`` is a snapshot
        from :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.
        """
        header: dict[str, Any] = {"type": "meta", **self.meta, **(dict(meta) if meta else {})}
        records = [header, *self.records(), *(metrics or [])]
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        return len(records)


_AMBIENT = threading.Lock()
_current: "Tracer | NullTracer" = NullTracer()


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer instrumented call sites emit to."""
    return _current


def set_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Install ``tracer`` as ambient (None ⇒ NullTracer); returns the old one."""
    global _current
    with _AMBIENT:
        previous = _current
        _current = tracer if tracer is not None else NullTracer()
    return previous


@contextlib.contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> "Iterator[Tracer | NullTracer]":
    """Scoped :func:`set_tracer` — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
