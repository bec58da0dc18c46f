"""Outside-in span recorder for the benchmark.

The recorder wraps public entry points of the program's modules from the
benchmark's own files: nothing under ``src/`` changes. Each wrapped call
becomes a span (name, start, end, parent span, flush id) kept in memory
in compact arrays; counters record work at the same boundaries. When the
replay ends, :meth:`SpanRecorder.ledger` folds the spans into per-name
call counts, busy time and self time (busy time minus the time covered
by child spans; the replay is single-threaded, so children never
overlap).

Wrappers patch the attribute that callers actually resolve. A function
imported by name into another module (``from repro.dispatch.solver
import solve_assignment``) is patched in the importing module, because
patching its home module would record nothing.

A *flush* is one dispatch decision: its calls into
``QuoteService.begin``, ``PendingQuotes.collect`` and
``BatchDispatcher.dispatch``. Under immediate dispatch it is one
``dispatch`` call. Spans opened inside a flush carry its id; spans
outside any flush carry ``-1``.
"""

from __future__ import annotations

from array import array
from time import perf_counter as clock

import numpy as np

#: Span names of the three calls a flush is made of.
FLUSH_SPANS = ("flush.begin", "flush.collect", "flush.dispatch")


class SpanRecorder:
    """Patches entry points with span and counter wrappers; restores
    every patched attribute in :meth:`close`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flush = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._current_flush = -1
        self._next_flush = 0
        #: id(PendingQuotes) / id(QuoteSet) -> flush id, while the flush
        #: is in flight (between begin and dispatch).
        self._flush_of: dict[int, int] = {}
        #: Indices of the spans a flush is made of (its outermost begin,
        #: collect and dispatch calls).
        self._roots = array("i")
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _call(self, name_id: int, flush: int, fn, args, kwargs):
        """Run ``fn`` as one span; returns its result."""
        stack = self._stack
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.flush.append(flush)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = clock()
            stack.pop()

    def timed(self, name: str, fn) -> tuple[float, float]:
        """Run ``fn()`` as one span ``name`` outside any flush; returns
        the span's start and end."""
        idx = len(self.start)
        self._call(self._name_id(name), -1, fn, (), {})
        return self.start[idx], self.end[idx]

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` so each call records a span ``name``.
        ``observe(args, kwargs, result)`` runs after each call."""
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        call = self._call

        def wrapper(*args, **kwargs):
            result = call(name_id, self._current_flush, original, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` to count calls only (no timer), for entry
        points too cheap to time without distorting them.
        ``observe(args, kwargs, result)`` runs after each call."""
        counters = self.counters
        counters.setdefault(name, 0)

        def make(original):
            def wrapper(*args, **kwargs):
                counters[name] += 1
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return wrapper

        self.wrap(owner, attr, make)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        self._patch(owner, attr, make(getattr(owner, attr)))

    def flush_spans(self, quote_service, pending_quotes, batch_dispatcher) -> None:
        """Wrap the three calls a flush is made of and assign flush ids.

        ``begin`` opens a flush and tags the returned pending quotes;
        ``collect`` inherits the id and tags the returned quote set;
        ``dispatch`` of that quote set closes the flush. A dispatch
        without a tagged quote set (immediate dispatch, the end-of-run
        safety net) is a flush of its own. A policy's own quote rounds
        call ``begin`` and ``collect`` inside ``dispatch``: they are spans
        of the enclosing flush, not flushes.
        """
        flush_of = self._flush_of
        call = self._call
        begin, collect, dispatch = (
            quote_service.begin,
            pending_quotes.collect,
            batch_dispatcher.dispatch,
        )
        begin_id, collect_id, dispatch_id = map(self._name_id, FLUSH_SPANS)

        def in_flush(flush, name_id, fn, args, kwargs):
            if flush is None:
                flush = self._next_flush
                self._next_flush += 1
            self._roots.append(len(self.start))
            self._current_flush = flush
            try:
                return flush, call(name_id, flush, fn, args, kwargs)
            finally:
                self._current_flush = -1

        def begin_wrapper(*args, **kwargs):
            if self._current_flush >= 0:
                return call(begin_id, self._current_flush, begin, args, kwargs)
            flush, pending = in_flush(None, begin_id, begin, args, kwargs)
            flush_of[id(pending)] = flush
            return pending

        def collect_wrapper(pending):
            if self._current_flush >= 0:
                return call(collect_id, self._current_flush, collect, (pending,), {})
            flush, quote_set = in_flush(
                flush_of.pop(id(pending), None), collect_id, collect, (pending,), {}
            )
            flush_of[id(quote_set)] = flush
            return quote_set

        def dispatch_wrapper(*args, **kwargs):
            flush = flush_of.pop(id(kwargs.get("quote_set")), None)
            return in_flush(flush, dispatch_id, dispatch, args, kwargs)[1]

        self._patch(quote_service, "begin", begin_wrapper)
        self._patch(pending_quotes, "collect", collect_wrapper)
        self._patch(batch_dispatcher, "dispatch", dispatch_wrapper)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- results -------------------------------------------------------
    def durations(self, reference=None) -> np.ndarray:
        """Each span's duration: wall seconds, or the difference of
        ``reference`` (a map from wall times to another clock) at its
        end and start."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        if reference is None:
            return end - start
        return reference(end) - reference(start)

    def flush_seconds(self, reference=None) -> list[float]:
        """Seconds of each flush: the sum of its begin, collect and
        dispatch spans, in flush-id order."""
        took = self.durations(reference)
        totals: dict[int, float] = {}
        for i in self._roots:
            f = self.flush[i]
            totals[f] = totals.get(f, 0.0) + float(took[i])
        return [totals[f] for f in sorted(totals)]

    def ledger(self, reference=None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``."""
        took = self.durations(reference)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=took[nested], minlength=len(took))
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        busy = np.bincount(name_of, weights=took, minlength=k)
        own = np.bincount(name_of, weights=took - child, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }
