"""Span recording, self time and summary arithmetic for the benchmark.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces, for one traced pass only, the public module attributes through
which the package calls into each layer, and :meth:`Tracer.call` brackets
the calls the benchmark makes itself.  Nothing here imports the package
under test, so the arithmetic can be tested on its own.
"""

import functools
import importlib
import statistics
import time


class Span:
    """One timed call: name, interval, parent span and the run it belongs to."""

    __slots__ = ("id", "name", "parent", "run", "op", "start", "end", "attrs")

    def __init__(self, id, name, parent, run, op, start, end=None, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.run = run
        self.op = op
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder with a stack of open spans.

    ``run`` labels every span recorded until it is changed; ``op`` is the
    id of the top-level span a nested span descends from, so the spans of
    one benchmark operation share it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run = None
        self.absent = []
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            run=self.run,
            op=len(self.spans) if parent is None else parent.op,
            start=self.clock(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name, fn, *args, observe=None, **kwargs):
        """Call ``fn`` inside a span; ``observe`` may add attributes.

        ``observe(args, kwargs, result)`` returns a dict stored on the span.
        An observer that no longer fits the package's API (a renamed field,
        say) leaves the span without attributes instead of failing the call.
        """
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["raised"] = type(exc).__name__
            raise
        finally:
            self._close(span)
        if observe is not None:
            try:
                span.attrs.update(observe(args, kwargs, result))
            except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                span.attrs["observe_failed"] = True
        return result

    def wrap(self, targets, observers=None):
        """Route ``module.attr`` through :meth:`call` for every target.

        ``targets`` holds ``(module, attr, span_name)`` triples.  A span name
        none of whose attributes exists any more is listed in
        :attr:`absent`; the missing attributes are skipped.
        """
        observers = observers or {}
        wrapped = set()
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(span_name, original, observers.get(span_name)))
            self._undo.append((module, attr, original))
            wrapped.add(span_name)
        for _, _, span_name in targets:
            if span_name not in wrapped and span_name not in self.absent:
                self.absent.append(span_name)

    def _wrapper(self, span_name, original, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(span_name, original, *args, observe=observe, **kwargs)

        return traced

    def unwrap(self):
        """Restore every attribute :meth:`wrap` replaced, newest first."""
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap()
        return False


class NullTracer:
    """Stand-in used when tracing is off: calls go straight through."""

    def call(self, name, fn, *args, observe=None, **kwargs):
        return fn(*args, **kwargs)


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals``, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> span duration minus the time its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans):
    """Total self time per span name."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def summarize(values):
    """Median, max and count of a list of timings (empty -> count 0 only)."""
    values = list(values)
    if not values:
        return {"median": None, "max": None, "n": 0}
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def failure_share(failed, attempted):
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside [0, attempted={attempted}]")
    return failed / attempted
