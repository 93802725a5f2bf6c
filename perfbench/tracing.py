"""Span tracing and query counting for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around each public call
into a layer of the program; nothing inside the program is instrumented.
A span is a name, a start, an end, the index of the span that was open when
it began (its parent, -1 for a root) and a trace id shared by the spans of
one fit.  Spans stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

from rankpc.citest import CiDecider

LEVELS = ("l0", "l1", "l2", "l3p")  # conditioning-set sizes 0, 1, 2 and 3 or more


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace = array("l")
        self.trace_id = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def new_trace(self) -> int:
        """Start a new trace id; spans recorded from now on carry it."""
        self.trace_id += 1
        return self.trace_id

    def record(self, name: str, start: float, end: float) -> int:
        """Store a finished span as a child of the innermost open span."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._open[-1] if self._open else -1)
        self.trace.append(self.trace_id)
        return len(self.start) - 1

    @contextmanager
    def span(self, name: str):
        idx = self.record(name, perf_counter(), 0.0)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.end[idx] = perf_counter()

    def span_name(self, i: int) -> str:
        return self.names[self.name[i]]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero for well-formed
    spans.
    """
    out = [e - s for s, e in zip(starts, ends)]
    children: dict[int, list[tuple[float, float]]] = {}
    for i, par in enumerate(parents):
        if par >= 0:
            children.setdefault(par, []).append((starts[i], ends[i]))
    for par, intervals in children.items():
        lo, hi = starts[par], ends[par]
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted(intervals):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[par] -= covered
    return out


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile that has at least ten samples above it.

    Returns (value, percentile, sample count).  With n sorted samples that is
    the one at index n - 11, the percentile 100 (n - 10) / n.  With ten or
    fewer samples no percentile qualifies; the maximum is returned with
    percentile 100, and the count shows why.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class QueryStats:
    """Counts and times of the CI queries of one fit, by conditioning level."""

    def __init__(self):
        self.count = [0] * len(LEVELS)
        self.seconds = [0.0] * len(LEVELS)
        self.independent = 0
        self.nonpd = 0
        self.distinct = 0

    @property
    def queries(self) -> int:
        return sum(self.count)


class TracedDecider(CiDecider):
    """Delegates every query to ``inner`` and times it as a ``citest.decide`` span.

    ``seen`` is shared by all deciders built on one correlation matrix, so
    ``stats.distinct`` counts queries that no earlier fit on the same matrix
    asked.  A query that made the inner decider warn is counted as non-PD,
    the only warning ``RankCiDecider.decide`` emits.
    """

    def __init__(self, inner: CiDecider, tracer: Tracer, stats: QueryStats, seen: set):
        super().__init__()
        self.inner = inner
        self.warnings = inner.warnings
        self.max_cond_size = inner.max_cond_size
        self.tracer = tracer
        self.stats = stats
        self.seen = seen

    def decide(self, u: int, v: int, s=()) -> bool:
        s = tuple(s)
        warned = len(self.warnings)
        t0 = perf_counter()
        answer = self.inner.decide(u, v, s)
        t1 = perf_counter()
        self.tracer.record("citest.decide", t0, t1)
        st = self.stats
        level = min(len(s), len(LEVELS) - 1)
        st.count[level] += 1
        st.seconds[level] += t1 - t0
        if answer:
            st.independent += 1
        if len(self.warnings) != warned:
            st.nonpd += 1
        key = (u, v, tuple(sorted(s))) if u < v else (v, u, tuple(sorted(s)))
        if key not in self.seen:
            self.seen.add(key)
            st.distinct += 1
        return answer
