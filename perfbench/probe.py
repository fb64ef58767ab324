"""Benchmark-side spans around calls into the program's layers.

The benchmark never edits the program to measure it: every layer
boundary is a public call, and :meth:`Probe.call` wraps that call in a
span on the benchmark's own :class:`~repro.observability.Tracer`.  While
a traced chunk runs, the tracer is also the ambient one and the
optimizer session's tracer, so the program's existing spans
(``optimize``/``enumerate``, ``execute``/``scan``/``join``,
``adaptive.apply``) nest under the benchmark's spans.

Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.observability import Span, Tracer, activate, span_coverage, to_chrome_trace

#: what the view from outside the program cannot split (named for the
#: in-program tracing work that would)
BLIND_SPOTS = (
    "decode runs inside Executor.execute, so its time is billed to "
    "engine.executor.execute / engine.pipelined.execute",
    "lazy PredicateIndex builds are billed to the first scan that needs "
    "them (warm-up absorbs most of them)",
    "the pipelined engine reports 0 s per operator, so its execute span "
    "has no per-operator children with time",
)


class Probe:
    """Spans around layer calls; recording only inside traced chunks."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tracer: Optional[Tracer] = Tracer() if enabled else None
        #: true while a traced chunk runs
        self.active = False

    def call(self, layer: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, inside a span named *layer* when active."""
        if not self.active:
            return fn(*args, **kwargs)
        assert self.tracer is not None
        with self.tracer.span(layer):
            return fn(*args, **kwargs)

    def span(self, name: str, **attributes: Any) -> ContextManager[Any]:
        """A span when active, else a no-op context."""
        if not self.active:
            return nullcontext()
        assert self.tracer is not None
        return self.tracer.span(name, **attributes)

    @contextmanager
    def tracing(self, traced: bool, session: Any = None) -> Iterator[None]:
        """Record the enclosed chunk when *traced*.

        The benchmark's tracer becomes the ambient tracer and, if given,
        *session*'s tracer (the session was built with ``trace=True``),
        so in-program spans land in the same tree.
        """
        if not (traced and self.enabled):
            if session is not None:
                session.tracer = None
            yield
            return
        assert self.tracer is not None
        if session is not None:
            session.tracer = self.tracer
        self.active = True
        try:
            with activate(self.tracer):
                yield
        finally:
            self.active = False
            if session is not None:
                session.tracer = None

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def spans(self) -> Tuple[Span, ...]:
        return self.tracer.finished_spans() if self.tracer is not None else ()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, inclusive seconds)`` over all finished spans."""
        result: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans():
            entry = result[span.name]
            entry[0] += 1
            entry[1] += span.duration
        return {name: (int(calls), total) for name, (calls, total) in result.items()}

    def self_times(self) -> Dict[str, Tuple[int, float, float, bool]]:
        """``name -> (calls, inclusive s, self s, inside requests)``.

        Self time is the span minus the union of its children; the flag
        tells whether the spans sit under a ``request`` span (set-up
        spans do not).
        """
        spans = self.spans()
        by_id = {span.span_id: span for span in spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        table: Dict[str, List[Any]] = defaultdict(lambda: [0, 0.0, 0.0, False])
        for span in spans:
            covered = span_coverage(children.get(span.span_id, []), span)
            entry = table[span.name]
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.duration * (1.0 - covered)
            entry[3] = entry[3] or _under_request(span, by_id)
        return {name: (int(c), inc, own, req) for name, (c, inc, own, req) in table.items()}

    def write(self, directory: Path, stem: str, table: str) -> Tuple[Path, Path]:
        """Write the Chrome trace and the self-time *table*; return both paths."""
        assert self.tracer is not None
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(to_chrome_trace(self.tracer)))
        table_path = directory / f"{stem}.self_time.txt"
        table_path.write_text(table)
        return trace_path, table_path

    def render_table(self, request_seconds: float) -> str:
        """The per-span self-time table, heaviest self time first."""
        rows = sorted(self.self_times().items(), key=lambda item: -item[1][2])
        lines = [
            f"{'span':<34} {'calls':>7} {'incl ms':>11} {'self ms':>11} {'self/req':>9}"
        ]
        for name, (calls, inclusive, own, in_request) in rows:
            share = (
                f"{own / request_seconds:>9.3f}"
                if in_request and request_seconds > 0
                else f"{'-':>9}"
            )
            lines.append(
                f"{name:<34} {calls:>7} {inclusive * 1e3:>11.2f} "
                f"{own * 1e3:>11.2f} {share}"
            )
        lines.append("")
        lines.append("blind spots of the outside view:")
        lines.extend(f"  - {spot}" for spot in BLIND_SPOTS)
        return "\n".join(lines) + "\n"


def _under_request(span: Span, by_id: Dict[int, Span]) -> bool:
    """Whether *span* is a ``request`` span or one of its descendants."""
    current: Optional[Span] = span
    while current is not None:
        if current.name == "request":
            return True
        current = by_id.get(current.parent_id) if current.parent_id is not None else None
    return False
