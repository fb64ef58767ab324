"""The closed loop, failure accounting and the determinism ledger.

One client sends the next request only after the previous one returned
(a closed loop).  Requests run in whole *rounds*; the loop stops at the
first round boundary where the timed busy time reaches ``--seconds``
and at least :data:`MIN_REQUESTS` requests ran, so the latency
percentile reported has at least ten samples beyond it.

Timed regions cover only the calls into the program.  Input generation
happens before a request's clock starts; answer checks (against the
reference rows, or the plan-invariant verifier) after it stops.  A
request that raises or answers wrongly is counted and logged, never
retried, and the loop goes on.

The machine's speed is sampled all along with :func:`reference_work`, a
fixed piece of pure-Python work, so that each timing can also be given
at the reference speed (see ``NOTES.md``, *Timings at the reference
speed*).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Protocol

from probe import Probe

#: p90 needs at least ten samples beyond it
MIN_REQUESTS = 100
#: failures echoed to stderr; all of them go to the failure log file
ECHOED_FAILURES = 50
#: timed seconds between two readings of the machine's speed in the loop
SPEED_EVERY = 0.25
#: seconds :func:`reference_work` takes at the reference speed
REFERENCE_SECONDS = 0.010


def reference_work() -> float:
    """Time one fixed piece of pure-Python work, in seconds.

    The work (dict updates keyed by small tuples, integer formatting)
    does not touch the program under test, so the time it takes follows
    only the machine's speed at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's heap is not the machine
    started = time.perf_counter()
    table: Dict[Any, int] = {}
    for i in range(20000):
        key = (i % 251, i % 13)
        table[key] = table.get(key, 0) + len(str(i))
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def _helper_main(conn: Any) -> None:
    """A :class:`Copies` helper: one reference run per request."""
    while conn.recv():
        conn.send(reference_work())


class Copies:
    """Runs :func:`reference_work` on *cores* cores at once.

    Work that keeps several cores busy runs at the speed the machine
    has with those cores busy, which can be far below its speed with
    one busy core; a reading for such work runs that many copies of the
    reference work at once: one here, the others in helper processes
    that wait on a pipe in between.  Call :meth:`close` when done.
    """

    def __init__(self, cores: int) -> None:
        context = multiprocessing.get_context("fork")
        self._conns: List[Any] = []
        self._processes: List[Any] = []
        for _ in range(cores - 1):
            parent, child = context.Pipe()
            process = context.Process(target=_helper_main, args=(child,), daemon=True)
            process.start()
            child.close()
            self._conns.append(parent)
            self._processes.append(process)

    def run(self) -> float:
        """Seconds one copy took, averaged over the copies."""
        for conn in self._conns:
            conn.send(True)
        times = [reference_work()] + [conn.recv() for conn in self._conns]
        return statistics.fmean(times)

    def close(self) -> None:
        """Stop the helpers and wait for each to end."""
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join()
        self._conns, self._processes = [], []


class Stopwatch:
    """Times pieces of work in wall seconds and at the reference speed.

    The machine's speed is read with :func:`reference_work` (the median
    of *repeats* runs, each on as many cores as *copies* keeps busy, or
    on one) before the first piece, and again after a piece once *every*
    timed seconds have passed since the last reading.  The
    pieces between two readings are divided by the machine's slowness
    there to give their time at the reference speed.  The slowness is
    the median of the two readings and one more on either side over
    :data:`REFERENCE_SECONDS`: one reading thrown by a momentary swing
    then moves no piece.
    """

    def __init__(
        self, every: float, repeats: int, copies: Optional[Copies] = None
    ) -> None:
        self.every = every
        self.repeats = repeats
        self.copies = copies
        self.wall: List[float] = []
        self.readings: List[float] = []
        #: per piece, the index of the last reading before it
        self._window: List[int] = []
        self._since = 0.0

    def _read(self) -> None:
        run = reference_work if self.copies is None else self.copies.run
        self.readings.append(statistics.median(run() for _ in range(self.repeats)))
        self._since = 0.0

    def add(self, seconds: float) -> None:
        """Record one piece of *seconds* wall time, timed by the caller."""
        if not self.readings:
            self._read()
        self.wall.append(seconds)
        self._window.append(len(self.readings) - 1)
        self._since += seconds
        if self._since >= self.every:
            self._read()

    @contextmanager
    def piece(self) -> Iterator[None]:
        """Time the body as one piece."""
        if not self.readings:
            self._read()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(time.perf_counter() - started)

    def finish(self) -> None:
        """Read the speed after the last pieces, if not done yet."""
        if self._window and self._window[-1] == len(self.readings) - 1:
            self._read()

    @property
    def scale(self) -> List[float]:
        """Per piece, reference seconds per wall second."""
        readings = self.readings
        return [
            REFERENCE_SECONDS / statistics.median(readings[max(0, k - 1) : k + 3])
            for k in self._window
        ]

    @property
    def reference(self) -> List[float]:
        """Each piece at the reference speed, in seconds."""
        return [wall * scale for wall, scale in zip(self.wall, self.scale)]

    def slowness(self) -> float:
        """The machine's mean slowness over every reading."""
        return statistics.fmean(self.readings) / REFERENCE_SECONDS


@dataclass
class Request:
    """One generated request, described before it is served."""

    index: int
    query: str
    engine: str
    payload: Any = None
    limit: Optional[int] = None


@dataclass
class Run:
    """Everything one benchmark run measures."""

    workload: str
    seed: int
    latencies: List[float] = field(default_factory=list)
    #: (kind, seconds) of layout writes (fail, heal, adaptation rounds)
    writes: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: timed seconds of the closed-loop phase (requests + writes)
    busy: float = 0.0
    traced_busy: float = 0.0
    traced_requests: int = 0
    untraced_busy: float = 0.0
    untraced_requests: int = 0
    #: exact counts over the deterministic prefix of the request stream
    ledger: Dict[str, float] = field(default_factory=dict)
    #: per request, timed seconds (request + write), with the speed
    #: read after every :data:`SPEED_EVERY` of them
    watch: Stopwatch = field(default_factory=lambda: Stopwatch(SPEED_EVERY, 1))

    def count(self, name: str, amount: float = 1) -> None:
        self.ledger[name] = self.ledger.get(name, 0) + amount

    def fail(self, request: Request, reason: str) -> None:
        """Record one wrong answer or exception, and log it."""
        entry = {
            "workload": self.workload,
            "seed": self.seed,
            "request": request.index,
            "query": request.query,
            "engine": request.engine,
            "reason": reason,
        }
        self.failures.append(entry)
        if len(self.failures) <= ECHOED_FAILURES:
            print(f"perfbench: FAILED {json.dumps(entry)}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def latencies_at_reference(self) -> List[float]:
        """Per-request latencies at the reference speed."""
        return [
            latency * scale for latency, scale in zip(self.latencies, self.watch.scale)
        ]


class Workload(Protocol):
    """What the closed loop drives; see ``workloads.py``."""

    name: str
    #: requests per round (the loop stops only at round boundaries)
    round_size: int
    #: the first *prefix* requests feed the determinism ledger
    prefix: int

    def prepare(self, index: int) -> Request: ...

    def write(self, index: int, run: Run, probe: Probe) -> None: ...

    def serve(self, request: Request, probe: Probe) -> Any: ...

    def check(self, request: Request, outcome: Any, run: Run) -> Optional[str]: ...

    def session(self) -> Any: ...


def closed_loop(workload: Workload, run: Run, probe: Probe, seconds: float) -> None:
    """Serve whole rounds until the time and sample floors are met.

    With tracing on, rounds alternate traced / untraced, so the
    overhead ratio compares like with like.
    """
    index = 0
    rounds = 0
    minimum = max(MIN_REQUESTS, workload.prefix)
    while True:
        traced = probe.enabled and rounds % 2 == 0
        with probe.tracing(traced, workload.session()):
            for _ in range(workload.round_size):
                request = workload.prepare(index)
                before = time.perf_counter()
                workload.write(index, run, probe)
                wrote = time.perf_counter() - before
                outcome = None
                started = time.perf_counter()
                try:
                    with probe.span("request", index=index, query=request.query):
                        outcome = workload.serve(request, probe)
                except Exception as exc:  # noqa: BLE001 - counted and logged, loop goes on
                    error: Optional[str] = f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - started
                else:
                    elapsed = time.perf_counter() - started
                    error = workload.check(request, outcome, run)
                run.attempted += 1
                run.latencies.append(elapsed)
                run.watch.add(elapsed + wrote)
                run.busy += elapsed + wrote
                if traced:
                    run.traced_busy += elapsed + wrote
                    run.traced_requests += 1
                else:
                    run.untraced_busy += elapsed + wrote
                    run.untraced_requests += 1
                if error is not None:
                    run.fail(request, error)
                    if index < workload.prefix:
                        run.count("errors")
                index += 1
        rounds += 1
        if run.busy >= seconds and index >= minimum and (not probe.enabled or rounds >= 2):
            run.watch.finish()
            return


def check_determinism(ledger: Dict[str, float], state: Path) -> Optional[str]:
    """Compare the ledger with the one an earlier run of this seed left.

    Returns a description of the drift, or ``None`` when the counts
    repeat (or this is the first run of the seed in this checkout).
    """
    if state.exists():
        previous = json.loads(state.read_text())
        drift = {
            key: (previous.get(key), ledger.get(key))
            for key in sorted(set(previous) | set(ledger))
            if previous.get(key) != ledger.get(key)
        }
        if drift:
            return f"deterministic counts drifted from an earlier run: {drift}"
        return None
    state.parent.mkdir(parents=True, exist_ok=True)
    state.write_text(json.dumps(ledger, sort_keys=True))
    return None
