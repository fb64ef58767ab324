"""The four workloads.  See NOTES.md for why each exists.

Each workload has a *setup* (timed several times, ``setup_s``), a
*warm-up* that answers every distinct query once on a cold session
(``warmup_s``, and the deterministic ``plan_cost_sum``), and a request
stream the closed loop in ``harness.py`` serves: ``prepare`` (untimed
input generation), ``write`` (timed layout writes), ``serve`` (the
timed request) and ``check`` (untimed answer check).
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import Request, Run, Stopwatch
from inputs import (
    LUBM_NAMES,
    churn_sequence,
    fault_target,
    lubm_texts,
    query_pool,
    reference_statistics,
    request_statistics,
    round_order,
    write_lubm,
    zipf_sequence,
)
from probe import Probe
from repro.analysis import PlanVerifier, VerificationContext
from repro.core import OptimizeOptions, Optimizer, PlanCache
from repro.engine import Cluster, Executor, evaluate_reference
from repro.partitioning import AdaptiveCluster, HashSubjectObject, SemanticHash
from repro.rdf import Dataset, load_ntriples
from repro.sparql import parse_query

WORKERS = 4

#: warm-up answers are never traced
_QUIET = Probe(False)


@dataclass
class Answer:
    """What serving one request returned."""

    result: Any  # the OptimizationResult
    query: Any = None
    relation: Any = None
    metrics: Any = None
    #: adaptation report of this request's observation, if a round ran
    report: Any = None
    observe_seconds: float = 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class _Base:
    """State, warm-up and per-layer bookkeeping shared by every workload."""

    name = ""
    round_size = 1
    prefix = 1
    #: set-ups before each warm-up; their mean is one sample of
    #: ``setup_s`` (the optimizer-only set-up takes milliseconds, so a
    #: sample averages many)
    setups_per_warmup = 50
    #: cores a request keeps busy; the speed readings for warm-ups and
    #: requests keep as many busy (set-ups run on one)
    cores = 1

    def __init__(self, seed: int, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self._session: Any = None
        #: per-layer values that are not exact counts (timings the
        #: program measures itself, parallel-search balance, ...)
        self.samples: Dict[str, List[float]] = {}
        #: per-layer values fixed by set-up or taken at the prefix end
        self.static: Dict[str, float] = {}
        self._cache_start = (0, 0, 0)
        self._cache_prefix = (0, 0, 0)
        #: peak RSS (MB) when the ledger prefix ends: a fixed amount of
        #: work, where the peak at the end of the run would grow with the
        #: number of requests a faster machine serves (the session's
        #: per-query caches keep every request)
        self.prefix_rss_mb = 0.0

    def session(self) -> Any:
        return self._session

    def release(self) -> None:
        """Drop the last set-up's state, so the next one does not build
        beside it (``peak_rss_mb`` then covers one set-up at a time)."""
        self._session = None

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def write(self, index: int, run: Run, probe: Probe) -> None:
        """No layout writes unless a workload overrides this."""

    def serve(self, request: Request, probe: Probe) -> Answer:
        return self.answer(request, probe)

    def warmup(self, run: Run, watch: Stopwatch) -> float:
        """Answer each distinct query once, timing the answers on
        *watch*; return the plan cost sum."""
        cost = 0.0
        for request in self.warmup_requests():
            try:
                with watch.piece():
                    answer = self.answer(request, _QUIET)
            except Exception as exc:  # noqa: BLE001 - counted and logged
                error: Optional[str] = f"{type(exc).__name__}: {exc}"
            else:
                error = self.verify(request, answer)
                cost += answer.result.cost
            run.attempted += 1
            if error is not None:
                run.fail(request, error)
        watch.finish()
        self._cache_start = self._cache_counts()
        return cost

    def check(self, request: Request, answer: Answer, run: Run) -> Optional[str]:
        if request.index < self.prefix:
            self.count(request, answer, run)
            if request.index == self.prefix - 1:
                self._cache_prefix = self._cache_counts()
                self.prefix_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self.verify(request, answer)

    def count(self, request: Request, answer: Answer, run: Run) -> None:
        """Ledger and per-layer counts for one request of the prefix."""
        result = answer.result
        if result.algorithm.endswith("+cache"):
            return  # a plan-cache hit did no search
        stats = result.stats
        run.count("plans_considered", stats.plans_considered)
        run.count("divisions_enumerated", stats.divisions_enumerated)
        run.count("memo_hits", stats.memo_hits)
        run.count("local_short_circuits", stats.local_short_circuits)
        for choice in ("td-cmd", "td-cmdp"):
            if f"[{choice.upper()}]" in result.algorithm:
                run.count(f"auto.{choice}")
        if stats.workers > 1:
            run.count("memo_shard.steals", stats.steals)
            self.sample("memo_shard.pool_startup_ms", stats.pool_startup_seconds * 1e3)
            self.sample("memo_shard.worker_balance", stats.worker_balance)
            self.sample("memo_shard.speedup", stats.speedup)

    def _cache_counts(self) -> Tuple[int, int, int]:
        if self._session.plan_cache is None:
            return 0, 0, 0
        stats = self._session.plan_cache.stats
        return stats.hits, stats.lookups, stats.evictions

    def tuples_shipped_per_query(self, run: Run) -> float:
        """Mean tuples shipped per columnar request of the prefix."""
        requests = run.ledger.get("columnar_requests", 0)
        return run.ledger.get("tuples_shipped", 0) / requests if requests else 0.0

    def layer_values(self, run: Run) -> Dict[str, float]:
        """Per-layer counts and self-measured values (no span timings)."""
        ledger = run.ledger
        hits, lookups, evictions = (
            after - before for before, after in zip(self._cache_start, self._cache_prefix)
        )
        values = {
            "core.plan_cache.hit_ratio": hits / lookups if lookups else 0.0,
            "core.plan_cache.lookups": lookups,
            "core.plan_cache.evictions": evictions,
            "core.plans_considered": ledger.get("plans_considered", 0),
            "core.divisions_enumerated": ledger.get("divisions_enumerated", 0),
            "core.memo_hits": ledger.get("memo_hits", 0),
            "core.local_short_circuits": ledger.get("local_short_circuits", 0),
            "core.auto.td-cmd": ledger.get("auto.td-cmd", 0),
            "core.auto.td-cmdp": ledger.get("auto.td-cmdp", 0),
            "core.memo_shard.steals": ledger.get("memo_shard.steals", 0),
            "engine.executor.tuples_read": ledger.get("tuples_read", 0),
            "engine.executor.tuples_shipped": ledger.get("tuples_shipped", 0),
            "engine.executor.tuples_produced": ledger.get("tuples_produced", 0),
            "engine.executor.critical_path_cost": ledger.get("critical_path_cost", 0),
            "engine.pipelined.peak_buffered_rows": max(
                self.samples.get("pipelined.peak_buffered_rows", [0])
            ),
        }
        for name in (
            "memo_shard.pool_startup_ms",
            "memo_shard.worker_balance",
            "memo_shard.speedup",
            "pipelined.first_row_ms",
        ):
            layer = "engine" if name.startswith("pipelined") else "core"
            values[f"{layer}.{name}"] = _mean(self.samples.get(name, []))
        values.update(self.static)
        return values


# ----------------------------------------------------------------------
# optimizer-only workloads
# ----------------------------------------------------------------------
class PlanSearch(_Base):
    """TD-Auto, serial, partition-aware under 2f; no data at all."""

    name = "plan-search"
    algorithm = "td-auto"
    jobs = 1
    #: every round repeats the warm-up's searches (its statistics, no
    #: plan cache) instead of drawing new statistics per round
    repeat_rounds = False
    #: every shape of the paper's generator from its smallest size to 13
    #: patterns: 57 cells.  An odd cell count puts the latency median
    #: inside one cell's samples rather than between two cells.
    cells: Tuple[Tuple[str, int], ...] = tuple(
        (shape, size)
        for shape, smallest in (
            ("chain", 2), ("cycle", 3), ("star", 2), ("tree", 2), ("dense", 4)
        )
        for size in range(smallest, 14)
    )

    def __init__(self, seed: int, trace: bool, workdir: Path) -> None:
        super().__init__(seed, trace, workdir)
        self.method = SemanticHash(2)
        self.pool = query_pool(self.cells)
        self.round_size = len(self.pool)
        self.prefix = len(self.pool)
        self.queries: List[Any] = []
        self._order: Tuple[int, List[int]] = (-1, [])

    def setup(self, probe: Probe) -> None:
        self.queries = [parse_query(text, name=name) for name, text in self.pool]
        self._session = Optimizer(
            OptimizeOptions(
                algorithm=self.algorithm,
                jobs=self.jobs,
                partitioning=self.method,
                plan_cache=None if self.repeat_rounds else PlanCache(),
                trace=self.trace,
            )
        )

    def warmup_requests(self) -> Iterator[Request]:
        for position, query in enumerate(self.queries):
            payload = (query, reference_statistics(query))
            yield Request(-1 - position, query.name, "optimizer", payload)

    def prepare(self, index: int) -> Request:
        round_, position = divmod(index, self.round_size)
        if self._order[0] != round_:
            self._order = (round_, round_order(len(self.queries), self.seed, round_))
        query = self.queries[self._order[1][position]]
        if self.repeat_rounds:
            catalog = reference_statistics(query)
        else:
            catalog = request_statistics(query, round_)
        return Request(index, query.name, "optimizer", (query, catalog))

    def _optimize(self, query: Any, catalog: Any) -> Any:
        self._session.prime_statistics(query, catalog)
        return self._session.optimize(query)

    def answer(self, request: Request, probe: Probe) -> Answer:
        query, catalog = request.payload
        return Answer(probe.call("core.optimize", self._optimize, query, catalog))

    def verify(self, request: Request, answer: Answer) -> Optional[str]:
        query, catalog = request.payload
        result = answer.result
        context = VerificationContext.for_query(
            query,
            statistics=catalog,
            partitioning=self.method,
            algorithm=result.algorithm,
        )
        report = PlanVerifier(context).verify(result.plan)
        if report.ok:
            return None
        return f"plan verifier: {', '.join(report.codes())}"


class PlanSearchParallel(PlanSearch):
    """TD-CMDP with ``jobs=2`` through the memo-sharded parallel search."""

    name = "plan-search-parallel"
    algorithm = "td-cmdp"
    jobs = 2
    cores = 2
    #: star, tree and dense queries of 9-13 patterns: 15 cells, so that
    #: p50 (7.5 cells) and p90 (13.5 cells) each fall mid-way into one
    #: cell's samples rather than on the edge between two cells
    cells = tuple(
        (shape, size) for shape in ("star", "tree", "dense") for size in range(9, 14)
    )
    #: a run completes only ~15 rounds, so with fresh statistics per
    #: round its latency percentiles depend on which rounds it reached
    repeat_rounds = True


# ----------------------------------------------------------------------
# data workloads
# ----------------------------------------------------------------------
class LubmServe(_Base):
    """Warm serving of L1-L10 as SPARQL text, columnar engine, 2f."""

    name = "lubm-serve"
    round_size = 50
    prefix = 200
    setups_per_warmup = 1
    adaptive = False

    def __init__(self, seed: int, trace: bool, workdir: Path) -> None:
        super().__init__(seed, trace, workdir)
        self.path = workdir / "lubm.nt"
        graph = write_lubm(self.path)
        self.texts = lubm_texts()
        self.oracle = {}
        for name, text in self.texts.items():
            expected = evaluate_reference(parse_query(text, name=name), graph)
            self.oracle[name] = (expected.variables, expected.rows)
        self._stream = self.sequence()
        self._names: List[str] = []
        self.cluster: Any = None
        self.executors: Dict[str, Executor] = {}

    def release(self) -> None:
        super().release()
        self.cluster = None
        self.executors = {}

    def method(self) -> Any:
        return SemanticHash(2)

    def sequence(self) -> Iterator[str]:
        return zipf_sequence(self.seed, LUBM_NAMES, self.round_size)

    def options(self, dataset: Dataset) -> OptimizeOptions:
        return OptimizeOptions(
            algorithm="td-auto",
            dataset=dataset,
            partitioning=self.method(),
            plan_cache=PlanCache(),
            trace=self.trace,
        )

    def engines(self) -> Tuple[str, ...]:
        return ("columnar",)

    def setup(self, probe: Probe) -> None:
        method = self.method()
        graph = probe.call("rdf.load", load_ntriples, self.path)
        dataset = probe.call("rdf.dataset", Dataset, graph)
        partitioning = probe.call(
            "partitioning.partition", method.partition, dataset, WORKERS
        )
        if self.adaptive:
            cluster = probe.call(
                "engine.cluster.build",
                AdaptiveCluster,
                partitioning,
                dataset.dictionary,
                dataset=dataset,
                base_method=method,
            )
        else:
            cluster = probe.call(
                "engine.cluster.build", Cluster, partitioning, dataset.dictionary
            )
        probe.call("engine.cluster.encode", cluster.worker_fragments)
        self.cluster = cluster
        self._session = Optimizer(self.options(dataset))
        self.executors = {
            engine: Executor(cluster, engine=engine) for engine in self.engines()
        }
        self.static = {
            "rdf.triples": len(graph),
            "rdf.terms": len(dataset.dictionary),
            "partitioning.replication_factor": partitioning.replication_factor(
                len(graph)
            ),
            "partitioning.imbalance": partitioning.imbalance(),
        }

    def warmup_requests(self) -> Iterator[Request]:
        for position, name in enumerate(LUBM_NAMES):
            yield Request(-1 - position, name, "columnar", self.texts[name])

    def prepare(self, index: int) -> Request:
        while len(self._names) <= index:
            self._names.extend(islice(self._stream, 64))
        name = self._names[index]
        return Request(index, name, "columnar", self.texts[name])

    def answer(self, request: Request, probe: Probe) -> Answer:
        session = self._session
        query = probe.call("sparql.parse", parse_query, request.payload, name=request.query)
        probe.call("core.cardinality.resolve", session.resolve_statistics, query)
        result = probe.call("core.optimize", session.optimize, query)
        layer = (
            "engine.pipelined.execute"
            if request.engine == "pipelined"
            else "engine.executor.execute"
        )
        relation, metrics = probe.call(
            layer,
            self.executors[request.engine].execute,
            result.plan,
            query,
            limit=request.limit,
        )
        return Answer(result, query, relation, metrics)

    def count(self, request: Request, answer: Answer, run: Run) -> None:
        super().count(request, answer, run)
        metrics = answer.metrics
        if request.engine == "pipelined":
            self.sample("pipelined.first_row_ms", (metrics.first_row_seconds or 0.0) * 1e3)
            self.sample("pipelined.peak_buffered_rows", metrics.peak_buffered_rows)
            return
        run.count("columnar_requests")
        run.count("tuples_shipped", metrics.total_tuples_shipped)
        run.count("tuples_read", metrics.total_tuples_read)
        run.count("tuples_produced", metrics.total_tuples_produced)
        run.count("critical_path_cost", metrics.critical_path_cost)

    def verify(self, request: Request, answer: Answer) -> Optional[str]:
        variables, expected = self.oracle[request.query]
        relation = answer.relation
        rows = relation.rows
        if tuple(relation.variables) != tuple(variables):
            return f"variables {relation.variables} != expected {variables}"
        if request.limit is None:
            if rows == expected:
                return None
            return (
                f"{len(rows)} rows, expected {len(expected)} "
                f"({len(expected - rows)} missing, {len(rows - expected)} extra)"
            )
        want = min(request.limit, len(expected))
        if len(rows) == want and rows <= expected:
            return None
        return (
            f"LIMIT {request.limit}: {len(rows)} rows, expected {want}, "
            f"{len(rows - expected)} not in the reference answer"
        )


class LubmChurn(LubmServe):
    """Layout writes beside reads: adaptive Hash-SO cluster with faults.

    80% of requests are the heavy-shipping L7/L8; every fifth request
    is a streaming ``LIMIT 10`` on the pipelined engine.  A seeded
    worker fails every 60 requests and is healed 20 requests later.
    """

    name = "lubm-churn"
    prefix = 300
    adaptive = True
    limit = 10
    fail_every = 60
    fail_at = 30
    heal_after = 20

    def __init__(self, seed: int, trace: bool, workdir: Path) -> None:
        super().__init__(seed, trace, workdir)
        self.proposed = 0
        self.applied = 0

    def method(self) -> Any:
        return HashSubjectObject()

    def sequence(self) -> Iterator[str]:
        hot = ("L7", "L8")
        cold = tuple(name for name in LUBM_NAMES if name not in hot)
        return churn_sequence(self.seed, hot, cold)

    def options(self, dataset: Dataset) -> OptimizeOptions:
        return OptimizeOptions(
            algorithm="td-auto",
            dataset=dataset,
            plan_cache=PlanCache(),
            adapt=True,
            adapt_every=16,
            trace=self.trace,
        )

    def engines(self) -> Tuple[str, ...]:
        return ("columnar", "pipelined")

    def setup(self, probe: Probe) -> None:
        super().setup(probe)
        self._session.bind_cluster(self.cluster)

    def prepare(self, index: int) -> Request:
        request = super().prepare(index)
        if index % 5 == 4:
            request.engine = "pipelined"
            request.limit = self.limit
        return request

    def write(self, index: int, run: Run, probe: Probe) -> None:
        phase = index % self.fail_every
        if phase == self.fail_at:
            worker = fault_target(self.seed, index, WORKERS)
            kind, call = "fail", lambda: self.cluster.fail_worker(worker)
        elif phase == self.fail_at + self.heal_after:
            kind, call = "heal", self.cluster.heal
        else:
            return
        started = time.perf_counter()
        try:
            probe.call(f"engine.cluster.{kind}", call)
        except Exception as exc:  # noqa: BLE001 - counted and logged
            run.attempted += 1
            run.fail(Request(index, kind, "cluster"), f"{type(exc).__name__}: {exc}")
        run.writes.append((kind, time.perf_counter() - started))

    def serve(self, request: Request, probe: Probe) -> Answer:
        answer = self.answer(request, probe)
        started = time.perf_counter()
        answer.report = probe.call(
            "partitioning.adaptive.observe",
            self._session.observe_execution,
            answer.query,
            answer.metrics,
        )
        answer.observe_seconds = time.perf_counter() - started
        return answer

    def check(self, request: Request, answer: Answer, run: Run) -> Optional[str]:
        report = answer.report
        if report is not None and report.changed:
            run.writes.append(("adapt", answer.observe_seconds))
        return super().check(request, answer, run)

    def count(self, request: Request, answer: Answer, run: Run) -> None:
        super().count(request, answer, run)
        report = answer.report
        if report is not None:
            self.proposed += len(report.applied) + len(report.skipped)
            self.applied += len(report.applied)
        if request.index == self.prefix - 1:
            self.static["partitioning.adaptive.migrations"] = self.cluster.migrations
            self.static["partitioning.adaptive.replicated_triples"] = (
                self.cluster.replicated_triples
            )
            self.static["partitioning.adaptive.applied_ratio"] = (
                self.applied / self.proposed if self.proposed else 0.0
            )


WORKLOADS = {
    cls.name: cls for cls in (PlanSearch, LubmServe, LubmChurn, PlanSearchParallel)
}
