#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lubm-serve --seed 1 --seconds 15 --trace 0

Workloads: ``plan-search``, ``lubm-serve``, ``lubm-churn`` and
``plan-search-parallel`` (NOTES.md says why each exists).  Every answer
is checked; wrong answers and exceptions are logged to stderr and
counted, never retried.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off),
their timings at a reference speed of the machine, which NOTES.md
explains (the summary lines also give them in wall-clock time);
with ``--trace 1`` they are the per-layer ones, taken from a run whose
rounds alternate between traced and untraced, and the run also writes a
Chrome trace and a per-span self-time table to ``perfbench/out/``.
Exit status: 0 after a run (whatever it found), 2 when the program or
the arguments are unusable.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: request-path layers: benchmark span names; each gives ``<name>_ms``
#: (mean busy ms per call) and ``<name>_share`` (of traced request time)
REQUEST_LAYERS = (
    "sparql.parse",
    "core.cardinality.resolve",
    "core.optimize",
    "engine.executor.execute",
    "engine.pipelined.execute",
    "partitioning.adaptive.observe",
)
#: set-up and write layers: ``<name>_ms`` is the mean busy ms per call
CALL_LAYERS = (
    "rdf.load",
    "rdf.dataset",
    "partitioning.partition",
    "engine.cluster.build",
    "engine.cluster.encode",
    "engine.cluster.fail",
    "engine.cluster.heal",
)
#: every other per-layer metric, with its unit; a workload that does
#: not exercise a layer reports 0 for it
LAYER_VALUES = (
    ("core.cardinality.calls", "per-request"),
    ("rdf.triples", "count"),
    ("rdf.terms", "count"),
    ("partitioning.replication_factor", "ratio"),
    ("partitioning.imbalance", "ratio"),
    ("core.plan_cache.hit_ratio", "fraction"),
    ("core.plan_cache.lookups", "count"),
    ("core.plan_cache.evictions", "count"),
    ("core.plans_considered", "count"),
    ("core.divisions_enumerated", "count"),
    ("core.memo_hits", "count"),
    ("core.local_short_circuits", "count"),
    ("core.auto.td-cmd", "count"),
    ("core.auto.td-cmdp", "count"),
    ("core.memo_shard.pool_startup_ms", "ms"),
    ("core.memo_shard.steals", "count"),
    ("core.memo_shard.worker_balance", "ratio"),
    ("core.memo_shard.speedup", "ratio"),
    ("engine.executor.tuples_read", "tuples"),
    ("engine.executor.tuples_shipped", "tuples"),
    ("engine.executor.tuples_produced", "tuples"),
    ("engine.executor.critical_path_cost", "cost"),
    ("engine.pipelined.first_row_ms", "ms"),
    ("engine.pipelined.peak_buffered_rows", "rows"),
    ("partitioning.adaptive.migrations", "count"),
    ("partitioning.adaptive.replicated_triples", "triples"),
    ("partitioning.adaptive.applied_ratio", "fraction"),
    ("observability.trace_overhead", "ratio"),
)


#: cold warm-ups per run; ``warmup_s`` is their median
WARMUPS = 5
#: set-ups and warm-ups: timed seconds between two readings of the
#: machine's speed, and runs of the reference work per reading (their
#: median: a set-up or warm-up is timed between few readings, so each
#: must not be thrown by one swing of the machine's speed)
READ_EVERY = 0.05
READ_REPEATS = 3
#: the end-to-end metrics ``BENCHMARK.json`` bounds, printed with
#: ``--trace 0``; ``--trace 1`` prints the others with the per-layer ones
BOUNDED = (
    "setup_s",
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "plan_cost_sum",
    "peak_rss_mb",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_fingerprint() -> str:
    """Hash of the benchmark and program sources (keys the ledger)."""
    digest = hashlib.sha256()
    files = sorted(HERE.glob("*.py")) + sorted((ROOT / "src").rglob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def percentile(values: List[float], fraction: float) -> float:
    """The *fraction* quantile (inclusive method of statistics.quantiles)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(
    workload: Any, run: Any, setups: List[Any], warmups: List[Any], plan_cost_sum: float
) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric.  The timings are at the reference speed;
    their ``wall.`` twins are the same timings in wall-clock time."""
    latencies = run.latencies_at_reference()
    writes = [seconds for _, seconds in run.writes]
    return {
        "setup_s": (statistics.median(statistics.fmean(w.reference) for w in setups), "s"),
        "warmup_s": (statistics.median(sum(w.reference) for w in warmups), "s"),
        "throughput_qps": (len(latencies) / sum(run.watch.reference), "req/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "plan_cost_sum": (plan_cost_sum, "cost"),
        "peak_rss_mb": (workload.prefix_rss_mb, "MB"),
        "error_rate": (run.error_rate, "fraction"),
        "write_p50_ms": (statistics.median(writes) * 1e3 if writes else 0.0, "ms"),
        "tuples_shipped_per_query": (workload.tuples_shipped_per_query(run), "tuples"),
        "wall.setup_s": (statistics.median(statistics.fmean(w.wall) for w in setups), "s"),
        "wall.warmup_s": (statistics.median(sum(w.wall) for w in warmups), "s"),
        "wall.throughput_qps": (len(run.latencies) / run.busy, "req/s"),
        "wall.latency_p50_ms": (percentile(run.latencies, 0.5) * 1e3, "ms"),
        "wall.latency_p90_ms": (percentile(run.latencies, 0.9) * 1e3, "ms"),
        "machine.slowness": (run.watch.slowness(), "ratio"),
    }


def per_layer(workload: Any, run: Any, probe: Any) -> Dict[str, Tuple[float, str]]:
    totals = probe.totals()
    requests, request_seconds = totals.get("request", (0, 0.0))
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in REQUEST_LAYERS:
        calls, seconds = totals.get(name, (0, 0.0))
        metrics[f"{name}_ms"] = (seconds / calls * 1e3 if calls else 0.0, "ms")
        share = seconds / request_seconds if request_seconds else 0.0
        metrics[f"{name}_share"] = (share, "fraction")
    for name in CALL_LAYERS:
        calls, seconds = totals.get(name, (0, 0.0))
        metrics[f"{name}_ms"] = (seconds / calls * 1e3 if calls else 0.0, "ms")
    values = workload.layer_values(run)
    # the program's own statistics.resolve spans: catalogs built from data
    resolves = totals.get("statistics.resolve", (0, 0.0))[0]
    values["core.cardinality.calls"] = resolves / requests if requests else 0.0
    traced = run.traced_requests / run.traced_busy if run.traced_busy else 0.0
    untraced = run.untraced_requests / run.untraced_busy if run.untraced_busy else 0.0
    values["observability.trace_overhead"] = traced / untraced if untraced else 0.0
    for name, unit in LAYER_VALUES:
        metrics[name] = (values.get(name, 0), unit)
    return metrics


def stop_children() -> None:
    """Make sure no worker process outlives the run."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(
            f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    from harness import SPEED_EVERY, Copies, Run, Stopwatch, check_determinism, closed_loop
    from probe import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    traced = args.trace == 1
    workload = WORKLOADS[args.workload](args.seed, traced, OUT / "work")
    probe = Probe(traced)
    # speed readings for work that keeps several cores busy run as many
    # copies of the reference work at once
    copies = Copies(workload.cores)
    run = Run(args.workload, args.seed, watch=Stopwatch(SPEED_EVERY, 1, copies))

    # the set-ups are spread between the warm-ups, so that their median
    # spans several of the machine's speed spells (seconds long) rather
    # than one; each group of set-ups gives one sample, their mean, as the
    # machine's speed also swings about twofold within tens of ms, which
    # a millisecond set-up would otherwise sample one swing at a time.
    # Every warm-up answers on the cold session the set-up before it
    # left, and the last session serves the timed loop.
    try:
        setups, warmups, costs = [], [], []
        for _ in range(WARMUPS):
            watch = Stopwatch(READ_EVERY, READ_REPEATS)
            for _ in range(workload.setups_per_warmup):
                workload.release()
                gc.collect()
                with probe.tracing(traced), watch.piece():
                    workload.setup(probe)
            watch.finish()
            setups.append(watch)
            watch = Stopwatch(READ_EVERY, READ_REPEATS, copies)
            with probe.tracing(False, workload.session()):
                cost = workload.warmup(run, watch)
            warmups.append(watch)
            costs.append(cost)
        closed_loop(workload, run, probe, args.seconds)
    finally:
        copies.close()
        stop_children()

    ledger = {
        key: run.ledger.get(key, 0)
        for key in ("plans_considered", "divisions_enumerated", "errors")
    }
    ledger["plan_cost_sum"] = costs[0]
    ledger["tuples_shipped_per_query"] = workload.tuples_shipped_per_query(run)
    state = OUT / "state" / f"{args.workload}-{args.seed}-{source_fingerprint()}.json"
    drift = check_determinism(ledger, state)
    if len(set(costs)) > 1:
        drift = f"plan_cost_sum differs between cold warm-ups: {costs}"

    e2e = end_to_end(workload, run, setups, warmups, costs[0])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if traced:
        print("  (a traced run: take end-to-end figures from --trace 0)")
    print(f"  requests {run.attempted} ({len(run.failures)} failed), "
          f"timed {run.busy:.2f} s, {len(run.writes)} layout writes")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(f"  deterministic counts (first {workload.prefix} requests): "
          f"{json.dumps(ledger, sort_keys=True)}")
    if drift is not None:
        print(f"perfbench: DETERMINISM {drift}", file=sys.stderr)
    if run.failures:
        log = OUT / f"failures-{args.workload}-{args.seed}.jsonl"
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text("".join(json.dumps(entry) + "\n" for entry in run.failures))
        print(f"  failures logged to {log.relative_to(ROOT)}")

    if traced:
        table = probe.render_table(probe.totals().get("request", (0, 0.0))[1])
        paths = probe.write(OUT, f"{args.workload}-{args.seed}", table)
        print(table, end="")
        print("  trace files: " + ", ".join(str(p.relative_to(ROOT)) for p in paths))
        metrics = per_layer(workload, run, probe)
        metrics.update((name, e2e[name]) for name in e2e if name not in BOUNDED)
    else:
        metrics = {name: e2e[name] for name in BOUNDED}
    result = {
        "correct": not run.failures and drift is None,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
