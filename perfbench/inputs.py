"""Seeded input generation: everything the benchmark hands the program.

The program under test only ever receives generated inputs: an
N-Triples file, SPARQL query text, and statistics catalogs.  Every
function here is a pure function of its arguments (string-seeded
``random.Random`` instances are independent of ``PYTHONHASHSEED``), so
one ``--seed`` always yields the same inputs.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core import StatisticsCatalog
from repro.core.join_graph import QueryShape
from repro.rdf import RDFGraph, save_ntriples
from repro.sparql import BGPQuery
from repro.workloads import generate_lubm, generate_query, lubm_queries

#: seed of the paper's random workload (``generate_workload``'s default):
#: query *structures* are fixed per (shape, size) cell, as in the paper,
#: and ``--seed`` draws the statistics and the request order
POOL_SEED = 2017

LUBM_NAMES = tuple(f"L{i}" for i in range(1, 11))


def sparql_text(query: BGPQuery) -> str:
    """*query* as SPARQL text the repro parser accepts."""
    head = " ".join(str(v) for v in query.projection) or "*"
    body = "\n  ".join(str(tp) for tp in query.patterns)
    return f"SELECT {head} WHERE {{\n  {body}\n}}\n"


def query_pool(cells: Sequence[Tuple[str, int]]) -> List[Tuple[str, str]]:
    """``(name, SPARQL text)``: one random query per (shape, size) cell."""
    rng = random.Random(POOL_SEED)
    pool = []
    for shape, size in cells:
        name = f"{shape}-{size}"
        query = generate_query(
            QueryShape(shape), size, random.Random(rng.randrange(2**31)), name=name
        )
        pool.append((name, sparql_text(query)))
    return pool


def reference_statistics(query: BGPQuery) -> StatisticsCatalog:
    """The fixed statistics draw the warm-up (and ``plan_cost_sum``) uses."""
    return StatisticsCatalog.from_random(query, random.Random(f"reference/{query.name}"))


def request_statistics(query: BGPQuery, round_: int) -> StatisticsCatalog:
    """The paper's random statistics for one timed request.

    Keyed on the round and the query only: round *r* asks every seed
    for the same searches, and the seed changes only their order
    (:func:`round_order`), so a spread across seeds is timing noise,
    not a different amount of search work.
    """
    return StatisticsCatalog.from_random(
        query, random.Random(f"stats/{round_}/{query.name}")
    )


def round_order(cells: int, seed: int, round_: int) -> List[int]:
    """A seeded permutation of the pool for one round."""
    order = list(range(cells))
    random.Random(f"{seed}/order/{round_}").shuffle(order)
    return order


def write_lubm(path: Path) -> RDFGraph:
    """Write the LUBM dataset as N-Triples; return the generator's graph.

    The returned graph is the unpartitioned oracle input; the program
    itself only ever sees the file.
    """
    dataset = generate_lubm()
    path.parent.mkdir(parents=True, exist_ok=True)
    save_ntriples(dataset.graph, path)
    return dataset.graph


def lubm_texts() -> Dict[str, str]:
    """SPARQL text for L1-L10."""
    return {name: sparql_text(query) for name, query in lubm_queries().items()}


def zipf_sequence(seed: int, names: Sequence[str], block: int) -> Iterator[str]:
    """An endless Zipf-skewed stream (exponent 1) over *names*; rank =
    list position.

    Every *block* consecutive requests hold each name in its Zipf share
    (largest-remainder rounding) in a seeded order: the seed changes the
    order, never the mix, so a run's cost does not depend on how many
    heavy queries a draw happened to pick.
    """
    weights = [1.0 / (rank + 1) for rank in range(len(names))]
    quotas = [block * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(names)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: block - sum(counts)]:
        counts[i] += 1
    requests = [name for name, count in zip(names, counts) for _ in range(count)]
    rng = random.Random(f"{seed}/zipf")
    while True:
        rng.shuffle(requests)
        yield from list(requests)


def churn_sequence(seed: int, hot: Sequence[str], cold: Sequence[str]) -> Iterator[str]:
    """80% of requests from the *hot* names, 20% from the *cold* ones."""
    rng = random.Random(f"{seed}/churn")
    while True:
        yield rng.choice(hot) if rng.random() < 0.8 else rng.choice(cold)


def fault_target(seed: int, index: int, workers: int) -> int:
    """The worker that fails at request *index*."""
    return random.Random(f"{seed}/fault/{index}").randrange(workers)
