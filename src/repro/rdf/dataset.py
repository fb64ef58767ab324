"""Dataset container with global statistics.

A :class:`Dataset` bundles an :class:`~repro.rdf.triples.RDFGraph` with
the summary statistics the optimizer's cardinality estimator consumes:
per-predicate triple counts and distinct subject/object counts, plus a
memo of exact per-pattern counts (``|tp|`` and ``B(tp, v)``).  The
statistics mirror what RDF-3X exposes to its optimizer in the paper's
prototype, where the per-pattern counts come from aggregate indexes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, Union

from .encoding import EncodedGraph, TermDictionary
from .terms import PatternTerm, Term, Variable
from .triples import RDFGraph, Triple

if TYPE_CHECKING:  # pragma: no cover - the sparql layer sits above rdf
    from ..sparql.ast import TriplePattern

#: a pattern's canonical form: constants as they are, each variable
#: replaced by the position of its first occurrence in the pattern
PatternKey = Tuple[Union[Term, int], ...]

#: ``(|tp|, B(tp, v) per distinct variable in first-occurrence order)``
PatternCounts = Tuple[float, Tuple[float, ...]]


@dataclass
class PredicateStatistics:
    """Summary statistics for one predicate."""

    triple_count: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0


class Dataset:
    """An RDF graph plus the statistics the optimizer needs.

    Predicate statistics are computed once on construction (or
    :meth:`refresh`) and then served in O(1).  Per-pattern statistics
    are computed on first request and memoized by pattern shape
    (:meth:`pattern_statistics`).
    """

    def __init__(self, graph: Optional[RDFGraph] = None, name: str = "dataset") -> None:
        self.graph = graph if graph is not None else RDFGraph()
        self.name = name
        self._predicate_stats: Dict[Term, PredicateStatistics] = {}
        #: the dataset-wide term↔id interning table; worker fragments of
        #: any cluster built from this dataset share it, so ids are
        #: join-compatible across the whole cluster
        self.dictionary = TermDictionary()
        self._encoded: Optional[EncodedGraph] = None
        self._pattern_counts: Dict[PatternKey, PatternCounts] = {}
        #: patterns that missed the per-pattern memo and scanned the graph
        self.pattern_scans = 0
        self.refresh()

    @classmethod
    def from_triples(cls, triples: Iterable[Triple], name: str = "dataset") -> "Dataset":
        return cls(RDFGraph(triples), name=name)

    def refresh(self) -> None:
        """Recompute all statistics from the current graph contents.

        The same single pass feeds the :class:`TermDictionary`, so
        loading a dataset never iterates the full graph a second time
        just to intern terms.  Interning is idempotent: terms that were
        already assigned ids keep them across refreshes.
        """
        subjects: Dict[Term, set] = defaultdict(set)
        objects: Dict[Term, set] = defaultdict(set)
        counts: Dict[Term, int] = defaultdict(int)
        encode = self.dictionary.encode
        for t in self.graph:
            counts[t.predicate] += 1
            subjects[t.predicate].add(t.subject)
            objects[t.predicate].add(t.object)
            encode(t.subject)
            encode(t.predicate)
            encode(t.object)
        self._encoded = None
        self._pattern_counts = {}
        self._predicate_stats = {
            p: PredicateStatistics(
                triple_count=counts[p],
                distinct_subjects=len(subjects[p]),
                distinct_objects=len(objects[p]),
            )
            for p in counts
        }

    def encoded_graph(self) -> EncodedGraph:
        """The whole dataset as one :class:`EncodedGraph` (cached).

        Single-node columnar evaluation and tests use this; clusters
        encode per-worker fragments instead (sharing
        :attr:`dictionary`), so this is only built on demand.
        """
        if self._encoded is None:
            self._encoded = EncodedGraph.from_graph(self.graph, self.dictionary)
        return self._encoded

    # ------------------------------------------------------------------
    # statistics accessors
    # ------------------------------------------------------------------
    @property
    def triple_count(self) -> int:
        """Number of triples in the underlying graph."""
        return len(self.graph)

    def predicate_statistics(self, predicate: Term) -> PredicateStatistics:
        """Statistics for *predicate* (zeros if unseen)."""
        return self._predicate_stats.get(predicate, PredicateStatistics())

    def predicate_cardinality(self, predicate: Term) -> int:
        """Triple count for *predicate* (zero if unseen)."""
        return self.predicate_statistics(predicate).triple_count

    def pattern_statistics(self, pattern: "TriplePattern") -> PatternCounts:
        """Exact ``(|tp|, B(tp, v)...)`` for *pattern*, memoized by shape.

        The memo key is the pattern's canonical form, so alpha-renamed
        patterns (``?a p ?b`` and ``?s p ?o``) share one entry while
        ``?x p ?x`` and ``?x p ?y`` stay distinct.  Binding counts are
        listed per distinct variable in first-occurrence order.  A miss
        scans the matching triples once; :meth:`refresh` empties the
        memo.
        """
        terms = pattern.terms()
        first: Dict[Variable, int] = {}
        key: PatternKey = tuple(
            first.setdefault(term, position) if isinstance(term, Variable) else term
            for position, term in enumerate(terms)
        )
        counts = self._pattern_counts.get(key)
        if counts is None:
            counts = self._scan_pattern(key, terms)
            self._pattern_counts[key] = counts
            self.pattern_scans += 1
        return counts

    def _scan_pattern(
        self, key: PatternKey, terms: Tuple[PatternTerm, PatternTerm, PatternTerm]
    ) -> PatternCounts:
        """Cardinality and distinct-binding counts in one pass.

        Each matching triple is touched once; a variable repeated in
        the pattern collects the union of its positions' values.
        """
        slots: List[Tuple[int, int]] = [
            (first, position)
            for position, first in enumerate(key)
            if isinstance(terms[position], Variable)
        ]
        values: Dict[int, Set[Term]] = {first: set() for first, _ in slots}
        count = 0
        for t in self.graph.match(*terms):
            count += 1
            matched = t.terms()
            for first, position in slots:
                values[first].add(matched[position])
        return (
            float(max(count, 1)),
            tuple(float(max(len(vals), 1)) for vals in values.values()),
        )

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {self.triple_count} triples)"
