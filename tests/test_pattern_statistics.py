"""The dataset's per-pattern statistics memo against the original scan.

``Dataset.pattern_statistics`` memoizes ``|tp|`` and ``B(tp, v)`` by
pattern shape; ``StatisticsCatalog.from_dataset`` maps the memoized
counts back onto each query's variables.  The oracle below is the
per-request scan the memo replaced, kept verbatim: catalogs must match
it value for value and in the same dict order, because plan-cache
fingerprints and plan costs depend on both.
"""

from hypothesis import given, settings, strategies as st

from repro import parse_query
from repro.core import StatisticsCatalog
from repro.core.cardinality import PatternStatistics
from repro.core.session import OptimizeOptions, Optimizer
from repro.rdf import Dataset, triple
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple
from repro.sparql.ast import BGPQuery, TriplePattern


def oracle_catalog(query, dataset):
    """Exact statistics by scanning the dataset once per pattern."""
    entries = []
    for tp in query:
        slots = [
            (term, position)
            for position, term in enumerate(tp.terms())
            if isinstance(term, Variable)
        ]
        values = {v: set() for v, _ in slots}
        count = 0
        for t in dataset.graph.match(tp.subject, tp.predicate, tp.object):
            count += 1
            terms = t.terms()
            for variable, position in slots:
                values[variable].add(terms[position])
        bindings = {v: float(max(len(vals), 1)) for v, vals in values.items()}
        entries.append(
            PatternStatistics(cardinality=float(max(count, 1)), bindings=bindings)
        )
    return StatisticsCatalog(query, entries)


def assert_same_catalog(catalog, expected):
    assert len(catalog.per_pattern) == len(expected.per_pattern)
    for got, want in zip(catalog.per_pattern, expected.per_pattern):
        assert got.cardinality == want.cardinality
        # same keys, values and insertion order
        assert list(got.bindings.items()) == list(want.bindings.items())


NODES = [IRI(f"http://e/n{i}") for i in range(4)]
PREDICATES = [IRI(f"http://e/p{i}") for i in range(3)]
OBJECTS = NODES + [Literal("v")]
VARIABLES = [Variable(name) for name in ("x", "y", "z")]
UNSEEN = IRI("http://e/unseen")

graphs = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
    ),
    max_size=30,
)


def position(constants):
    return st.one_of(st.sampled_from(VARIABLES), st.sampled_from(constants + [UNSEEN]))


patterns = st.builds(
    TriplePattern,
    position(NODES),
    position(PREDICATES),
    position(OBJECTS),
)


def rename(query, suffix):
    """An alpha-renamed copy of *query* (same shapes, new variable names)."""
    fresh = {v: Variable(v.name + suffix) for v in query.variables()}

    def term(t):
        return fresh.get(t, t) if isinstance(t, Variable) else t

    return BGPQuery(
        [TriplePattern(term(tp.subject), term(tp.predicate), term(tp.object)) for tp in query],
        name=query.name,
    )


def dataset_of(rows):
    return Dataset.from_triples([Triple(s, p, o) for s, p, o in rows])


@settings(max_examples=60, deadline=None)
@given(rows=graphs, query_patterns=st.lists(patterns, min_size=1, max_size=4))
def test_memo_matches_oracle_cold_and_warm(rows, query_patterns):
    dataset = dataset_of(rows)
    query = BGPQuery(query_patterns)
    expected = oracle_catalog(query, dataset)
    assert_same_catalog(StatisticsCatalog.from_dataset(query, dataset), expected)
    scans = dataset.pattern_scans
    # warm: the same shapes under other variable names scan nothing
    renamed = rename(query, "_r")
    warm = StatisticsCatalog.from_dataset(renamed, dataset)
    assert dataset.pattern_scans == scans
    assert_same_catalog(warm, oracle_catalog(renamed, dataset))


def make_dataset():
    return Dataset.from_triples(
        [
            triple("http://e/a", "http://e/p", "http://e/b"),
            triple("http://e/a", "http://e/p", "http://e/c"),
            triple("http://e/b", "http://e/p", "http://e/b"),
            triple("http://e/x", "http://e/q", "http://e/a"),
        ]
    )


def test_constants_in_each_position():
    dataset = make_dataset()
    query = parse_query(
        """
        SELECT * WHERE {
          <http://e/a> ?p ?o .
          ?s <http://e/p> ?o .
          ?s ?p <http://e/b> .
        }
        """
    )
    assert_same_catalog(
        StatisticsCatalog.from_dataset(query, dataset), oracle_catalog(query, dataset)
    )


def test_repeated_variable_unions_its_positions():
    dataset = make_dataset()
    query = parse_query("SELECT * WHERE { ?x <http://e/p> ?x . }")
    (stats,) = StatisticsCatalog.from_dataset(query, dataset).per_pattern
    # the scan does not enforce equality; ?x collects subjects ∪ objects
    assert stats.cardinality == 3.0
    assert list(stats.bindings.items()) == [(Variable("x"), 3.0)]
    assert_same_catalog(
        StatisticsCatalog.from_dataset(query, dataset), oracle_catalog(query, dataset)
    )


def test_variable_predicate():
    dataset = make_dataset()
    query = parse_query("SELECT * WHERE { ?s ?p ?o . ?o ?p2 <http://e/a> . }")
    catalog = StatisticsCatalog.from_dataset(query, dataset)
    assert catalog[0].cardinality == 4.0
    assert list(catalog[0].bindings) == [Variable("s"), Variable("p"), Variable("o")]
    assert_same_catalog(catalog, oracle_catalog(query, dataset))


def test_unseen_terms_give_one():
    dataset = make_dataset()
    query = parse_query(
        """
        SELECT * WHERE {
          ?s <http://e/nope> ?o .
          <http://e/nobody> <http://e/p> ?o .
        }
        """
    )
    catalog = StatisticsCatalog.from_dataset(query, dataset)
    for stats in catalog.per_pattern:
        assert stats.cardinality == 1.0
        assert set(stats.bindings.values()) == {1.0}
    assert_same_catalog(catalog, oracle_catalog(query, dataset))


def test_alpha_renamed_patterns_share_one_entry():
    dataset = make_dataset()
    p = IRI("http://e/p")
    x, y, a, b = (Variable(n) for n in "xyab")
    first = dataset.pattern_statistics(TriplePattern(a, p, b))
    assert dataset.pattern_scans == 1
    assert dataset.pattern_statistics(TriplePattern(x, p, y)) is first
    assert dataset.pattern_scans == 1
    # a repeated variable is a different shape
    assert dataset.pattern_statistics(TriplePattern(x, p, x)) != first
    assert dataset.pattern_scans == 2


def test_refresh_invalidates_the_memo():
    dataset = make_dataset()
    query = parse_query("SELECT * WHERE { ?s <http://e/q> ?o . }")
    assert StatisticsCatalog.from_dataset(query, dataset)[0].cardinality == 1.0
    dataset.graph.add(triple("http://e/y", "http://e/q", "http://e/b"))
    dataset.refresh()
    catalog = StatisticsCatalog.from_dataset(query, dataset)
    assert catalog[0].cardinality == 2.0
    assert dataset.pattern_scans == 2
    assert_same_catalog(catalog, oracle_catalog(query, dataset))


def test_reparsed_query_scans_nothing_on_a_warm_dataset(fig1_query):
    dataset = make_dataset()
    session = Optimizer(OptimizeOptions(dataset=dataset, trace=True))
    text = str(fig1_query)
    session.optimize(parse_query(text))
    with session.tracing():
        session.resolve_statistics(parse_query(text))
    cold, warm = [
        sp for sp in session.tracer.spans if sp.name == "statistics.resolve"
    ]
    assert cold.attributes["scanned"] == len(fig1_query)
    assert warm.attributes["scanned"] == 0
    assert warm.attributes["patterns"] == len(fig1_query)
