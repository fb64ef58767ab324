"""The redesigned session API: :class:`OptimizeOptions` + :class:`Optimizer`.

The contract under test: a session produces *exactly* the plans the
legacy :func:`repro.core.optimizer.optimize` facade produced, while
owning cross-call state (statistics cache, plan cache, tracer) that the
facade rebuilt on every call.
"""

from __future__ import annotations

import gc

import pytest

from repro import OptimizeOptions, Optimizer, parse_query
from repro.core.optimizer import ALGORITHMS, optimize
from repro.core.plan_cache import PlanCache
from repro.partitioning import HashSubjectObject


class TestOptimizeOptions:
    def test_defaults_mirror_the_legacy_facade(self):
        options = OptimizeOptions()
        assert options.algorithm == "td-auto"
        assert options.jobs == 1
        assert options.seed == 0
        assert options.plan_cache is None
        assert options.verify is False
        assert options.trace is False

    def test_algorithm_key_lowercases(self):
        assert OptimizeOptions(algorithm="TD-CMDP").algorithm_key == "td-cmdp"

    def test_with_overrides_returns_a_modified_copy(self):
        base = OptimizeOptions(algorithm="td-cmd", seed=7)
        derived = base.with_overrides(jobs=4)
        assert derived.jobs == 4
        assert derived.algorithm == "td-cmd"
        assert derived.seed == 7
        assert base.jobs == 1  # the original is untouched


class TestSessionConstruction:
    def test_unknown_algorithm_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Optimizer(OptimizeOptions(algorithm="bogus"))

    def test_nonpositive_jobs_fails_at_construction(self):
        with pytest.raises(ValueError, match="jobs"):
            Optimizer(OptimizeOptions(jobs=0))

    def test_keyword_overrides_compose_with_options(self):
        session = Optimizer(OptimizeOptions(seed=3), algorithm="td-cmdp")
        assert session.options.algorithm == "td-cmdp"
        assert session.options.seed == 3

    def test_bare_constructor_uses_defaults(self):
        session = Optimizer()
        assert session.options == OptimizeOptions()
        assert session.tracer is None


class TestSessionMatchesShim:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_same_plan_as_the_legacy_facade(self, fig1_query, algorithm):
        via_shim = optimize(fig1_query, algorithm=algorithm, seed=42)
        via_session = Optimizer(
            OptimizeOptions(algorithm=algorithm, seed=42)
        ).optimize(fig1_query)
        assert via_session.cost == via_shim.cost
        assert via_session.algorithm == via_shim.algorithm
        assert via_session.stats.summary() == via_shim.stats.summary()
        assert (
            via_session.plan.describe() == via_shim.plan.describe()
        )

    def test_partitioning_aware_session(self, fig1_query):
        method = HashSubjectObject()
        via_shim = optimize(
            fig1_query, algorithm="td-cmdp", seed=42, partitioning=method
        )
        via_session = Optimizer(
            OptimizeOptions(
                algorithm="td-cmdp", seed=42, partitioning=method
            )
        ).optimize(fig1_query)
        assert via_session.cost == via_shim.cost
        assert via_session.plan.describe() == via_shim.plan.describe()


class TestSessionState:
    def test_statistics_resolved_once_per_query_object(self, fig1_query):
        session = Optimizer(OptimizeOptions(seed=42))
        first = session.resolve_statistics(fig1_query)
        second = session.resolve_statistics(fig1_query)
        assert first is second
        session.optimize(fig1_query)
        assert session.resolve_statistics(fig1_query) is first

    def test_statistics_cache_is_bounded_by_live_queries(self, fig1_query):
        """Entries are dropped with their query: re-parsed requests do
        not accumulate for the session's lifetime."""
        session = Optimizer(OptimizeOptions(seed=42))
        text = str(fig1_query)
        kept = []
        for i in range(1000):
            query = parse_query(text)
            session.resolve_statistics(query)
            if i % 100 == 0:
                kept.append(query)
        primed = parse_query(text)
        session.prime_statistics(primed, session.resolve_statistics(kept[0]))
        del query, primed
        gc.collect()
        assert len(session._statistics) <= len(kept)
        for query in kept:
            catalog = session.resolve_statistics(query)
            assert session.resolve_statistics(query) is catalog

    def test_prime_statistics_short_circuits_resolution(self, fig1_query):
        session = Optimizer(OptimizeOptions(seed=42))
        catalog = Optimizer(OptimizeOptions(seed=7)).resolve_statistics(
            fig1_query
        )
        session.prime_statistics(fig1_query, catalog)
        assert session.resolve_statistics(fig1_query) is catalog

    def test_explicit_statistics_win(self, fig1_query):
        catalog = Optimizer(OptimizeOptions(seed=9)).resolve_statistics(
            fig1_query
        )
        session = Optimizer(OptimizeOptions(statistics=catalog, seed=42))
        assert session.resolve_statistics(fig1_query) is catalog

    def test_plan_cache_is_shared_across_calls(self, fig1_query):
        cache = PlanCache()
        session = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42, plan_cache=cache)
        )
        first = session.optimize(fig1_query)
        second = session.optimize(fig1_query)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert second.cost == first.cost
        assert second.plan.describe() == first.plan.describe()

    def test_optimize_many_reuses_the_session(self, fig1_query):
        other = parse_query(
            """
            PREFIX p: <http://example.org/>
            SELECT * WHERE {
              ?x p:a ?y .
              ?y p:b ?z .
            }
            """,
            name="pair",
        )
        cache = PlanCache()
        session = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42, plan_cache=cache)
        )
        results = session.optimize_many([fig1_query, other, fig1_query])
        assert len(results) == 3
        assert results[0].cost == results[2].cost
        assert cache.stats.hits == 1  # third call reuses the first plan

    def test_verified_session_matches_unverified(self, fig1_query):
        plain = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42)
        ).optimize(fig1_query)
        verified = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42, verify=True)
        ).optimize(fig1_query)
        assert verified.cost == plain.cost
        assert verified.plan.describe() == plain.plan.describe()

    def test_repr_reflects_session_state(self, fig1_query):
        session = Optimizer(
            OptimizeOptions(
                algorithm="td-cmd", plan_cache=PlanCache(), trace=True
            )
        )
        session.optimize(fig1_query)
        text = repr(session)
        assert "td-cmd" in text
        assert "cache=1" in text
        assert "spans=" in text


class TestParallelSession:
    def test_parallel_session_matches_serial(self, fig1_query):
        serial = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42)
        ).optimize(fig1_query)
        parallel = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42, jobs=2)
        ).optimize(fig1_query)
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()
