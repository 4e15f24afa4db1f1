"""Tests for the pluggable exploration engine (frontiers, strategies,
visited protocol wiring, and parallel batch verification)."""

import pytest

from repro.engine import (
    BreadthFirstFrontier,
    DepthFirstFrontier,
    EngineOptions,
    ExplorationEngine,
    PriorityFrontier,
    VerificationJob,
    make_frontier,
    register_strategy,
    strategy_names,
    verify,
    verify_many,
)
from repro.engine.core import _Node
from repro.model.state import ModelState
from repro.properties import build_properties


def _node(depth, pending=()):
    state = ModelState(pending=pending)
    return _Node(state, depth)


class TestFrontiers:
    def test_dfs_is_lifo(self):
        frontier = DepthFirstFrontier()
        first, second = _node(1), _node(2)
        frontier.push(first)
        frontier.push(second)
        assert frontier.pop() is second
        assert frontier.pop() is first

    def test_bfs_is_fifo(self):
        frontier = BreadthFirstFrontier()
        first, second = _node(1), _node(2)
        frontier.push(first)
        frontier.push(second)
        assert frontier.pop() is first
        assert frontier.pop() is second

    def test_priority_orders_by_key(self):
        frontier = PriorityFrontier(priority=lambda node: -node.depth)
        shallow, deep = _node(1), _node(5)
        frontier.push(shallow)
        frontier.push(deep)
        assert frontier.pop() is deep

    def test_default_priority_prefers_shallow(self):
        frontier = PriorityFrontier()
        shallow, deep = _node(0), _node(3)
        frontier.push(deep)
        frontier.push(shallow)
        assert frontier.pop() is shallow

    def test_len_and_bool(self):
        frontier = DepthFirstFrontier()
        assert not frontier and len(frontier) == 0
        frontier.push(_node(0))
        assert frontier and len(frontier) == 1


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert {"dfs", "bfs", "priority"} <= set(strategy_names())

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError):
            make_frontier("simulated-annealing", EngineOptions())

    def test_registration_is_pluggable(self):
        calls = []

        def factory(options):
            calls.append(options)
            return DepthFirstFrontier()

        register_strategy("test-strategy", factory)
        try:
            options = EngineOptions(strategy="test-strategy")
            assert isinstance(options.make_frontier(), DepthFirstFrontier)
            assert calls == [options]
        finally:
            from repro.engine.strategy import _STRATEGIES
            _STRATEGIES.pop("test-strategy", None)

    def test_options_build_frontier_by_name(self):
        assert isinstance(EngineOptions(strategy="bfs").make_frontier(),
                          BreadthFirstFrontier)


class TestEngineStrategies:
    """All strategies explore the same bounded space (order differs)."""

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "priority"])
    def test_same_coverage_and_findings(self, alice_system, strategy):
        baseline = verify(alice_system, build_properties(), max_events=2)
        result = verify(alice_system, build_properties(), max_events=2,
                        strategy=strategy)
        assert result.states_explored == baseline.states_explored
        assert result.violated_property_ids == baseline.violated_property_ids

    def test_fingerprint_store_matches_exact(self, alice_system):
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        fingerprint = verify(alice_system, build_properties(), max_events=2,
                             visited="fingerprint")
        assert fingerprint.states_explored == exact.states_explored
        assert (fingerprint.violated_property_ids
                == exact.violated_property_ids)

    def test_unknown_visited_store_raises(self):
        with pytest.raises(KeyError):
            EngineOptions(visited="quantum").make_visited()

    def test_visited_stats_on_result(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        assert result.visited_stats.get("stored", 0) > 0

    def test_states_per_second(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        assert result.states_per_second > 0


class TestEngineOption:
    def test_codegen_is_the_default_tier(self):
        assert EngineOptions().engine == "codegen"

    @pytest.mark.parametrize("removed", [
        "successor_cache", "cache_limit", "cache_min_hit_rate",
        "cache_warmup", "manage_gc"])
    def test_removed_knobs_are_rejected(self, removed):
        with pytest.raises(TypeError):
            EngineOptions(**{removed: True})

    def test_interpreted_oracle_matches_default(self, alice_system):
        default = verify(alice_system, build_properties(), max_events=2)
        interpreted = verify(alice_system, build_properties(), max_events=2,
                             engine="interpreted")
        assert default.states_explored == interpreted.states_explored
        assert (list(default.counterexamples)
                == list(interpreted.counterexamples))

    def test_engine_installs_and_clears_the_executor_hook(self,
                                                          alice_system):
        verify(alice_system, build_properties(), max_events=1)
        assert alice_system.executor_factory is not None
        verify(alice_system, build_properties(), max_events=1,
               engine="interpreted")
        assert alice_system.executor_factory is None

    def test_compiled_is_a_deprecated_alias_of_codegen(self, capsys):
        options = EngineOptions(engine="compiled")
        assert options.engine == "codegen"
        warning = capsys.readouterr().err
        assert warning.count("\n") == 1
        assert "deprecated" in warning and "codegen" in warning

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EngineOptions(engine="closures")


class TestExactModeHasNoHashShortcuts:
    def test_exact_store_disables_invariant_memo(self, alice_system):
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        assert exact.property_stats.get("invariant_memo_misses", 0) == 0
        assert exact.property_stats.get("invariant_memo_hits", 0) == 0
        memoized = verify(alice_system, build_properties(), max_events=2)
        assert memoized.property_stats["invariant_memo_misses"] > 0
        assert (sorted(exact.counterexamples)
                == sorted(memoized.counterexamples))


class TestEngineGc:
    def test_gc_restored_after_run(self, alice_system):
        import gc

        assert gc.isenabled()
        verify(alice_system, build_properties(), max_events=1)
        assert gc.isenabled()

    def test_gc_suspended_during_run_and_reenabled_after_an_error(
            self, alice_system, monkeypatch):
        import gc

        seen = []

        def failing_run(engine):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(ExplorationEngine, "_run", failing_run)
        engine = ExplorationEngine(alice_system, build_properties(),
                                   EngineOptions(max_events=1))
        with pytest.raises(RuntimeError):
            engine.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_gc_left_alone_when_unmanaged(self, alice_system):
        """A caller that manages the collector itself (has it disabled)
        finds it still disabled after the run."""
        import gc

        gc.disable()
        try:
            verify(alice_system, build_properties(), max_events=1)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSeenState:
    """The hybrid fingerprint-first path of the exact store."""

    def test_exact_seen_state_depth_aware(self):
        from repro.checker.visited import ExactVisitedSet

        store = ExactVisitedSet()
        state = ModelState()
        state.set_attribute("d", "a", 1)
        assert store.seen_state(state, 2) is False
        dup = state.copy()
        assert store.seen_state(dup, 3) is True   # deeper: prune
        assert store.seen_state(dup, 1) is False  # shallower: re-expand
        assert store.seen_state(dup, 1) is True
        assert len(store) == 1

    def test_exact_seen_state_distinguishes_states(self):
        from repro.checker.visited import ExactVisitedSet

        store = ExactVisitedSet()
        one = ModelState()
        one.set_attribute("d", "a", 1)
        two = ModelState()
        two.set_attribute("d", "a", 2)
        assert store.seen_state(one, 0) is False
        assert store.seen_state(two, 0) is False
        assert store.seen_state(two.copy(), 0) is True
        assert len(store) == 2


class TestVerifyMany:
    @pytest.fixture()
    def jobs(self, alice_config):
        options = EngineOptions(max_events=1)
        return [VerificationJob("job%d" % index, alice_config, options,
                                strict=False)
                for index in range(4)]

    def test_serial_inline_execution(self, jobs):
        batch = verify_many(jobs, workers=1)
        assert len(batch) == 4 and not batch.errors
        assert batch.workers == 1
        for result in batch:
            assert "P06" in result.violated_property_ids

    def test_parallel_matches_serial(self, jobs):
        serial = verify_many(jobs, workers=1)
        parallel = verify_many(jobs, workers=2)
        assert not parallel.errors
        assert parallel.states_explored == serial.states_explored
        assert (parallel.violated_property_ids
                == serial.violated_property_ids)

    def test_merged_statistics(self, jobs):
        batch = verify_many(jobs, workers=1)
        one = batch["job0"]
        assert batch.states_explored == one.states_explored * 4
        assert batch.transitions == one.transitions * 4
        assert batch.job_seconds >= one.elapsed
        assert batch.has_violations
        summary = batch.summary()
        assert "job0" in summary and "4 job(s)" in summary

    def test_submission_order_preserved(self, jobs):
        batch = verify_many(jobs, workers=2)
        assert list(batch.results) == ["job0", "job1", "job2", "job3"]

    def test_job_errors_reported_not_raised(self, alice_config):
        bad = VerificationJob("bad", alice_config,
                              EngineOptions(visited="quantum"))
        good = VerificationJob("good", alice_config,
                               EngineOptions(max_events=1), strict=False)
        batch = verify_many([bad, good], workers=1)
        assert "bad" in batch.errors
        assert "KeyError" in batch.errors["bad"]
        assert "good" in batch.results

    def test_per_job_options(self, alice_config):
        jobs = [VerificationJob("shallow", alice_config,
                                EngineOptions(max_events=1), strict=False),
                VerificationJob("deep", alice_config,
                                EngineOptions(max_events=2), strict=False)]
        batch = verify_many(jobs, workers=1)
        assert (batch["deep"].states_explored
                > batch["shallow"].states_explored)

    def test_check_configurations_facade(self, alice_config):
        from repro import check_configurations

        batch = check_configurations({"alice": alice_config}, workers=1,
                                     max_events=1)
        assert "P06" in batch.violated_property_ids


class TestVolunteerJobs:
    def test_seventy_jobs(self, registry):
        from repro.attribution.volunteers import volunteer_verification_jobs

        jobs = volunteer_verification_jobs(registry)
        assert len(jobs) == 70
        names = {job.name for job in jobs}
        assert "vgroup01/volunteer1-maximalist" in names

    def test_group_filter(self, registry):
        from repro.attribution.volunteers import volunteer_verification_jobs

        jobs = volunteer_verification_jobs(registry, groups=["vgroup02"],
                                           profiles=["volunteer1-maximalist"])
        assert [job.name for job in jobs] == [
            "vgroup02/volunteer1-maximalist"]
