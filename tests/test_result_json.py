"""JSON round-trip of results, older documents, and the zero-expansion
regression."""

import json

import pytest

from repro import check_configurations
from repro.checker.trace import render_violation_log
from repro.checker.violations import Counterexample, TraceStep, Violation
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.result import BatchResult, ExplorationResult
from repro.properties import build_properties, select_relevant


@pytest.fixture()
def alice_result(alice_system):
    properties = select_relevant(alice_system, build_properties())
    return ExplorationEngine(alice_system, properties,
                             EngineOptions(max_events=2)).run()


class TestExplorationResultRoundTrip:
    def test_to_json_round_trips_exactly(self, alice_result):
        text = alice_result.to_json()
        restored = ExplorationResult.from_json(text)
        assert restored.to_dict() == alice_result.to_dict()
        assert restored.to_json() == text

    def test_verdict_and_statistics_survive(self, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        assert restored.verdict == "violated"
        assert restored.violated_property_ids == \
            alice_result.violated_property_ids
        assert restored.states_explored == alice_result.states_explored
        assert restored.transitions == alice_result.transitions
        assert restored.visited_stats == alice_result.visited_stats
        assert restored.summary() == alice_result.summary()

    def test_counterexample_traces_render_byte_identically(
            self, alice_system, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        assert len(restored.counterexamples) == \
            len(alice_result.counterexamples)
        for key, counterexample in alice_result.counterexamples.items():
            twin = restored.counterexamples[key]
            assert twin.describe() == counterexample.describe()
            assert render_violation_log(alice_system, twin) == \
                render_violation_log(alice_system, counterexample)

    def test_restored_properties_are_catalog_objects(self, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        by_id = {p.id: p for p in build_properties()}
        for counterexample in restored.counterexamples.values():
            prop = counterexample.violation.property
            assert prop is by_id[prop.id]

    def test_unknown_property_degrades_to_stub(self):
        violation = Violation.from_dict({
            "property": {"id": "PX99", "name": "Custom rule",
                         "category": "custom", "kind": "invariant",
                         "description": "d", "ltl": "[](x)",
                         "roles": ["some_role"]},
            "message": "custom violated", "apps": ["A"]})
        assert violation.property.id == "PX99"
        assert violation.property.ltl == "[](x)"
        assert violation.property.roles == ("some_role",)
        assert violation.dedup_key() == ("PX99", "custom violated", ("A",))

    def test_trace_step_optional_fields(self):
        step = TraceStep("command", "lock.unlock()", app="Unlock Door")
        assert TraceStep.from_dict(step.to_dict()).app == "Unlock Door"
        bare = TraceStep.from_dict({"kind": "log", "text": "x"})
        assert bare.app is None and bare.line is None

    def test_counterexample_path_round_trips(self):
        violation = Violation.from_dict({
            "property": {"id": "P06", "name": "n"}, "message": "m"})
        counterexample = Counterexample(violation, [
            ("alicePresence/presence=present",
             [TraceStep("handler", "App.handler(ev)", app="App")]),
        ])
        restored = Counterexample.from_dict(counterexample.to_dict())
        assert restored.event_labels() == counterexample.event_labels()
        assert [s.text for s in restored.all_steps()] == \
            [s.text for s in counterexample.all_steps()]

    def test_newer_schema_refused(self):
        with pytest.raises(ValueError, match="schema version"):
            ExplorationResult.from_dict({"schema": 999})


class TestBatchResultRoundTrip:
    def test_round_trip_with_errors(self, alice_config):
        batch = check_configurations(
            {"alice": alice_config, "alice-2": alice_config},
            workers=1, max_events=1)
        batch.add_error("broken", "ValueError: nope")
        restored = BatchResult.from_json(batch.to_json())
        assert restored.to_dict() == batch.to_dict()
        assert restored.errors == {"broken": "ValueError: nope"}
        assert restored.workers == batch.workers
        assert restored.violated_property_ids == batch.violated_property_ids
        assert restored.summary() == batch.summary()

    def test_json_is_machine_parseable(self, alice_config):
        batch = check_configurations({"alice": alice_config}, workers=1,
                                     max_events=1)
        payload = json.loads(batch.to_json(indent=2))
        assert payload["schema"] == 1
        assert payload["verdict"] in ("safe", "violated")
        assert "alice" in payload["results"]


class TestOlderDocuments:
    """Documents written before the successor cache was removed still
    carry its ``cache_*`` counters, top level and per shard."""

    def test_cache_keys_are_ignored(self, alice_result):
        current = alice_result.to_dict()
        older = dict(current, cache_hits=12, cache_misses=30,
                     cache_mode="fingerprint", cache_auto_disabled=True,
                     cache_disable_reason="post-warmup hit rate 0.0% < 5.0%",
                     workers=2,
                     shard_stats=[{"worker": 0, "states_explored": 5,
                                   "cache_hits": 0, "cache_misses": 4,
                                   "cache_auto_disabled": False,
                                   "cache_disable_reason": None}])
        restored = ExplorationResult.from_json(json.dumps(older))
        assert restored.shard_stats == [{"worker": 0, "states_explored": 5}]
        assert not any(key.startswith("cache_")
                       for key in restored.to_dict())
        assert dict(restored.to_dict(), workers=1,
                    shard_stats=[]) == current
        assert restored.summary().splitlines()[0] == \
            alice_result.summary().splitlines()[0]


class TestCacheHitRateRegression:
    """Derived rates are 0.0, never a ZeroDivisionError, for runs and
    batches that did no work.  This once guarded the successor-cache hit
    rate; with the cache gone it guards states/sec and the batch
    throughput line."""

    def test_zero_lookup_run(self, alice_system):
        properties = select_relevant(alice_system, build_properties())
        result = ExplorationEngine(
            alice_system, properties, EngineOptions(max_events=0)).run()
        assert result.transitions == 0
        result.summary()  # the formatted report must not raise either

    def test_fresh_result_object(self):
        assert ExplorationResult().states_per_second == 0.0

    def test_empty_batch(self):
        batch = BatchResult()
        assert batch.states_explored == 0
        assert "aggregate throughput" not in batch.summary()

    def test_batch_of_zero_lookup_jobs(self):
        batch = BatchResult()
        batch.add("a", ExplorationResult())
        batch.add("b", ExplorationResult())
        assert batch.job_seconds == 0.0
        assert "aggregate throughput" not in batch.summary()
