"""Pluggable shard partitioning, delta handoffs and work stealing.

The PR 8 acceptance bar, pinned as tests:

* **equivalence matrix** - every bundled expert group, under both
  partitioners, at 1/2/3 workers, over the exact and collapse stores,
  reports byte-identical verdicts, violation sets, distinct-state
  counts and rendered canonical traces - including under a non-clean
  fault-injection scenario;
* **delta round-trip** - the schema's handoff delta is exact in both
  directions (property-based over arbitrary on/off-schema states);
* **deterministic ownership** - the locality partitioner's owner map is
  a pure function of state content, independent of the interpreter
  hash seed and of which process built the schema;
* **accounting** - ``handoff_bytes`` / ``steals`` / ``stolen_states``
  ride the merged ``shard_stats`` and survive the JSON round trip;
* **neutrality** - ``partition`` is a pure performance knob: it never
  changes a job's content-addressed cache key, and the service API
  validates it like every other enum option.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import (
    EngineOptions,
    ExplorationResult,
    VerificationJob,
    explore_sharded,
    make_partitioner,
    partitioner_names,
)
from repro.engine.batch import execute_job_inline

from tests.conftest import _load_or_skip
from tests.test_state_schema import _arbitrary_states


def _group_job(group_name, workers=1, **option_kwargs):
    _load_or_skip(load_all_apps)
    return VerificationJob(group_name, GROUP_BUILDERS[group_name](),
                           EngineOptions(max_events=2, workers=workers,
                                         **option_kwargs),
                           strict=False)


def _rendered_traces(result):
    return {key: ce.describe() for key, ce in result.counterexamples.items()}


def _small_system():
    from repro.config.schema import SystemConfiguration
    from repro.model.generator import ModelGenerator

    registry = _load_or_skip(load_all_apps)
    config = SystemConfiguration()
    config.add_device("frontDoor", "smartsense-multi")
    config.add_device("hallSwitch", "smart-outlet")
    config.add_device("motion", "smartsense-motion")
    config.add_app("Brighten My Path", {"motion1": "motion",
                                        "switch1": "hallSwitch"})
    return ModelGenerator(registry).build(config)


@pytest.fixture(scope="module")
def small_schema():
    return _small_system().state_schema()


# -- the partitioner registry -------------------------------------------------


class TestPartitionerRegistry:
    def test_registered_names(self):
        assert partitioner_names() == ["fingerprint", "locality"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("roundrobin", None, 2)

    def test_options_validate_partition(self):
        with pytest.raises(ValueError, match="unknown partition"):
            EngineOptions(partition="roundrobin")
        assert EngineOptions(partition="fingerprint").partition \
            == "fingerprint"
        assert EngineOptions().partition == "locality"

    def test_owner_total_and_in_range(self):
        system = _small_system()
        for name in partitioner_names():
            partitioner = make_partitioner(name, system, 3)
            state = system.initial_state()
            for _ in range(3):
                assert partitioner.owner(state) in (0, 1, 2)
                state = state.copy()
                state.set_attribute("hallSwitch", "switch", "on")

    def test_locality_owner_is_schema_build_independent(self):
        """The locality owner map must agree across processes that each
        compile their own schema (that is what makes sharded ownership
        consistent), so two independently built systems must agree."""
        left, right = _small_system(), _small_system()
        owner_left = make_partitioner("locality", left, 4)
        owner_right = make_partitioner("locality", right, 4)
        state = left.initial_state()
        twin = right.initial_state()
        for _ in range(4):
            assert owner_left.owner(state) == owner_right.owner(twin)
            state, twin = state.copy(), twin.copy()
            for mutated in (state, twin):
                mutated.set_attribute("motion", "motion", "active")
                mutated.mode = "Away"

    def test_anchor_layout_prefers_quiet_devices(self):
        """Actuators (external-event fanout zero) are always anchored;
        the busiest sensors never are while quieter choices exist."""
        system = _small_system()
        schema = system.state_schema()
        anchored = {entry[0] for entry in schema.anchor_layout}
        assert "hallSwitch" in anchored  # actuator: fanout 0


# -- delta round-trip ---------------------------------------------------------


class TestDeltaRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_apply_inverts_delta(self, data, small_schema):
        base = small_schema.pack(data.draw(_arbitrary_states(small_schema)))
        target = small_schema.pack(
            data.draw(_arbitrary_states(small_schema)))
        delta = small_schema.delta(base, target)
        assert small_schema.apply_delta(base, delta) == target

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_delta_of_applied_delta_is_identity(self, data, small_schema):
        base = small_schema.pack(data.draw(_arbitrary_states(small_schema)))
        target = small_schema.pack(
            data.draw(_arbitrary_states(small_schema)))
        delta = small_schema.delta(base, target)
        assert small_schema.delta(
            base, small_schema.apply_delta(base, delta)) == delta

    def test_identical_states_have_empty_delta(self, small_schema):
        system = _small_system()
        packed = system.state_schema().pack(system.initial_state())
        assert small_schema.delta(packed, packed) == ()
        assert small_schema.apply_delta(packed, ()) == packed


# -- corpus-wide equivalence matrix -------------------------------------------


class TestEquivalenceMatrix:
    """Both partitioners x {1,2,3} workers x {exact,collapse} stores."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    @pytest.mark.parametrize("store", ("exact", "collapse"))
    def test_partitioners_match_single_worker(self, group_name, store):
        single = execute_job_inline(_group_job(group_name, visited=store))
        for partition in partitioner_names():
            for workers in (2, 3):
                sharded = explore_sharded(_group_job(
                    group_name, visited=store, workers=workers,
                    partition=partition))
                context = (group_name, store, partition, workers)
                assert sharded.verdict == single.verdict, context
                assert (sorted(sharded.counterexamples)
                        == sorted(single.counterexamples)), context
                assert (sharded.states_explored
                        == single.states_explored), context
                assert (_rendered_traces(sharded)
                        == _rendered_traces(single)), context

    @pytest.mark.parametrize("scenario", ("lossy", "device-death"))
    def test_locality_matches_under_fault_scenarios(self, scenario):
        """Partitioning composes with the non-clean transition
        relations: the fault profiles change *what* is explored, and
        sharding must still not change the answer."""
        group_name = sorted(GROUP_BUILDERS)[0]
        single = execute_job_inline(_group_job(group_name,
                                               scenario=scenario))
        sharded = explore_sharded(_group_job(group_name, scenario=scenario,
                                             workers=2,
                                             partition="locality"))
        assert sharded.verdict == single.verdict
        assert sorted(sharded.counterexamples) \
            == sorted(single.counterexamples)
        assert sharded.states_explored == single.states_explored
        assert _rendered_traces(sharded) == _rendered_traces(single)


# -- handoff and stealing accounting ------------------------------------------


class TestShardAccounting:
    def test_locality_cuts_handoffs(self):
        """The whole point of the projection: on the same workload the
        locality partitioner ships far fewer states than fingerprint
        scatter (and both balance their sent/received ledgers)."""
        group_name = sorted(GROUP_BUILDERS)[1]
        by_partition = {}
        for partition in partitioner_names():
            result = explore_sharded(_group_job(group_name, workers=2,
                                                partition=partition))
            sent = sum(s["handoffs_sent"] for s in result.shard_stats)
            received = sum(s["handoffs_received"]
                           for s in result.shard_stats)
            assert sent == received, partition
            by_partition[partition] = (
                sent, sum(s["handoff_bytes"] for s in result.shard_stats))
        assert by_partition["locality"][0] < by_partition["fingerprint"][0]
        assert by_partition["locality"][1] < by_partition["fingerprint"][1]

    def test_shard_stats_carry_the_new_counters(self):
        group_name = sorted(GROUP_BUILDERS)[0]
        result = explore_sharded(_group_job(group_name, workers=2))
        assert len(result.shard_stats) == 2
        for entry in result.shard_stats:
            for key in ("handoff_bytes", "steals", "stolen_states"):
                assert isinstance(entry[key], int) and entry[key] >= 0
            assert not any(key.startswith("cache_") for key in entry)
        if any(s["handoffs_sent"] for s in result.shard_stats):
            assert sum(s["handoff_bytes"] for s in result.shard_stats) > 0

    def test_counters_survive_the_json_round_trip(self):
        group_name = sorted(GROUP_BUILDERS)[0]
        result = explore_sharded(_group_job(group_name, workers=2))
        restored = ExplorationResult.from_json(result.to_json())
        assert restored.shard_stats == result.shard_stats
        assert restored.workers == result.workers

    def test_summary_mentions_the_wire(self):
        group_name = sorted(GROUP_BUILDERS)[0]
        result = explore_sharded(_group_job(group_name, workers=2))
        assert "handoffs:" in result.summary()


# -- work-stealing primitives -------------------------------------------------


class TestFrontierSteal:
    def _nodes(self, count):
        from repro.engine.core import _Node
        from repro.model.state import ModelState

        return [_Node(ModelState(), depth) for depth in range(count)]

    def test_base_frontier_declines(self):
        from repro.engine.frontier import Frontier
        assert Frontier().steal(4) == []

    def test_dfs_steals_the_stack_top(self):
        from repro.engine.frontier import DepthFirstFrontier
        frontier = DepthFirstFrontier()
        nodes = self._nodes(6)
        for node in nodes:
            frontier.push(node)
        taken = frontier.steal(2)
        # the deepest nodes leave: their subtrees are the smallest, so
        # leasing them bounds the thief's off-owner backflow
        assert taken == nodes[-2:]
        assert frontier.pop() is nodes[-3]
        assert len(frontier) == 3

    def test_bfs_steals_the_queue_back(self):
        from repro.engine.frontier import BreadthFirstFrontier
        frontier = BreadthFirstFrontier()
        nodes = self._nodes(6)
        for node in nodes:
            frontier.push(node)
        taken = frontier.steal(2)
        assert taken == [nodes[-1], nodes[-2]]  # newest layer = deepest
        assert frontier.pop() is nodes[0]
        assert len(frontier) == 3

    def test_priority_steals_the_worst_entries(self):
        from repro.engine.frontier import PriorityFrontier
        frontier = PriorityFrontier(priority=lambda node: node.depth)
        nodes = self._nodes(6)
        for node in nodes:
            frontier.push(node)
        taken = frontier.steal(2)
        assert {node.depth for node in taken} == {4, 5}
        assert frontier.pop() is nodes[0]
        assert len(frontier) == 3


# -- digest neutrality + API validation ---------------------------------------


class TestPartitionNeutrality:
    def test_partition_does_not_change_the_cache_key(self):
        group_name = sorted(GROUP_BUILDERS)[0]
        keys = {_group_job(group_name, workers=4,
                           partition=partition).cache_key()
                for partition in partitioner_names()}
        assert len(keys) == 1
        assert _group_job(group_name).cache_key() in keys

    def test_api_validates_partition(self):
        from repro.service.api import SubmissionError, VettingService

        options = VettingService._payload_options(
            {"partition": "fingerprint"})
        assert options.partition == "fingerprint"
        with pytest.raises(SubmissionError, match="partition"):
            VettingService._payload_options({"partition": "roundrobin"})
