"""Codegen-tier differential tests: generated modules vs the oracle.

The codegen tier (:mod:`repro.model.codegen`) is a pure performance
knob: per-app Python source generation, pooled executors, a lean
traceless cascade with a cascade-free path for unsubscribed sensor
events.  None of that may move a single observable - these suites
prove verdicts, ordered violation lists, per-counterexample event paths
and rendered traces byte-identical to the interpreted oracle across the
whole bundled corpus, every visited store, the sleep-set reduction,
failure enumeration and the sharded multi-process search.
"""

import json

import pytest

from repro.attribution.enumerator import ConfigurationEnumerator
from repro.config.schema import SystemConfiguration
from repro.corpus import load_all_apps, load_discovery_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.devices.catalog import DEVICE_TYPES
from repro.engine import EngineOptions, ExplorationEngine
from repro.model.codegen import CodegenPlan, generate_source
from repro.model.generator import ModelGenerator
from repro.properties import build_properties, select_relevant
from repro.translator.lowering import lower_program

from tests.conftest import _load_or_skip


def _zoo_deployment():
    """One device of every modeled type: a home any app can bind into."""
    config = SystemConfiguration(contacts=["+1-555-0100"])
    for index, type_name in enumerate(sorted(DEVICE_TYPES)):
        config.add_device("zoo%02d" % index, type_name)
    return config


@pytest.fixture(scope="module")
def corpus():
    registry = _load_or_skip(load_all_apps)
    try:
        registry.update(load_discovery_apps())
    except Exception:
        pass  # discovery corpus optional for this suite
    return registry


@pytest.fixture(scope="module")
def codegen_cache(tmp_path_factory):
    """A private on-disk source cache, one per test module run."""
    return str(tmp_path_factory.mktemp("codegen-cache"))


def _verify_both(system, properties, codegen_cache, **option_kwargs):
    results = {}
    for engine in ("codegen", "interpreted"):
        options = EngineOptions(engine=engine, codegen_cache=codegen_cache,
                                **option_kwargs)
        results[engine] = ExplorationEngine(system, properties, options).run()
    return results["codegen"], results["interpreted"]


def _trace_view(result):
    """Per-counterexample event paths and full rendered step traces."""
    return {
        key: (ce.event_labels(),
              [(s.kind, s.text, s.app) for s in ce.all_steps()])
        for key, ce in result.counterexamples.items()}


def _rendered(result):
    """The counterexample list as ``repro check --json`` renders it."""
    return json.dumps([ce.to_dict() for ce in result.counterexamples.values()],
                      sort_keys=True)


def _assert_equivalent(codegen, interpreted, context):
    assert codegen.states_explored == interpreted.states_explored, context
    assert codegen.transitions == interpreted.transitions, context
    # ordered: the reported counterexample list must come out in the
    # oracle's discovery order, not merely as the same set
    assert (list(codegen.counterexamples)
            == list(interpreted.counterexamples)), context
    assert _trace_view(codegen) == _trace_view(interpreted), context


class TestWholeCorpusGenerates:
    def test_every_corpus_app_generates_compilable_source(self, corpus):
        """The emitter must handle every construct the corpus uses - no
        app may silently fall back to the interpreter - and the emitted
        text must be real, compilable Python."""
        failures = []
        for name, app in sorted(corpus.items()):
            try:
                ir = lower_program(app.program)
                source = _Emitted(ir, name).source
                compile(source, "<codegen:%s>" % name, "exec")
            except Exception as exc:
                failures.append("%s: %s" % (name, exc))
        assert not failures, "ungeneratable corpus apps:\n" + "\n".join(
            failures)

    def test_emission_is_deterministic(self, corpus):
        """Identical IR must emit byte-identical source (the disk cache
        depends on it: a re-generation must reproduce the cached file)."""
        for name, app in sorted(corpus.items())[:10]:
            ir = lower_program(app.program)
            assert _Emitted(ir, name).source == _Emitted(ir, name).source


class _Emitted:
    """Tiny adapter: emit a module for a lowered program by name."""

    def __init__(self, ir, name):
        from repro.model.codegen import SourceEmitter
        self.source = SourceEmitter(ir).emit_module(name, "test-digest")


class TestPerAppDifferential:
    """Every corpus app, auto-configured into the zoo home, explored by
    the codegen tier and the interpreted oracle with identical
    outcomes."""

    def test_full_corpus_codegen_equals_interpreted(self, corpus,
                                                    codegen_cache):
        enumerator = ConfigurationEnumerator(_zoo_deployment())
        checked = 0
        for name, smart_app in sorted(corpus.items()):
            bindings = next(iter(
                enumerator.enumerate_bindings(smart_app, limit=1)), None)
            if bindings is None:
                bindings = {}
            config = _zoo_deployment()
            config.add_app(name, bindings)
            try:
                system = ModelGenerator(corpus).build(config, strict=False)
            except Exception:
                continue  # un-installable in the zoo (strict build issues)
            properties = select_relevant(system, build_properties())
            codegen, interpreted = _verify_both(
                system, properties, codegen_cache,
                max_events=2, max_states=300)
            # both tiers expand nodes in the same order, so even a
            # truncated space cuts off at the same frontier
            _assert_equivalent(codegen, interpreted, "app %r" % name)
            checked += 1
        # the bundled corpus is 57 market + 9 malicious + 4 discovery
        # apps; virtually all of them must be installable in the zoo
        assert checked >= 60, "only %d corpus apps exercised" % checked

    def test_no_corpus_app_falls_back(self, corpus, codegen_cache):
        """Plan build over a fully-loaded zoo: every installable app
        must come out generated, not on the fallback list."""
        config = _zoo_deployment()
        enumerator = ConfigurationEnumerator(_zoo_deployment())
        installed = 0
        for name, smart_app in sorted(corpus.items()):
            if installed >= 10:
                break
            bindings = next(iter(
                enumerator.enumerate_bindings(smart_app, limit=1)), None)
            if bindings is None:
                continue
            config.add_app(name, bindings)
            installed += 1
        system = ModelGenerator(corpus).build(config, strict=False)
        plan = CodegenPlan(system, cache_dir=codegen_cache)
        assert plan.fallbacks == []
        assert plan.generated == len(system.apps)


class TestGroupDifferential:
    """The six §10.1 expert groups: multi-app interaction, real
    violation sets, identical under the codegen tier."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_group_codegen_equals_interpreted(self, group_name,
                                              codegen_cache):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=2, max_states=5000)
        _assert_equivalent(codegen, interpreted, group_name)

    @pytest.mark.parametrize("visited", ["exact", "collapse"])
    def test_group1_every_exact_store(self, visited, codegen_cache):
        """The lean relation consults the visited store through the same
        engine hooks; the exact stores must agree state-for-state."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache,
            max_events=2, max_states=5000, visited=visited)
        _assert_equivalent(codegen, interpreted, "group1+" + visited)

    def test_group1_bitstate_verdict(self, codegen_cache):
        """The bitstate store is probabilistic in coverage but the
        verdict on this violating workload must not flip."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache,
            max_events=2, max_states=5000, visited="bitstate",
            bitstate_bits=20)
        assert codegen.verdict == interpreted.verdict
        assert (codegen.violated_property_ids
                == interpreted.violated_property_ids)

    def test_group1_with_reduction(self, codegen_cache):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache,
            max_events=3, max_states=20000, reduction=True)
        _assert_equivalent(codegen, interpreted, "group1+reduction")
        assert codegen.commutes_pruned == interpreted.commutes_pruned

    def test_group1_with_failures_and_concurrent(self, codegen_cache):
        """Failure enumeration disables the cascade-free fast path and
        the concurrent design bypasses the lean relation entirely; both
        must stay back-end independent."""
        registry = _load_or_skip(load_all_apps)
        config = GROUP_BUILDERS["group1-entry-and-mode"]()
        system = ModelGenerator(registry).build(config,
                                                enable_failures=True)
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=1,
            max_states=2000)
        _assert_equivalent(codegen, interpreted, "group1+failures")

        system = ModelGenerator(registry).build(config)
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=2,
            max_states=2000, mode="concurrent")
        _assert_equivalent(codegen, interpreted, "group1+concurrent")

    @pytest.mark.parametrize("max_events", [2, 3])
    def test_expert_groups_render_identical_json(self, max_events,
                                                 codegen_cache):
        """What ``repro check --json`` prints: the ordered counterexample
        list of every expert group, byte-identical to the oracle's."""
        registry = _load_or_skip(load_all_apps)
        for group_name in sorted(GROUP_BUILDERS):
            system = ModelGenerator(registry).build(
                GROUP_BUILDERS[group_name]())
            properties = select_relevant(system, build_properties())
            codegen, interpreted = _verify_both(
                system, properties, codegen_cache, max_events=max_events)
            context = (group_name, max_events)
            assert not interpreted.truncated, context
            _assert_equivalent(codegen, interpreted, context)
            assert _rendered(codegen) == _rendered(interpreted), context

    def test_volunteer_counterexample_order_survives_rehydration(
            self, codegen_cache):
        """Rehydrating lean traces replays each path and records *every*
        violation of its final transition; the reported list must still
        come out in discovery order.  This volunteer system has 61
        counterexamples, several sharing a final transition."""
        from repro.attribution.volunteers import volunteer_configuration

        registry = _load_or_skip(load_all_apps)
        config = volunteer_configuration("vgroup03", "volunteer1-maximalist",
                                         registry)
        system = ModelGenerator(registry).build(config, strict=False)
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(system, properties,
                                            codegen_cache, max_events=2)
        assert len(interpreted.counterexamples) == 61
        _assert_equivalent(codegen, interpreted, "vgroup03/volunteer1")
        assert _rendered(codegen) == _rendered(interpreted)


class TestShardedCodegen:
    def test_group1_sharded_codegen_matches_single_compiled(self,
                                                            codegen_cache):
        """Two shard processes regenerate their executors from the
        digest-keyed source cache; merged verdicts and canonical traces
        must match the single-worker interpreted oracle byte-for-byte."""
        from repro.engine.batch import VerificationJob
        from repro.engine.parallel import explore_sharded

        config = GROUP_BUILDERS["group1-entry-and-mode"]()
        sharded = explore_sharded(
            VerificationJob("codegen-x2", config,
                            options=EngineOptions(
                                max_events=2, engine="codegen",
                                codegen_cache=codegen_cache, workers=2)),
            workers=2)
        single = explore_sharded(
            VerificationJob("interpreted-x1", config,
                            options=EngineOptions(max_events=2,
                                                  engine="interpreted")),
            workers=1)
        assert sharded.states_explored == single.states_explored
        assert sharded.transitions == single.transitions
        assert (sorted(sharded.counterexamples)
                == sorted(single.counterexamples))
        assert _trace_view(sharded) == _trace_view(single)
