"""Corpus sanity: every bundled app parses, analyzes, and binds."""

import contextlib
import io
import os
import sys
import threading

import pytest

import repro.corpus.loader as loader
from repro.corpus import (
    CorpusRegistry,
    corpus_path,
    corpus_registry,
    load_all_apps,
    load_discovery_apps,
    load_malicious_apps,
    load_market_apps,
)
from repro.corpus.groups import (
    EXPERT_GROUPS,
    GROUP_BUILDERS,
    VOLUNTEER_GROUPS,
    expert_configuration,
)


class TestCorpusShape:
    def test_market_corpus_size(self, market_apps):
        # one representative implementation per distinct behaviour for the
        # paper's 150-app study (§10.1)
        assert len(market_apps) >= 50

    def test_nine_malicious_apps(self, malicious_apps):
        assert len(malicious_apps) == 9

    def test_no_name_collisions(self, market_apps, malicious_apps):
        assert not set(market_apps) & set(malicious_apps)

    def test_paper_named_apps_present(self, market_apps):
        for name in ["Virtual Thermostat", "Brighten Dark Places",
                     "Let There Be Dark!", "Auto Mode Change", "Unlock Door",
                     "Big Turn On", "Good Night", "Light Follows Me",
                     "Light Off When Close", "Energy Saver", "Make It So",
                     "Darken Behind Me", "Automated Light",
                     "Brighten My Path", "It's Too Cold"]:
            assert name in market_apps, name


class TestEveryApp:
    def test_every_app_has_definition(self, registry):
        for name, app in registry.items():
            assert app.name == name
            assert app.description

    def test_every_app_has_subscription_or_schedule(self, registry):
        for name, app in registry.items():
            assert app.subscriptions or app.schedules, name

    def test_every_subscription_handler_defined(self, registry):
        for name, app in registry.items():
            methods = {m.name for m in app.program.methods}
            for sub in app.subscriptions:
                assert sub.handler in methods, (name, sub.handler)

    def test_every_device_input_has_known_capability(self, registry):
        from repro.devices.capabilities import capability

        for name, app in registry.items():
            for declaration in app.device_inputs:
                assert capability(declaration.capability), (
                    name, declaration.capability)

    def test_every_app_type_inferable(self, registry):
        from repro.translator.types import infer_app_types

        for app in registry.values():
            engine = infer_app_types(app)
            assert engine.globals


class TestGroups:
    def test_six_expert_groups(self):
        assert len(EXPERT_GROUPS) == 6

    def test_expert_groups_buildable(self, generator):
        for group_name in EXPERT_GROUPS:
            config = expert_configuration(group_name)
            assert config.validate() == []
            system = generator.build(config)
            assert system.apps

    def test_expert_group_apps_exist(self, registry):
        for group_name in EXPERT_GROUPS:
            config = expert_configuration(group_name)
            for app_config in config.apps:
                assert app_config.app in registry, (group_name,
                                                    app_config.app)

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            expert_configuration("group99")

    def test_ten_volunteer_groups_of_about_five(self, registry):
        assert len(VOLUNTEER_GROUPS) == 10
        for group_name, apps in VOLUNTEER_GROUPS.items():
            assert 4 <= len(apps) <= 6, group_name
            for app in apps:
                assert app in registry, (group_name, app)

    def test_group_builders_are_fresh(self):
        first = GROUP_BUILDERS["group1-entry-and-mode"]()
        second = GROUP_BUILDERS["group1-entry-and-mode"]()
        assert first is not second
        first.add_device("extra", "smart-outlet")
        assert second.device("extra") is None


class TestMaliciousBehaviors:
    """Each malicious app must carry its documented attack behaviour."""

    def test_fake_co_alarm_raises_fake_event(self, malicious_apps):
        source = malicious_apps["Fake CO Alarm"].source
        assert "sendEvent" in source or "createEvent" in source

    def test_exfiltrators_use_http(self, malicious_apps):
        for name in ("Lock Code Exfiltrator", "Presence Tracker"):
            assert "httpPost" in malicious_apps[name].source, name

    def test_alarm_neutralizer_unsubscribes(self, malicious_apps):
        assert "unsubscribe" in malicious_apps["Alarm Neutralizer"].source

    def test_door_openers_unlock_or_open(self, malicious_apps):
        for name in ("Away Door Unlocker", "Night Lock Opener",
                     "Midnight Door Opener"):
            source = malicious_apps[name].source
            assert ("unlock" in source) or (".open()" in source), name


def _eager_collection(subdir):
    """The reference loader: parse every file, a later file wins a name."""
    apps = {}
    directory = corpus_path(subdir)
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".groovy"):
            with open(os.path.join(directory, filename),
                      encoding="utf-8") as handle:
                app = loader.load_app(handle.read(), filename)
            apps[app.name] = app
    return apps


def _app_source(name):
    """A minimal valid app whose ``definition`` names ``name`` verbatim."""
    return ('definition(name: "%s", description: "test app")\n'
            'preferences { input "lock1", "capability.lock" }\n'
            'def installed() { subscribe(lock1, "lock", onLock) }\n'
            'def onLock(evt) { lock1.lock() }\n' % name)


@pytest.fixture()
def private_corpus(tmp_path, monkeypatch):
    """An empty corpus root with a fresh index and parse memo."""
    monkeypatch.setattr(loader, "_CORPUS_DIR", str(tmp_path))
    monkeypatch.setattr(loader, "_INDEX", {})
    monkeypatch.setattr(loader, "_PARSED", {})

    def write(subdir, filename, source):
        os.makedirs(str(tmp_path / subdir), exist_ok=True)
        (tmp_path / subdir / filename).write_text(source, encoding="utf-8")
    return write


def _describe(registry):
    return [(name, app.name, app.source_name, app.source)
            for name, app in registry.items()]


class TestLazyRegistry:
    @pytest.mark.parametrize("subdir", ["market", "malicious", "discovery"])
    def test_index_key_is_the_parsed_name(self, subdir):
        for name, path in loader._index(subdir).items():
            with open(path, encoding="utf-8") as handle:
                app = loader.load_app(handle.read(), os.path.basename(path))
            assert app.name == name, path

    def test_collections_match_the_eager_loader(self):
        market = _eager_collection("market")
        malicious = _eager_collection("malicious")
        combined = dict(market)
        combined.update(malicious)
        assert _describe(load_market_apps()) == _describe(market)
        assert _describe(load_malicious_apps()) == _describe(malicious)
        assert _describe(load_all_apps()) == _describe(combined)
        assert (_describe(load_discovery_apps())
                == _describe(_eager_collection("discovery")))

    def test_loaders_return_fresh_mutable_dicts(self):
        first = load_all_apps()
        first["extra"] = None
        assert "extra" not in load_all_apps()
        assert "extra" not in corpus_registry()

    def test_duplicate_names_keep_eager_precedence(self, private_corpus):
        private_corpus("market", "a-first.groovy", _app_source("Twin"))
        private_corpus("market", "b-second.groovy",
                       _app_source("Twin") + "// second\n")
        private_corpus("market", "c-other.groovy", _app_source("Other"))
        private_corpus("malicious", "z-evil.groovy",
                       _app_source("Other") + "// evil\n")
        registry = CorpusRegistry()
        assert list(registry) == ["Twin", "Other"]
        assert registry["Twin"].source_name == "b-second.groovy"
        assert registry["Other"].source_name == "z-evil.groovy"

    def test_unreadable_name_is_parsed_at_index_time(self, private_corpus):
        private_corpus("market", "escaped.groovy",
                       _app_source('Say \\"Hi\\"'))
        private_corpus("market", "nameless.groovy", "def helper() { 1 }\n")
        registry = CorpusRegistry(("market",))
        assert sorted(registry) == ["Say \"Hi\"", "nameless.groovy"]
        assert len(loader._PARSED) == 2
        for name in registry:
            assert registry[name].name == name

    def test_name_mismatch_raises(self, private_corpus):
        private_corpus("market", "decoy.groovy",
                       '// definition(name: "Decoy")\n'
                       + _app_source("Real"))
        registry = CorpusRegistry(("market",))
        assert "Decoy" in registry
        with pytest.raises(ValueError, match="parses as 'Real'"):
            registry["Decoy"]
        with pytest.raises(ValueError):
            registry.get("Decoy")

    def test_lookups_parse_only_the_named_app(self, private_corpus):
        private_corpus("market", "one.groovy", _app_source("One"))
        private_corpus("market", "two.groovy", _app_source("Two"))
        registry = CorpusRegistry(("market",))
        assert len(registry) == 2 and "Two" in registry
        assert registry.get("Missing") is None
        assert not loader._PARSED
        assert registry["One"] is CorpusRegistry(("market",))["One"]
        assert len(loader._PARSED) == 1

    def test_concurrent_lookups_serve_one_object(self, private_corpus):
        names = ["App %d" % index for index in range(6)]
        for name in names:
            private_corpus("market", name.replace(" ", "-") + ".groovy",
                           _app_source(name))
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: seen.append(
                [CorpusRegistry(("market",))[name] for name in names]))
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8
        for apps in seen:
            assert all(a is b for a, b in zip(apps, seen[0]))

    def test_check_parses_only_the_configured_apps(self, monkeypatch):
        from repro.cli import main

        parsed = []
        original = loader.load_app

        def counting(source, source_name):
            parsed.append(source_name)
            return original(source, source_name)

        monkeypatch.setattr(loader, "load_app", counting)
        monkeypatch.setattr(loader, "_PARSED", {})
        with contextlib.redirect_stdout(io.StringIO()):
            main(["check", "group1-entry-and-mode", "--max-events", "1"])
        config = expert_configuration("group1-entry-and-mode")
        files = {os.path.basename(loader._index("market")[app.app])
                 for app in config.apps}
        assert sorted(parsed) == sorted(files)
        assert len(parsed) < len(corpus_registry())

    def test_scan_update_does_not_leak_into_the_shared_registry(self):
        from repro.cli import main
        from repro.engine.batch import REGISTRY_CORPUS, _resolve_registry

        with contextlib.redirect_stdout(io.StringIO()):
            main(["scan", "--include-unverifiable"])
        shared = _resolve_registry(REGISTRY_CORPUS)
        assert shared is corpus_registry()
        assert not set(load_discovery_apps()) & set(shared)

    def test_overlay_shadows_a_corpus_app(self):
        from repro.engine.batch import overlay_sources

        shared = corpus_registry()
        original = shared["Unlock Door"]
        source = original.source + "\n// uploaded revision\n"
        overlaid = overlay_sources(shared, {"Unlock Door": source})
        assert overlaid["Unlock Door"].source == source
        assert overlaid["Good Night"] is shared["Good Night"]
        assert shared["Unlock Door"] is original
