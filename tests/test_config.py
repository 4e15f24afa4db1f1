"""Unit tests for the Configuration Extractor (§7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.extractor import ConfigurationExtractor, extract_from_html
from repro.config.portal import ManagementPortal
from repro.config.schema import (
    AppConfig,
    ConfigError,
    DeviceConfig,
    SystemConfiguration,
)


def sample_config():
    config = SystemConfiguration(contacts=["+1-555-0100"],
                                 initial_mode="Home")
    config.add_device("alicePresence", "smartsense-presence",
                      "Alice's Presence")
    config.add_device("doorLock", "zwave-lock", "Door Lock")
    config.association.update({"main_door_lock": "doorLock",
                               "temp_low": 65})
    config.add_app("Auto Mode Change", {"people": ["alicePresence"],
                                        "awayMode": "Away",
                                        "homeMode": "Home"})
    config.add_app("Unlock Door", {"lock1": "doorLock"})
    return config


class TestSchema:
    def test_json_roundtrip(self):
        config = sample_config()
        restored = SystemConfiguration.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()

    def test_device_lookup(self):
        config = sample_config()
        assert config.device("doorLock").type == "zwave-lock"
        assert config.device("ghost") is None

    def test_device_names(self):
        assert sample_config().device_names() == ["alicePresence", "doorLock"]

    def test_default_modes(self):
        assert SystemConfiguration().modes == ["Home", "Away", "Night"]

    def test_validate_clean(self):
        assert sample_config().validate() == []

    def test_validate_duplicate_device(self):
        config = sample_config()
        config.add_device("doorLock", "zwave-lock")
        assert any("duplicate device" in e for e in config.validate())

    def test_validate_duplicate_app_instance(self):
        config = sample_config()
        config.add_app("Unlock Door", {"lock1": "doorLock"})
        assert any("duplicate app instance" in e for e in config.validate())

    def test_app_config_instance_name_defaults(self):
        app = AppConfig("Unlock Door")
        assert app.instance_name == "Unlock Door"

    def test_device_config_label_defaults(self):
        device = DeviceConfig("x", "zwave-lock")
        assert device.label == "x"


class TestPortalRoundTrip:
    """Portal renders HTML; the extractor crawls it back (the Jsoup path)."""

    @pytest.fixture()
    def extracted(self, registry):
        config = sample_config()
        portal = ManagementPortal(config)
        return ConfigurationExtractor(registry).extract(portal)

    def test_devices_roundtrip(self, extracted):
        assert {(d.name, d.type) for d in extracted.devices} == {
            ("alicePresence", "smartsense-presence"),
            ("doorLock", "zwave-lock")}

    def test_device_labels_roundtrip(self, extracted):
        assert extracted.device("doorLock").label == "Door Lock"

    def test_apps_roundtrip(self, extracted):
        assert [a.app for a in extracted.apps] == ["Auto Mode Change",
                                                   "Unlock Door"]

    def test_multi_device_binding_roundtrip(self, extracted):
        auto = extracted.apps[0]
        assert auto.bindings["people"] == ["alicePresence"]

    def test_scalar_bindings_roundtrip(self, extracted):
        auto = extracted.apps[0]
        assert auto.bindings["awayMode"] == "Away"

    def test_single_device_binding_roundtrip(self, extracted):
        unlock = extracted.apps[1]
        assert unlock.bindings["lock1"] == "doorLock"

    def test_contacts_roundtrip(self, extracted):
        assert extracted.contacts == ["+1-555-0100"]

    def test_modes_roundtrip(self, extracted):
        assert extracted.modes == ["Home", "Away", "Night"]
        assert extracted.initial_mode == "Home"

    def test_association_device_roundtrip(self, extracted):
        assert extracted.association["main_door_lock"] == "doorLock"

    def test_association_numeric_roundtrip(self, extracted):
        assert extracted.association["temp_low"] == 65

    def test_extracted_config_is_buildable(self, extracted, generator):
        system = generator.build(extracted)
        assert len(system.devices) == 2
        assert len(system.apps) == 2


class TestExtractorEdgeCases:
    def test_extract_json_path(self, registry):
        extractor = ConfigurationExtractor(registry)
        config = extractor.extract_json(sample_config().to_json())
        assert config.device("doorLock") is not None

    def test_empty_page(self):
        config = extract_from_html("<html><body></body></html>")
        assert config.devices == []
        assert config.apps == []

    def test_html_escaping_roundtrip(self, registry):
        config = SystemConfiguration()
        config.add_device("d1", "zwave-lock", 'Lock & "Main" <door>')
        extracted = ConfigurationExtractor(registry).extract(
            ManagementPortal(config))
        assert extracted.device("d1").label == 'Lock & "Main" <door>'


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=12)


def _shaped(fields):
    """Objects over the schema's own keys, so validation runs deep."""
    return st.dictionaries(st.sampled_from(fields), _JSON, max_size=4)


_SHAPED_CONFIG = st.fixed_dictionaries({}, optional={
    "devices": st.lists(_shaped(["name", "type", "label"]), max_size=3)
    | _JSON,
    "apps": st.lists(_shaped(["app", "bindings", "instance_name"]),
                     max_size=3) | _JSON,
    "contacts": _JSON, "modes": _JSON, "initial_mode": _JSON,
    "association": _JSON, "http_allowed": _JSON,
})


class TestSchemaValidation:
    @pytest.mark.parametrize("document, message", [
        (5, "configuration: expected object, got int"),
        ({"devices": 5}, "devices: expected list, got int"),
        ({"devices": [{"type": "zwave-lock"}]}, "devices[0]: missing 'name'"),
        ({"devices": [{"name": "d", "type": None}]},
         "devices[0].type: expected string, got null"),
        ({"apps": [{"bindings": {}}]}, "apps[0]: missing 'app'"),
        ({"apps": [{"app": "A", "bindings": {"x": {"y": 1}}}]},
         "apps[0].bindings.x: expected string, number, bool, null or list"),
        ({"association": {"r": [1, []]}},
         "association.r[1]: expected string, number, bool or null, got list"),
        ({"contacts": ["+1", 2]}, "contacts[1]: expected string, got int"),
        ({"initial_mode": 3}, "initial_mode: expected string, got int"),
    ])
    def test_errors_name_the_field(self, document, message):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfiguration.from_dict(document)
        assert str(excinfo.value).startswith(message)
        assert isinstance(excinfo.value, ValueError)

    def test_optional_nulls_mean_defaults(self):
        config = SystemConfiguration.from_dict(
            {"modes": None, "association": None, "contacts": None,
             "apps": [{"app": "A", "bindings": None,
                       "instance_name": None}]})
        assert config.modes == ["Home", "Away", "Night"]
        assert config.apps[0].instance_name == "A"
        assert config.association == {} and config.contacts == []

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_JSON, _SHAPED_CONFIG))
    def test_arbitrary_json_is_a_configuration_or_config_error(self, data):
        try:
            config = SystemConfiguration.from_dict(data)
        except ConfigError:
            return
        restored = SystemConfiguration.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()
