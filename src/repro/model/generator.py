"""Model Generator (§8): bind apps + configuration + devices into a system.

Takes (i) the IR of the apps' event handlers, (ii) the configuration from
the Configuration Extractor, and (iii) the safety properties' role
vocabulary, and produces the :class:`~repro.model.system.IoTSystem` the
checker explores.  Device-association roles that are derivable from device
types (every presence sensor is a ``presence_sensors`` member; a single lock
is *the* ``main_door_lock``) are filled in automatically; ambiguous roles
(which outlet feeds the heater?) must come from the user - mirroring §7's
device-association interface.
"""

from repro.devices.instance import DeviceInstance
from repro.model.system import AppInstance, IoTSystem


class ConfigurationError(ValueError):
    """Raised when a configuration cannot be bound to the app corpus."""


#: roles auto-derived from capabilities: role -> (capability, plural)
_DERIVED_ROLES = [
    ("presence_sensors", "presenceSensor", True),
    ("motion_sensors", "motionSensor", True),
    ("smoke_detectors", "smokeDetector", True),
    ("co_detectors", "carbonMonoxideDetector", True),
    ("water_sensors", "waterSensor", True),
    ("entry_contacts", "contactSensor", True),
    ("humidity_sensors", "relativeHumidityMeasurement", True),
    ("sleep_sensors", "sleepSensor", True),
    ("locks", "lock", True),
    ("window_shades", "windowShade", True),
    ("main_door_lock", "lock", False),
    ("garage_door", "garageDoorControl", False),
    ("alarm", "alarm", False),
    ("siren", "alarm", False),
    ("thermostat", "thermostat", False),
    ("camera", "imageCapture", False),
    ("speaker", "musicPlayer", False),
    ("temp_sensor", "temperatureMeasurement", False),
    ("entry_door_control", "doorControl", False),
    ("water_valve", "valve", False),
    ("leak_shutoff_valve", "valve", False),
]


class ModelGenerator:
    """Builds :class:`IoTSystem` objects from configurations.

    ``app_registry`` maps app names to parsed :class:`SmartApp` objects
    (usually the lazy :func:`repro.corpus.corpus_registry`, so a build
    parses only the apps the configuration names).
    """

    def __init__(self, app_registry):
        self.app_registry = app_registry

    def build(self, config, enable_failures=False, strict=True,
              user_mode_events=False):
        """Assemble the system; ``strict`` rejects unknown apps/devices."""
        devices = {}
        for device_config in config.devices:
            devices[device_config.name] = DeviceInstance(
                device_config.name, device_config.type, device_config.label)

        apps = []
        for app_config in config.apps:
            smart_app = self.app_registry.get(app_config.app)
            if smart_app is None:
                if strict:
                    raise ConfigurationError("unknown app %r" % app_config.app)
                continue
            self._check_bindings(smart_app, app_config, devices, strict)
            apps.append(AppInstance(smart_app, app_config.bindings,
                                    instance_name=app_config.instance_name))

        association = self._derive_association(config, devices)
        return IoTSystem(
            devices=devices,
            apps=apps,
            contacts=config.contacts,
            modes=config.modes,
            initial_mode=config.initial_mode,
            association=association,
            http_allowed=config.http_allowed,
            enable_failures=enable_failures,
            user_mode_events=user_mode_events,
        )

    def _check_bindings(self, smart_app, app_config, devices, strict):
        for input_name, value in app_config.bindings.items():
            declaration = smart_app.input(input_name)
            if declaration is None:
                if strict:
                    raise ConfigurationError(
                        "app %r has no input %r" % (app_config.app, input_name))
                continue
            if declaration.is_device:
                names = value if isinstance(value, list) else [value]
                for name in names:
                    device = devices.get(name)
                    if device is None:
                        if strict:
                            raise ConfigurationError(
                                "binding %s.%s references unknown device %r"
                                % (app_config.app, input_name, name))
                        continue
                    if not device.has_capability(declaration.capability):
                        if strict:
                            raise ConfigurationError(
                                "device %r lacks capability %r required by "
                                "%s.%s" % (name, declaration.capability,
                                           app_config.app, input_name))
        if strict:
            for declaration in smart_app.inputs:
                if declaration.required and declaration.name not in app_config.bindings:
                    if declaration.default is not None:
                        app_config.bindings[declaration.name] = declaration.default
                    else:
                        raise ConfigurationError(
                            "required input %s.%s is unbound"
                            % (app_config.app, declaration.name))

    def _derive_association(self, config, devices):
        association = dict(config.association)
        for role, capability_name, plural in _DERIVED_ROLES:
            if role in association:
                continue
            matching = [name for name, device in devices.items()
                        if device.has_capability(capability_name)]
            matching.sort()
            if plural and matching:
                association[role] = matching
            elif not plural and len(matching) == 1:
                association[role] = matching[0]
        return association


def build_system(app_registry, config, enable_failures=False, strict=True,
                 user_mode_events=False):
    """One-call convenience over :class:`ModelGenerator`."""
    return ModelGenerator(app_registry).build(config,
                                              enable_failures=enable_failures,
                                              strict=strict,
                                              user_mode_events=user_mode_events)
