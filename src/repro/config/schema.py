"""System configuration schema.

A :class:`SystemConfiguration` is everything the Configuration Extractor
learns about one deployment: (i) installed devices, (ii) installed smart
apps, (iii) per-app input bindings, plus the user-supplied device
association info ("this new outlet is used to control an AC", §7) and the
configured contacts for the leakage properties.
"""

import json

_TYPE_NAMES = {dict: "object", list: "list", str: "string", bool: "bool",
               int: "int", float: "float", type(None): "null"}
#: what a binding or an association role may hold (or a list of these)
_SCALARS = (str, int, float, bool, type(None))


class ConfigError(ValueError):
    """A configuration document that does not match the schema.

    The message names the offending field by its path, e.g.
    ``devices: expected list, got int`` or ``apps[0]: missing 'app'``.
    """


def _join(path, key):
    return "%s.%s" % (path, key) if path else key


def _expect(value, kind, path, kind_name=None):
    """``value`` if it is a ``kind``, else :class:`ConfigError` at ``path``."""
    if not isinstance(value, kind):
        raise ConfigError("%s: expected %s, got %s" % (
            path, kind_name or _TYPE_NAMES[kind],
            _TYPE_NAMES.get(type(value), type(value).__name__)))
    return value


def _field(data, path, key, kind, required=False, default=None):
    """``data[key]`` checked against ``kind``; an optional ``null`` is
    treated as absent."""
    if key not in data or (data[key] is None and not required):
        if required:
            raise ConfigError("%s: missing %r" % (path or "configuration",
                                                  key))
        return default
    return _expect(data[key], kind, _join(path, key))


def _items(data, path, key):
    """A list field as ``[(item path, item)]``."""
    where = _join(path, key)
    return [("%s[%d]" % (where, index), item)
            for index, item in enumerate(_field(data, path, key, list,
                                                default=()))]


def _strings(data, path, key):
    return [_expect(item, str, where)
            for where, item in _items(data, path, key)]


def _values(data, path, key):
    """A bindings / association object: name -> scalar or list of scalars."""
    values = _field(data, path, key, dict, default={})
    for name, value in values.items():
        where = "%s.%s" % (_join(path, key), name)
        if isinstance(value, list):
            for index, item in enumerate(value):
                _expect(item, _SCALARS, "%s[%d]" % (where, index),
                        "string, number, bool or null")
        else:
            _expect(value, _SCALARS, where,
                    "string, number, bool, null or list")
    return values


class DeviceConfig:
    """One installed device: unique name + device type + display label."""

    __slots__ = ("name", "type", "label")

    def __init__(self, name, type, label=None):  # noqa: A002
        self.name = name
        self.type = type
        self.label = label or name

    def to_dict(self):
        return {"name": self.name, "type": self.type, "label": self.label}

    @classmethod
    def from_dict(cls, data, path="device"):
        """Validated load; raises :class:`ConfigError` naming ``path``."""
        _expect(data, dict, path)
        return cls(_field(data, path, "name", str, required=True),
                   _field(data, path, "type", str, required=True),
                   _field(data, path, "label", str))

    def __repr__(self):
        return "DeviceConfig(%r, %r)" % (self.name, self.type)


class AppConfig:
    """One installed app: which corpus app, and how its inputs are bound.

    ``bindings`` maps input name -> device name, list of device names, or a
    literal value (for ``number``/``enum``/... inputs).  ``instance_name``
    disambiguates multiple installs of the same app.
    """

    __slots__ = ("app", "bindings", "instance_name")

    def __init__(self, app, bindings=None, instance_name=None):
        self.app = app
        self.bindings = dict(bindings or {})
        self.instance_name = instance_name or app

    def to_dict(self):
        return {"app": self.app, "bindings": self.bindings,
                "instance_name": self.instance_name}

    @classmethod
    def from_dict(cls, data, path="app"):
        """Validated load; raises :class:`ConfigError` naming ``path``."""
        _expect(data, dict, path)
        return cls(_field(data, path, "app", str, required=True),
                   _values(data, path, "bindings"),
                   _field(data, path, "instance_name", str))

    def __repr__(self):
        return "AppConfig(%r)" % (self.instance_name,)


class SystemConfiguration:
    """The full extracted configuration of one IoT system."""

    def __init__(self, devices=(), apps=(), contacts=(), modes=None,
                 initial_mode="Home", association=None, http_allowed=()):
        self.devices = list(devices)
        self.apps = list(apps)
        #: configured phone numbers / contacts (P42)
        self.contacts = list(contacts)
        self.modes = list(modes) if modes is not None else ["Home", "Away", "Night"]
        self.initial_mode = initial_mode
        #: role -> device name / value (device association info, §7)
        self.association = dict(association or {})
        #: apps allowed to use network interfaces (user privacy preference, §3)
        self.http_allowed = list(http_allowed)

    # -- helpers ---------------------------------------------------------------

    def device(self, name):
        for device in self.devices:
            if device.name == name:
                return device
        return None

    def device_names(self):
        return [device.name for device in self.devices]

    def add_device(self, name, type_name, label=None):
        self.devices.append(DeviceConfig(name, type_name, label))
        return self

    def add_app(self, app, bindings=None, instance_name=None):
        self.apps.append(AppConfig(app, bindings, instance_name))
        return self

    def validate(self):
        """Basic well-formedness: unique names, bindings reference devices."""
        errors = []
        seen = set()
        for device in self.devices:
            if device.name in seen:
                errors.append("duplicate device name %r" % device.name)
            seen.add(device.name)
        instance_names = set()
        for app in self.apps:
            if app.instance_name in instance_names:
                errors.append("duplicate app instance %r" % app.instance_name)
            instance_names.add(app.instance_name)
            for input_name, value in app.bindings.items():
                names = value if isinstance(value, list) else [value]
                for name in names:
                    if isinstance(name, str) and name in seen:
                        continue
        return errors

    # -- serialization -----------------------------------------------------------

    def to_dict(self):
        return {
            "devices": [d.to_dict() for d in self.devices],
            "apps": [a.to_dict() for a in self.apps],
            "contacts": self.contacts,
            "modes": self.modes,
            "initial_mode": self.initial_mode,
            "association": self.association,
            "http_allowed": self.http_allowed,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        """Validated load of :meth:`to_dict`'s shape.

        Raises :class:`ConfigError` (a :class:`ValueError`) naming the
        first field that does not match, never another exception.
        """
        _expect(data, dict, "configuration")
        return cls(
            devices=[DeviceConfig.from_dict(item, where)
                     for where, item in _items(data, "", "devices")],
            apps=[AppConfig.from_dict(item, where)
                  for where, item in _items(data, "", "apps")],
            contacts=_strings(data, "", "contacts"),
            modes=(None if data.get("modes") is None
                   else _strings(data, "", "modes")),
            initial_mode=_field(data, "", "initial_mode", str,
                                default="Home"),
            association=_values(data, "", "association"),
            http_allowed=_strings(data, "", "http_allowed"),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def __repr__(self):
        return "SystemConfiguration(devices=%d, apps=%d)" % (
            len(self.devices), len(self.apps))
