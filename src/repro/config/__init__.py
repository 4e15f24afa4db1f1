"""Configuration Extractor (§7).

IoT platforms manage installed apps/devices through a companion or web app;
the paper crawls SmartThings' management web app with Jsoup.  Here:

* :mod:`repro.config.schema` - the configuration model: installed devices,
  installed apps with their input bindings, contacts, device-association
  roles; JSON load/save.
* :mod:`repro.config.portal` - a simulated management web app that renders
  the system as HTML.
* :mod:`repro.config.extractor` - the crawler stand-in: parses the portal's
  HTML back into a :class:`SystemConfiguration` (plus the direct JSON path).
"""

from repro.config.extractor import ConfigurationExtractor, extract_from_html
from repro.config.portal import ManagementPortal
from repro.config.schema import (
    AppConfig,
    ConfigError,
    DeviceConfig,
    SystemConfiguration,
)

__all__ = [
    "ConfigurationExtractor",
    "extract_from_html",
    "ManagementPortal",
    "AppConfig",
    "ConfigError",
    "DeviceConfig",
    "SystemConfiguration",
]
