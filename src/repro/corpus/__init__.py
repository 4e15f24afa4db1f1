"""The app corpus: market apps, malicious apps, and IFTTT rules.

Market apps are SmartThings-style Groovy sources (including every app the
paper names); malicious apps re-implement the behaviours of the nine
ContexIoT apps used in §10.3.  :func:`corpus_registry` is a lazy
name -> :class:`~repro.smartapp.app.SmartApp` mapping that parses an app
the first time it is looked up; the ``load_*`` functions materialize
whole collections as plain dicts over the same parse memo.
"""

from repro.corpus.loader import (
    CorpusMissingError,
    CorpusRegistry,
    corpus_path,
    corpus_registry,
    load_all_apps,
    load_app_files,
    load_discovery_apps,
    load_malicious_apps,
    load_market_apps,
    read_app_sources,
)
from repro.corpus.groups import (
    EXPERT_GROUPS,
    VOLUNTEER_GROUPS,
    expert_configuration,
    group_names,
    volunteer_group_names,
)

__all__ = [
    "CorpusMissingError",
    "CorpusRegistry",
    "corpus_path",
    "corpus_registry",
    "load_all_apps",
    "load_app_files",
    "load_discovery_apps",
    "load_malicious_apps",
    "load_market_apps",
    "read_app_sources",
    "EXPERT_GROUPS",
    "VOLUNTEER_GROUPS",
    "expert_configuration",
    "group_names",
    "volunteer_group_names",
]
