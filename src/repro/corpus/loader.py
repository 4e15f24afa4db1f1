"""Corpus loading: a lazy name index over the bundled ``.groovy`` sources.

A check parses only the apps its configuration names.  Each corpus
collection is indexed by app name with one regex over the file text
(``definition(name: "...")``, as :attr:`SmartApp.name` reads it); an app
is parsed the first time it is looked up and memoized for the process.
"""

import functools
import os
import re
from collections.abc import Mapping

from repro.smartapp import load_app

_CORPUS_DIR = os.path.dirname(os.path.abspath(__file__))

#: the literal app name of a ``definition(name: "...")`` call; a name with
#: escapes or GString interpolation does not match and is parsed instead
_DEFINITION_NAME = re.compile(r'\bdefinition\s*\(\s*name\s*:\s*"([^"\\$]*)"')

#: the analyzable corpus (market + malicious); later collections win
ANALYZABLE = ("market", "malicious")

_INDEX = {}    # subdir -> {app name: file path}
_PARSED = {}   # file path -> SmartApp, shared by every registry


class CorpusMissingError(FileNotFoundError):
    """A bundled corpus directory is absent from the installation.

    Subclasses :class:`FileNotFoundError` so callers that guarded against
    the old bare error keep working, while the message explains *which*
    corpus collection is missing and where it was expected.
    """

    def __init__(self, subdir, directory):
        self.subdir = subdir
        self.directory = directory
        super().__init__(
            "corpus collection %r is missing (expected .groovy sources "
            "under %s); the bundled corpus ships inside the repro package "
            "- reinstall the package or restore src/repro/corpus/%s/"
            % (subdir, directory, subdir))


def corpus_path(*parts):
    """Absolute path inside the corpus package."""
    return os.path.join(_CORPUS_DIR, *parts)


def _parse_file(path):
    """The memoized parse of one corpus file."""
    app = _PARSED.get(path)
    if app is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        app = _PARSED.setdefault(path,
                                 load_app(source, os.path.basename(path)))
    return app


def _indexed_name(path):
    """The name :attr:`SmartApp.name` will report, read without parsing.

    Falls back to a full parse when the regex cannot read a name.
    """
    with open(path, "r", encoding="utf-8") as handle:
        match = _DEFINITION_NAME.search(handle.read())
    if match and match.group(1):
        return match.group(1)
    return _parse_file(path).name


def _index(subdir):
    """``{app name: path}`` for one collection; a later file wins a name."""
    index = _INDEX.get(subdir)
    if index is None:
        directory = corpus_path(subdir)
        if not os.path.isdir(directory):
            raise CorpusMissingError(subdir, directory)
        index = {}
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".groovy"):
                path = os.path.join(directory, filename)
                index[_indexed_name(path)] = path
        _INDEX[subdir] = index
    return index


class CorpusRegistry(Mapping):
    """Read-only ``name -> SmartApp`` over corpus collections.

    Iteration, ``len`` and ``in`` read only the name index; indexing
    parses that one app (once per process).  Collections listed later
    shadow earlier ones, as malicious apps follow market apps.
    """

    def __init__(self, subdirs=ANALYZABLE):
        self._paths = {}
        for subdir in subdirs:
            self._paths.update(_index(subdir))

    def __getitem__(self, name):
        app = _parse_file(self._paths[name])
        if app.name != name:
            raise ValueError("corpus index names %s %r but it parses as %r"
                             % (self._paths[name], name, app.name))
        return app

    def __contains__(self, name):
        return name in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self):
        return len(self._paths)


@functools.lru_cache(maxsize=None)
def corpus_registry():
    """The process-wide lazy registry of the analyzable corpus."""
    return CorpusRegistry()


def load_market_apps():
    """name -> SmartApp for every market app in the corpus."""
    return dict(CorpusRegistry(("market",)))


def load_malicious_apps():
    """name -> SmartApp for the nine ContexIoT-style malicious apps."""
    return dict(CorpusRegistry(("malicious",)))


def load_discovery_apps():
    """The four ContexIoT apps using dynamic device discovery (§10.1).

    IotSan cannot model-check these ("we will extend IotSan to handle
    such apps in future work"); :mod:`repro.smartapp.discovery` detects
    and flags them instead.
    """
    return dict(CorpusRegistry(("discovery",)))


def _parse_app_files(paths):
    """Yield ``(SmartApp, raw source)`` per ``.groovy`` file.

    The submit-from-file path of the vetting service: apps a user uploads
    for vetting are parsed exactly like bundled corpus sources and can be
    overlaid onto the corpus registry.
    """
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        yield load_app(source, os.path.basename(path)), source


def load_app_files(paths):
    """name -> SmartApp for arbitrary ``.groovy`` files outside the corpus."""
    return {app.name: app for app, _source in _parse_app_files(paths)}


def read_app_sources(paths):
    """name -> raw Groovy source for ``.groovy`` files outside the corpus.

    The wire form of submit-from-file: raw text serializes into a
    ``POST /submit`` payload (and pickles into worker processes) without
    shipping parsed ASTs; each consumer parses on first use.
    """
    return {app.name: source for app, source in _parse_app_files(paths)}


def load_all_apps():
    """The combined *analyzable* registry (market + malicious).

    Dynamic-discovery apps are deliberately excluded; load them with
    :func:`load_discovery_apps` and vet them with
    :func:`repro.smartapp.scan_app`.
    """
    return dict(corpus_registry())
