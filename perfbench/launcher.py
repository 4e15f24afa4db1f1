"""Traced launcher: run ``repro.cli.main(argv)`` with span wrappers installed.

Usage (``src`` must be importable, e.g. ``PYTHONPATH=src``)::

    python perfbench/launcher.py --trace-out TRACE.json check group1 --json
    python perfbench/launcher.py --trace-out TRACE.json serve --port 0

The launcher times ``import repro.cli`` (after the few stdlib modules it
needs itself), wraps the public functions each layer is entered through
(:data:`LAYERS`), calls ``repro.cli.main`` and, when it returns, writes
every layer's call count, total time and *self* time (span time minus
the time of child spans) to ``TRACE.json``.
Spans are aggregated in memory per thread as they close, so the hot
layers (a state copy per transition) cost two clock reads and a few
list operations each, and nothing is written until the end.  ``serve``
returns after SIGINT, so its trace is written on a clean stop.

No file of the program changes: every wrapper is installed from here,
around calls into a layer, never inside one.
"""

import functools
import importlib
import json
import sys
import threading
import time

#: ``(layer, module, attribute path)``; a path ``Class.method`` wraps
#: the method on the class, a bare name wraps the module function and
#: every reference to it that a loaded ``repro`` module holds
LAYERS = (
    ("corpus.parse", "repro.corpus.loader", "load_app"),
    ("model.build", "repro.model.generator", "ModelGenerator.build"),
    ("properties.select", "repro.properties.catalog", "build_properties"),
    ("properties.select", "repro.properties.selection", "select_relevant"),
    ("model.cascade", "repro.model.cascade", "Cascade.run_external"),
    ("model.state.copy", "repro.model.state", "ModelState.copy"),
    ("model.state.fingerprint", "repro.model.state", "ModelState.fingerprint"),
    ("properties.invariants", "repro.checker.compiled",
     "CompiledProperties.failed_invariants"),
    ("checker.monitor", "repro.checker.monitor", "SafetyMonitor.finish"),
    ("engine.visited", "repro.checker.visited", "ExactVisitedSet.seen_state"),
    ("engine.visited", "repro.engine.visited",
     "FingerprintVisitedSet.seen_state"),
    ("engine.visited", "repro.engine.visited",
     "CollapseVisitedSet.seen_state"),
    ("engine.visited", "repro.engine.visited",
     "BitStateVisitedSet.seen_state"),
    ("engine.visited", "repro.engine.visited", "SpillVisitedStore.seen_state"),
    ("engine.frontier", "repro.engine.frontier", "DepthFirstFrontier.push"),
    ("engine.frontier", "repro.engine.frontier", "DepthFirstFrontier.pop"),
    ("engine.frontier", "repro.engine.frontier", "BreadthFirstFrontier.push"),
    ("engine.frontier", "repro.engine.frontier", "BreadthFirstFrontier.pop"),
    ("engine.frontier", "repro.engine.frontier", "PriorityFrontier.push"),
    ("engine.frontier", "repro.engine.frontier", "PriorityFrontier.pop"),
    ("engine.loop", "repro.engine.core", "ExplorationEngine.run"),
    ("engine.canonicalize", "repro.engine.core",
     "ExplorationEngine._rehydrate_lean_traces"),
    ("engine.canonicalize", "repro.engine.core",
     "ExplorationEngine._canonicalize_traces"),
)

#: the codegen tier's layers; its module is imported only by that tier,
#: so these are installed only when the command line selects it
CODEGEN_LAYERS = (
    ("model.codegen.plan", "repro.model.codegen", "CodegenPlan.__init__"),
    ("model.cascade", "repro.model.codegen", "CodegenPlan.evaluate_slab"),
)

#: the vetting service's layers, installed for ``serve``
SERVICE_LAYERS = (
    ("service.digest", "repro.service.digest", "job_cache_key"),
    ("service.digest", "repro.service.digest", "job_config_digest"),
    ("service.store.get", "repro.service.store", "ResultStore.get"),
    ("service.store.put", "repro.service.store", "ResultStore.put"),
)

#: objects whose release is timed as ``engine.teardown``
RELEASED = (("repro.engine.core", "ExplorationEngine"),
            ("repro.engine.result", "ExplorationResult"))

#: a counter incremented when a wrapped call's result says so:
#: a visited-store lookup that returns False admitted a fresh state
FRESH_COUNTER = "engine.visited.fresh"


class Tracer:
    """In-memory span aggregation with per-layer self time.

    Each thread keeps its own stack of open spans and its own table
    ``layer -> [calls, total_s, self_s]``, so wrapped calls take no lock.
    When a span closes, its duration is added to the parent span's child
    time; the span's self time is its duration minus its child time.  A
    call nested directly inside a span of the same layer adds only its
    self time, so ``calls`` and ``total_s`` count the outermost spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, layer, fn, count_if=None, counter=None):
        """``fn`` wrapped in a span of ``layer``.

        When ``count_if(result)`` is true, ``counter`` is incremented.
        """
        clock = self.clock
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = thread_state()
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0, 0.0, 0.0]
                if not nested:
                    row[0] += 1
                    row[1] += elapsed
                row[2] += elapsed - frame[1]
            if count_if is not None and count_if(result):
                row = table.get(counter)
                if row is None:
                    row = table[counter] = [0, 0.0, 0.0]
                row[0] += 1
            return result

        return traced

    def layers(self):
        """``{layer: {"calls", "total_s", "self_s"}}`` over all threads."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (calls, total, self_time) in list(table.items()):
                row = merged.setdefault(layer, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_time
        return {layer: {"calls": calls, "total_s": total, "self_s": self_time}
                for layer, (calls, total, self_time) in sorted(merged.items())}


def _release(obj):
    """Drop an object's attributes, so their release happens in the span."""
    obj.__dict__.clear()


def install(tracer, layers):
    """Wrap every ``(layer, module, path)`` target."""
    for layer, module_name, path in layers:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        kwargs = {}
        if attr == "seen_state":
            kwargs = {"count_if": lambda seen: not seen,
                      "counter": FRESH_COUNTER}
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(layer, owner.__dict__[attr],
                                             **kwargs))
        else:
            original = getattr(module, attr)
            traced = tracer.wrap(layer, original, **kwargs)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if name.split(".")[0] == "repro" and \
                        getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, traced)


def install_release(tracer):
    """Time the release of engines and results as ``engine.teardown``."""
    for module_name, class_name in RELEASED:
        cls = getattr(importlib.import_module(module_name), class_name)
        cls.__del__ = tracer.wrap("engine.teardown", _release)


def main(argv):
    """Run ``repro`` traced; argv is ``--trace-out PATH <repro argv...>``."""
    if len(argv) < 3 or argv[0] != "--trace-out":
        sys.stderr.write("usage: launcher.py --trace-out PATH <repro args>\n")
        return 2
    out_path, repro_argv = argv[1], argv[2:]
    started = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - started

    tracer = Tracer()
    layers = LAYERS
    if "codegen" in repro_argv:
        layers += CODEGEN_LAYERS
    if repro_argv[0] == "serve":
        layers += SERVICE_LAYERS
    install(tracer, layers)
    install_release(tracer)
    try:
        code = repro.cli.main(repro_argv)
    finally:
        trace = {"argv": repro_argv, "import_s": import_s,
                 "layers": tracer.layers()}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
