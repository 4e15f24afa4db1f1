"""Time-to-verdict benchmark of ``repro`` over the paper's 76 systems.

Run from the repository root::

    python3 perfbench/run.py --workload deep-check --seed 1 --seconds 30

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``deep-check`` - ``repro check group3-climate --json`` at the CLI
  defaults, one process per operation, one closed-loop client;
* ``quick-checks`` - ``repro check <config.json> --max-events 1 --json``
  over configurations drawn from the 76 systems, one process each;
* ``vetting-service`` - ``repro serve`` with a fresh store, one
  closed-loop client submitting volunteer configurations at
  ``max_events`` 2, about half of them repeats.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced operations with operations run under
``perfbench/launcher.py`` and reports the per-layer metrics.  Every
answer is compared with ``perfbench/expected.json``.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A report with every
operation is written to ``.perfbench/reports/``.
"""

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from answers import (  # noqa: E402
    answer_from_result, answer_key, load_expected, mismatch)
from inputs import WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: every run ends (its operations killed if need be) this long after start
RUN_DEADLINE_S = 165.0
#: share of a traced service run's window spent on the untraced service;
#: the traced service then replays the same submissions
SERVICE_UNTRACED_SHARE = 0.45
#: longest a submission may wait for its verdict, in seconds
SUBMIT_WAIT_S = 60.0

END_TO_END = (
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("throughput_ops", "1/s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("process.import_s", "s"),
    ("process.outside_engine_s", "s"),
    ("corpus.parse_s", "s"),
    ("corpus.apps_parsed", "count"),
    ("model.build_s", "s"),
    ("properties.select_s", "s"),
    ("model.cascade_s", "s"),
    ("model.cascade.calls", "count"),
    ("model.state.copy_s", "s"),
    ("model.state.copies", "count"),
    ("model.state.fingerprint_s", "s"),
    ("model.state.fingerprints", "count"),
    ("properties.invariants_s", "s"),
    ("properties.memo_hit_ratio", "ratio"),
    ("checker.monitor_s", "s"),
    ("engine.visited_s", "s"),
    ("engine.visited.fresh_ratio", "ratio"),
    ("engine.visited.bytes_per_state", "B"),
    ("engine.frontier_s", "s"),
    ("engine.loop_self_s", "s"),
    ("engine.canonicalize_s", "s"),
    ("engine.successor_cache.hit_ratio", "ratio"),
    ("engine.teardown_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.layer_coverage", "ratio"),
)

UNITS_PER_LAYER = dict(PER_LAYER)
#: metrics printed and kept in the report file but not in BENCHMARK.json:
#: they exist on one workload only, or (failed_share) are 0 when all is well
REPORT_ONLY = (
    ("failed_share", "ratio"),
    ("hit_latency_s.p50", "s"),
    ("miss_latency_s.p50", "s"),
    ("model.codegen.plan_s", "s"),
    ("service.digest_s", "s"),
    ("service.store.get_s", "s"),
    ("service.store.put_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.overhead_s", "s"),
)
UNITS = dict(END_TO_END + PER_LAYER + REPORT_ONLY)

#: traced span layers -> the per-layer metric of their self time
SPAN_METRICS = (
    ("corpus.parse", "corpus.parse_s"),
    ("model.build", "model.build_s"),
    ("properties.select", "properties.select_s"),
    ("model.cascade", "model.cascade_s"),
    ("model.state.copy", "model.state.copy_s"),
    ("model.state.fingerprint", "model.state.fingerprint_s"),
    ("properties.invariants", "properties.invariants_s"),
    ("checker.monitor", "checker.monitor_s"),
    ("engine.visited", "engine.visited_s"),
    ("engine.frontier", "engine.frontier_s"),
    ("engine.loop", "engine.loop_self_s"),
    ("engine.teardown", "engine.teardown_s"),
    ("model.codegen.plan", "model.codegen.plan_s"),
    ("service.digest", "service.digest_s"),
    ("service.store.get", "service.store.get_s"),
    ("service.store.put", "service.store.put_s"),
)
#: traced span layers -> the per-layer metric of their call count
COUNT_METRICS = (
    ("corpus.parse", "corpus.apps_parsed"),
    ("model.cascade", "model.cascade.calls"),
    ("model.state.copy", "model.state.copies"),
    ("model.state.fingerprint", "model.state.fingerprints"),
)


#: what one HTTP exchange with the service can raise
REQUEST_ERRORS = (OSError, http.client.HTTPException)


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


class Context:
    """One run: where it works, its deadline and its child processes."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.deadline = self.started + RUN_DEADLINE_S
        self.work = os.path.join(root, ".perfbench", "run-%s-s%d-%d"
                                 % (workload, seed, os.getpid()))
        self.children = []

    def remaining(self):
        """Seconds left before the run deadline (at least 1)."""
        return max(1.0, self.deadline - time.monotonic())

    def env(self, setup_dir, hashseed):
        """A hermetic environment for one child process."""
        home = os.path.join(setup_dir, "home")
        return {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.path.join(self.root, "src"),
            "PYTHONHASHSEED": str(hashseed),
            "PYTHONUNBUFFERED": "1",
            "HOME": home,
            "XDG_CACHE_HOME": os.path.join(home, ".cache"),
            "TMPDIR": os.path.join(setup_dir, "tmp"),
            "REPRO_CODEGEN_CACHE": os.path.join(setup_dir, "codegen-cache"),
            "LC_ALL": "C.UTF-8",
        }

    def spawn(self, argv, env, cwd, log_stem):
        """Start a child with stdout/stderr to files; returns (proc, t0)."""
        with open(log_stem + ".out", "wb") as out, \
                open(log_stem + ".err", "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=cwd)
        self.children.append(proc)
        return proc, started

    def reap(self, proc, timeout=None):
        """Wait for a child; returns (end time, exit code, max RSS in MB).

        The child is killed if it outlives ``timeout`` (default: the run
        deadline).
        """
        timer = threading.Timer(self.remaining() if timeout is None
                                else timeout, _kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return ended, proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self):
        """Kill and reap every child still running."""
        for proc in list(self.children):
            _kill(proc)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            self.children.remove(proc)


def _kill(proc):
    if proc.returncode is None:
        try:
            proc.kill()
        except OSError:
            pass


def _tail(path, limit=300):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()[-limit:].strip().replace("\n", " | ")
    except OSError:
        return ""


def environment(root):
    """Host facts every result records."""
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": commit or "unknown (not a git checkout)",
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _make_setup_dir(ctx, index):
    setup_dir = os.path.join(ctx.work, "setup-%s" % index)
    for sub in ("inputs", "tmp", "home", "codegen-cache", "logs", "traces"):
        os.makedirs(os.path.join(setup_dir, sub))
    return setup_dir


def _write_inputs(ctx, setup_dir):
    inputs_dir = os.path.join(setup_dir, "inputs")
    proc, _ = ctx.spawn(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload",
         ctx.workload, "--seed", str(ctx.seed), "--out", inputs_dir],
        ctx.env(setup_dir, ctx.seed % (2 ** 32 - 1) + 1), setup_dir,
        os.path.join(setup_dir, "logs", "inputs"))
    _, code, _ = ctx.reap(proc)
    if code != 0:
        raise BenchError("input generation failed: %s"
                         % _tail(os.path.join(setup_dir, "logs",
                                              "inputs.err")))
    with open(os.path.join(inputs_dir, "plan.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


class Service:
    """A running ``repro serve`` child."""

    def __init__(self, ctx, proc, port, log_stem, trace_path=None):
        self.ctx = ctx
        self.proc = proc
        self.port = port
        self.log_stem = log_stem
        self.trace_path = trace_path

    def request(self, method, path, body=None, timeout=SUBMIT_WAIT_S + 30):
        """One HTTP exchange; returns (status, parsed JSON or None)."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=min(timeout,
                                                self.ctx.remaining()))
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, None


def start_service(ctx, setup_dir, hashseed, store_name, traced=False):
    """Start ``repro serve`` on a free port; returns once /healthz answers."""
    store = os.path.join(setup_dir, store_name)
    args = ["serve", "--port", "0", "--store", store]
    trace_path = None
    if traced:
        trace_path = os.path.join(setup_dir, "traces", "serve.json")
        argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                "--trace-out", trace_path] + args
    else:
        argv = [sys.executable, "-m", "repro"] + args
    stem = os.path.join(setup_dir, "logs", "serve-%s" % store_name)
    proc, _ = ctx.spawn(argv, ctx.env(setup_dir, hashseed), setup_dir, stem)
    port = None
    deadline = time.monotonic() + 60
    while port is None:
        if proc.poll() is not None or time.monotonic() > deadline:
            raise BenchError("repro serve did not start: %s"
                             % _tail(stem + ".err"))
        with open(stem + ".out", "r", encoding="utf-8") as handle:
            banner = handle.readline()
        if "http://" in banner and banner.endswith("\n"):
            port = int(banner.split("http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
        else:
            time.sleep(0.005)
    service = Service(ctx, proc, port, stem, trace_path)
    while True:
        try:
            status, body = service.request("GET", "/healthz", timeout=5)
            if status == 200 and body and body.get("status") == "ok":
                return service
        except REQUEST_ERRORS:
            pass
        if proc.poll() is not None or time.monotonic() > deadline:
            raise BenchError("repro serve never answered /healthz: %s"
                             % _tail(stem + ".err"))
        time.sleep(0.005)


def stop_service(ctx, service):
    """SIGINT the service (a clean stop); returns its max RSS in MB."""
    if service.proc.poll() is None:
        service.proc.send_signal(signal.SIGINT)
    _, code, rss_mb = ctx.reap(service.proc, timeout=30)
    if code not in (0, -signal.SIGINT):
        raise BenchError("repro serve exited %d: %s"
                         % (code, _tail(service.log_stem + ".err")))
    return rss_mb


def set_up(ctx):
    """Set up ``SETUP_REPEATS`` times, timing each; the last one is used.

    Returns ``(setup_dir, plan, service or None, durations)``.
    """
    durations, service = [], None
    for index in range(SETUP_REPEATS):
        if service is not None:
            stop_service(ctx, service)
        began = time.monotonic()
        setup_dir = _make_setup_dir(ctx, index)
        plan = _write_inputs(ctx, setup_dir)
        service = None
        if ctx.workload == "vetting-service":
            service = start_service(ctx, setup_dir, plan["hashseed"], "store")
        durations.append(time.monotonic() - began)
    return setup_dir, plan, service, durations


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def check_argv(workload, op):
    """The ``repro`` arguments of one check operation."""
    argv = ["check", op["target"]]
    if workload != "deep-check":
        argv += ["--max-events", str(op["max_events"])]
    return argv + ["--json"]


def run_check(ctx, expected, setup_dir, index, op, traced):
    """One ``repro check`` process; returns its operation record."""
    args = check_argv(ctx.workload, op)
    tag = "%s%d" % ("t" if traced else "u", index)
    trace_path = None
    if traced:
        trace_path = os.path.join(setup_dir, "traces", tag + ".json")
        argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                "--trace-out", trace_path] + args
    else:
        argv = [sys.executable, "-m", "repro"] + args
    stem = os.path.join(setup_dir, "logs", tag)
    proc, started = ctx.spawn(argv, ctx.env(setup_dir, op["hashseed"]),
                              os.path.join(setup_dir, "inputs"), stem)
    ended, code, rss_mb = ctx.reap(proc)
    record = {"id": op["id"], "latency_s": ended - started, "rss_mb": rss_mb,
              "exit": code, "verified": True, "trace": trace_path}
    if code not in (0, 1):
        record["error"] = "exit code %d: %s" % (code, _tail(stem + ".err"))
        return record
    try:
        with open(stem + ".out", "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except ValueError as exc:
        record["error"] = "unreadable --json output: %s" % exc
        return record
    _absorb_result(record, result)
    record["error"] = mismatch(expected, answer_key(op["id"],
                                                    op["max_events"]),
                               record["answer"])
    return record


def _absorb_result(record, result):
    """Copy what the metrics need out of one full result JSON."""
    record["answer"] = answer_from_result(result)
    record["states"] = result["states_explored"]
    record["elapsed"] = result["elapsed"]
    record["canonicalize_s"] = result.get("profile", {}).get(
        "canonicalize", 0.0)
    record["memo"] = (result["property_stats"].get("invariant_memo_hits", 0),
                      result["property_stats"].get("invariant_memo_misses",
                                                   0))
    record["cache"] = (result.get("cache_hits", 0),
                       result.get("cache_misses", 0))
    record["visited"] = (result["visited_stats"].get("approx_bytes", 0),
                         result["visited_stats"].get("stored", 0))


def run_checks(ctx, expected, setup_dir, plan, traced_run):
    """Closed loop, one client: operations until the window closes.

    In a traced run each operation runs untraced, then traced, on the
    same input.
    """
    untraced, traced = [], []
    began = time.monotonic()
    for index, op in enumerate(plan["ops"]):
        if time.monotonic() - began >= ctx.seconds:
            break
        untraced.append(run_check(ctx, expected, setup_dir, index, op,
                                  traced=False))
        if traced_run:
            traced.append(run_check(ctx, expected, setup_dir, index, op,
                                    traced=True))
    return untraced, traced, time.monotonic() - began


def submit_stream(ctx, expected, service, plan, bodies, window=None,
                  count=None):
    """Submit in order, one at a time, until the window closes or
    ``count`` submissions are done; returns (records, window seconds).

    At the end of each round of the plan every stored result of the
    round is checked and the store is emptied (``POST /gc``); that pause
    is not part of the window.
    """
    records, this_round = [], []
    paused = 0.0
    began = time.monotonic()
    current_round = plan["ops"][0]["round"]
    for index, op in enumerate(plan["ops"]):
        if count is not None and index >= count:
            break
        if (window is not None
                and time.monotonic() - began - paused >= window):
            break
        if op["round"] != current_round:
            pause_began = time.monotonic()
            _end_round(expected, service, this_round)
            this_round, current_round = [], op["round"]
            paused += time.monotonic() - pause_began
        record = {"id": op["id"], "max_events": op["max_events"],
                  "repeat": op["repeat"], "verified": False}
        records.append(record)
        this_round.append(record)
        started = time.monotonic()
        try:
            status, snapshot = service.request("POST", "/submit",
                                               body=bodies[index])
        except REQUEST_ERRORS as exc:
            record["latency_s"] = time.monotonic() - started
            record["error"] = "request failed: %r" % exc
            continue
        record["latency_s"] = time.monotonic() - started
        if status != 200 or not snapshot:
            record["error"] = "HTTP %s: %s" % (status, snapshot)
            continue
        if snapshot.get("status") != "done":
            record["error"] = "job %s: %s" % (snapshot.get("status"),
                                              snapshot.get("error"))
            continue
        record["cache_key"] = snapshot["cache_key"]
        record["hit"] = bool(snapshot.get("from_cache"))
        record["verified"] = not record["hit"]
        record["queue_wait_s"] = snapshot["started"] - snapshot["submitted"]
        record["run_s"] = snapshot["finished"] - snapshot["started"]
        record["elapsed"] = snapshot.get("elapsed", 0.0)
        record["states"] = snapshot.get("states_explored", 0)
        record["error"] = mismatch(
            expected, answer_key(op["id"], op["max_events"]),
            {"verdict": snapshot.get("verdict"),
             "states_explored": snapshot.get("states_explored"),
             "violated": snapshot.get("violated_property_ids")})
    elapsed = time.monotonic() - began - paused
    _check_stored(expected, service, this_round)
    return records, elapsed


def _end_round(expected, service, records):
    """Check a finished round's stored results, then empty the store."""
    _check_stored(expected, service, records)
    status, body = service.request("POST", "/gc",
                                   body=json.dumps({"keep": 0}).encode())
    if status != 200:
        raise BenchError("POST /gc answered HTTP %s: %s" % (status, body))


def _check_stored(expected, service, records):
    """Fetch each stored result once and compare its full answer."""
    stored = {}
    for record in records:
        key = record.get("cache_key")
        if key is None:
            continue
        if key not in stored:
            try:
                status, body = service.request("GET", "/results/" + key)
            except REQUEST_ERRORS:
                status, body = None, None
            stored[key] = body.get("result") if status == 200 and body \
                else None
        result = stored[key]
        if result is None:
            record["error"] = record.get("error") or "no stored result"
            continue
        full = {}
        _absorb_result(full, result)
        record["answer"] = full["answer"]
        if record["verified"]:
            for field in ("canonicalize_s", "memo", "cache", "visited"):
                record[field] = full[field]
        record["error"] = record.get("error") or mismatch(
            expected, answer_key(record["id"], record["max_events"]),
            full["answer"])


def run_service(ctx, expected, setup_dir, plan, service, traced_run):
    """The vetting-service workload on the service set-up started."""
    bodies = []
    for op in plan["ops"]:
        with open(os.path.join(setup_dir, "inputs", op["target"]), "r",
                  encoding="utf-8") as handle:
            config = json.load(handle)
        bodies.append(json.dumps({
            "config": config, "name": op["id"],
            "options": {"max_events": op["max_events"]},
            "wait": SUBMIT_WAIT_S}).encode("utf-8"))
    window = ctx.seconds * (SERVICE_UNTRACED_SHARE if traced_run else 1.0)
    untraced, elapsed = submit_stream(ctx, expected, service, plan, bodies,
                                      window=window)
    peak_rss_mb = stop_service(ctx, service)
    traced, trace_path = [], None
    if traced_run:
        traced_service = start_service(ctx, setup_dir, plan["hashseed"],
                                       "traced-store", traced=True)
        traced, _ = submit_stream(ctx, expected, traced_service, plan,
                                  bodies, count=len(untraced))
        stop_service(ctx, traced_service)
        trace_path = traced_service.trace_path
    return untraced, traced, elapsed, peak_rss_mb, trace_path


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies):
    """``(value, percentile, beyond)``: the highest percentile with at
    least ten samples beyond it, i.e. the 11th-largest sample.

    With ten samples or fewer no percentile has ten beyond it; the
    second-largest sample (one beyond it) is returned, so one stall of
    the host does not set the tail of a short run alone.  A single
    sample is returned as it is, with ``beyond`` 0.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = 10 if count > 10 else min(1, count - 1)
    return (ordered[count - 1 - beyond], 100.0 * (count - beyond) / count,
            beyond)


def merge_layers(traces):
    """Sum the layer tables of several trace files."""
    merged = {}
    for trace in traces:
        for layer, row in trace["layers"].items():
            into = merged.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            for field in into:
                into[field] += row[field]
    return merged


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(records, window_s, setup_s, peak_rss_mb):
    """The end-to-end metrics of one untraced run's operations."""
    latencies = [r["latency_s"] for r in records]
    verified = [r for r in records if r["verified"] and "states" in r]
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": tail,
        "throughput_ops": len(records) / window_s,
        "states_per_s": _ratio(sum(r["states"] for r in verified),
                               sum(r["latency_s"] for r in verified)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    notes = {"latency_s.tail": "p%.1f of %d samples, %d beyond"
             % (percentile, len(latencies), beyond),
             "latency_s.p50": "%d samples" % len(latencies)}
    extra = {"failed_share": _ratio(sum(1 for r in records if r["error"]),
                                    len(records))}
    hits = [r["latency_s"] for r in records if r.get("hit")]
    misses = [r["latency_s"] for r in records if r.get("hit") is False]
    if hits or misses:
        extra["hit_latency_s.p50"] = statistics.median(hits) if hits else None
        extra["miss_latency_s.p50"] = (statistics.median(misses)
                                       if misses else None)
        notes["hit_latency_s.p50"] = "%d samples" % len(hits)
        notes["miss_latency_s.p50"] = "%d samples" % len(misses)
    return metrics, extra, notes


def layer_metrics(untraced, traced, traces, process_per_op):
    """Per-layer metrics of one traced run.

    Times and counts are per traced operation; ratios are pooled over
    the run.  ``process_per_op`` is true when each operation is its own
    process, so its wall time includes the import.  Returns
    ``(metrics, report_only, layers)``.
    """
    ops = len(traced)
    layers = merge_layers(traces)
    metrics, report = {}, {}
    for layer, name in SPAN_METRICS:
        target = metrics if name in UNITS_PER_LAYER else report
        target[name] = layers.get(layer, {}).get("self_s", 0.0) / ops
    for layer, name in COUNT_METRICS:
        metrics[name] = layers.get(layer, {}).get("calls", 0) / ops
    imports = [t["import_s"] for t in traces]
    metrics["process.import_s"] = statistics.mean(imports)
    verified = [r for r in untraced if r["verified"] and "elapsed" in r]
    metrics["process.outside_engine_s"] = statistics.mean(
        [r["latency_s"] - r["elapsed"] for r in verified]) if verified else 0.0
    results = [r for r in traced if r["verified"] and "memo" in r]
    metrics["properties.memo_hit_ratio"] = _ratio(
        sum(r["memo"][0] for r in results),
        sum(r["memo"][0] + r["memo"][1] for r in results))
    metrics["engine.successor_cache.hit_ratio"] = _ratio(
        sum(r["cache"][0] for r in results),
        sum(r["cache"][0] + r["cache"][1] for r in results))
    metrics["engine.visited.bytes_per_state"] = _ratio(
        sum(r["visited"][0] for r in results),
        sum(r["visited"][1] for r in results))
    metrics["engine.canonicalize_s"] = sum(
        r["canonicalize_s"] for r in results) / ops
    metrics["engine.visited.fresh_ratio"] = _ratio(
        layers.get("engine.visited.fresh", {}).get("calls", 0),
        layers.get("engine.visited", {}).get("calls", 0))
    pairs = list(zip(untraced, traced))
    metrics["trace.overhead_share"] = _ratio(
        sum(t["latency_s"] for _, t in pairs),
        sum(u["latency_s"] for u, _ in pairs)) - 1.0
    covered = sum(row["self_s"] for row in layers.values())
    if process_per_op:
        covered += sum(imports)
    metrics["trace.layer_coverage"] = _ratio(
        covered, sum(t["latency_s"] for t in traced))
    if not process_per_op:
        misses = [r for r in traced if r.get("hit") is False]
        report["service.queue_wait_s"] = _mean(r["queue_wait_s"]
                                               for r in misses)
        report["service.run_s"] = _mean(r["run_s"] for r in misses)
        report["service.overhead_s"] = _mean(r["latency_s"] - r["run_s"]
                                             for r in misses)
    return metrics, report, layers


def _mean(values):
    values = list(values)
    return statistics.mean(values) if values else 0.0


def disagreements(untraced, traced):
    """Operations whose traced answer differs from the untraced one."""
    return [u["id"] for u, t in zip(untraced, traced)
            if u.get("answer") != t.get("answer")]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_report(header, metrics, notes, extra, layers=None):
    """Human-readable lines: every metric with its unit, then layers."""
    for key, value in header.items():
        print("%-28s %s" % (key, value))
    for name, value in metrics.items():
        print("%-34s %14s %-6s %s" % (name, _fmt(value), UNITS[name],
                                      notes.get(name, "")))
    for name, value in extra.items():
        print("%-34s %14s %-6s %s" % (name, _fmt(value), UNITS[name],
                                      notes.get(name, "(report only)")))
    if layers:
        wall = header.get("traced_op_wall_s") or 1.0
        print("layer self time (per traced run, all operations):")
        print("  %-28s %10s %10s %8s" % ("layer", "calls", "self_s", "share"))
        for layer, row in sorted(layers.items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            print("  %-28s %10d %10.4f %7.1f%%"
                  % (layer, row["calls"], row["self_s"],
                     100.0 * row["self_s"] / wall))


def run(args):
    """Set up, run one workload and report; returns the result line dict."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        raise BenchError("src/repro/cli.py not found under %s: run from the "
                         "repository root" % root)
    expected = load_expected()
    ctx = Context(root, args.workload, args.seed, args.seconds)
    host = environment(root)
    os.makedirs(ctx.work)
    try:
        # untimed: a fresh checkout compiles its bytecode once here, the
        # way any installation does before its first real use
        prime_dir = _make_setup_dir(ctx, "prime")
        proc, _ = ctx.spawn([sys.executable, "-c", "import repro.cli"],
                            ctx.env(prime_dir, 1), prime_dir,
                            os.path.join(prime_dir, "logs", "prime"))
        if ctx.reap(proc)[1] != 0:
            raise BenchError("cannot import repro: %s" % _tail(
                os.path.join(prime_dir, "logs", "prime.err")))
        setup_dir, plan, service, durations = set_up(ctx)
        setup_s = statistics.median(durations)
        traced_run = bool(args.trace)
        trace_files = []
        if ctx.workload == "vetting-service":
            untraced, traced, window, peak_rss, trace_path = run_service(
                ctx, expected, setup_dir, plan, service, traced_run)
            if trace_path:
                trace_files.append(trace_path)
        else:
            untraced, traced, window = run_checks(ctx, expected, setup_dir,
                                                  plan, traced_run)
            peak_rss = max(r["rss_mb"] for r in untraced)
            trace_files = [r["trace"] for r in traced]
        records = untraced + traced
        failed = [r for r in records if r.get("error")]
        disagree = disagreements(untraced, traced) if traced_run else []
        metrics, extra, notes = end_to_end_metrics(untraced, window, setup_s,
                                                   peak_rss)
        header = dict(host)
        header.update({"workload": ctx.workload, "seed": ctx.seed,
                       "seconds": ctx.seconds, "trace": args.trace,
                       "setup_runs_s": " ".join("%.3f" % d
                                                for d in durations),
                       "operations": "%d untraced, %d traced"
                       % (len(untraced), len(traced))})
        layers = None
        if traced_run:
            traces = []
            for path in trace_files:
                with open(path, "r", encoding="utf-8") as handle:
                    traces.append(json.load(handle))
            layer_values, report_only, layers = layer_metrics(
                untraced, traced, traces,
                process_per_op=ctx.workload != "vetting-service")
            header["traced_op_wall_s"] = sum(r["latency_s"] for r in traced)
            header["traced_answers_match"] = not disagree
            unreached = sorted(name for layer, name in SPAN_METRICS
                               if layers.get(layer, {}).get("calls", 0) == 0)
            header["layers_not_reached"] = ", ".join(unreached) or "none"
            extra.update(report_only)
            # the end-to-end figures of a traced run are printed for
            # reference only: its window is shared with traced operations
            extra.update(metrics)
            metrics = layer_values
        for record in failed[:5]:
            print("FAILED %s: %s" % (record["id"], record["error"]))
        print_report(header, metrics, notes, extra, layers)
        report_dir = os.path.join(root, ".perfbench", "reports")
        os.makedirs(report_dir, exist_ok=True)
        report_path = os.path.join(report_dir, "%s-seed%d-trace%d.json"
                                   % (ctx.workload, ctx.seed, args.trace))
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "metrics": metrics, "extra": extra,
                       "layers": layers, "setup_s": durations,
                       "operations": records}, handle, indent=1,
                      sort_keys=True, default=str)
        print("report: %s" % os.path.relpath(report_path, root))
        return {
            "correct": not failed and not disagree,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                        for name in metrics},
        }
    finally:
        ctx.stop_all()
        shutil.rmtree(ctx.work, ignore_errors=True)


def build_parser():
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None):
    """Command-line entry point."""
    args = build_parser().parse_args(argv)
    try:
        line = run(args)
    except (BenchError, OSError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
