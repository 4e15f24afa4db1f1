"""The benchmark's own tests.

Run from the repository root (the file is not named ``test_*.py``, so the
repository's test suite does not collect it)::

    python -m pytest perfbench/selftest.py -q

The workload smokes start real ``repro`` processes and take about 40 s.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import answers  # noqa: E402
import inputs  # noqa: E402
import launcher  # noqa: E402
import run  # noqa: E402


def _files(directory):
    found = {}
    for base, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


class TestInputs:
    def test_same_seed_gives_byte_identical_inputs(self, tmp_path):
        for workload in inputs.WORKLOADS:
            first, second = tmp_path / (workload + "-a"), tmp_path / (
                workload + "-b")
            inputs.write_inputs(workload, 5, str(first))
            inputs.write_inputs(workload, 5, str(second))
            assert _files(str(first)) == _files(str(second))

    def test_another_seed_gives_another_stream(self):
        systems = {"g%02d" % i: "{}" for i in range(6)}
        systems.update({"v%02d/p%d" % (g, p): '{"g": %d, "p": %d}' % (g, p)
                        for g in range(10) for p in range(7)})
        for workload in inputs.WORKLOADS:
            one = inputs.make_plan(workload, 1, systems)["ops"]
            two = inputs.make_plan(workload, 2, systems)["ops"]
            assert one != two
            assert one == inputs.make_plan(workload, 1, systems)["ops"]

    def test_service_stream_repeats_below_half_and_never_early(self):
        volunteers = {"v%02d/p%d" % (g, p): "text-%d" % (g * 7 + p // 2)
                      for g in range(10) for p in range(7)}
        import random
        stream = inputs.service_stream(volunteers, random.Random(0))
        distinct = len(set(volunteers.values()))
        for round_index in range(inputs.SERVICE_ROUNDS):
            ops = [op for op in stream if op[2] == round_index]
            texts = [volunteers[i] for i, repeat, _ in ops if not repeat]
            assert sorted(texts) == sorted(set(volunteers.values()))
            assert len(texts) == distinct
            seen = set()
            for config_id, repeat, _ in ops:
                assert repeat == (volunteers[config_id] in seen)
                seen.add(volunteers[config_id])
            share = sum(1 for op in ops if op[1]) / len(ops)
            assert 0.4 < share < 0.5


class TestAnswers:
    def test_doctored_expected_answer_is_a_failure(self, monkeypatch,
                                                   capsys):
        expected = answers.load_expected()
        doctored = dict(expected)
        for key, answer in expected.items():
            doctored[key] = dict(answer, states_explored=answer[
                "states_explored"] + 1)
        monkeypatch.setattr(run, "load_expected", lambda: doctored)
        monkeypatch.chdir(ROOT)
        line = run.run(run.build_parser().parse_args(
            ["--workload", "quick-checks", "--seed", "3", "--seconds", "1"]))
        assert line["attempted"] >= 1
        assert line["failed"] == line["attempted"]
        assert line["correct"] is False
        assert "states_explored is" in capsys.readouterr().out

    def test_mismatch_names_the_field(self):
        expected = {"a@1": {"verdict": "safe", "states_explored": 3,
                            "transitions": 2, "violated": [],
                            "counterexample_sha256": "x"}}
        assert answers.mismatch(expected, "a@1", dict(expected["a@1"])) is None
        assert answers.mismatch(expected, "a@1", {"verdict": "safe"}) is None
        reason = answers.mismatch(expected, "a@1", {"transitions": 5})
        assert "transitions" in reason
        assert answers.mismatch(expected, "b@1", {}) is not None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_self_time_of_a_nested_call_tree(self):
        clock = FakeClock()
        tracer = launcher.Tracer(clock=clock)

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 2.0
            traced_leaf()
            traced_leaf()
            clock.now += 0.5

        def recursive(depth):
            clock.now += 1.0
            if depth:
                traced_recursive(depth - 1)

        def root():
            clock.now += 3.0
            traced_middle()
            traced_leaf()
            traced_recursive(2)

        traced_leaf = tracer.wrap("leaf", leaf)
        traced_middle = tracer.wrap("middle", middle)
        traced_recursive = tracer.wrap("recursive", recursive)
        tracer.wrap("root", root)()
        layers = tracer.layers()
        assert layers["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
        assert layers["middle"] == {"calls": 1, "total_s": 4.5,
                                    "self_s": 2.5}
        # nested spans of one layer count once and add only self time
        assert layers["recursive"] == {"calls": 1, "total_s": 3.0,
                                       "self_s": 3.0}
        assert layers["root"] == {"calls": 1, "total_s": 11.5, "self_s": 3.0}
        assert sum(row["self_s"] for row in layers.values()) == 11.5

    def test_counter_and_exceptions(self):
        clock = FakeClock()
        tracer = launcher.Tracer(clock=clock)

        def lookup(seen):
            clock.now += 0.25
            if seen is None:
                raise KeyError("boom")
            return seen

        traced = tracer.wrap("visited", lookup, count_if=lambda seen: not seen,
                             counter="visited.fresh")
        for seen in (False, True, False):
            traced(seen)
        with pytest.raises(KeyError):
            traced(None)
        layers = tracer.layers()
        assert layers["visited"]["calls"] == 4
        assert layers["visited"]["self_s"] == 1.0
        assert layers["visited.fresh"]["calls"] == 2

    def test_tail_is_the_eleventh_largest(self):
        assert run.tail_latency([3.0, 1.0, 4.0, 2.0]) == (3.0, 75.0, 1)
        assert run.tail_latency([3.0]) == (3.0, 100.0, 0)
        value, percentile, beyond = run.tail_latency(
            [float(i) for i in range(1, 41)])
        assert (value, percentile, beyond) == (30.0, 75.0, 10)



class TestContract:
    def test_benchmark_json_names_what_the_runner_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert [w["name"] for w in spec["workloads"]] == list(
            inputs.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
            run.PER_LAYER)

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
        shutil.copytree(HERE, str(tmp_path / "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        outcome = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "deep-check",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
        assert outcome.returncode != 0
        assert '"metrics"' not in outcome.stdout


def _run_benchmark(workload, trace):
    outcome = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert outcome.returncode == 0, outcome.stderr
    return json.loads(outcome.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("deep-check", 1), ("quick-checks", 0), ("quick-checks", 1),
    ("vetting-service", 0), ("vetting-service", 1)])
def test_workload_smoke(workload, trace):
    line = _run_benchmark(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert sorted(line["metrics"]) == sorted(name for name, _ in names)
    for name, unit in names:
        assert line["metrics"][name]["unit"] == unit
