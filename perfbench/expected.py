"""Regenerate ``expected.json`` from the interpreted oracle.

Run from the repository root::

    PYTHONPATH=src python perfbench/expected.py

Every (configuration, max-events) pair a workload can draw is checked
twice through ``repro.cli.main``: with ``--engine interpreted`` (the
oracle, whose answer is written) and with the default tier (the one the
benchmark times).  If any answer differs between the two, nothing is
written and the exit code is 1.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from answers import EXPECTED_PATH, answer_from_result, answer_key  # noqa: E402
import inputs  # noqa: E402


def _check(target, max_events, engine=None):
    from repro.cli import main

    argv = ["check", target, "--max-events", str(max_events), "--json"]
    if engine:
        argv += ["--engine", engine]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code not in (0, 1):
        raise SystemExit("repro %s exited %d" % (" ".join(argv), code))
    return answer_from_result(json.loads(out.getvalue()))


def cases(system_ids):
    """``[(id, max_events)]`` for every answer a workload can need."""
    wanted = [(inputs.DEEP_CHECK_TARGET, inputs.DEEP_CHECK_MAX_EVENTS)]
    wanted += [(i, inputs.QUICK_MAX_EVENTS) for i in system_ids]
    wanted += [(i, inputs.SERVICE_MAX_EVENTS) for i in system_ids if "/" in i]
    return wanted


def main():
    """Check every case on both tiers; write the oracle's answers."""
    systems = inputs.all_systems()
    answers, disagreements = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        for config_id, max_events in cases(list(systems)):
            path = os.path.join(scratch, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(systems[config_id].to_json())
            oracle = _check(path, max_events, engine="interpreted")
            timed = _check(path, max_events)
            key = answer_key(config_id, max_events)
            if oracle != timed:
                disagreements.append(key)
            answers[key] = oracle
            print("%-48s %s %6d states" % (key, oracle["verdict"],
                                           oracle["states_explored"]))
    if disagreements:
        print("refusing to write %s: the default tier disagrees with the "
              "interpreted oracle on %s" % (EXPECTED_PATH,
                                            ", ".join(disagreements)))
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"generated_by": "perfbench/expected.py (--engine "
                   "interpreted, cross-checked against the default tier)",
                   "answers": answers}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d answers to %s" % (len(answers), EXPECTED_PATH))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
