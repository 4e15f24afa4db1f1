r"""Seeded inputs of each workload.

Run as a child process during set-up::

    PYTHONPATH=src python perfbench/inputs.py --workload quick-checks \
        --seed 7 --out DIR

It writes ``DIR/plan.json`` (the operations, in order) and one
``DIR/configs/<id>.json`` per configuration an operation uses, so the
program under test receives only files and arguments.  The same
workload and seed always give byte-identical files.

The 76 systems are the paper's manually configured ones: the six expert
groups plus ten volunteer groups configured by seven volunteer profiles.
"""

import argparse
import json
import os
import random

WORKLOADS = ("deep-check", "quick-checks", "vetting-service")

#: the largest expert system at the default event bound
DEEP_CHECK_TARGET = "group3-climate"
DEEP_CHECK_MAX_EVENTS = 3
QUICK_MAX_EVENTS = 1
SERVICE_MAX_EVENTS = 2
#: operations planned per run; more than any run can finish in time
DEEP_CHECK_OPS = 64
QUICK_OPS = 400
#: a repeat is placed in ``REPEATS`` of every ``PERIOD`` submissions,
#: evenly spread; below one half so the median latency is always a
#: verification's, never the midpoint between a store read and a run
REPEATS, PERIOD = 9, 20
#: service rounds planned; a round verifies each of the 54 distinct
#: volunteer systems once, which takes longer than 10 s
SERVICE_ROUNDS = 8


def _hashseed(rng):
    return rng.randrange(1, 2 ** 32 - 1)


def _slug(config_id):
    return config_id.replace("/", "__") + ".json"


def all_systems():
    """``{id: SystemConfiguration}`` for the 76 systems, ids sorted.

    Expert ids are group names (``group3-climate``); volunteer ids are
    ``<group>/<profile>`` (``vgroup01/volunteer1-maximalist``).
    """
    from repro.attribution.volunteers import all_volunteer_configurations
    from repro.corpus import load_all_apps
    from repro.corpus.groups import EXPERT_GROUPS, expert_configuration

    systems = {name: expert_configuration(name) for name in EXPERT_GROUPS}
    for (group, profile), config in all_volunteer_configurations(
            load_all_apps()).items():
        systems["%s/%s" % (group, profile)] = config
    return dict(sorted(systems.items()))


def service_stream(volunteers, rng):
    """Submission order: rounds of every distinct volunteer system, with
    repeats of the round's earlier submissions mixed in.

    ``volunteers`` maps ids to configuration text; ids with identical
    text are one system to the service's result store, so a round draws
    each distinct text once (under one of its ids).  Returns
    ``[(id, is_repeat, round)]``.  The runner clears the store between
    rounds, so every round's first submission of a text is a
    verification and a repeat is a store read.
    """
    by_text = {}
    for config_id in sorted(volunteers):
        by_text.setdefault(volunteers[config_id], []).append(config_id)
    distinct = sorted(by_text.values())
    stream = []
    for round_index in range(SERVICE_ROUNDS):
        fresh = [rng.choice(ids) for ids in distinct]
        rng.shuffle(fresh)
        seen, position = [], 0
        while fresh:
            repeat = (seen and (position + 1) * REPEATS // PERIOD
                      > position * REPEATS // PERIOD)
            if repeat:
                stream.append((rng.choice(seen), True, round_index))
            else:
                config_id = fresh.pop()
                seen.append(config_id)
                stream.append((config_id, False, round_index))
            position += 1
    return stream


def make_plan(workload, seed, systems):
    """The operations of one run, derived only from ``workload``, ``seed``
    and ``systems`` (``{id: configuration JSON text}``)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    plan = {"workload": workload, "seed": seed}
    if workload == "deep-check":
        plan["ops"] = [{"id": DEEP_CHECK_TARGET, "target": DEEP_CHECK_TARGET,
                        "max_events": DEEP_CHECK_MAX_EVENTS,
                        "hashseed": _hashseed(rng)}
                       for _ in range(DEEP_CHECK_OPS)]
    elif workload == "quick-checks":
        ops = []
        while len(ops) < QUICK_OPS:
            order = sorted(systems)
            rng.shuffle(order)
            ops.extend(order)
        plan["ops"] = [{"id": config_id,
                        "target": os.path.join("configs", _slug(config_id)),
                        "max_events": QUICK_MAX_EVENTS,
                        "hashseed": _hashseed(rng)}
                       for config_id in ops[:QUICK_OPS]]
    else:
        volunteers = {i: text for i, text in systems.items() if "/" in i}
        plan["hashseed"] = _hashseed(rng)
        plan["ops"] = [{"id": config_id,
                        "target": os.path.join("configs", _slug(config_id)),
                        "max_events": SERVICE_MAX_EVENTS, "repeat": repeat,
                        "round": round_index}
                       for config_id, repeat, round_index
                       in service_stream(volunteers, rng)]
    return plan


def write_inputs(workload, seed, out_dir):
    """Write ``plan.json`` and the configuration files; returns the plan."""
    systems = {config_id: config.to_json()
               for config_id, config in all_systems().items()}
    plan = make_plan(workload, seed, systems)
    configs = os.path.join(out_dir, "configs")
    os.makedirs(configs, exist_ok=True)
    # deep-check's input is the bundled group name, not a file
    used = () if workload == "deep-check" else {op["id"] for op in plan["ops"]}
    for config_id in sorted(used):
        path = os.path.join(configs, _slug(config_id))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(systems[config_id])
    with open(os.path.join(out_dir, "plan.json"), "w",
              encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1, sort_keys=True)
    return plan


def main(argv=None):
    """Command-line entry: write one workload's inputs for one seed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
