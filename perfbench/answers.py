"""What a verification answered, and whether it matches the expected answer.

An *answer* is the part of a ``repro check --json`` result that must not
change when the program gets faster: the verdict, the distinct-state and
transition counts, the sorted violated property ids and a SHA-256 digest
of the canonical counterexample JSON (``sort_keys``, no whitespace).
The committed ``expected.json`` maps ``"<configuration>@<max-events>"``
to the answer the interpreted oracle gives; ``expected.py`` writes it.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
ANSWER_FIELDS = ("verdict", "states_explored", "transitions", "violated",
                 "counterexample_sha256")


def answer_key(config_id, max_events):
    """The expected-answer key of one configuration at one event bound."""
    return "%s@%d" % (config_id, max_events)


def counterexample_digest(counterexamples):
    """SHA-256 of the canonical JSON of a result's counterexample list."""
    canonical = json.dumps(counterexamples, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def answer_from_result(result):
    """The answer carried by one parsed ``ExplorationResult`` JSON dict."""
    counterexamples = result.get("counterexamples") or []
    violated = sorted({cex["violation"]["property"]["id"]
                       for cex in counterexamples})
    return {
        "verdict": result["verdict"],
        "states_explored": result["states_explored"],
        "transitions": result["transitions"],
        "violated": violated,
        "counterexample_sha256": counterexample_digest(counterexamples),
    }


def load_expected(path=EXPECTED_PATH):
    """The committed expected answers (``{}`` keyed as :func:`answer_key`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def mismatch(expected, key, answer):
    """Why ``answer`` differs from the expected answer under ``key``.

    Returns ``None`` when every field matches, else a one-line reason.
    Fields missing from ``answer`` are not compared (a service snapshot
    carries only some of them; the rest are checked from the stored
    result).
    """
    want = expected.get(key)
    if want is None:
        return "no expected answer for %s" % key
    for field in ANSWER_FIELDS:
        if field in answer and answer[field] != want[field]:
            return "%s: %s is %r, expected %r" % (key, field, answer[field],
                                                  want[field])
    return None
