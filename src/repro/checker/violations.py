"""Violation, trace-step and counterexample records.

Everything here round-trips through JSON (``to_dict``/``from_dict``) so
stored results replay byte-identically: a deserialized violation resolves
its property back to the live catalog object when the catalog still
carries an identical definition, and degrades to a detached
:class:`~repro.properties.base.SafetyProperty` carrying the serialized
signature otherwise (old results stay renderable across catalog edits).
"""


def resolve_property(data):
    """A property object for a serialized signature.

    Prefers the catalog instance (predicates and roles stay usable) when
    id, name and LTL are unchanged; otherwise reconstructs a detached
    property from the stored fields.
    """
    from repro.properties import build_properties
    from repro.properties.base import SafetyProperty

    prop_id = data["id"]
    try:
        matches = build_properties([prop_id])
    except KeyError:
        matches = []
    for prop in matches:
        if (prop.id == prop_id and prop.name == data.get("name")
                and prop.ltl == data.get("ltl")):
            return prop
    prop = SafetyProperty(prop_id, data.get("name", prop_id),
                          data.get("category"), data.get("kind"),
                          data.get("description", ""), ltl=data.get("ltl"))
    prop.roles = tuple(data.get("roles", ()))
    return prop


class TraceStep:
    """One line of a cascade trace (maps to one Fig-7 log line).

    ``kind`` is one of ``external``, ``notify``, ``handler``, ``command``,
    ``state``, ``mode``, ``message``, ``failure``, ``log``, ``violation``.
    """

    __slots__ = ("kind", "text", "app", "line")

    def __init__(self, kind, text, app=None, line=None):
        self.kind = kind
        self.text = text
        self.app = app
        self.line = line

    def to_dict(self):
        data = {"kind": self.kind, "text": self.text}
        if self.app is not None:
            data["app"] = self.app
        if self.line is not None:
            data["line"] = self.line
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"], data["text"], app=data.get("app"),
                   line=data.get("line"))

    def __repr__(self):
        return "TraceStep(%s: %s)" % (self.kind, self.text)


class Violation:
    """A detected violation of one safety property."""

    __slots__ = ("property", "message", "apps", "step_index")

    def __init__(self, prop, message, apps=(), step_index=None):
        self.property = prop
        self.message = message
        self.apps = tuple(apps)
        self.step_index = step_index

    @property
    def property_id(self):
        return self.property.id

    def dedup_key(self):
        """Violations with the same key describe the same flaw.

        The app combination is part of the identity: Table 5 and Table 9
        list one violation per (property, interacting apps) pair."""
        return (self.property.id, self.message, tuple(sorted(set(self.apps))))

    def to_dict(self):
        prop = self.property
        data = {
            "property": {
                "id": prop.id,
                "name": prop.name,
                "category": getattr(prop, "category", None),
                "kind": getattr(prop, "kind", None),
                "description": getattr(prop, "description", ""),
                "ltl": getattr(prop, "ltl", None),
                "roles": list(getattr(prop, "roles", ())),
            },
            "message": self.message,
            "apps": list(self.apps),
        }
        if self.step_index is not None:
            data["step_index"] = self.step_index
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(resolve_property(data["property"]), data["message"],
                   apps=data.get("apps", ()),
                   step_index=data.get("step_index"))

    def __repr__(self):
        return "Violation(%s: %s)" % (self.property.id, self.message)


class Counterexample:
    """A violating run: the external-event path plus per-cascade steps."""

    def __init__(self, violation, path):
        #: the triggering violation
        self.violation = violation
        #: list of (external event label, [TraceStep, ...]) per depth level
        self.path = list(path)

    @property
    def depth(self):
        return len(self.path)

    def event_labels(self):
        return [label for label, _steps in self.path]

    def all_steps(self):
        steps = []
        for _label, cascade_steps in self.path:
            steps.extend(cascade_steps)
        return steps

    def to_dict(self):
        return {
            "violation": self.violation.to_dict(),
            "path": [{"label": label,
                      "steps": [step.to_dict() for step in steps]}
                     for label, steps in self.path],
        }

    @classmethod
    def from_dict(cls, data):
        path = [(level["label"],
                 [TraceStep.from_dict(s) for s in level.get("steps", ())])
                for level in data.get("path", ())]
        return cls(Violation.from_dict(data["violation"]), path)

    def describe(self):
        lines = ["Counterexample for %s (%s):" % (
            self.violation.property.id, self.violation.property.name)]
        for index, (label, steps) in enumerate(self.path):
            lines.append("  %d. external event %s" % (index + 1, label))
            for step in steps:
                lines.append("       [%s] %s" % (step.kind, step.text))
        lines.append("  => %s" % (self.violation.message,))
        return "\n".join(lines)

    def __repr__(self):
        return "Counterexample(%s, depth=%d)" % (
            self.violation.property.id, self.depth)
