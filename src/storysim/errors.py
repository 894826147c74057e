"""Exception types shared across the toolkit.

Every failure mode that callers are expected to handle gets its own
class so the CLI can map them to messages and tests can assert on them
precisely.  All inherit from StorysimError.
"""

from __future__ import annotations


class StorysimError(Exception):
    """Base class for all toolkit errors."""


class DocumentError(StorysimError):
    """A document is rejected.

    Carries an optional location string (e.g. "events[3].actor") so the
    message pinpoints the offending element.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class DocumentSyntaxError(DocumentError):
    """A JSON document is malformed or missing required fields."""


class DanglingReferenceError(DocumentError):
    """A document references an id that is not defined anywhere in it."""


class InvariantError(DocumentError):
    """A structural invariant of a parsed document is violated."""


class UnknownActionInTransition(DocumentError):
    """A POI names an action the registry never declares."""


class InconsistentNetwork(StorysimError):
    """Temporal constraint propagation derived an empty relation set.

    The offending edge (and the third node of the composition that
    emptied it, when known) is reported so callers can surface which
    events cannot be reconciled.
    """

    def __init__(self, i: int, j: int, k: int | None = None, message: str | None = None):
        self.i = i
        self.j = j
        self.k = k
        if message is None:
            via = f" via {k}" if k is not None else ""
            message = f"no consistent relation between events {i} and {j}{via}"
        super().__init__(message)


class UnschedulableDisjunction(StorysimError):
    """The search exhausted every base-relation choice of the non-convex
    constraints without a schedule."""


class EmptyRegistry(StorysimError):
    """The registry has no episodes to draw from."""


class NoValidAction(StorysimError):
    """A POI offers no valid action to start or continue a chain."""


class NoFreeSlot(StorysimError):
    """An object type has no unoccupied slot at its home POI."""


class ValidationFailure(StorysimError):
    """A story graph failed semantic validation.

    Wraps the list of issue dicts produced by the validator so callers
    can inspect individual problems.
    """

    def __init__(self, issues: list[dict]):
        self.issues = issues
        lines = "; ".join(f"{i['code']}: {i['message']}" for i in issues[:5])
        more = f" (+{len(issues) - 5} more)" if len(issues) > 5 else ""
        super().__init__(f"{len(issues)} validation issue(s): {lines}{more}")


class CorruptCorpus(StorysimError):
    """A corpus artifact disagrees with its manifest or internal checks."""
