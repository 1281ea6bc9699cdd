"""Exception hierarchy shared by all stimkb modules."""


class StimKbError(Exception):
    """Base class for all errors raised by stimkb."""


class ParseError(StimKbError):
    """A serialized input (taxonomy, mapping, corpus, query...) is malformed.

    `line` is 1-based when the source is line-oriented; `position` is a
    0-based character offset for single-line inputs such as queries.
    """

    def __init__(self, message, line=None, position=None):
        self.line = line
        self.position = position
        if line is not None:
            message = f"line {line}: {message}"
        elif position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)


class CycleError(ParseError):
    """The taxonomy edge relation contains a cycle."""


class ValidationError(StimKbError):
    """A domain object violates one of its invariants."""

    def __init__(self, message, problems=None):
        self.problems = list(problems) if problems else [message]
        super().__init__(message)


class SnapshotError(ValidationError):
    """A snapshot file is not JSON, has the wrong structure, or holds an
    input that fails to parse or validate."""


class UnknownConceptError(ValidationError):
    """A concept name does not exist in the taxonomy."""


class QueryError(ParseError):
    """The query string does not match the query grammar."""
