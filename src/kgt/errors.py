"""Shared exception types."""


class KgtError(Exception):
    """Base class for package errors."""


class ParseError(KgtError):
    """Malformed input file. Carries the offending path and line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class IntegrityError(KgtError):
    """Dataset violates a structural invariant (id ranges, duplicates, split nesting)."""


class SplitFileError(ParseError, IntegrityError):
    """A triple of a split file that breaks the dataset's integrity, at its line."""


class ArityError(KgtError):
    """Anchors or relations do not match the query type's arity."""


class SamplingExhausted(KgtError):
    """A sampler or generator ran out of attempts before meeting its target."""


class CheckpointError(KgtError):
    """Checkpoint file is malformed or inconsistent with its own header."""


class ConfigError(KgtError):
    """Bad configuration key, value, or combination."""
