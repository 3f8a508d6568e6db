"""Exception hierarchy of the mini SQL engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class ParseError(EngineError):
    """Raised when SQL text cannot be tokenised or parsed.

    Carries the offending position so callers can point at the problem.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SqlTypeError(EngineError):
    """Raised on invalid type combinations in expressions or inserts."""


class CatalogError(EngineError):
    """Raised for unknown/duplicate tables, columns or indexes."""


class PlanError(EngineError):
    """Raised when a parsed statement cannot be planned."""


class ExecutionError(EngineError):
    """Raised for runtime failures during query execution."""
