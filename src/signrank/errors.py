"""Shared exception types, and the deadline behind every budgeted search."""

import time


class SignRankError(Exception):
    """Base class for errors raised by this package."""


class ParseError(SignRankError, ValueError):
    """Malformed pattern or matrix text, with position diagnostics."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class DimensionError(SignRankError, ValueError):
    """Operands have incompatible shapes or lengths."""


class SingularBlockError(SignRankError, ValueError):
    """The leading block of a Schur complement is not invertible."""


class BudgetExceededError(SignRankError, RuntimeError):
    """A bounded search ran out of its wall-clock budget before deciding."""


class Deadline:
    """The end of one call's budget_ms (None: no limit). spend(work) reads
    the clock on its first call, then once READ_EVERY units of work have
    been spent since the last reading, and raises BudgetExceededError once
    the budget has passed; left_ms() is what is left, None without a limit."""

    READ_EVERY = 1024

    def __init__(self, budget_ms: int | None):
        self.end = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.unread = self.READ_EVERY

    def spend(self, work: int) -> None:
        self.unread += work
        if self.unread >= self.READ_EVERY:
            self.unread = 0
            if self.end is not None and time.monotonic() >= self.end:
                raise BudgetExceededError("search ran out of budget")

    def left_ms(self) -> int | None:
        if self.end is None:
            return None
        return max(0, int((self.end - time.monotonic()) * 1000))


class InternalCheckError(SignRankError, RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""
