"""Exception hierarchy.

Domain errors carry the violated constraint spelled out as an inequality so
the CLI can surface it verbatim (exit code 1). Usage problems (bad arguments,
unreadable config) are raised as UsageError (exit code 2).
"""

import math
import os


class FraclapError(Exception):
    """Base class for all library errors."""


class DomainError(FraclapError):
    """A mathematical precondition is violated; message quotes the inequality."""


class GridResolutionError(DomainError):
    """Grid cannot resolve the requested object (kernel tails, bump coronas)."""


class NonConvergenceError(FraclapError):
    """Fixed-point iteration hit max_iter without converging or overflowing."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


class UsageError(FraclapError):
    """Malformed invocation: unknown subcommand, unreadable or invalid config."""


def require_finite(**values):
    """Raise DomainError naming the first keyword argument that is nan or
    infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} = {value} fails -inf < {name} < inf")


def require_memory(need, what, remedy):
    """Raise DomainError unless need bytes, which what takes, fit in physical
    memory; remedy says how to take fewer."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DomainError(f"{what} takes {need:.4g} bytes, which fails "
                          f"bytes <= physical memory = {have:.4g}; {remedy}")
