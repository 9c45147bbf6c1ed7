"""Exception types and the argument checks shared across the package."""

import math
from collections.abc import Sequence


class GridBenchError(Exception):
    """Base class for package-specific failures."""


class GenerationError(GridBenchError):
    """A generator exhausted its retry budget or could not honor its parameters."""


class VerificationError(GridBenchError):
    """A generated example does not match its task's reference verifier."""


class VerifierDomainError(GridBenchError):
    """A verifier was handed a grid outside the input space its task defines."""


class FormatError(GridBenchError, ValueError):
    """A task file does not conform to the on-disk JSON schema."""


def shown(value) -> str:
    """``repr(value)``, or for a value longer than 40 characters (a string by
    its own length) its first 20 characters and its length, which keeps an
    error line that quotes user input short. Past ``repr``'s digit limit
    an integer is shown in hex and a container by its type name."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:
        text = hex(value) if isinstance(value, int) else f"<{type(value).__name__}>"
    if len(text) <= 40:
        return repr(text) if isinstance(value, str) else text
    head = repr(text[:20]) if isinstance(value, str) else text[:20]
    return f"{head}... ({len(text)} characters)"


def check_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` if it is an ``int`` in ``[lo, hi]``; ``bool`` is rejected too."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} {shown(value)} outside [{lo}, {hi}]")
    return value


def check_ints(name: str, values, lo: int, hi: int) -> list[int]:
    """``values`` as a list if it is a sequence whose every entry passes
    :func:`check_int`, entry ``i`` named ``name[i]``."""
    if not isinstance(values, Sequence):
        raise ValueError(f"{name} must be a list of integers, got {shown(values)}")
    return [check_int(f"{name}[{i}]", value, lo, hi) for i, value in enumerate(values)]
