"""Deterministic procedural generators, reference verifiers, and an
evaluation harness for ARC-style grid transformation tasks.

Importing the package registers the bundled tasks, so ``lookup`` and the
dataset operations work immediately.
"""

from .errors import (
    FormatError,
    GenerationError,
    GridBenchError,
    VerificationError,
    VerifierDomainError,
)
from .grid import (
    PALETTE,
    Example,
    Grid,
    TaskSet,
    render_text,
)
from .rng import RngStream, new_stream
from .framework import (
    MAX_ATTEMPTS,
    generate_examples,
    lookup,
    params,
    register,
    task_ids,
)
from .harness import (
    EvalReport,
    TaskScore,
    emit_dataset,
    evaluate,
    format_percent,
    format_report,
    golden_check,
    load_task_file,
    save_task_file,
)
from . import tasks  # noqa: F401  (registers the bundled tasks)

__all__ = [
    "PALETTE",
    "MAX_ATTEMPTS",
    "EvalReport",
    "Example",
    "FormatError",
    "GenerationError",
    "Grid",
    "GridBenchError",
    "RngStream",
    "TaskScore",
    "TaskSet",
    "VerificationError",
    "VerifierDomainError",
    "emit_dataset",
    "evaluate",
    "format_percent",
    "format_report",
    "generate_examples",
    "golden_check",
    "load_task_file",
    "lookup",
    "new_stream",
    "params",
    "register",
    "render_text",
    "save_task_file",
    "task_ids",
]
