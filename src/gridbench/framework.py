"""The task contract: generators, verifiers, geometry helpers, registry.

A task couples a parameterized example generator with a reference
verifier implementing the same transformation. Generators accept their
parameters as keyword arguments; anything left unspecified is sampled
from the per-example random stream, subject to the task's layout
constraints. The verifier doubles as the correctness oracle: every
generated example must satisfy ``verifier(input) == output`` exactly.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .errors import VerificationError, VerifierDomainError
from .grid import Example, Grid, TaskSet
from .rng import new_stream

# Retry budget for constraint-satisfying layout sampling. Exhausting it
# turns a pathological parameter combination into a diagnosable error
# instead of a hang.
MAX_ATTEMPTS = 10_000


def check_int(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` if it is an ``int`` in ``[lo, hi]``, by default any ``int``;
    ``bool`` is rejected too."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} outside [{lo}, {hi}]")
    return value


def check_ints(name: str, values, lo: int, hi: int) -> list[int]:
    """``values`` as a list if it is a sequence whose every entry passes
    :func:`check_int`, entry ``i`` named ``name[i]``."""
    if not isinstance(values, Sequence):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return [check_int(f"{name}[{i}]", value, lo, hi) for i, value in enumerate(values)]


def overlaps(
    rows: list[int],
    cols: list[int],
    widths: list[int],
    heights: list[int],
    spacing: int,
) -> bool:
    """True iff some pair of boxes comes closer than ``spacing`` on both axes.

    Boxes are given as parallel lists of top-left coordinates and
    extents. The distance between two boxes on one axis is the gap
    between their nearest edges, zero when the intervals intersect; a
    pair conflicts only when both its row gap and its column gap are
    below ``spacing``.
    """
    n = len(rows)
    if not (len(cols) == len(widths) == len(heights) == n):
        raise ValueError("rows, cols, widths and heights must have equal lengths")
    if spacing < 0:
        raise ValueError("spacing must be non-negative")
    for i in range(n):
        if widths[i] < 1 or heights[i] < 1:
            raise ValueError(f"box {i} has empty extent")
    for i in range(n):
        for j in range(i + 1, n):
            row_gap = max(rows[i], rows[j]) - min(rows[i] + heights[i], rows[j] + heights[j])
            col_gap = max(cols[i], cols[j]) - min(cols[i] + widths[i], cols[j] + widths[j])
            if max(row_gap, 0) < spacing and max(col_gap, 0) < spacing:
                return True
    return False


@dataclass(frozen=True)
class TaskGenerator:
    """One task: its generator, reference verifier, and optional golden fixture.

    ``generate`` takes the declared parameters as keywords plus an
    ``rng`` stream; ``validate``, when present, reproduces the task's
    original train/test pairs from fixed parameters without randomness.
    """

    task_id: str
    generate: Callable[..., Example]
    verifier: Callable[[Grid], Grid]
    validate: Callable[[], TaskSet] | None = None
    params: dict = field(default_factory=dict)

    @classmethod
    def from_callables(cls, task_id, generate, verifier, validate=None) -> "TaskGenerator":
        declared = {
            name: parameter.default
            for name, parameter in inspect.signature(generate).parameters.items()
            if name != "rng"
        }
        return cls(
            task_id=task_id,
            generate=generate,
            verifier=verifier,
            validate=validate,
            params=declared,
        )


_REGISTRY: dict[str, TaskGenerator] = {}


def register(gen: TaskGenerator) -> None:
    """Add a task to the registry; ids must be unique."""
    if gen.task_id in _REGISTRY:
        raise ValueError(f"task {gen.task_id!r} is already registered")
    _REGISTRY[gen.task_id] = gen


def lookup(task_id: str) -> TaskGenerator:
    try:
        return _REGISTRY[task_id]
    except KeyError:
        raise KeyError(f"unknown task {task_id!r}") from None


def task_ids() -> list[str]:
    """Registered task ids in sorted order."""
    return sorted(_REGISTRY)


def _generate(
    gen: TaskGenerator, overrides: dict, train_count: int, test_count: int, master_seed: int
) -> tuple[TaskSet, VerifierDomainError | None]:
    """The loop behind both fronts: the task set, one stream per example,
    and the first ``VerifierDomainError`` its verifier raised, if any."""
    examples = []
    domain_error = None
    for index in range(train_count + test_count):
        example = gen.generate(rng=new_stream(master_seed, gen.task_id, index), **overrides)
        try:
            expected = gen.verifier(example.input)
        except VerifierDomainError as err:
            domain_error = domain_error or err
        else:
            if expected != example.output:
                raise VerificationError(
                    f"task {gen.task_id}: example {index} does not satisfy its verifier"
                )
        examples.append(example)
    return TaskSet(train=examples[:train_count], test=examples[train_count:]), domain_error


def generate_task_set(
    task_id: str, train_count: int, test_count: int, master_seed: int
) -> TaskSet:
    """Deterministic task set with one stream per example.

    Train examples use example indexes 0..train_count-1 and the test
    examples continue the range, so any example can be regenerated in
    isolation. Every example is checked against the task's verifier, and
    one outside the verifier's domain raises :class:`VerifierDomainError`.
    """
    gen = lookup(task_id)
    check_int("train_count", train_count)
    check_int("test_count", test_count)
    if train_count < 1 or test_count < 1:
        raise ValueError("train_count and test_count must be positive")
    task_set, domain_error = _generate(gen, {}, train_count, test_count, master_seed)
    if domain_error is not None:
        raise domain_error
    return task_set


@dataclass(frozen=True)
class VariationResult:
    """Examples generated under overridden parameters.

    ``verifier_checked`` is False when the overrides left the reference
    verifier's domain; such examples were not consistency-checked and
    should not be mixed with mimetic ones.
    """

    task_set: TaskSet
    verifier_checked: bool


def apply_variation(
    task_id: str, overrides: dict, count: int, master_seed: int
) -> VariationResult:
    """Generate ``count`` train examples plus one test with fixed overrides.

    Overridden parameters are held fixed while the rest are randomized.
    With empty overrides this is distribution-identical to
    :func:`generate_task_set` with one test example. Examples that the
    task's verifier rejects as outside its domain mark the whole result
    unchecked; a verifier that accepts an input but disagrees with the
    generated output raises :class:`VerificationError`.
    """
    gen = lookup(task_id)
    unknown = sorted(set(overrides) - set(gen.params))
    if unknown:
        raise ValueError(f"task {task_id}: unknown parameters {unknown}")
    if check_int("count", count) < 1:
        raise ValueError("count must be positive")
    task_set, domain_error = _generate(gen, overrides, count, 1, master_seed)
    return VariationResult(task_set=task_set, verifier_checked=domain_error is None)
