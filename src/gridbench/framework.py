"""The task contract: generators, verifiers, registry.

A task couples a parameterized example generator with a reference
verifier implementing the same transformation. Generators accept their
parameters as keyword arguments; anything left unspecified is sampled
from the per-example random stream, subject to the task's layout
constraints. The verifier doubles as the correctness oracle: every
generated example must satisfy ``verifier(input) == output`` exactly.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import VerificationError, VerifierDomainError, check_int, shown
from .grid import Example, Grid, TaskSet
from .rng import new_stream

# Retry budget for constraint-satisfying layout sampling. Exhausting it
# turns a pathological parameter combination into a diagnosable error
# instead of a hang.
MAX_ATTEMPTS = 10_000


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
        raise KeyError(f"unknown task {shown(task_id)}") from None


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
    examples continue the range, up to at most 2**64 - 1 (the largest
    stream key), so any example can be regenerated in isolation. Every
    example is checked against the task's verifier, and one outside the
    verifier's domain raises :class:`VerifierDomainError`.
    """
    gen = lookup(task_id)
    check_int("train_count", train_count, 1, 2**64 - 1)
    check_int("test_count", test_count, 1, 2**64 - train_count)
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
        raise ValueError(f"task {task_id}: unknown parameters {shown(unknown)}")
    check_int("count", count, 1, 2**64 - 1)
    task_set, domain_error = _generate(gen, overrides, count, 1, master_seed)
    return VariationResult(task_set=task_set, verifier_checked=domain_error is None)
