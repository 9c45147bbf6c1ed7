"""The task contract: generators, verifiers, registry.

A task couples a parameterized example generator with a reference
verifier implementing the same transformation. Generators accept their
parameters as keyword arguments; anything left unspecified is sampled
from the per-example random stream, subject to the task's layout
constraints. A task defines the transformation once, on cells
(``verify_cells``), and :func:`register` derives its ``Grid`` entry
(``verifier``) unless it defines one. The verifier doubles as the
correctness oracle: every generated example's input cells must give its
output cells under ``verify_cells``, or ``verifier`` for a task without one.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator
from functools import partial
from types import ModuleType

from .errors import VerificationError, VerifierDomainError, check_int, shown
from .grid import Cells, Example, Grid, _cells, _example, _grid, _via_grid
from .rng import new_stream

# Retry budget for constraint-satisfying layout sampling. Exhausting it
# turns a pathological parameter combination into a diagnosable error
# instead of a hang.
MAX_ATTEMPTS = 10_000


# Task id -> (task, the parameter names its ``generate`` declares, its
# ``verifier``, given or derived), read once at registration, so a wrapper
# installed over ``generate`` later keeps them, one over ``verifier`` is
# judged as given, and generation checks with the registered ``verifier``
# (``_on_cells``).
_REGISTRY: dict[str, tuple[ModuleType, tuple[str, ...], Callable]] = {}


def register(task: ModuleType) -> None:
    """Add a task module, or any object with the same names; ids must be unique.
    A task with ``verify_cells`` and no ``verifier`` gets, as ``verifier``,
    ``verify_cells`` (looked up at each call) on a grid's checked cells."""
    if task.TASK_ID in _REGISTRY:
        raise ValueError(f"task {task.TASK_ID!r} is already registered")
    names = tuple(name for name in inspect.signature(task.generate).parameters if name != "rng")
    if not hasattr(task, "verifier"):
        if not hasattr(task, "verify_cells"):
            raise ValueError(f"task {task.TASK_ID!r} defines neither verify_cells nor verifier")

        def verifier(grid: Grid) -> Grid:
            return _grid(task.verify_cells(_cells(grid)))

        task.verifier = verifier
    _REGISTRY[task.TASK_ID] = (task, names, task.verifier)


def _entry(task_id: str) -> tuple[ModuleType, tuple[str, ...], Callable]:
    try:
        return _REGISTRY[task_id]
    except KeyError:
        raise KeyError(f"unknown task {shown(task_id)}") from None


def lookup(task_id: str) -> ModuleType:
    """The registered task: ``TASK_ID``, ``generate``, ``verifier`` (given or
    derived), and maybe ``verify_cells`` and ``validate``."""
    return _entry(task_id)[0]


def params(task_id: str) -> tuple[str, ...]:
    """The names of the parameters the task's ``generate`` accepts, besides ``rng``."""
    return _entry(task_id)[1]


def task_ids() -> list[str]:
    """Registered task ids in sorted order."""
    return sorted(_REGISTRY)


def _on_cells(task_id: str, program) -> Callable[[Cells], Cells]:
    """``program`` as a function of cells: the task's ``verify_cells`` if ``program``
    is the ``verifier`` it was registered with, else ``program`` through a ``Grid``."""
    entry = _REGISTRY.get(task_id)
    if entry and program is entry[2] and hasattr(entry[0], "verify_cells"):
        return entry[0].verify_cells
    return partial(_via_grid, program)


class generate_examples:  # noqa: N801  (an iterator class, like enumerate)
    """``count`` train examples, then one test example, as a lazy stream.

    The arguments are checked at once. Iterating generates indexes 0 to
    ``count`` (at most 2**64 - 1) one at a time and checks each on its cells
    against the task's ``verify_cells`` (its ``verifier`` for a task without
    one): a wrong output raises :class:`VerificationError`, and an input
    outside its domain raises :class:`VerifierDomainError` unless there are
    overrides, which yield it unchecked and keep the first as ``domain_error``."""

    def __init__(self, task_id: str, count: int, master_seed: int, overrides=None) -> None:
        self._task, names, self._verifier = _entry(task_id)
        self._overrides = overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ValueError(f"task {task_id}: unknown parameters {shown(unknown)}")
        self._count = check_int("count", count, 1, 2**64 - 1)
        self._seed = check_int("master_seed", master_seed, 0, 2**64 - 1)
        self.domain_error: VerifierDomainError | None = None

    def __iter__(self) -> Iterator[Example]:
        return self.block(0, self._count + 1)

    def block(self, start: int, stop: int) -> Iterator[Example]:
        """Indexes ``start`` to ``stop - 1``, none past ``count``, generated and
        checked as iteration does; ``domain_error`` keeps the first one seen by
        any block of this stream object."""
        return map(_example, self._pairs(start, stop))

    def _pairs(self, start: int, stop: int) -> Iterator[tuple[Cells, Cells]]:
        """The checked input and output cells of ``block(start, stop)``'s examples."""
        task, seed, overrides = self._task, self._seed, self._overrides
        verify = _on_cells(task.TASK_ID, self._verifier)
        for index in range(start, min(stop, self._count + 1)):
            example = task.generate(rng=new_stream(seed, task.TASK_ID, index), **overrides)
            pair = _cells(example.input), _cells(example.output)
            try:
                expected = verify(pair[0])
            except VerifierDomainError as err:
                if not overrides:
                    raise
                self.domain_error = self.domain_error or err
            else:
                if expected != pair[1]:
                    raise VerificationError(
                        f"task {task.TASK_ID}: example {index} does not satisfy its verifier"
                    )
            yield pair
