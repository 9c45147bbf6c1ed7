"""The contract every registered task meets, checked from the registry alone.

A task is one module in ``gridbench.tasks`` whose name does not start
with ``_``. Every test here is parametrized over those modules or over
``task_ids()``, so a new task is checked by every rule without a line
added to this file.
"""

import importlib
import pkgutil
import re

import pytest

import gridbench.tasks
from gridbench import Grid, apply_variation, generate_task_set, golden_check, lookup, task_ids
from gridbench.grid import MAX_SIDE
from gridbench.rng import new_stream

SEED = 7

MODULES = [
    importlib.import_module(f"gridbench.tasks.{info.name}")
    for info in pkgutil.iter_modules(gridbench.tasks.__path__)
    if not info.name.startswith("_")
]

PARAMS = [(task_id, name) for task_id in task_ids() for name in lookup(task_id).params]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_module_registers_its_generator(module):
    gen = lookup(module.TASK_ID)
    assert gen.generate is module.generate
    assert gen.verifier is module.verify
    assert gen.validate is getattr(module, "validate", None)


def test_every_registered_task_is_a_module():
    # The package finds its own modules; pkgutil is the reference here.
    assert sorted(module.TASK_ID for module in MODULES) == task_ids()


@pytest.mark.parametrize("task_id, name", PARAMS)
def test_declared_parameter_rejects_a_bool(task_id, name):
    generate = lookup(task_id).generate
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generate(rng=new_stream(SEED, task_id, 0), **{name: True})
    # A scalar parameter rejects the list itself, a list parameter its entry.
    with pytest.raises(ValueError, match=rf"^{name}(\[0\])? must be an integer, got"):
        generate(rng=new_stream(SEED, task_id, 0), **{name: [True]})


@pytest.mark.parametrize("task_id", task_ids())
def test_examples_regenerate_by_index(task_id):
    gen = lookup(task_id)
    task_set = generate_task_set(task_id, 5, 2, SEED)
    assert (len(task_set.train), len(task_set.test)) == (5, 2)
    for index, example in enumerate((*task_set.train, *task_set.test)):
        assert example == gen.generate(rng=new_stream(SEED, task_id, index))
    variation = apply_variation(task_id, {}, 5, SEED)
    assert variation.verifier_checked is True
    assert variation.task_set == generate_task_set(task_id, 5, 1, SEED)


def _largest_size(gen):
    """The ``hi`` of the range that an oversized ``size`` is rejected with."""
    with pytest.raises(ValueError) as info:
        gen.generate(rng=new_stream(SEED, gen.task_id, 0), size=MAX_SIDE + 1)
    found = re.fullmatch(rf"size {MAX_SIDE + 1} outside \[-?\d+, (\d+)\]", str(info.value))
    assert found, str(info.value)
    return int(found[1])


@pytest.mark.parametrize("task_id", task_ids())
def test_examples_meet_the_grid_contract_and_own_their_rows(task_id):
    # Generators and verifiers wrap their rows unchecked, so the checked
    # constructor must accept every grid they make, and no two grids may
    # share a row: a write through one must never show in another.
    gen = lookup(task_id)
    runs = [{}]
    if "size" in gen.params:
        runs.append({"size": _largest_size(gen)})
    for overrides in runs:
        for index in range(40):
            example = gen.generate(rng=new_stream(SEED, task_id, index), **overrides)
            for grid in (example.input, example.output):
                assert Grid(grid.to_lists()) == grid
            rows = [*example.input, *example.output]
            assert len({id(row) for row in rows}) == len(rows)

            before = example.input.to_lists()
            result = gen.verifier(example.input)
            assert result == example.output
            rows = [*example.input, *result]
            assert len({id(row) for row in rows}) == len(rows)
            for row in result:
                row[:] = [9] * len(row)
            assert example.input.to_lists() == before


@pytest.mark.parametrize("task_id", task_ids())
def test_golden_data_satisfies_the_task(task_id):
    gen = lookup(task_id)
    if gen.validate is not None:
        fixture = gen.validate()
        for example in (*fixture.train, *fixture.test):
            assert gen.verifier(example.input) == example.output
    # A task's fixture ships as the golden snapshot it is compared with;
    # a task without one is judged on whatever golden data is bundled.
    result = golden_check(task_id)
    assert result is True or (result is None and gen.validate is None)
