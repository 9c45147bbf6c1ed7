"""The contract every registered task meets, checked from the registry alone.

A task is one module in ``gridbench.tasks`` whose name does not start
with ``_``. Every test here is parametrized over those modules or over
``task_ids()``, so a new task is checked by every rule without a line
added to this file.
"""

import importlib
import re
from pathlib import Path

import pytest

import gridbench.tasks
from gridbench import Grid, generate_examples, golden_check, lookup, params, task_ids
from gridbench.grid import MAX_SIDE
from gridbench.rng import new_stream

SEED = 7

MODULES = [
    importlib.import_module(f"gridbench.tasks.{path.stem}")
    for path in sorted(Path(gridbench.tasks.__file__).parent.glob("[!_]*.py"))
]

PARAMS = [(task_id, name) for task_id in task_ids() for name in params(task_id)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_module_is_its_registered_task(module):
    assert lookup(module.TASK_ID) is module


def test_every_registered_task_is_a_module():
    # The package finds its own modules; the source files are the reference here.
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
    examples = list(generate_examples(task_id, 6, SEED))
    assert len(examples) == 7
    for index, example in enumerate(examples):
        assert example == gen.generate(rng=new_stream(SEED, task_id, index))


def _largest_size(gen):
    """The ``hi`` of the range that an oversized ``size`` is rejected with."""
    with pytest.raises(ValueError) as info:
        gen.generate(rng=new_stream(SEED, gen.TASK_ID, 0), size=MAX_SIDE + 1)
    found = re.fullmatch(rf"size {MAX_SIDE + 1} outside \[-?\d+, (\d+)\]", str(info.value))
    assert found, str(info.value)
    return int(found[1])


@pytest.mark.parametrize("task_id", task_ids())
def test_examples_meet_the_grid_contract_and_are_values(task_id):
    # Generators and verifiers make grids of checked cells, so the checked
    # constructor must accept every grid they make, and a write through a
    # row must raise and never show in a grid.
    gen = lookup(task_id)
    runs = [{}]
    if "size" in params(task_id):
        runs.append({"size": _largest_size(gen)})
    for overrides in runs:
        for index in range(40):
            example = gen.generate(rng=new_stream(SEED, task_id, index), **overrides)
            for grid in (example.input, example.output):
                assert Grid(grid.to_lists()) == grid

            before = example.input.to_lists()
            result = gen.verifier(example.input)
            assert result == example.output and type(result) is Grid
            for row in result:
                with pytest.raises(TypeError):
                    row[:] = [9] * len(row)
            assert example.input.to_lists() == before
            assert result == example.output


def _cells(grid):
    return grid.height, grid.width, b"".join(map(bytes, grid))


@pytest.mark.parametrize("task_id", task_ids())
def test_checked_cells_are_the_joined_rows(task_id):
    # Generation writes and checks a grid's cells (grid._cells), which a
    # generator may paint, while a reader sees its rows: the two must agree,
    # at default parameters and at the largest size.
    gen = lookup(task_id)
    runs = [{}]
    if "size" in params(task_id):
        runs.append({"size": _largest_size(gen)})
    for overrides in runs:
        for index in range(40):
            example = gen.generate(rng=new_stream(SEED, task_id, index), **overrides)
            for grid in (example.input, example.output):
                checked = gridbench.grid._cells(grid)  # before any row is read
                assert checked == _cells(grid)


@pytest.mark.parametrize("task_id", task_ids())
def test_cells_verifier_gives_the_output_cells(task_id):
    # evaluate judges a task's verifier by its verify_cells on a canonical file.
    gen = lookup(task_id)
    if getattr(gen, "verify_cells", None) is None:
        pytest.skip("the task has no cells verifier")
    for index in range(40):
        example = gen.generate(rng=new_stream(SEED, task_id, index))
        assert gen.verify_cells(_cells(example.input)) == _cells(example.output)


@pytest.mark.parametrize("task_id", task_ids())
def test_golden_data_satisfies_the_task(task_id):
    gen = lookup(task_id)
    validate = getattr(gen, "validate", None)
    if validate is not None:
        fixture = validate()
        for example in (*fixture.train, *fixture.test):
            assert gen.verifier(example.input) == example.output
    # A task's fixture ships as the golden snapshot it is compared with;
    # a task without one is judged on whatever golden data is bundled.
    result = golden_check(task_id)
    assert result is True or (result is None and validate is None)
