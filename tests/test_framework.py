"""Registry and task-set generation."""

from types import SimpleNamespace

import pytest

from gridbench import (
    Example,
    GenerationError,
    Grid,
    VerificationError,
    VerifierDomainError,
    apply_variation,
    generate_examples,
    generate_task_set,
    lookup,
    params,
    register,
    task_ids,
)
from gridbench.framework import _REGISTRY
from gridbench.rng import new_stream
from gridbench.tasks.borders_and_holes import _pink_components


def test_registry_lists_bundled_tasks_sorted():
    assert task_ids() == ["05269061", "1e0a9b12", "543a7ed5", "67a423a3"]


def test_lookup_unknown_task():
    with pytest.raises(KeyError):
        lookup("00000000")
    with pytest.raises(KeyError):
        params("00000000")


def test_lookup_returns_registered_generator():
    gen = lookup("543a7ed5")
    assert gen.TASK_ID == "543a7ed5"
    assert gen.validate is not None
    assert params("543a7ed5") == ("rows", "cols", "widths", "heights", "colors", "boxes", "size")


def test_overrides_are_checked_against_the_names_declared_at_registration(monkeypatch):
    # A tracer may replace a task's generate with a wrapper whose signature
    # names no parameters; overrides must still reach the original.
    task = lookup("543a7ed5")
    original = task.generate

    def generate(*args, rng, **kwargs):
        return original(*args, rng=rng, **kwargs)

    monkeypatch.setattr(task, "generate", generate)
    stream = generate_examples("543a7ed5", 1, 0, {"size": 30, "boxes": 1})
    examples = list(stream)
    assert len(examples) == 2 and stream.domain_error is None
    assert all(ex.input.height == ex.input.width == 30 for ex in examples)
    assert all(len(_pink_components(ex.input)) == 1 for ex in examples)
    with pytest.raises(ValueError, match=r"^task 543a7ed5: unknown parameters \['bogus'\]$"):
        generate_examples("543a7ed5", 1, 0, {"bogus": 1})


def test_duplicate_registration_rejected():
    g = Grid([[0]])

    def fake_generate(rng=None):
        return Example(input=g, output=g)

    fake = SimpleNamespace(TASK_ID="ffffffff", generate=fake_generate, verifier=lambda grid: grid)
    register(fake)
    try:
        with pytest.raises(ValueError):
            register(fake)
    finally:
        del _REGISTRY["ffffffff"]


def test_generate_task_set_validates_counts():
    with pytest.raises(ValueError, match=r"^train_count 0 outside \[1, 18446744073709551615\]$"):
        generate_task_set("543a7ed5", 0, 1, master_seed=0)
    with pytest.raises(ValueError, match=r"^test_count 0 outside \[1, 18446744073709551615\]$"):
        generate_task_set("543a7ed5", 1, 0, master_seed=0)
    # Every example index, train and test, must fit a 64-bit stream key.
    with pytest.raises(ValueError, match=r"^test_count 2 outside \[1, 1\]$"):
        generate_task_set("1e0a9b12", 2**64 - 1, 2, master_seed=0)
    with pytest.raises(ValueError) as info:
        generate_task_set("1e0a9b12", 10**5000, 1, master_seed=0)
    message = str(info.value)
    assert message.startswith("train_count ")
    assert message.endswith("outside [1, 18446744073709551615]")
    assert len(message) < 200
    # A list holding such an integer has no repr, so it is named by its type.
    with pytest.raises(ValueError, match="^train_count must be an integer, got <list>$"):
        generate_task_set("1e0a9b12", [10**5000], 1, master_seed=0)
    for count in (True, 2.5):
        with pytest.raises(ValueError, match=f"^train_count must be an integer, got {count}$"):
            generate_task_set("1e0a9b12", count, 1, master_seed=5)
        with pytest.raises(ValueError, match=f"^test_count must be an integer, got {count}$"):
            generate_task_set("1e0a9b12", 1, count, master_seed=5)


def test_fully_specified_generate_draws_nothing():
    gen = lookup("543a7ed5")
    rng = new_stream(7, "543a7ed5", 0)
    before = rng.state
    gen.generate(
        rows=[2, 4, 10, 3],
        cols=[8, 3, 5, 9],
        widths=[4, 2, 4, 2],
        heights=[5, 2, 4, 3],
        colors=[6, 6, 6, 4],
        rng=rng,
    )
    assert rng.state == before


def test_variation_larger_grid_and_more_boxes():
    result = apply_variation("543a7ed5", {"size": 24, "boxes": 5}, 3, master_seed=5)
    assert result.verifier_checked is True
    for ex in (*result.task_set.train, *result.task_set.test):
        assert ex.input.height == ex.input.width == 24
        assert len(_pink_components(ex.input)) == 5


def test_verifier_domain_error_raises_or_marks_the_variation_unchecked():
    # An example whose cell is even falls outside the fake verifier's domain;
    # a second fake verifier accepts every input but returns another grid.
    def fake_generate(size=1, rng=None):
        cell = rng.randint(0, 9)
        return Example(input=Grid([[cell] * size]), output=Grid([[cell] * size]))

    def fake_verifier(grid):
        if grid[0][0] % 2 == 0:
            raise VerifierDomainError("even cell")
        return grid

    def wrong_verifier(grid):
        return Grid([[*grid[0], 0]])

    register(SimpleNamespace(TASK_ID="fffffffe", generate=fake_generate, verifier=fake_verifier))
    register(SimpleNamespace(TASK_ID="fffffffd", generate=fake_generate, verifier=wrong_verifier))
    try:
        with pytest.raises(VerifierDomainError, match="even cell"):
            generate_task_set("fffffffe", 20, 1, master_seed=1)
        result = apply_variation("fffffffe", {"size": 2}, 20, master_seed=1)
        assert result.verifier_checked is False
        assert len(result.task_set.train) == 20 and len(result.task_set.test) == 1
        assert all(ex.input.width == 2 for ex in result.task_set.train)
        mismatch = r"^task fffffffd: example 0 does not satisfy its verifier$"
        with pytest.raises(VerificationError, match=mismatch):
            generate_task_set("fffffffd", 20, 1, master_seed=1)
        with pytest.raises(VerificationError, match=mismatch):
            apply_variation("fffffffd", {"size": 2}, 20, master_seed=1)
    finally:
        del _REGISTRY["fffffffe"], _REGISTRY["fffffffd"]


def test_variation_recolored_boxes_flagged_out_of_domain():
    result = apply_variation("543a7ed5", {"colors": [2, 2, 2]}, 2, master_seed=11)
    assert result.verifier_checked is False
    for ex in result.task_set.train:
        assert any(2 in row for row in ex.input)


def test_variation_unknown_parameter():
    with pytest.raises(ValueError):
        apply_variation("543a7ed5", {"bogus": 1}, 1, master_seed=0)
    with pytest.raises(ValueError, match=r"^count 0 outside \[1, 18446744073709551615\]$"):
        apply_variation("1e0a9b12", {}, 0, master_seed=5)
    with pytest.raises(ValueError, match=r"^count 18446744073709551616 outside \[1, 18446744073709551615\]$"):
        apply_variation("1e0a9b12", {}, 2**64, master_seed=5)
    for count in (True, 2.5):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count}$"):
            apply_variation("1e0a9b12", {}, count, master_seed=5)


def test_variation_impossible_layout_exhausts_budget():
    # Nine 2x2-or-larger boxes cannot keep spacing 2 on a 5x5 grid.
    with pytest.raises(GenerationError):
        apply_variation("543a7ed5", {"size": 5, "boxes": 9}, 1, master_seed=0)
