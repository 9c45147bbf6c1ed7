"""Registry, geometry helpers, and task-set generation."""

import pytest

from gridbench import (
    Example,
    GenerationError,
    Grid,
    TaskGenerator,
    VerifierDomainError,
    apply_variation,
    generate_task_set,
    lookup,
    overlaps,
    register,
    task_ids,
)
from gridbench.framework import _REGISTRY
from gridbench.rng import new_stream
from gridbench.tasks.borders_and_holes import _pink_components


def test_overlaps_identical_boxes():
    assert overlaps([2, 2], [3, 3], [4, 4], [3, 3], 1) is True
    assert overlaps([2, 2], [3, 3], [4, 4], [3, 3], 2) is True


def test_overlaps_golden_layout_is_clear():
    # First golden layout: every pair is at least 2 apart on one axis.
    assert overlaps([2, 4, 10], [8, 3, 5], [4, 2, 4], [5, 2, 4], 2) is False


def test_overlaps_exact_gap_is_not_a_conflict():
    # Column gap is exactly 2, so spacing 2 passes and spacing 3 fails.
    assert overlaps([1, 3], [8, 2], [3, 4], [3, 4], 2) is False
    assert overlaps([1, 3], [8, 2], [3, 4], [3, 4], 3) is True


def test_overlaps_validates_arguments():
    with pytest.raises(ValueError):
        overlaps([1, 2], [1], [2, 2], [2, 2], 2)
    with pytest.raises(ValueError):
        overlaps([1], [1], [0], [2], 2)
    with pytest.raises(ValueError):
        overlaps([1], [1], [2], [2], -1)


def test_overlaps_symmetric_and_monotone():
    rng = new_stream(31, "overlap-props", 0)
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [rng.randint(0, 12) for _ in range(n)]
        cols = [rng.randint(0, 12) for _ in range(n)]
        widths = [rng.randint(1, 5) for _ in range(n)]
        heights = [rng.randint(1, 5) for _ in range(n)]
        order = list(range(n))
        for i in range(n):  # shuffle
            j = rng.randint(i, n - 1)
            order[i], order[j] = order[j], order[i]
        permuted = overlaps(
            [rows[i] for i in order],
            [cols[i] for i in order],
            [widths[i] for i in order],
            [heights[i] for i in order],
            2,
        )
        assert permuted == overlaps(rows, cols, widths, heights, 2)
        # Monotone: a conflict at spacing k stays a conflict at k + 1.
        for spacing in range(1, 5):
            if overlaps(rows, cols, widths, heights, spacing):
                assert overlaps(rows, cols, widths, heights, spacing + 1)


def test_registry_lists_bundled_tasks_sorted():
    assert task_ids() == ["05269061", "1e0a9b12", "543a7ed5", "67a423a3"]


def test_lookup_unknown_task():
    with pytest.raises(KeyError):
        lookup("00000000")


def test_lookup_returns_registered_generator():
    gen = lookup("543a7ed5")
    assert gen.task_id == "543a7ed5"
    assert gen.validate is not None
    assert set(gen.params) == {"rows", "cols", "widths", "heights", "colors", "boxes", "size"}


def test_duplicate_registration_rejected():
    g = Grid([[0]])

    def fake_generate(rng=None):
        return Example(input=g, output=g)

    fake = TaskGenerator.from_callables("ffffffff", fake_generate, lambda grid: grid)
    register(fake)
    try:
        with pytest.raises(ValueError):
            register(fake)
    finally:
        del _REGISTRY["ffffffff"]


def test_generate_task_set_validates_counts():
    with pytest.raises(ValueError, match="must be positive"):
        generate_task_set("543a7ed5", 0, 1, master_seed=0)
    with pytest.raises(ValueError, match="must be positive"):
        generate_task_set("543a7ed5", 1, 0, master_seed=0)
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
    # An example whose cell is even falls outside the fake verifier's domain.
    def fake_generate(size=1, rng=None):
        cell = rng.randint(0, 9)
        return Example(input=Grid([[cell] * size]), output=Grid([[cell] * size]))

    def fake_verify(grid):
        if grid[0][0] % 2 == 0:
            raise VerifierDomainError("even cell")
        return grid

    register(TaskGenerator.from_callables("fffffffe", fake_generate, fake_verify))
    try:
        with pytest.raises(VerifierDomainError, match="even cell"):
            generate_task_set("fffffffe", 20, 1, master_seed=1)
        result = apply_variation("fffffffe", {"size": 2}, 20, master_seed=1)
        assert result.verifier_checked is False
        assert len(result.task_set.train) == 20 and len(result.task_set.test) == 1
        assert all(ex.input.width == 2 for ex in result.task_set.train)
    finally:
        del _REGISTRY["fffffffe"]


def test_variation_recolored_boxes_flagged_out_of_domain():
    result = apply_variation("543a7ed5", {"colors": [2, 2, 2]}, 2, master_seed=11)
    assert result.verifier_checked is False
    for ex in result.task_set.train:
        assert any(2 in row for row in ex.input)


def test_variation_unknown_parameter():
    with pytest.raises(ValueError):
        apply_variation("543a7ed5", {"bogus": 1}, 1, master_seed=0)
    with pytest.raises(ValueError, match="^count must be positive$"):
        apply_variation("1e0a9b12", {}, 0, master_seed=5)
    for count in (True, 2.5):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count}$"):
            apply_variation("1e0a9b12", {}, count, master_seed=5)


def test_variation_impossible_layout_exhausts_budget():
    # Nine 2x2-or-larger boxes cannot keep spacing 2 on a 5x5 grid.
    with pytest.raises(GenerationError):
        apply_variation("543a7ed5", {"size": 5, "boxes": 9}, 1, master_seed=0)
