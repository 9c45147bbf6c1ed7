"""Registry and example generation."""

from types import SimpleNamespace

import pytest

from gridbench import (
    Example,
    GenerationError,
    Grid,
    TaskScore,
    VerificationError,
    VerifierDomainError,
    emit_dataset,
    evaluate,
    generate_examples,
    lookup,
    params,
    register,
    task_ids,
)
from gridbench import framework
from gridbench.framework import _REGISTRY
from gridbench.rng import new_stream
from gridbench.tasks import crossing_marker
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


def _mirror_cells(cells):
    # Each row reversed, on checked cells.
    h, w, data = cells
    return h, w, b"".join(data[i : i + w][::-1] for i in range(0, h * w, w))


def _mirror_task(task_id):
    """A task that defines its transformation on cells only, as ``verify_cells``."""

    def generate(rng=None):
        rows = [[rng.randint(0, 9) for _ in range(3)] for _ in range(2)]
        return Example(Grid(rows), Grid([row[::-1] for row in rows]))

    return SimpleNamespace(TASK_ID=task_id, generate=generate, verify_cells=_mirror_cells)


def test_register_refuses_a_task_with_neither_verify_cells_nor_verifier(monkeypatch):
    monkeypatch.setattr(framework, "_REGISTRY", dict(_REGISTRY))
    task = SimpleNamespace(TASK_ID="fffffff9", generate=lambda rng=None: None)
    with pytest.raises(ValueError, match=r"^task 'fffffff9' defines neither verify_cells nor verifier$"):
        register(task)
    assert "fffffff9" not in task_ids() and not hasattr(task, "verifier")


def test_register_derives_the_grid_entry_from_verify_cells(monkeypatch):
    monkeypatch.setattr(framework, "_REGISTRY", dict(_REGISTRY))
    task = _mirror_task("fffffffb")
    register(task)
    verifier = lookup("fffffffb").verifier
    assert verifier(Grid([[1, 2, 3], [4, 5, 0]])) == Grid([[3, 2, 1], [0, 5, 4]])
    # A write through a row raises, and the entry sees the grid as it was made.
    grid = Grid([[1, 2]])
    with pytest.raises(TypeError):
        grid[0][0] = 10
    assert verifier(grid) == Grid([[2, 1]])
    # The entry calls verify_cells as the task holds it at each call.
    calls = []
    monkeypatch.setattr(task, "verify_cells", lambda cells: calls.append(cells) or _mirror_cells(cells))
    assert verifier(Grid([[7, 8]])) == Grid([[8, 7]])
    assert calls == [(1, 2, bytes([7, 8]))]
    # Judged as registered, the entry runs on cells.
    assert framework._on_cells("fffffffb", verifier) is task.verify_cells


def test_a_task_with_verify_cells_alone_generates_and_evaluates(tmp_path, monkeypatch):
    monkeypatch.setattr(framework, "_REGISTRY", dict(_REGISTRY))
    register(_mirror_task("fffffffa"))
    assert len(list(generate_examples("fffffffa", 4, 1))) == 5
    emit_dataset(["fffffffa"], 4, 1, tmp_path)
    report = evaluate(tmp_path, {"fffffffa": lookup("fffffffa").verifier})
    assert report.per_task == {"fffffffa": TaskScore(5, 5)}


def test_a_task_that_defines_its_verifier_keeps_it():
    # 67a423a3 defines verify_cells and its own verifier, the walk.
    assert lookup("67a423a3").verifier is crossing_marker.verifier is crossing_marker._reference


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
    stream = generate_examples("543a7ed5", 3, master_seed=5, overrides={"size": 24, "boxes": 5})
    examples = list(stream)
    assert len(examples) == 4 and stream.domain_error is None
    for ex in examples:
        assert ex.input.height == ex.input.width == 24
        assert len(_pink_components(ex.input)) == 5


def test_a_block_is_a_slice_of_the_stream():
    whole = list(generate_examples("05269061", 9, 4))
    assert list(generate_examples("05269061", 9, 4).block(3, 7)) == whole[3:7]
    # No index past count: the stream's last index is its test example.
    assert list(generate_examples("05269061", 9, 4).block(8, 20)) == whole[8:]


@pytest.mark.parametrize("task_id", ["05269061", "1e0a9b12", "543a7ed5", "67a423a3"])
def test_generation_checks_each_example_by_verify_cells_alone(tmp_path, monkeypatch, task_id):
    # One verifier path: each generated example, iterated or written, is
    # checked once on its cells, and the Grid verifier is never called.
    task = lookup(task_id)
    cells_calls, grid_calls = [], []
    verify_cells = task.verify_cells
    monkeypatch.setattr(task, "verify_cells", lambda cells: cells_calls.append(cells) or verify_cells(cells))
    monkeypatch.setattr(task, "verifier", grid_calls.append)
    assert len(list(generate_examples(task_id, 9, 3))) == len(cells_calls) == 10
    cells_calls.clear()
    emit_dataset([task_id], 11, 3, tmp_path)  # one later block, made in this process
    assert len(cells_calls) == 12 and grid_calls == []


def test_generation_checks_a_task_without_verify_cells_by_its_registered_verifier(monkeypatch):
    # As in evaluate, the verifier captured by register is the check, not
    # the task's attribute of the moment.
    def fake_generate(rng=None):
        cell = rng.randint(0, 9)
        return Example(input=Grid([[cell]]), output=Grid([[cell]]))

    def refuse(grid):
        raise AssertionError("generation called the task's verifier attribute")

    checked = []
    task = SimpleNamespace(
        TASK_ID="fffffffc", generate=fake_generate, verifier=lambda grid: checked.append(grid) or grid
    )
    monkeypatch.setattr(framework, "_REGISTRY", dict(_REGISTRY))
    register(task)
    task.verifier = refuse
    assert len(list(generate_examples("fffffffc", 4, 1))) == len(checked) == 5


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
            list(generate_examples("fffffffe", 20, master_seed=1))
        stream = generate_examples("fffffffe", 20, master_seed=1, overrides={"size": 2})
        examples = list(stream)
        assert str(stream.domain_error) == "even cell"
        assert len(examples) == 21 and all(ex.input.width == 2 for ex in examples)
        mismatch = r"^task fffffffd: example 0 does not satisfy its verifier$"
        with pytest.raises(VerificationError, match=mismatch):
            list(generate_examples("fffffffd", 20, master_seed=1))
        with pytest.raises(VerificationError, match=mismatch):
            list(generate_examples("fffffffd", 20, master_seed=1, overrides={"size": 2}))
    finally:
        del _REGISTRY["fffffffe"], _REGISTRY["fffffffd"]


def test_variation_recolored_boxes_flagged_out_of_domain():
    stream = generate_examples("543a7ed5", 2, master_seed=11, overrides={"colors": [2, 2, 2]})
    examples = list(stream)
    assert stream.domain_error is not None
    for ex in examples:
        assert any(2 in row for row in ex.input)


def test_variation_unknown_parameter():
    # The arguments are checked when the stream is made, before any example.
    with pytest.raises(ValueError):
        generate_examples("543a7ed5", 1, master_seed=0, overrides={"bogus": 1})
    with pytest.raises(ValueError, match=r"^count 0 outside \[1, 18446744073709551615\]$"):
        generate_examples("1e0a9b12", 0, master_seed=5)
    with pytest.raises(ValueError, match=r"^count 18446744073709551616 outside \[1, 18446744073709551615\]$"):
        generate_examples("1e0a9b12", 2**64, master_seed=5)
    with pytest.raises(ValueError) as info:
        generate_examples("1e0a9b12", 10**5000, master_seed=0)
    message = str(info.value)
    assert message.startswith("count ")
    assert message.endswith("outside [1, 18446744073709551615]")
    assert len(message) < 200
    # A list holding such an integer has no repr, so it is named by its type.
    with pytest.raises(ValueError, match="^count must be an integer, got <list>$"):
        generate_examples("1e0a9b12", [10**5000], master_seed=0)
    for count in (True, 2.5):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count}$"):
            generate_examples("1e0a9b12", count, master_seed=5)


def test_variation_impossible_layout_exhausts_budget():
    # Nine 2x2-or-larger boxes cannot keep spacing 2 on a 5x5 grid.
    with pytest.raises(GenerationError):
        list(generate_examples("543a7ed5", 1, master_seed=0, overrides={"size": 5, "boxes": 9}))
