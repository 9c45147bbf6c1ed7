"""Acceptance suite: one test per release criterion.

Each test prints a single pass line (visible with ``pytest -s``) and
enforces its stated runtime bound. Criterion 1 uses the structural
fallback checks because the original published task file is not
available in this offline environment.
"""

import time

import pytest

from gridbench import (
    EvalReport,
    Grid,
    TaskSet,
    emit_dataset,
    evaluate,
    format_report,
    load_task_file,
    lookup,
    render_text,
    save_task_file,
    task_ids,
)
from gridbench.cli import run
from gridbench.rng import new_stream
from gridbench.tasks import borders_and_holes
from gridbench.tasks.borders_and_holes import _pink_components

SAMPLES = 1000
SEED = 20250810


@pytest.fixture(scope="module")
def thousand_examples():
    """1000 generated examples per task, with the time generation took."""
    cache = {}
    for task_id in task_ids():
        gen = lookup(task_id)
        start = time.monotonic()
        examples = [
            gen.generate(rng=new_stream(SEED, task_id, index)) for index in range(SAMPLES)
        ]
        cache[task_id] = (examples, time.monotonic() - start)
    return cache


def test_criterion_1_golden_reproduction():
    start = time.monotonic()
    fixture = borders_and_holes.validate()
    assert len(fixture.train) == 2
    assert len(fixture.test) == 1
    for example in (*fixture.train, *fixture.test):
        assert example.input.height == example.input.width == 15
        assert example.output.height == example.output.width == 15
    # First train input: box areas 4*5 + 2*2 + 4*4 = 40 minus the 2x3 hole.
    first = fixture.train[0].input
    assert sum(v == 6 for row in first for v in row) == 34
    # Test example: three pink rectangles, three holes.
    test_input = fixture.test[0].input
    bounds = _pink_components(test_input)
    assert len(bounds) == 3
    holes = _enclosed_cyan_regions(test_input, bounds)
    assert len(holes) == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden fixture reproduced structurally ({elapsed:.3f}s)")


def test_criterion_2_verifier_oracle_suite(thousand_examples):
    start = time.monotonic()
    for task_id in task_ids():
        examples, gen_seconds = thousand_examples[task_id]
        verifier = lookup(task_id).verifier
        failures = sum(verifier(ex.input) != ex.output for ex in examples)
        assert failures == 0, f"{task_id}: {failures}/{SAMPLES} failures"
    elapsed = time.monotonic() - start + sum(t for _, t in thousand_examples.values())
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: {len(task_ids())} x {SAMPLES} examples verifier-consistent "
        f"({elapsed:.1f}s)"
    )


def test_criterion_3_report_grammar(tmp_path):
    emit_dataset(task_ids(), 3, SEED, tmp_path)
    programs = {task_id: lookup(task_id).verifier for task_id in task_ids()}
    text = format_report(evaluate(tmp_path, programs))
    lines = text.splitlines()
    for task_id, line in zip(task_ids(), lines):
        assert line == f"Testing task {task_id} ... pass"
    count = len(task_ids())
    assert lines[-1] == f"Examples pass for {count}/{count} tasks (100%)"
    # Synthetic 65-of-400 report reproduces the fractional percentage.
    scores = {f"{i:08x}": (1, 1) if i < 65 else (0, 1) for i in range(400)}
    synthetic = format_report(EvalReport.from_scores(scores))
    assert synthetic.splitlines()[-1] == "Examples pass for 65/400 tasks (16.25%)"
    print("PASS criterion 3: report grammar matches, including (16.25%)")


def test_criterion_4_hardcoded_solutions_fail_fresh_examples(tmp_path):
    start = time.monotonic()
    golden = borders_and_holes.validate()
    memory = {
        render_text(ex.input): ex.output.copy() for ex in (*golden.train, *golden.test)
    }
    fallback = golden.train[0].output

    def memorizer(grid):
        return memory.get(render_text(grid), fallback).copy()

    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    save_task_file(golden_dir / "543a7ed5.json", golden)
    report = evaluate(golden_dir, {"543a7ed5": memorizer})
    assert report.per_task["543a7ed5"].passed  # memorization aces the golden set

    fresh_dir = tmp_path / "fresh"
    emit_dataset(["543a7ed5"], 250, SEED, fresh_dir)
    report = evaluate(fresh_dir, {"543a7ed5": memorizer})
    score = report.per_task["543a7ed5"]
    assert score.total_count == 251
    assert score.pass_count <= 0.01 * score.total_count  # fails >= 99%
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        "PASS criterion 4: memorizer passed the golden set but failed "
        f"{score.total_count - score.pass_count}/{score.total_count} fresh examples "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_generate_runs_are_byte_identical(tmp_path):
    start = time.monotonic()
    digests = []
    for name in ("a", "b"):
        directory = tmp_path / name
        assert run(["generate", "--out", str(directory), "--seed", "77"]) == 0
        digests.append(
            sorted((p.name, p.read_bytes()) for p in directory.iterdir())
        )
    assert digests[0] == digests[1]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 5: repeated generate runs byte-identical ({elapsed:.1f}s)")


def test_criterion_6_task_invariant_suites(thousand_examples):
    _check_gravity_invariants(thousand_examples["1e0a9b12"][0])
    _check_crossing_invariants(thousand_examples["67a423a3"][0])
    _check_stripe_invariants(thousand_examples["05269061"][0])
    _check_border_invariants(thousand_examples["543a7ed5"][0])
    print(f"PASS criterion 6: task invariants hold on {SAMPLES} cases per task")


def test_criterion_7_format_fidelity(tmp_path):
    rng = new_stream(SEED, "format-fidelity", 0)
    for i in range(100):
        task_set = _random_task_set(rng)
        path = tmp_path / f"{i}.json"
        save_task_file(path, task_set)
        assert load_task_file(path) == task_set
    minimal = TaskSet(
        train=[_example([[1]], [[2]])],
        test=[_example([[0]], [[0]])],
    )
    path = tmp_path / "minimal.json"
    save_task_file(path, minimal)
    expected = b'{"train":[{"input":[[1]],"output":[[2]]}],"test":[{"input":[[0]],"output":[[0]]}]}'
    assert path.read_bytes() == expected
    print("PASS criterion 7: 100 round-trips identical; minimal file byte-exact")


def _example(input_rows, output_rows):
    from gridbench import Example

    return Example(input=Grid(input_rows), output=Grid(output_rows))


def _random_task_set(rng):
    def random_grid():
        h, w = rng.randint(1, 30), rng.randint(1, 30)
        return Grid([[rng.randint(0, 9) for _ in range(w)] for _ in range(h)])

    def random_examples(count):
        return [_example(random_grid().to_lists(), random_grid().to_lists()) for _ in range(count)]

    return TaskSet(train=random_examples(rng.randint(1, 5)), test=random_examples(rng.randint(1, 2)))


def _enclosed_cyan_regions(grid, bounds):
    """Connected cyan regions lying strictly inside pink bounding boxes."""
    inside = set()
    for r0, c0, r1, c1 in bounds:
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                if grid[r][c] == 8:
                    inside.add((r, c))
    regions = []
    remaining = set(inside)
    while remaining:
        seed_cell = remaining.pop()
        region = {seed_cell}
        stack = [seed_cell]
        while stack:
            r, c = stack.pop()
            for nearby in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nearby in remaining:
                    remaining.remove(nearby)
                    region.add(nearby)
                    stack.append(nearby)
        regions.append(region)
    return regions


def _check_gravity_invariants(examples):
    for ex in examples:
        h, w = ex.input.height, ex.input.width
        assert (ex.output.height, ex.output.width) == (h, w)
        for c in range(w):
            col_in = [ex.input[r][c] for r in range(h)]
            col_out = [ex.output[r][c] for r in range(h)]
            packed = [v for v in col_in if v]
            # Column multiset (and order) conserved, output bottom-packed.
            assert [v for v in col_out if v] == packed
            assert col_out == [0] * (h - len(packed)) + packed


def _check_crossing_invariants(examples):
    for ex in examples:
        h, w = ex.input.height, ex.input.width
        diff = [
            (r, c)
            for r in range(h)
            for c in range(w)
            if ex.input[r][c] != ex.output[r][c]
        ]
        assert len(diff) == 8
        rows = {r for r, _ in diff}
        cols = {c for _, c in diff}
        assert len(rows) == 3 and max(rows) - min(rows) == 2
        assert len(cols) == 3 and max(cols) - min(cols) == 2
        center = (min(rows) + 1, min(cols) + 1)
        assert center not in diff  # the crossing keeps its color
        assert all(ex.output[r][c] == 4 for r, c in diff)


def _check_stripe_invariants(examples):
    for ex in examples:
        h, w = ex.output.height, ex.output.width
        assert all(v != 0 for row in ex.output for v in row)
        # Residue constancy: one color per (r + c) mod 3 class, all distinct.
        palette = {}
        for r in range(h):
            for c in range(w):
                palette.setdefault((r + c) % 3, ex.output[r][c])
                assert ex.output[r][c] == palette[(r + c) % 3]
        assert len(set(palette.values())) == 3


def _check_border_invariants(examples):
    for ex in examples:
        in_values = {v for row in ex.input for v in row}
        out_values = {v for row in ex.output for v in row}
        assert in_values <= {8, 6}
        assert out_values <= {8, 6, 3, 4}
        bounds = _pink_components(ex.input)
        size = ex.input.height
        expected_green = set()
        for r0, c0, r1, c1 in bounds:
            # One-cell margin inside the grid for every rectangle.
            assert r0 >= 1 and c0 >= 1 and r1 <= size - 2 and c1 <= size - 2
            for c in range(c0 - 1, c1 + 2):
                expected_green.add((r0 - 1, c))
                expected_green.add((r1 + 1, c))
            for r in range(r0 - 1, r1 + 2):
                expected_green.add((r, c0 - 1))
                expected_green.add((r, c1 + 1))
        actual_green = {
            (r, c)
            for r in range(size)
            for c in range(size)
            if ex.output[r][c] == 3
        }
        assert actual_green == expected_green
        hole_cells = sum(len(region) for region in _enclosed_cyan_regions(ex.input, bounds))
        assert hole_cells >= 2 * len(bounds)
