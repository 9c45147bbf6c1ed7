"""Dataset files, golden-set validation, and verifier-success evaluation.

Task files use the ARC JSON layout: an object with exactly the keys
"train" and "test", each a non-empty list of {"input": rows, "output":
rows} objects, where rows are lists of lists of color codes 0-9.

Files are written in one canonical layout: compact JSON with no
whitespace and the keys in that order, so identical task sets serialize
to identical bytes. Any other JSON layout of the same content (spaces
after separators, another key order, a trailing newline) loads to the
same task set, and a malformed file fails with the same error whatever
its layout. Both sides of the canonical layout go through one strided
byte frame per grid shape, whose even slots hold the cells and the
commas between rows and whose odd slots hold fixed separators: a grid
is written by copying its cells into the frame, and read, without
building a JSON object tree, by checking the text against the frame and
taking the rows from its even slots. Every other file goes through
``json.loads`` and is validated element by element.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import FormatError
from .framework import check_int, generate_task_set, lookup
from .grid import MAX_SIDE, Example, Grid, TaskSet

# The canonical layout around the grids; a grid's text is its rows
# without the outermost brackets, e.g. "1,2],[3,4" for [[1,2],[3,4]].
_HEAD = '{"train":[{"input":[['
_PAIR = ']],"output":[['
_NEXT = ']]},{"input":[['
_SPLIT = ']]}],"test":[{"input":[['
_TAIL = ']]}]}'
# Cell value -> ASCII digit; any byte that is not a color maps to 0x80,
# which the ASCII decode rejects.
_TO_DIGIT = bytes(range(48, 58)).ljust(256, b"\x80")
# ASCII digit -> cell value (only digits are ever translated).
_FROM_DIGIT = bytes.maketrans(b"0123456789", bytes(range(10)))


@functools.cache
def _frame(height: int, width: int) -> bytes:
    """The text of a ``height`` x ``width`` grid with a comma in every cell slot.

    A grid's text is strided: cell (r, c) sits at index
    ``2 * (r * (width + 1) + c)``, the comma between rows r and r + 1 at
    the pad slot c = width, and every odd index holds a fixed separator:
    "," inside a row, "]" and "[" around a pad slot.
    """
    return b"],[".join([b"," * (2 * width - 1)] * height)


def _grid_text(grid: Grid) -> str:
    """A grid's rows as canonical JSON text, without the outer brackets.

    The same text as ``json.dumps`` with compact separators for a grid
    that meets the ``Grid`` contract. The rows are joined into one byte
    string of cells (``bytes(row)``, by integer value) with the row
    breaks at the pad slots, which is written over the even slots of
    the shape's frame. Cell types are not checked again: rows mutated
    after construction to ragged or empty rows, or to a cell that is
    not an integer or lies outside 0-9, raise ``ValueError`` naming the
    first bad row or cell, while a mutated-in ``bool`` or other
    integer-like cell (a NumPy integer, say) is written as its digit.
    Either way no file is written that ``load_task_file`` would reject.
    """
    rows = list(grid)
    try:
        height = len(rows)
        width = len(rows[0]) if rows else 0
        if not (
            1 <= height <= MAX_SIDE and 1 <= width <= MAX_SIDE and set(map(len, rows)) == {width}
        ):
            raise ValueError(f"grid rows are not 1 to {MAX_SIDE} rows of 1 to {MAX_SIDE} cells")
        # The row breaks become 0x80 like a cell outside 0-9, until the
        # commas overwrite them.
        cells = bytearray(b"\n".join(map(bytes, rows)).translate(_TO_DIGIT))
        cells[width :: width + 1] = b"," * (height - 1)
        frame = bytearray(_frame(height, width))
        frame[::2] = cells
        return frame.decode("ascii")
    except (TypeError, ValueError):
        Grid(rows)  # names the first bad row or cell
        raise


def _task_text(task_set: TaskSet) -> str:
    def examples(split) -> str:
        return _NEXT.join(
            _grid_text(ex.input) + _PAIR + _grid_text(ex.output) for ex in split
        )

    return _HEAD + examples(task_set.train) + _SPLIT + examples(task_set.test) + _TAIL


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it into place.

    A reader sees the old file or the new one, never a partial write, even
    if the writing process fails or is killed. The file is not synced to
    disk, so this does not hold across a power loss or an operating-system
    crash. The temporary name is unique and created exclusively, so writers
    to one directory never share a temporary file; it does not match
    ``*.json``, and it is removed if the write fails. The file gets the mode
    ``open`` gives a new file under the umask in force when it is written.
    """
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    temp.touch(exist_ok=False)
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_task_file(path, task_set: TaskSet) -> None:
    """Write a task set as compact ARC JSON, atomically."""
    _write_atomic(Path(path), _task_text(task_set))


def load_task_file(path) -> TaskSet:
    """Read and strictly validate an ARC JSON task file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: {err}") from None
    task_set = _decode_canonical(text)
    if task_set is not None:
        return task_set
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: line {err.lineno}: {err.msg}") from None
    except (RecursionError, ValueError) as err:
        # Nesting deeper than the recursion limit, or an integer longer
        # than the int conversion limit.
        raise FormatError(f"{path}: {err}") from None
    if not isinstance(payload, dict) or set(payload) != {"train", "test"}:
        raise FormatError(
            f"{path}: top level must be an object with exactly 'train' and 'test'"
        )
    return TaskSet(
        train=_read_examples(path, payload, "train"),
        test=_read_examples(path, payload, "test"),
    )


def _decode_canonical(text: str) -> TaskSet | None:
    """The task set of a file in the canonical layout; None for any other text.

    The layout proves the grids valid: every cell is one ASCII digit,
    rows have one length and both sides are at most 30. So they are
    wrapped without a second check.
    """
    if not (text.isascii() and text.startswith(_HEAD) and text.endswith(_TAIL)):
        return None
    train, split, test = text[len(_HEAD) : -len(_TAIL)].partition(_SPLIT)
    if not split:
        return None
    splits = []
    for part in (train, test):
        examples = []
        for item in part.split(_NEXT):
            pair = item.split(_PAIR)
            if len(pair) != 2:
                return None
            grid_in, grid_out = _decode_grid(pair[0]), _decode_grid(pair[1])
            if grid_in is None or grid_out is None:
                return None
            examples.append(Example(input=grid_in, output=grid_out))
        splits.append(examples)
    return TaskSet(train=splits[0], test=splits[1])


def _decode_grid(text: str) -> Grid | None:
    """The grid whose canonical ASCII text is ``text``; None for any other text.

    The shape is read off the first row, the odd slots must match its
    frame, and the even slots must hold digits except for one comma at
    each pad slot. The rows come from one C call on the digits.
    """
    data = text.encode("ascii")
    end = data.find(b"]")
    width = (len(data) if end < 0 else end) // 2 + 1  # a row is 2 * width - 1 long
    height = (len(data) + 3) // (2 * width + 2)
    if not (width <= MAX_SIDE and 1 <= height <= MAX_SIDE):
        return None
    if data[1::2] != _frame(height, width)[1::2]:
        return None
    cells = data[::2]
    digits = cells.translate(None, b",")
    if not (
        len(digits) == height * width
        and cells[width :: width + 1] == b"," * (height - 1)
        and digits.isdigit()
    ):
        return None
    rows = memoryview(digits.translate(_FROM_DIGIT)).cast("B", (height, width)).tolist()
    return Grid._of(rows)


def _read_examples(path: Path, payload: dict, split: str) -> list[Example]:
    items = payload[split]
    if not isinstance(items, list) or not items:
        raise FormatError(f"{path}: '{split}' must be a non-empty list")
    examples = []
    for i, item in enumerate(items):
        where = f"{path}: {split}[{i}]"
        if not isinstance(item, dict) or set(item) != {"input", "output"}:
            raise FormatError(f"{where}: expected exactly 'input' and 'output'")
        pair = []
        for key in ("input", "output"):
            try:
                pair.append(Grid(item[key]))
            except ValueError as err:
                raise FormatError(f"{where}.{key}: {err}") from None
        examples.append(Example(input=pair[0], output=pair[1]))
    return examples


def save_dataset(out_dir, master_seed: int, task_sets: Iterable[tuple[str, TaskSet]]) -> dict:
    """Write one ``<task_id>.json`` per ``(task_id, task_set)``, then the manifest.

    ``task_sets`` is consumed lazily, so a generator keeps one task set
    in memory at a time, and one that fails before its first task set
    leaves no directory behind. Every file is written atomically and
    ``manifest.json`` goes last, so it lists only files that were
    written in full. Returns the manifest.
    """
    directory = Path(out_dir)
    entries = []
    for task_id, task_set in task_sets:
        directory.mkdir(parents=True, exist_ok=True)
        file_name = f"{task_id}.json"
        save_task_file(directory / file_name, task_set)
        entries.append(
            {
                "id": task_id,
                "train_count": len(task_set.train),
                "test_count": len(task_set.test),
                "file": file_name,
            }
        )
    manifest = {"master_seed": master_seed, "tasks": entries}
    directory.mkdir(parents=True, exist_ok=True)
    _write_atomic(directory / "manifest.json", json.dumps(manifest, separators=(",", ":")))
    return manifest


def emit_dataset(task_list, per_task_train: int, master_seed: int, out_dir) -> dict:
    """Write one ``<task_id>.json`` per task plus a manifest.

    Each file holds ``per_task_train`` train examples and one test
    example. Two runs with identical arguments produce byte-identical
    directory contents. Returns the manifest, which is also written as
    ``manifest.json``.
    """
    if check_int("per_task_train", per_task_train) < 1:
        raise ValueError("per_task_train must be positive")
    return save_dataset(
        out_dir,
        master_seed,
        (
            (task_id, generate_task_set(task_id, per_task_train, 1, master_seed))
            for task_id in sorted(task_list)
        ),
    )


@dataclass(frozen=True)
class TaskScore:
    """Example tally for one task; the task passes only if every example does."""

    pass_count: int
    total_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.pass_count <= self.total_count:
            raise ValueError("pass_count must lie in [0, total_count]")

    @property
    def passed(self) -> bool:
        return self.total_count > 0 and self.pass_count == self.total_count


@dataclass(frozen=True)
class EvalReport:
    """Per-task pass/fail tallies; the overall tallies are derived from them."""

    per_task: dict[str, TaskScore]
    skipped: tuple[str, ...]

    @property
    def tasks_passed(self) -> int:
        return sum(score.passed for score in self.per_task.values())

    @property
    def tasks_total(self) -> int:
        return len(self.per_task)

    @property
    def percent(self) -> float:
        return 100.0 * self.tasks_passed / self.tasks_total if self.tasks_total else 0.0

    @classmethod
    def from_scores(cls, scores: dict[str, tuple[int, int]], skipped=()) -> "EvalReport":
        return cls({task_id: TaskScore(*tally) for task_id, tally in scores.items()}, tuple(skipped))


def evaluate(example_dir, programs: dict[str, Callable[[Grid], Grid]]) -> EvalReport:
    """Run each program over every stored example of its task.

    Every train and test pair counts equally. A program that raises on
    an example, or calls ``sys.exit``, fails that example; tasks present
    in the directory but missing from ``programs`` are skipped and listed
    in the report. A path that is not a directory raises
    ``NotADirectoryError``.
    """
    directory = Path(example_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    scores: dict[str, tuple[int, int]] = {}
    skipped = []
    for path in sorted(directory.glob("*.json")):
        if path.name == "manifest.json":
            continue
        task_id = path.stem
        if task_id not in programs:
            skipped.append(task_id)
            continue
        scores[task_id] = _judge(programs[task_id], load_task_file(path))
    return EvalReport.from_scores(scores, skipped)


def _judge(program: Callable[[Grid], Grid], task_set: TaskSet) -> tuple[int, int]:
    """``(passed, total)`` of a program over every train and test example; it
    gets a fresh copy of each input, and an example fails when it raises
    (``SystemExit`` too, but not ``KeyboardInterrupt``) or returns a result
    that is not a valid grid."""
    examples = (*task_set.train, *task_set.test)
    passed = 0
    for example in examples:
        try:
            result = program(example.input.copy())
            if not isinstance(result, Grid):
                result = Grid(result)
        except (Exception, SystemExit):
            continue
        if result == example.output:
            passed += 1
    return passed, len(examples)


def format_percent(value: float) -> str:
    """Up to two decimals, trailing zeros trimmed: 100 -> '100', 16.25 -> '16.25'."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def format_report(report: EvalReport, skip_reason: str = "no program") -> str:
    """One line per task in task-id order, judged or skipped (``skip_reason``), then the tally."""
    lines = []
    for task_id in sorted((*report.per_task, *report.skipped)):
        score = report.per_task.get(task_id)
        if score is None:
            lines.append(f"Skipping task {task_id} ({skip_reason})")
        else:
            lines.append(f"Testing task {task_id} ... {'pass' if score.passed else 'FAIL'}")
    lines.append(
        f"Examples pass for {report.tasks_passed}/{report.tasks_total} tasks "
        f"({format_percent(report.percent)}%)"
    )
    return "\n".join(lines)


def _bundled_golden(task_id: str) -> TaskSet | None:
    resource = resources.files("gridbench").joinpath(f"golden/{task_id}.json")
    if not resource.is_file():
        return None
    with resources.as_file(resource) as path:
        return load_task_file(path)


def golden_check(task_id: str, golden_path=None) -> bool | None:
    """Check a task against golden example data.

    The golden task set is read from ``golden_path`` when one is given,
    otherwise from the snapshot bundled with the package. For a task
    with a built-in fixture the fixture's output is compared cell for
    cell against it. A task without a fixture is judged like a program
    in ``evaluate``: its verifier runs over every golden example, and an
    example fails when the verifier raises or gives another grid.
    Returns None when there is no golden data to check against.
    """
    gen = lookup(task_id)
    golden = _bundled_golden(task_id) if golden_path is None else load_task_file(golden_path)
    if golden is None:
        return None
    if gen.validate is not None:
        return gen.validate() == golden
    passed, total = _judge(gen.verifier, golden)
    return passed == total
