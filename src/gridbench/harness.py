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
building a JSON object tree, by checking the file's bytes against the
frame and keeping the cells of its even slots. Every other file is
decoded as UTF-8, goes through ``json.loads`` and is validated element
by element into the same cells. The whole file is checked before any
example is built; ``evaluate`` holds a file's cells, judges a bundled
verifier on them and builds the grids of one example at a time for any
other program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import FormatError, GenerationError, shown
from .framework import _on_cells, generate_examples, lookup
from .grid import MAX_SIDE, Cells, Grid, LazyExamples, TaskSet, _cells

# bench/spans.py patches this name and nothing calls it; ROADMAP item 1 deletes it.
generate_task_set = None

# The canonical layout around the grids; a grid's text is its rows
# without the outermost brackets, e.g. b"1,2],[3,4" for [[1,2],[3,4]].
_HEAD = b'{"train":[{"input":[['
_PAIR = b']],"output":[['
_NEXT = b']]},{"input":[['
_SPLIT = b']]}],"test":[{"input":[['
_TAIL = b']]}]}'
# Cell value -> ASCII digit (only cells are ever translated).
_TO_DIGIT = bytes.maketrans(bytes(range(10)), b"0123456789")
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


def _text(cells: Cells) -> bytearray:
    """A grid's canonical JSON text, without the outer brackets, from its
    checked cells: their digits, the rows joined by the commas of the pad
    slots, written over the even slots of the shape's frame."""
    height, width, data = cells
    digits = data.translate(_TO_DIGIT)
    frame = bytearray(_frame(height, width))
    frame[::2] = b",".join([digits[i : i + width] for i in range(0, height * width, width)])
    return frame


def _task_text(
    pairs: Iterable[tuple[Cells, Cells]], train_count: int, start: int = 0
) -> Iterator[bytes]:
    """The bytes of a task file's examples from index ``start`` on, given as
    input and output cells, one chunk per example, without the tail; the
    file's first ``train_count`` examples are train, the rest test."""
    for index, (given, expected) in enumerate(pairs, start):
        separator = _HEAD if index == 0 else _SPLIT if index == train_count else _NEXT
        yield separator + _text(given) + _PAIR + _text(expected)


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` as they arrive to a temporary file beside ``path``,
    then move it into place.

    A reader sees the old file or the new one, never a partial write, even
    if ``chunks`` raises or the process is killed; the file is not synced
    to disk, so a power loss or an OS crash is not covered. The temporary
    name is unique, created exclusively and does not match ``*.json``; the
    file is removed if the write fails, and gets the mode ``open`` gives a
    new file under the umask in force."""
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(temp, "xb")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_task_file(path, task_set: TaskSet) -> None:
    """Write a task set as compact ARC JSON, atomically, from the checked cells it holds."""
    pairs = itertools.chain(task_set.train._pairs, task_set.test._pairs)
    _write_atomic(Path(path), itertools.chain(_task_text(pairs, len(task_set.train)), (_TAIL,)))


def load_task_file(path) -> TaskSet:
    """Read and strictly validate an ARC JSON task file.

    The whole file is checked before this returns, so a malformed one
    raises ``FormatError`` before any example is used. The splits hold
    each grid as checked cells and build an ``Example`` each time one is
    read, whatever the file's layout.
    """
    path = Path(path)
    data = path.read_bytes()
    task_set = _decode_canonical(data)
    if task_set is not None:
        return task_set
    try:
        payload = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: line {err.lineno}: {err.msg}") from None
    except (RecursionError, ValueError) as err:
        # Bytes that are not UTF-8, nesting deeper than the recursion
        # limit, or an integer longer than the int conversion limit.
        raise FormatError(f"{path}: {err}") from None
    if not isinstance(payload, dict) or set(payload) != {"train", "test"}:
        raise FormatError(
            f"{path}: top level must be an object with exactly 'train' and 'test'"
        )
    return TaskSet(train=_read_pairs(path, payload, "train"), test=_read_pairs(path, payload, "test"))


def _decode_canonical(data: bytes) -> TaskSet | None:
    """The task set of a file in the canonical layout; None for any other bytes.

    One forward walk over the whole file, so bytes that break the
    layout anywhere return None before any example is built: a grid's
    text never holds "]]", so the next "]]" ends each grid, and the
    separator the layout puts there must follow it: ``_PAIR`` after an
    input; after an output ``_NEXT``, ``_SPLIT`` (once) or the tail. The
    layout proves the grids valid: every cell is one ASCII digit, rows
    have one length and both sides are at most 30. So each grid is kept
    as its checked cells, and the splits build an example from them,
    without a second check, each time one is read. The cells are
    ``bytes``, which the cyclic garbage collector never scans, and hold
    no reference to ``data``. Every byte is checked: the separators
    here, and each grid's frame and digits in ``_decode_grid``, so a
    file that is not ASCII returns None.
    """
    if not (data.startswith(_HEAD) and data.endswith(_TAIL)):
        return None
    end = len(data) - len(_TAIL)  # the tail's "]]" ends the last grid
    pairs = []
    train_count, pos = 0, len(_HEAD)
    while True:
        stop = data.find(b"]]", pos)
        if not data.startswith(_PAIR, stop):
            return None
        cells_in = _decode_grid(data[pos:stop])
        pos = stop + len(_PAIR)
        stop = data.find(b"]]", pos)
        cells_out = _decode_grid(data[pos:stop])
        if cells_in is None or cells_out is None:
            return None
        pairs.append((cells_in, cells_out))
        if stop == end:  # the test split holds at least the last pair
            if not train_count:
                return None
            return TaskSet(
                train=LazyExamples(pairs[:train_count]), test=LazyExamples(pairs[train_count:])
            )
        if data.startswith(_NEXT, stop):
            pos = stop + len(_NEXT)
        elif not train_count and data.startswith(_SPLIT, stop):
            train_count, pos = len(pairs), stop + len(_SPLIT)
        else:
            return None


def _decode_grid(data: bytes) -> Cells | None:
    """The checked cells of the grid whose canonical text is ``data``;
    None for any other bytes.

    The shape is read off the first row, the odd slots must match its
    frame, and the even slots must hold ASCII digits except for one
    comma at each pad slot.
    """
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
    return height, width, digits.translate(_FROM_DIGIT)


def _read_pairs(path: Path, payload: dict, split: str) -> LazyExamples:
    items = payload[split]
    if not isinstance(items, list) or not items:
        raise FormatError(f"{path}: '{split}' must be a non-empty list")
    pairs = []
    for i, item in enumerate(items):
        where = f"{path}: {split}[{i}]"
        if not isinstance(item, dict) or set(item) != {"input", "output"}:
            raise FormatError(f"{where}: expected exactly 'input' and 'output'")
        pair = []
        for key in ("input", "output"):
            try:
                pair.append(_cells(Grid(item[key])))
            except ValueError as err:
                raise FormatError(f"{where}.{key}: {err}") from None
        pairs.append(tuple(pair))
    return LazyExamples(pairs)


# Consecutive indexes per block. ``emit_dataset`` alone decides what a block
# holds: it makes the first block of each task, and its ``make`` tells
# ``parallel.Blocks`` what block k of the later ones is.
_BLOCK = 8


def emit_dataset(task_list, count: int, master_seed: int, out_dir, overrides=None) -> list[str]:
    """Write ``generate_examples(task_id, count, master_seed, overrides)`` of
    each distinct task to ``<task_id>.json``, then the manifest; the bytes
    depend on the arguments only. Without overrides an example outside its
    verifier's domain raises :class:`VerifierDomainError` before its file is
    moved into place; with overrides it is written unchecked, and the ids of
    such tasks are returned. The directory is made once the first example
    exists: a failure before that leaves none, and one later in the first file
    leaves it empty. Each file is written atomically, the manifest last.

    This function alone owns the block layout. Each task's indexes are made
    in blocks of ``_BLOCK``. This process makes every task's first block, so
    that a bad argument or an early failure stops the run here. The later
    blocks are numbered task by task, and each task's by index: block k is
    made by ``make(k)``, which returns its bytes and whether the task's
    stream has met an example outside its verifier's domain. They may be
    spread over helper processes (``parallel.Blocks``) and are written in
    index order as they arrive, so memory does not grow with the count. A
    failure is raised once the files of the tasks before its own are
    written, as in a run that makes every index in turn; a helper that ends
    without sending its block raises :class:`GenerationError`."""
    directory = Path(out_dir)
    heads, failure = [], None  # (task id, stream, chunks of the first block)
    started = time.perf_counter()
    for task_id in sorted(set(task_list)):
        try:
            stream = generate_examples(task_id, count, master_seed, overrides)
            chunks = _task_text(stream._pairs(0, _BLOCK), count)
            first = [next(chunks)]  # the first example, made before the directory
            directory.mkdir(parents=True, exist_ok=True)
            first.extend(chunks)
        except Exception as err:  # raised after the files of the tasks before it
            failure = err
            break
        heads.append((task_id, stream, first))
    from .parallel import Blocks, HelperLost  # here, so that importing the package does not load it

    per_task = count // _BLOCK  # the later blocks of each task

    def make(k: int) -> tuple[bytes, bool]:
        (_, stream, _), start = heads[k // per_task], (k % per_task + 1) * _BLOCK
        text = b"".join(_task_text(stream._pairs(start, start + _BLOCK), count, start))
        return text, stream.domain_error is not None

    blocks = Blocks(len(heads) * per_task, make, (time.perf_counter() - started) / (len(heads) or 1))
    entries, unchecked, marks = [], [], [False] * len(heads)

    def later(task: int) -> Iterator[bytes]:
        """The bytes of task ``task``'s later blocks as they arrive; a marked
        block marks the task."""
        for k, start in enumerate(range(_BLOCK, count + 1, _BLOCK), task * per_task):
            try:
                text, marked = blocks.get(k)
            except HelperLost as lost:
                raise GenerationError(
                    f"task {heads[task][0]}: the helper process making examples {start} "
                    f"to {min(start + _BLOCK - 1, count)} ended with status {lost.args[0]}"
                ) from None
            marks[task] |= marked
            yield text

    try:
        for task, (task_id, stream, first) in enumerate(heads):
            name = f"{task_id}.json"
            _write_atomic(directory / name, itertools.chain(first, later(task), (_TAIL,)))
            entries.append({"id": task_id, "train_count": count, "test_count": 1, "file": name})
            if stream.domain_error is not None or marks[task]:
                unchecked.append(task_id)
    finally:
        blocks.close()
    if failure is not None:
        raise failure
    manifest = json.dumps({"master_seed": master_seed, "tasks": entries}, separators=(",", ":"))
    directory.mkdir(parents=True, exist_ok=True)
    _write_atomic(directory / "manifest.json", [manifest.encode()])
    return unchecked


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
    ``NotADirectoryError``. A task's verifier as registered is judged by
    its ``verify_cells`` on the file's cells, with the same result.
    """
    directory = _directory(Path(example_dir))
    scores: dict[str, tuple[int, int]] = {}
    skipped = []
    for path in sorted(directory.glob("*.json")):
        if path.name == "manifest.json":
            continue
        task_id = path.stem
        if task_id not in programs:
            skipped.append(task_id)
            continue
        scores[task_id] = _judge(_on_cells(task_id, programs[task_id]), load_task_file(path))
    return EvalReport.from_scores(scores, skipped)


def _directory(path):
    """``path`` if it is a directory; the error quotes a path over 255 characters by ``shown``."""
    if not path.is_dir():
        text = str(path)
        raise NotADirectoryError(f"{text if len(text) <= 255 else shown(text)} is not a directory")
    return path


def _judge(run: Callable[[Cells], Cells], task_set: TaskSet) -> tuple[int, int]:
    """``(passed, total)`` of ``run``, a program on cells (``_on_cells``), over every
    train and test example of a task set; an example fails when it raises (``SystemExit``
    too, but not ``KeyboardInterrupt``) or returns a result that is not a valid grid.

    Each result is compared with the expected output as cells, shape and
    bytes. A program lifted through a ``Grid`` gets the input as a ``Grid``,
    an immutable value: a write to it raises ``TypeError`` and fails the
    example, and ``to_lists()`` gives rows the program may edit and return.
    """
    passed = 0
    for given, expected in (*task_set.train._pairs, *task_set.test._pairs):
        try:
            result = run(given)
        except (Exception, SystemExit):
            continue
        passed += result == expected
    return passed, len(task_set.train) + len(task_set.test)


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


def golden_check(task_id: str, golden_dir=None) -> bool | None:
    """Check a task against its golden file ``<task_id>.json`` in ``golden_dir``,
    or in the ``golden`` directory bundled with the package when it is None.

    For a task with a built-in fixture the fixture's output is compared
    cell for cell against it. A task without a fixture is judged like a
    program in ``evaluate``: its verifier runs over every golden example,
    and an example fails when the verifier raises or gives another grid.
    Returns None when the file does not exist; a ``golden_dir`` that is
    not a directory raises ``NotADirectoryError``.
    """
    directory = resources.files("gridbench") / "golden" if golden_dir is None else Path(golden_dir)
    _directory(directory)  # reported before an unknown task id
    gen = lookup(task_id)
    resource = directory.joinpath(f"{task_id}.json")
    if not resource.is_file():
        return None
    with resources.as_file(resource) as path:
        golden = load_task_file(path)
    if getattr(gen, "validate", None) is not None:
        return gen.validate() == golden
    passed, total = _judge(_on_cells(task_id, gen.verifier), golden)
    return passed == total
