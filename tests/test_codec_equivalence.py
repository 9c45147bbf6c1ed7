"""Task-file writing and reading against the ``json`` module references.

``save_task_file`` encodes grids itself, and ``load_task_file`` decodes
the canonical layout it writes through a strided byte frame per grid
shape, falling back to ``json.loads`` for any other text. The references
below are the code they replace: ``json.dumps`` with compact separators,
and ``json.loads`` followed by ``Grid(...)`` on every grid. Writing must
give the same bytes; reading must give the same task set or the same
``FormatError`` message, whatever the layout of the file.
"""

import json
import random
from enum import IntEnum

import pytest

from gridbench import Example, FormatError, Grid, TaskSet, load_task_file, save_task_file
from gridbench import harness

SIDES = range(1, 31)


def reference_text(task_set):
    payload = {
        split: [{"input": ex.input.to_lists(), "output": ex.output.to_lists()} for ex in examples]
        for split, examples in (("train", task_set.train), ("test", task_set.test))
    }
    return json.dumps(payload, separators=(",", ":"))


def reference_load(path):
    """The JSON path alone: decode, check the object shape, validate every grid."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: line {err.lineno}: {err.msg}") from None
    if not isinstance(payload, dict) or set(payload) != {"train", "test"}:
        raise FormatError(f"{path}: top level must be an object with exactly 'train' and 'test'")
    splits = []
    for split in ("train", "test"):
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
            examples.append(Example(*pair))
        splits.append(examples)
    return TaskSet(train=splits[0], test=splits[1])


def _outcome(load, path):
    try:
        return load(path)
    except Exception as err:  # compared by type and message
        return type(err), str(err)


def _grid(rnd, h, w, cells=range(10)):
    return Grid([[rnd.choice(cells) for _ in range(w)] for _ in range(h)])


class Color(IntEnum):
    BLACK = 0
    RED = 2
    MAROON = 9


def test_save_matches_json_dumps_for_every_shape(tmp_path):
    rnd = random.Random(5)
    path = tmp_path / "t.json"
    for h in SIDES:
        examples = [Example(_grid(rnd, h, w), _grid(rnd, w, h)) for w in SIDES]
        task_set = TaskSet(train=examples[:-1], test=examples[-1:])
        save_task_file(path, task_set)
        assert path.read_bytes() == reference_text(task_set).encode("ascii"), h


def test_save_matches_json_dumps_for_int_enum_cells(tmp_path):
    rnd = random.Random(6)
    path = tmp_path / "t.json"
    enum_grid = _grid(rnd, 7, 5, cells=list(Color))
    task_set = TaskSet(
        train=[Example(enum_grid, _grid(rnd, 3, 3))],
        test=[Example(_grid(rnd, 1, 30), enum_grid)],
    )
    save_task_file(path, task_set)
    assert path.read_bytes() == reference_text(task_set).encode("ascii")
    assert load_task_file(path) == task_set


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda rows: rows[0].__setitem__(1, 10), "cell (0, 1) holds 10, not a color code in [0, 9]"),
        (lambda rows: rows[1].__setitem__(0, -1), "cell (1, 0) holds -1, not a color code in [0, 9]"),
        (lambda rows: rows[1].__setitem__(1, 1.0), "cell (1, 1) holds 1.0, not a color code in [0, 9]"),
        (lambda rows: rows[0].__setitem__(0, None), "cell (0, 0) holds None, not a color code in [0, 9]"),
        # The byte values of the row break and of the separators, and one
        # that is not a byte, must not pass as cells either.
        (lambda rows: rows[1].__setitem__(0, 10), "cell (1, 0) holds 10, not a color code in [0, 9]"),
        (lambda rows: rows[0].__setitem__(1, 44), "cell (0, 1) holds 44, not a color code in [0, 9]"),
        (lambda rows: rows[1].__setitem__(1, 91), "cell (1, 1) holds 91, not a color code in [0, 9]"),
        (lambda rows: rows[0].__setitem__(0, 93), "cell (0, 0) holds 93, not a color code in [0, 9]"),
        (lambda rows: rows[1].__setitem__(1, 256), "cell (1, 1) holds 256, not a color code in [0, 9]"),
        (lambda rows: rows[1].append(3), "row 1 is not a list of 2 cells"),
        (lambda rows: rows[0].clear(), "grid dimensions 2x0 outside [1, 30]"),
    ],
)
def test_save_rejects_grids_mutated_outside_the_contract(tmp_path, mutate, message):
    path = tmp_path / "t.json"
    grid = Grid([[1, 2], [3, 4]])
    save_task_file(path, TaskSet(train=[Example(grid, grid)], test=[Example(grid, grid)]))
    before = path.read_bytes()
    bad = Grid([[1, 2], [3, 4]])
    mutate(list(bad))
    with pytest.raises(ValueError) as info:
        save_task_file(path, TaskSet(train=[Example(grid, grid)], test=[Example(grid, bad)]))
    assert str(info.value) == message
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


class Index:
    """An integer-like cell that is not an ``int``, as a NumPy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("cell", [True, Index(7)], ids=["bool", "index"])
def test_save_writes_mutated_in_integer_like_cells_as_their_digit(tmp_path, cell):
    # Cell types are not checked again on save; such a cell is written by
    # its integer value, so the file still loads.
    path = tmp_path / "t.json"
    grid = Grid([[1, 2], [3, 4]])
    bad = Grid([[1, 2], [3, 4]])
    list(bad)[1][0] = cell
    save_task_file(path, TaskSet(train=[Example(grid, grid)], test=[Example(grid, bad)]))
    value = cell.__index__()
    assert path.read_text(encoding="ascii").endswith(f'"output":[[1,2],[{value},4]]}}]}}')
    assert load_task_file(path).test[0].output == Grid([[1, 2], [value, 4]])


def test_canonical_file_is_read_without_json(tmp_path, monkeypatch):
    rnd = random.Random(7)
    path = tmp_path / "t.json"
    task_set = TaskSet(
        train=[Example(_grid(rnd, 30, 30), _grid(rnd, 1, 1)) for _ in range(3)],
        test=[Example(_grid(rnd, 4, 9), _grid(rnd, 9, 4))],
    )
    save_task_file(path, task_set)

    def no_json(text):
        raise AssertionError("canonical file decoded with json.loads")

    monkeypatch.setattr(harness.json, "loads", no_json)
    assert load_task_file(path) == task_set


CANONICAL = '{"train":[{"input":[[0,1],[2,3]],"output":[[1,0],[3,2]]}],"test":[{"input":[[4,5]],"output":[[5,4]]}]}'


def _with_cell(text):
    return '{"train":[{"input":[[0,%s]],"output":[[1]]}],"test":[{"input":[[4]],"output":[[5]]}]}' % text


def _with_input(text):
    return '{"train":[{"input":%s,"output":[[1]]}],"test":[{"input":[[4]],"output":[[5]]}]}' % text


NAMED = {
    "canonical": CANONICAL,
    "arc spacing": json.dumps(json.loads(CANONICAL)),
    "indented": json.dumps(json.loads(CANONICAL), indent=1),
    "trailing newline": CANONICAL + "\n",
    "utf-8 bom": "\ufeff" + CANONICAL,
    "test before train": '{"test":[{"input":[[4,5]],"output":[[5,4]]}],'
    '"train":[{"input":[[0,1],[2,3]],"output":[[1,0],[3,2]]}]}',
    "output before input": '{"train":[{"output":[[1,0],[3,2]],"input":[[0,1],[2,3]]}],'
    '"test":[{"input":[[4,5]],"output":[[5,4]]}]}',
    "cell -0": _with_cell("-0"),
    "cell 1.0": _with_cell("1.0"),
    "cell true": _with_cell("true"),
    "cell 10": _with_cell("10"),
    "cell 01": _with_cell("01"),
    "string grid": _with_input('"input"'),
    "nested list cell": _with_cell("[1]"),
    "empty grid": _with_input("[[]]"),
    "no rows": _with_input("[]"),
    "ragged rows": _with_input("[[1,2],[3]]"),
    # Same-length rows whose separators sit where a digit belongs.
    "comma in a digit slot": _with_input("[[0,1,2],[3,,,5]]"),
    "bracket in a digit slot": _with_input("[[0,1,2],[],1,2]]"),
    "digit in a pad slot": _with_input("[[0,1,2]5[3,4,5]]"),
    "31 rows": _with_input(json.dumps([[1]] * 31, separators=(",", ":"))),
    "31 columns": _with_input(json.dumps([[1] * 31], separators=(",", ":"))),
    "30 by 30": _with_input(json.dumps([[7] * 30] * 30, separators=(",", ":"))),
    "empty test": '{"train":[{"input":[[1]],"output":[[1]]}],"test":[]}',
    "extra key": CANONICAL[:-1] + ',"extra":1}',
    "truncated": CANONICAL[:-3],
    "not json": "{not json",
    # Layouts whose separators sit where the forward walk looks for them.
    "second test split": CANONICAL[:-1] + ',"test":[{"input":[[6]],"output":[[7]]}]}',
    "no split": '{"train":[{"input":[[0,1],[2,3]],"output":[[1,0],[3,2]]},'
    '{"input":[[4,5]],"output":[[5,4]]}]}',
    "next where pair belongs": '{"train":[{"input":[[0,1],[2,3]]},{"input":[[1,0],[3,2]]}],'
    '"test":[{"input":[[4,5]],"output":[[5,4]]}]}',
    "tail text in the middle": CANONICAL + CANONICAL,
    "input followed by ]]]": _with_input("[[1]]]"),
    "last output followed by ]]]": CANONICAL[: -len(harness._TAIL)] + "]" + harness._TAIL,
}


@pytest.mark.parametrize("name", list(NAMED))
def test_load_named_layouts_match_the_json_reference(tmp_path, name):
    path = tmp_path / "t.json"
    path.write_text(NAMED[name], encoding="utf-8")
    assert _outcome(load_task_file, path) == _outcome(reference_load, path)


def _random_text(rnd):
    def side():  # mostly small; one in four near the limit of 30
        return rnd.randint(1, 4) if rnd.random() < 0.75 else rnd.randint(28, 31)

    def rows():
        w = side()
        return [[rnd.randrange(10) for _ in range(w)] for _ in range(side())]

    payload = {
        split: [{"input": rows(), "output": rows()} for _ in range(rnd.randint(1, 2))]
        for split in ("train", "test")
    }
    return json.dumps(payload, separators=(",", ":"))


PIECES = ["0", "7", ",", "],[", "]", "[", "-", ".", " ", "\n", '"', "}", "e", "\u0663", "\u00b2"]


def _mutate(rnd, text):
    """Zero to three edits: digit swaps, which keep a text canonical, and
    inserted, deleted, replaced or repeated pieces, which mostly do not."""
    for _ in range(rnd.randint(0, 3)):
        i = rnd.randrange(len(text))
        op = rnd.randrange(5)
        if op == 0:
            text = text[:i] + rnd.choice("0123456789") + text[i + 1 :] if text[i].isdigit() else text
        elif op == 1:
            text = text[:i] + rnd.choice(PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + text[i + rnd.randint(1, 4) :]
        elif op == 3:
            text = text[:i] + rnd.choice(PIECES) + text[i + 1 :]
        else:
            j = rnd.randrange(len(text))
            text = text[:i] + text[min(i, j) : max(i, j)] + text[i:]
    return text


def _reference_decode(text, path):
    path.write_text(text, encoding="utf-8")
    return _outcome(reference_load, path)


def test_fuzzed_texts_decode_as_the_json_reference(tmp_path):
    rnd = random.Random(2024)
    path = tmp_path / "t.json"
    accepted = 0
    for _ in range(3000):
        text = _mutate(rnd, _random_text(rnd))
        task_set = harness._decode_canonical(text)
        if task_set is not None:
            accepted += 1
            # The examples built from the checked cells, one by one.
            built = TaskSet(train=tuple(task_set.train), test=tuple(task_set.test))
            assert built == _reference_decode(text, path), text
    # The mutations keep some texts canonical and break the rest.
    assert 300 < accepted < 2700
