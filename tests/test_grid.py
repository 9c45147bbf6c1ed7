"""Grid, palette, and container behavior."""

import sys
import threading
from enum import IntEnum

import pytest

from gridbench import PALETTE, Example, Grid, TaskSet, lookup, render_text
from gridbench.grid import _SHAPE_ERROR, _cells, _check_cells, _grid
from gridbench.rng import new_stream


def test_palette_maps_the_ten_color_names():
    assert PALETTE == {
        "black": 0,
        "blue": 1,
        "red": 2,
        "green": 3,
        "yellow": 4,
        "grey": 5,
        "pink": 6,
        "orange": 7,
        "cyan": 8,
        "maroon": 9,
    }


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, 1], [2]],  # ragged
        [[10]],  # cell above palette
        [[-1]],  # cell below palette
        [[True]],  # bools are not color codes
        [[0] * 31],  # too wide
        [["3"]],  # strings are not color codes
        [[1.0]],  # floats are not color codes, though 1.0 == 1
        [[None]],
        [[0, 1], (2,)],  # ragged tuple row
        [[0, 1], "01"],  # a string is not a row
        "30",  # not a list of rows
    ],
)
def test_grid_rejects_malformed_rows(rows):
    with pytest.raises(ValueError):
        Grid(rows)


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 0, 0], [0, 0, True], [0, 0, 10]], "cell (1, 2) holds True, not a color code in [0, 9]"),
        ([[0, 0, 0], [0, 0, 1.0]], "cell (1, 2) holds 1.0, not a color code in [0, 9]"),
        ([[0, 1], [2], [3, 4, 5]], "row 1 is not a list of 2 cells"),
        ([[0, 1], "01"], "row 1 is not a list of 2 cells"),
        ([1, 2], "grid rows must be lists of color codes"),
        # Row-major order: a bad cell before a bad row is reported first.
        ([[0, 1], [1, -1], [2]], "cell (1, 1) holds -1, not a color code in [0, 9]"),
    ],
)
def test_grid_error_names_first_bad_row_or_cell(rows, message):
    with pytest.raises(ValueError) as info:
        Grid(rows)
    assert str(info.value) == message


def test_grid_accepts_tuple_rows_and_int_subclasses():
    class Color(IntEnum):
        BLUE = 1
        CYAN = 8

    g = Grid(((Color.CYAN, 0), [1, Color.BLUE]))
    assert g == Grid([[8, 0], [1, 1]])
    assert all(type(row) is tuple for row in g)
    assert all(type(cell) is int for row in g for cell in row)


def test_grid_whole_grid_checks_agree_with_cell_loop():
    # Grid() must accept and reject exactly what the cell-by-cell
    # reference check does, with the same message.
    class Color(IntEnum):
        GREY = 5

    odd = [10, -1, True, False, 1.0, None, "3", Color.GREY, 2**70]
    rng = new_stream(5, "grid-checks", 0)
    for _ in range(3000):
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [odd[rng.randint(0, len(odd) - 1)] if rng.randint(0, 9) == 0 else rng.randint(0, 9)
             for _ in range(w)]
            for _ in range(h)
        ]
        if h > 1:
            r = rng.randint(1, h - 1)
            rows[r] = [rows[r], rows[r][1:], tuple(rows[r]), "0" * w][rng.randint(0, 3)]
        try:
            _check_cells(rows, w)
            expected = None
        except ValueError as err:
            expected = str(err)
        try:
            Grid(rows)
            actual = None
        except ValueError as err:
            actual = str(err)
        assert actual == expected, rows


def test_grid_copies_input_rows():
    rows = [[1, 2], [3, 4]]
    g = Grid(rows)
    rows[0][0] = 9
    assert g[0][0] == 1


def test_to_lists_is_detached_and_copy_is_the_grid():
    g = Grid([[1, 2], [3, 4]])
    rows = g.to_lists()
    assert rows == [[1, 2], [3, 4]] and all(type(row) is list for row in rows)
    rows[0][0] = 7
    assert g[0][0] == 1 and g.to_lists() == [[1, 2], [3, 4]]
    assert g.to_lists() is not g.to_lists()
    assert g.copy() == g and g.copy() is g


def _write_through_row(grid):
    grid[0][0] = 5


def _write_through_iteration(grid):
    for row in grid:
        row[0] = 5


def _write_through_task_set(grid):
    task_set = TaskSet(train=[Example(grid, grid)], test=[Example(grid, grid)])
    task_set.train[0].input[0][0] = 5


@pytest.mark.parametrize("write", [_write_through_row, _write_through_iteration, _write_through_task_set])
def test_a_write_through_a_row_raises(write):
    g = Grid([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        write(g)
    assert g == Grid([[1, 2], [3, 4]])


def test_render_text_single_cell():
    assert render_text(Grid([[5]])) == "5\n"


def test_render_text_rows():
    assert render_text(Grid([[0, 1], [2, 3]])) == "01\n23\n"


def test_render_text_round_trip():
    # 1000 random grids: each rendered line reads back as the grid's row.
    rng = new_stream(99, "round-trip", 0)
    for _ in range(1000):
        h, w = rng.randint(1, 30), rng.randint(1, 30)
        g = Grid([[rng.randint(0, 9) for _ in range(w)] for _ in range(h)])
        lines = render_text(g).splitlines()
        assert Grid([[int(ch) for ch in line] for line in lines]) == g


def test_task_set_requires_examples():
    g = Grid([[0]])
    example = Example(input=g, output=g)
    with pytest.raises(ValueError):
        TaskSet(train=[], test=[example])
    with pytest.raises(ValueError):
        TaskSet(train=[example], test=[])


def test_task_set_equality():
    g = Grid([[1]])
    h = Grid([[2]])
    a = TaskSet(train=[Example(g, h)], test=[Example(h, g)])
    b = TaskSet(train=[Example(Grid([[1]]), Grid([[2]]))], test=[Example(Grid([[2]]), Grid([[1]]))])
    assert a == b


CELLS = (2, 3, bytes([0, 1, 2, 7, 8, 9]))
ROWS = [[0, 1, 2], [7, 8, 9]]


@pytest.mark.parametrize("data", [CELLS[2], bytearray(CELLS[2])])
def test_grid_of_cells_keeps_them_as_bytes(data):
    painted = bytearray(data)
    g = _grid((2, 3, painted))
    assert _cells(g) == CELLS and type(_cells(g)[2]) is bytes
    painted[0] = 5  # the painter's bytearray is not the grid's
    assert g == _grid(CELLS) == Grid(ROWS)


def test_grid_of_cells_raises_as_its_rows_would():
    with pytest.raises(ValueError) as rows:
        Grid([[0, 1, 2], [10, 8, 9]])
    with pytest.raises(ValueError) as held:
        _grid((2, 3, bytes([0, 1, 2, 10, 8, 9])))
    assert str(held.value) == str(rows.value)
    assert str(held.value) == "cell (1, 0) holds 10, not a color code in [0, 9]"


@pytest.mark.parametrize(
    "cells",
    [
        (2, 3, bytes(5)),
        (2, 3, bytes(7)),
        (1, 6, bytes(5)),
        (0, 3, b""),
        (1, 31, bytes(31)),
        (31, 1, bytes(31)),
    ],
)
def test_grid_of_cells_of_the_wrong_shape_raises_the_shape_error(cells):
    with pytest.raises(ValueError) as info:
        _grid(cells)
    assert str(info.value) == _SHAPE_ERROR


def test_grid_of_cells_agrees_with_the_grid_of_its_rows():
    g, h = _grid(CELLS), Grid(ROWS)
    assert repr(g) == repr(h) == "Grid([[0, 1, 2], [7, 8, 9]])"
    assert (len(g), g.height, g.width) == (len(h), h.height, h.width) == (2, 2, 3)
    assert g.to_lists() == h.to_lists() == ROWS
    assert list(g) == list(h) == [(0, 1, 2), (7, 8, 9)] and g == h and h == g
    assert (g[0], g[-1]) == ((0, 1, 2), (7, 8, 9))
    assert (g[1:], g[::-1], g[5:]) == (((7, 8, 9),), ((7, 8, 9), (0, 1, 2)), ())
    with pytest.raises(IndexError):
        g[2]
    assert _cells(g) == _cells(h) == CELLS
    assert hash(g) == hash(h) and {g, h} == {g}
    assert g != Grid([[0, 1, 2], [7, 8, 0]]) and g != ROWS


@pytest.mark.parametrize("task_id", ["05269061", "1e0a9b12", "543a7ed5", "67a423a3"])
def test_a_set_of_grids_holds_each_value_once(task_id):
    # 05269061 and 67a423a3 repeat some of their smallest inputs.
    inputs = [
        lookup(task_id).generate(rng=new_stream(3, task_id, i)).input for i in range(300)
    ]
    distinct = []
    for grid in inputs:
        if not any(grid == other for other in distinct):
            distinct.append(grid)
    assert len(set(inputs)) == len(distinct)
    assert len({Grid(grid.to_lists()) for grid in inputs}) == len(distinct)


def test_threads_reading_a_fresh_grid_get_equal_rows():
    # Rows are built from the cells at each read, with no state to share.
    # More readers than cores, switching threads as often as the interpreter
    # allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            g = _grid((30, 30, bytes(range(10)) * 90))
            start = threading.Barrier(4)
            seen = []

            def read():
                start.wait(timeout=10)
                seen.append((g[0], list(g)))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 4 and all(rows == seen[0] for rows in seen)
            assert seen[0][0] == tuple(range(10)) * 3 and seen[0][1] == [seen[0][0]] * 30
    finally:
        sys.setswitchinterval(interval)
