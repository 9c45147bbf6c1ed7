"""Grid, palette, and container behavior."""

import sys
import threading
from enum import IntEnum

import pytest

from gridbench import PALETTE, Example, Grid, TaskSet, render_text
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
    assert all(type(row) is list for row in g)


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


def test_grid_copy_is_detached():
    g = Grid([[1, 2], [3, 4]])
    h = g.copy()
    h[0][0] = 7
    assert g[0][0] == 1
    assert g != h


def test_grid_copy_shares_no_row_list():
    g = Grid([[1, 2, 3]] * 2 + [(4, 5, 6)])
    h = g.copy()
    assert h == g and type(h) is Grid
    assert not {id(row) for row in h} & {id(row) for row in g}
    assert all(type(row) is list for row in h)


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


def _rows_built(grid):
    """Whether the grid's rows exist, read without building them."""
    try:
        Grid._rows.__get__(grid, Grid)
    except AttributeError:
        return False
    return True


CELLS = (2, 3, bytes([0, 1, 2, 7, 8, 9]))
ROWS = [[0, 1, 2], [7, 8, 9]]


@pytest.mark.parametrize("data", [CELLS[2], bytearray(CELLS[2])])
def test_grid_of_cells_gives_its_cells_without_building_rows(data):
    cells = (2, 3, data)
    g = _grid(cells)
    assert _cells(g) is cells
    assert g == _grid((2, 3, bytes(data)))
    assert not _rows_built(g)


def test_grid_of_cells_shows_a_write_to_its_rows():
    g = _grid(CELLS)
    g[0][0] = 5
    assert _rows_built(g)
    assert _cells(g) == (2, 3, bytes([5, 1, 2, 7, 8, 9]))
    assert g != _grid(CELLS)
    assert _grid(CELLS) == Grid(ROWS)


def test_grid_of_cells_raises_as_its_rows_would():
    bad = [[0, 1, 2], [10, 8, 9]]
    with pytest.raises(ValueError) as joined:
        _cells(Grid._of(bad))
    with pytest.raises(ValueError) as held:
        _cells(_grid((2, 3, bytes([0, 1, 2, 10, 8, 9]))))
    assert str(held.value) == str(joined.value)
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
    # The text the row join raises for rows that are not a grid's shape.
    with pytest.raises(ValueError) as info:
        _cells(_grid(cells))
    assert str(info.value) == _SHAPE_ERROR


def test_grid_of_cells_agrees_with_the_grid_of_its_rows():
    g, h = _grid(CELLS), Grid(ROWS)
    assert repr(g) == repr(h) == "Grid([[0, 1, 2], [7, 8, 9]])"
    assert (len(g), g.height, g.width) == (len(h), h.height, h.width) == (2, 2, 3)
    assert g.to_lists() == h.to_lists() == ROWS
    assert list(g) == list(h) and g == h and h == g
    c = _grid(CELLS).copy()
    assert c == h and type(c) is Grid
    c[1][2] = 0
    assert _cells(c) == (2, 3, bytes([0, 1, 2, 7, 8, 0]))
    assert g == h and _cells(g) == CELLS
    copies = _grid(CELLS).to_lists()
    copies[0][0] = 9
    assert g == h


def test_threads_reading_a_fresh_grid_get_the_same_rows():
    # Rows built twice would let a write through one thread's rows go missing.
    # More readers than cores, switching threads as often as the interpreter
    # allows, let a second reader in while the first one builds the rows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            g = _grid((30, 30, bytes(range(10)) * 90))
            start = threading.Barrier(4)
            seen = []

            def read():
                start.wait(timeout=10)
                seen.append(g[0])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 4 and all(rows is seen[0] for rows in seen)
            assert seen[0] == list(range(10)) * 3
    finally:
        sys.setswitchinterval(interval)
