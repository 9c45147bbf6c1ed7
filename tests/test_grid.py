"""Grid, palette, and container behavior."""

from enum import IntEnum

import pytest

from gridbench import PALETTE, Example, Grid, TaskSet, render_text
from gridbench.grid import _check_cells
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
