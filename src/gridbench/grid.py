"""Grids, the ten-color palette, and example/task containers.

A grid is a rectangular array of color codes 0-9 with at most 30 cells
per side, the native shape of ARC-style task files. Rows are exposed
directly, so code can write cells with ``g[r][c] = color`` while a grid
is being built; once a grid has been handed out inside an
:class:`Example` it is treated as a value and must not be mutated.
"""

from __future__ import annotations

from _thread import allocate_lock  # loaded with the interpreter, unlike threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

MAX_SIDE = 30

# Canonical palette: name -> color code, as used by ARC task files.
PALETTE = {
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

BLACK, BLUE, RED, GREEN, YELLOW, GREY, PINK, ORANGE, CYAN, MAROON = range(10)


_ROW_TYPES = frozenset((list, tuple))
_CELL_TYPES = frozenset((int,))
_COLORS = frozenset(range(10))
_COLOR_BYTES = bytes(range(10))
_SHAPE_ERROR = f"grid rows are not 1 to {MAX_SIDE} rows of 1 to {MAX_SIDE} cells"
_ROWS_LOCK = allocate_lock()  # builds a grid's rows from its cells once, whoever reads first


def _check_cells(rows, width: int) -> None:
    # Cell-by-cell reference check: raises on the first bad row or cell,
    # and passes the row and cell subclasses the whole-grid test leaves out.
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ValueError(f"row {r} is not a list of {width} cells")
        for c, value in enumerate(row):
            if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 9:
                raise ValueError(
                    f"cell ({r}, {c}) holds {value!r}, not a color code in [0, 9]"
                )


class Grid:
    """Rectangular grid of color codes with value equality.

    Construction copies and validates the given rows; indexing returns
    the live row list, so ``g[r][c]`` both reads and writes a cell, and
    ``for row in g`` iterates the live rows.

    Validation contract: ``rows`` is a non-empty list or tuple of 1 to
    30 rows, each a list or tuple of the same length (1 to 30), and
    every cell is an ``int`` from 0 to 9. Subclasses of ``int`` (an
    ``IntEnum`` member, say) are accepted; ``bool`` is rejected, as are
    floats, strings and ``None``. A failure raises ``ValueError``
    naming the first bad row or cell in row-major order.

    A grid is validated where its rows enter: this constructor,
    ``load_task_file`` (which calls it, except on a file whose canonical
    layout already proves every cell a digit and every grid
    rectangular), :class:`TaskSet`, which keeps each example's grids as
    their checked cells, the ``verifier`` of 05269061 and 543a7ed5, which
    runs on a grid's checked cells, and a judge program's result that is
    not a ``Grid`` (which ``evaluate`` passes to it). ``copy()``, the bundled
    verifiers and the grids of checked cells (``_grid``: the examples that
    generators paint or a task set holds) skip the checks; a grid of cells
    keeps its cells, and builds its rows in one C call when first read.
    A grid is written, judged and checked against its task's verifier as
    its cells (``_cells``), which read each cell by its integer value.
    """

    __slots__ = ("_rows", "_data")

    def __init__(self, rows) -> None:
        if not isinstance(rows, (list, tuple)) or not rows:
            raise ValueError("grid needs at least one row")
        height = len(rows)
        first = rows[0]
        if not isinstance(first, (list, tuple)):
            raise ValueError("grid rows must be lists of color codes")
        width = len(first)
        if not 1 <= height <= MAX_SIDE or not 1 <= width <= MAX_SIDE:
            raise ValueError(
                f"grid dimensions {height}x{width} outside [1, {MAX_SIDE}]"
            )
        # Whole-grid checks run in C and never build a flattened copy; the
        # type test precedes the value test because True == 1 and 1.0 == 1.
        if not (
            _ROW_TYPES.issuperset(map(type, rows))
            and set(map(len, rows)) == {width}
            and _CELL_TYPES.issuperset(map(type, chain.from_iterable(rows)))
            and _COLORS.issuperset(chain.from_iterable(rows))
        ):
            _check_cells(rows, width)
        self._rows = list(map(list, rows))
        self._data = None

    @classmethod
    def _of(cls, rows: list[list[int]]) -> "Grid":
        """Wrap freshly built row lists of checked cells, without checks.

        The grid takes ownership of ``rows``: the caller must not keep
        or share any of the lists.
        """
        grid = object.__new__(cls)
        grid._rows = rows
        grid._data = None
        return grid

    def __getattr__(self, name: str):  # runs only while a slot is unset
        if name != "_rows":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _ROWS_LOCK:  # a second reader finds the rows the first one built
            if self._data is not None:
                height, width, data = self._data
                self._rows = memoryview(data).cast("B", (height, width)).tolist()
                self._data = None  # the rows may change from here on
        return self._rows

    @property
    def height(self) -> int:
        return len(self._rows)

    @property
    def width(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, r: int) -> list[int]:
        return self._rows[r]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        if self._data is not None and other._data is not None:
            return self._data == other._data
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"Grid({self._rows!r})"

    def copy(self) -> "Grid":
        return Grid._of(list(map(list, self._rows)))

    def to_lists(self) -> list[list[int]]:
        """Plain list-of-lists copy, for callers that want mutable lists of ints."""
        return [list(row) for row in self._rows]


def render_text(g: Grid) -> str:
    """One line of concatenated digits per row, newline-terminated."""
    return "".join("".join(str(v) for v in row) + "\n" for row in g)


@dataclass(frozen=True)
class Example:
    """One input/output grid pair consistent with a task transformation."""

    input: Grid
    output: Grid


@dataclass(frozen=True)
class TaskSet:
    """Ordered train and test examples for one task.

    Each split holds checked cells (:class:`LazyExamples`), whatever built it,
    and compares, indexes and iterates as the tuple of its examples would;
    the grids of examples given here are checked as ``_cells`` checks them.
    """

    train: Sequence[Example]
    test: Sequence[Example]

    def __post_init__(self) -> None:
        for name in ("train", "test"):
            split = getattr(self, name)
            if not isinstance(split, LazyExamples):
                split = LazyExamples([(_cells(e.input), _cells(e.output)) for e in split])
                object.__setattr__(self, name, split)
        if not self.train or not self.test:
            raise ValueError("train and test must both be non-empty")


# A grid's checked cells: height, width and one byte per cell, row by row,
# each a color code.
Cells = tuple[int, int, bytes]


def _grid(cells: Cells) -> Grid:
    """The grid of checked cells, held until its rows are read; it owns a painted bytearray."""
    grid = object.__new__(Grid)
    grid._data = cells
    return grid


def _example(pair: tuple[Cells, Cells]) -> Example:
    """The example of checked input and output cells."""
    return Example(input=_grid(pair[0]), output=_grid(pair[1]))


def _cells(grid: Grid) -> Cells:
    """A grid's checked cells: those it was made from if its rows were never
    read, shape and bytes checked again, else its rows joined once, by value.

    Joined rows may have been mutated, such as those of a :class:`TaskSet`'s
    examples, of a grid given to the ``verifier`` of 05269061 or 543a7ed5 and
    of a judged program's result. Rows out of the grid contract (ragged or
    empty rows, a cell that is not an integer or lies outside 0-9) and held
    bytes outside 0-9 raise ``ValueError`` naming the first bad row or cell;
    a mutated-in ``bool`` or integer-like cell (a NumPy integer) is read as its value.
    """
    cells = grid._data
    if cells is not None:
        height, width, data = cells
        if not (0 < height <= MAX_SIDE and 0 < width <= MAX_SIDE and len(data) == height * width):
            raise ValueError(_SHAPE_ERROR)
        if not data.translate(None, _COLOR_BYTES):
            return cells
    rows = list(grid)
    try:
        width = len(rows[0])
        # bytearray, not bytes: the same cells pass, and faster from a list.
        data = b"".join(map(bytearray, rows))
        if not 0 < width <= MAX_SIDE or set(map(len, rows)) != {width}:
            raise ValueError(_SHAPE_ERROR)
        if data.translate(None, _COLOR_BYTES):
            raise ValueError("grid cell is not a color code")
    except (TypeError, ValueError):
        Grid(rows)  # names the first bad row or cell
        raise
    return len(rows), width, data


def _via_grid(verify, cells: Cells) -> Cells:
    """The cells of ``verify``'s result on the grid of ``cells``; a result
    that is not a ``Grid`` goes through the ``Grid`` constructor first."""
    out = verify(_grid(cells))
    return _cells(out if isinstance(out, Grid) else Grid(out))


class LazyExamples(Sequence):
    """Read-only examples held as the checked cells of their grids.

    Each ``Example`` is built when it is read, so only the examples in
    use hold row lists, and reading one twice gives two equal examples.
    It equals the tuple of its examples.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: list[tuple[Cells, Cells]]) -> None:
        self._pairs = pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LazyExamples(self._pairs[index])
        return _example(self._pairs[index])

    def __iter__(self) -> Iterator[Example]:
        return map(_example, self._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyExamples):
            return self._pairs == other._pairs
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))
