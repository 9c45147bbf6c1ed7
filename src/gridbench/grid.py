"""Grids, the ten-color palette, and example/task containers.

A grid is a rectangular array of color codes 0-9 with at most 30 cells
per side, the native shape of ARC-style task files. It is an immutable
value over its checked cells, checked once when it is made: its rows read
as tuples, and ``to_lists()`` gives mutable row lists to build another
grid from.
"""

from __future__ import annotations

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
    """Immutable rectangular grid of color codes, equal and hashed by value.

    A grid holds its checked cells (:data:`Cells`) and nothing else, and is
    checked once, when it is made: by this constructor, or by ``_grid`` for
    cells (the examples that generators paint, that a task set or a loaded
    file holds, and a ``verify_cells`` result). ``g[r]`` builds row ``r``
    and ``for row in g`` builds each row, as tuples of ints, so a write
    through a row raises ``TypeError``; ``to_lists()`` gives fresh, mutable
    row lists to build another grid from. ``copy()`` returns the grid.

    Validation contract: ``rows`` is a non-empty list or tuple of 1 to
    30 rows, each a list or tuple of the same length (1 to 30), and
    every cell is an ``int`` from 0 to 9. Subclasses of ``int`` (an
    ``IntEnum`` member, say) are accepted; ``bool`` is rejected, as are
    floats, strings and ``None``. A failure raises ``ValueError``
    naming the first bad row or cell in row-major order.
    """

    __slots__ = ("_data",)

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
        # bytearray, not bytes: the same cells, and faster from a list.
        self._data = height, width, b"".join(map(bytearray, rows))

    @property
    def height(self) -> int:
        return self._data[0]

    @property
    def width(self) -> int:
        return self._data[1]

    def __getitem__(self, r):
        height, width, data = self._data
        start = range(0, height * width, width)[r]  # a list's negative indexes, slices and IndexError
        if isinstance(start, range):
            return tuple(tuple(data[s : s + width]) for s in start)
        return tuple(data[start : start + width])

    def __len__(self) -> int:
        return self._data[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        _, width, data = self._data
        return zip(*[iter(data)] * width)  # one iterator read width cells at a time

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"Grid({self.to_lists()!r})"

    def copy(self) -> "Grid":
        return self

    def to_lists(self) -> list[list[int]]:
        """Fresh list-of-lists rows, for callers that want mutable lists of ints."""
        height, width, data = self._data
        return memoryview(data).cast("B", (height, width)).tolist()


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
    and compares, indexes and iterates as the tuple of its examples would.
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
    """The grid of ``cells``, their shape and color codes checked; it keeps
    the cells as ``bytes``, so a painted ``bytearray`` stays the painter's.
    Cells out of shape raise ``ValueError`` with ``_SHAPE_ERROR``, and a byte
    outside 0-9 one naming its cell, as the ``Grid`` of its rows would."""
    height, width, data = cells
    if not (0 < height <= MAX_SIDE and 0 < width <= MAX_SIDE and len(data) == height * width):
        raise ValueError(_SHAPE_ERROR)
    if data.translate(None, _COLOR_BYTES):
        _check_cells(memoryview(data).cast("B", (height, width)).tolist(), width)  # raises
    grid = object.__new__(Grid)
    grid._data = height, width, bytes(data)
    return grid


def _example(pair: tuple[Cells, Cells]) -> Example:
    """The example of checked input and output cells."""
    return Example(input=_grid(pair[0]), output=_grid(pair[1]))


def _cells(grid: Grid) -> Cells:
    """A grid's checked cells, read as they are: the grid checked them when it was made."""
    return grid._data


def _via_grid(verify, cells: Cells) -> Cells:
    """The cells of ``verify``'s result on the grid of ``cells``; a result
    that is not a ``Grid`` goes through the ``Grid`` constructor first."""
    out = verify(_grid(cells))
    return _cells(out if isinstance(out, Grid) else Grid(out))


class LazyExamples(Sequence):
    """Read-only examples held as the checked cells of their grids.

    Each ``Example`` is built when it is read, so only the examples in
    use hold grids, and reading one twice gives two equal examples.
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
