"""A row/column crossing gets an eight-cell yellow halo (task 67a423a3).

One full horizontal line and one full vertical line of different colors
cross at an interior cell; the eight neighbors of the crossing turn
yellow while the crossing itself keeps its color.
"""

from __future__ import annotations

from ..errors import VerifierDomainError, check_int
from ..grid import YELLOW, Cells, Example, Grid, _example, _via_grid

TASK_ID = "67a423a3"

# Line colors: anything except black (background) and yellow (the halo).
_LINE_COLORS = (1, 2, 3, 5, 6, 7, 8, 9)
_NONZERO = b"\0" + b"\1" * 255  # a cell's byte to 1 if it is not black


def generate(size=None, row=None, col=None, row_color=None, col_color=None, rng=None) -> Example:
    """One square example with a single interior crossing."""
    size = rng.randint(6, 12) if size is None else check_int("size", size, 3, 30)
    # The crossing sits strictly inside the grid.
    row = rng.randint(1, size - 2) if row is None else check_int("row", row, 1, size - 2)
    col = rng.randint(1, size - 2) if col is None else check_int("col", col, 1, size - 2)
    if row_color is None:
        row_color = _LINE_COLORS[rng.randint(0, len(_LINE_COLORS) - 1)]
    if col_color is None:
        remaining = [v for v in _LINE_COLORS if v != row_color]
        col_color = remaining[rng.randint(0, len(remaining) - 1)]
    for name, value in (("row_color", row_color), ("col_color", col_color)):
        if check_int(name, value, 0, 9) not in _LINE_COLORS:
            raise ValueError(f"{name} must be a color in {_LINE_COLORS}")
    if row_color == col_color:
        raise ValueError("row_color and col_color must differ")

    grid = bytearray(size * size)
    grid[row * size : row * size + size] = bytes((row_color,)) * size
    grid[col::size] = bytes((col_color,)) * size
    out = bytearray(grid)
    for r in (row - 1, row + 1):
        out[r * size + col - 1 : r * size + col + 2] = bytes((YELLOW,)) * 3
    out[row * size + col - 1] = out[row * size + col + 1] = YELLOW
    return _example(((size, size, grid), (size, size, out)))


def _reference(grid: Grid) -> Grid:
    """Reference transformation: halo the crossing.

    Scans interior cells in row-major order and keeps the last one whose
    four orthogonal neighbors are all nonzero, then paints its eight
    surrounding cells yellow.
    """
    rows = list(grid)
    h, w = len(rows), len(rows[0])
    # Scanning backwards, the first hit is the last one in row-major order.
    found = next(
        (
            (r, c)
            for r in range(h - 2, 0, -1)
            for c in range(w - 2, 0, -1)
            if rows[r][c - 1] and rows[r][c + 1] and rows[r - 1][c] and rows[r + 1][c]
        ),
        None,
    )
    if found is None:
        raise VerifierDomainError("no cell has four nonzero orthogonal neighbors")
    out = grid.copy()
    r, c = found
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                out[r + dr][c + dc] = YELLOW
    return out


verifier = _reference  # the Grid entry: a byte path is slower on rows of the default sizes


def verify_cells(cells: Cells) -> Cells:
    """:func:`verifier` on a grid's checked cells, giving the output's cells:
    a nonzero mask of one byte per cell ANDed with its shifts by a cell and a
    row each way and with the columns whose neighbors do not wrap has the
    crossing as its highest set byte, the last in row-major order."""
    h, w, data = cells
    m = int.from_bytes(data.translate(_NONZERO), "little")
    inner = int.from_bytes((b"\0" + b"\1" * (w - 2) + b"\0")[:w] * h, "little")
    hit = m << 8 & m >> 8 & m << 8 * w & m >> 8 * w & inner
    if not hit:
        return _via_grid(_reference, cells)
    i = (hit.bit_length() - 1) >> 3
    out = bytearray(data)
    out[i - w - 1 : i - w + 2] = out[i + w - 1 : i + w + 2] = bytes((YELLOW,)) * 3
    out[i - 1] = out[i + 1] = YELLOW
    return h, w, bytes(out)
