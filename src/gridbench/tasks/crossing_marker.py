"""A row/column crossing gets an eight-cell yellow halo (task 67a423a3).

One full horizontal line and one full vertical line of different colors
cross at an interior cell; the eight neighbors of the crossing turn
yellow while the crossing itself keeps its color.
"""

from __future__ import annotations

from ..errors import VerifierDomainError
from ..framework import check_int
from ..grid import YELLOW, Example, Grid

TASK_ID = "67a423a3"

# Line colors: anything except black (background) and yellow (the halo).
_LINE_COLORS = (1, 2, 3, 5, 6, 7, 8, 9)


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

    grid_rows = [[0] * size for _ in range(size)]
    for c in range(size):
        grid_rows[row][c] = row_color
    for r in range(size):
        grid_rows[r][col] = col_color
    out_rows = [list(r) for r in grid_rows]
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                out_rows[row + dr][col + dc] = YELLOW
    return Example(input=Grid._of(grid_rows), output=Grid._of(out_rows))


def verify(grid: Grid) -> Grid:
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
