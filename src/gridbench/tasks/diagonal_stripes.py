"""A corner band of anti-diagonal stripes extends across the grid (task 05269061).

The full pattern colors every anti-diagonal by its (row + col) mod 3
class, using three distinct colors. Inputs reveal only a band of
consecutive diagonals anchored in a corner; the output restores the
complete pattern.
"""

from __future__ import annotations

from ..errors import check_int, check_ints
from ..grid import Example, Grid

TASK_ID = "05269061"


def generate(size=None, colors=None, bands=None, corner=None, rng=None) -> Example:
    """One square example.

    ``colors`` are the three stripe colors in residue-class order,
    ``bands`` the number of three-diagonal periods revealed (1-3), and
    ``corner`` the band anchor: 0 for top-left, 1 for bottom-right.
    """
    size = rng.randint(5, 9) if size is None else check_int("size", size, 3, 30)
    if colors is None:
        colors = rng.sample(range(1, 10), 3)
    else:
        colors = check_ints("colors", colors, 1, 9)
        if len(colors) != 3 or len(set(colors)) != 3:
            raise ValueError("colors must be three distinct codes in [1, 9]")
    bands = rng.randint(1, 3) if bands is None else check_int("bands", bands, 1, 3)
    corner = rng.randint(0, 1) if corner is None else check_int("corner", corner, 0, 1)

    diag_count = 2 * size - 1
    # Always hide at least one diagonal so the pair shows the rule.
    band = min(3 * bands, diag_count - 1)
    lo = 0 if corner == 0 else diag_count - band
    hi = lo + band
    # Input row r shows output row r only at the columns c with
    # lo <= r + c < hi; rows outside lo - size < r < hi meet no such column.
    out_rows = _stripes(colors, size, size)
    grid_rows = [[0] * size for _ in out_rows]
    for r in range(max(0, lo - size + 1), min(size, hi)):
        start, stop = max(0, lo - r), min(size, hi - r)
        grid_rows[r][start:stop] = out_rows[r][start:stop]
    return Example(input=Grid._of(grid_rows), output=Grid._of(out_rows))


def _stripes(colors, h: int, w: int) -> list[list[int]]:
    """Fresh rows of the full pattern: cell (r, c) holds ``colors[(r + c) % 3]``."""
    period = list(colors) * (w // 3 + 2)
    return [period[r % 3 : r % 3 + w] for r in range(h)]


def verifier(grid: Grid) -> Grid:
    """Reference transformation: fill each (row + col) mod 3 class.

    When no class holds two colors, as in every generated input, each
    class takes its color (0 if none) in bulk on the grid's bytes. Any
    other grid takes :func:`_reference`, the row-major walk that defines
    the result; ``tests/test_verifier_equivalence.py`` pins the two together.
    """
    rows = list(grid)
    h, w = len(rows), len(rows[0])
    # Rows joined by (1 - w) % 3 zero bytes put cell (r, c) at a flat
    # index equal to r + c modulo 3, so class k is data[k::3].
    try:
        ragged = set(map(len, rows)) != {w}
        # bytearray, not bytes: the same cells pass, and faster from a list.
        data = bytes((1 - w) % 3).join(map(bytearray, rows))
    except (TypeError, ValueError):  # a row without a length, a cell that is not a byte
        return _reference(grid)
    classes = [data[k::3].translate(None, b"\0") for k in range(3)]  # their nonzero cells
    # A class whose cells are not all its first one holds two colors.
    if ragged or any(seen.lstrip(seen[:1]) for seen in classes):
        return _reference(grid)
    return Grid._of(_stripes([seen[0] if seen else 0 for seen in classes], h, w))


def _reference(grid: Grid) -> Grid:
    """:func:`verifier` as a row-major walk, for any grid.

    Take the cells of each residue class ``(r + c) % 3`` in row-major
    order. A nonzero cell keeps its value; a zero cell takes the last
    nonzero value before it in its class, and zero cells before the
    class's first nonzero take the class's last nonzero value. A class
    with no nonzero cell stays 0. This is the fixed point of carrying
    the last seen color per class through row-major passes, so any grid
    is accepted: inconsistent seeds settle on the last color per class.
    """
    rows = grid.to_lists()
    carry = [0, 0, 0]
    # The second pass fills the zeros before each class's first color.
    for _ in range(2):
        for r, row in enumerate(rows):
            for c, value in enumerate(row):
                if value:
                    carry[(r + c) % 3] = value
                else:
                    row[c] = carry[(r + c) % 3]
    return Grid._of(rows)
