"""A corner band of anti-diagonal stripes extends across the grid (task 05269061).

The full pattern colors every anti-diagonal by its (row + col) mod 3
class, using three distinct colors. Inputs reveal only a band of
consecutive diagonals anchored in a corner; the output restores the
complete pattern.
"""

from __future__ import annotations

from ..errors import check_int, check_ints
from ..grid import Cells, Example, Grid, _example, _grid, _via_grid

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
    out = b"".join(_stripes(bytes(colors), size, size))
    grid = bytearray(size * size)
    for r in range(max(0, lo - size + 1), min(size, hi)):
        start, stop = r * size + max(0, lo - r), r * size + min(size, hi - r)
        grid[start:stop] = out[start:stop]
    return _example(((size, size, grid), (size, size, out)))


def _stripes(colors: bytes, h: int, w: int) -> list:
    """The rows of the full pattern, slices of ``colors`` repeated: cell
    (r, c) holds ``colors[(r + c) % 3]``."""
    period = colors * (w // 3 + 2)
    return [period[r % 3 : r % 3 + w] for r in range(h)]


def verify_cells(cells: Cells) -> Cells:
    """Reference transformation on a grid's checked cells: fill each
    (row + col) mod 3 class, giving the output's cells.

    Rows joined by (1 - w) % 3 zero bytes put cell (r, c) at a flat index
    equal to r + c modulo 3, so class k is every third byte from k. When no
    class holds two colors, as in every generated input, each class takes
    its color (0 if none) in bulk. Any other grid takes :func:`_reference`,
    the row-major walk that defines the result;
    ``tests/test_verifier_equivalence.py`` pins them together.
    """
    h, w, data = cells
    pad = bytes((1 - w) % 3)
    joined = pad.join([data[i : i + w] for i in range(0, h * w, w)]) if pad else data
    classes = [joined[k::3].translate(None, b"\0") for k in range(3)]  # their nonzero cells
    # A class whose cells are not all its first one holds two colors.
    if any(seen.lstrip(seen[:1]) for seen in classes):
        return _via_grid(_reference, cells)
    # Row r of the pattern is row r % 3, so the cells repeat every three rows.
    block = b"".join(_stripes(bytes(seen[0] if seen else 0 for seen in classes), 3, w))
    return h, w, (block * (h // 3 + 1))[: h * w]


def _reference(grid: Grid) -> Grid:
    """The transformation as a row-major walk, for any grid.

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
    return _grid((len(rows), len(rows[0]), b"".join(map(bytearray, rows))))
