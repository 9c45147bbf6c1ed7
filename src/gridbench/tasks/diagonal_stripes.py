"""A corner band of anti-diagonal stripes extends across the grid (task 05269061).

The full pattern colors every anti-diagonal by its (row + col) mod 3
class, using three distinct colors. Inputs reveal only a band of
consecutive diagonals anchored in a corner; the output restores the
complete pattern.
"""

from __future__ import annotations

from ..framework import check_int, check_ints
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
        pool = list(range(1, 10))
        for i in range(3):
            j = rng.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        colors = pool[:3]
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
    # Output row r is the three-color period rotated by r; input row r
    # shows it only at the columns c with lo <= r + c < hi.
    periods = [(colors[k:] + colors[:k]) * (size // 3 + 1) for k in range(3)]
    out_rows = [periods[r % 3][:size] for r in range(size)]
    grid_rows = []
    for r, out_row in enumerate(out_rows):
        row = [0] * size
        start, stop = max(0, lo - r), max(0, min(size, hi - r))
        row[start:stop] = out_row[start:stop]
        grid_rows.append(row)
    return Example(input=Grid._of(grid_rows), output=Grid._of(out_rows))


def verify(grid: Grid) -> Grid:
    """Reference transformation: fill each (row + col) mod 3 class.

    Take the cells of each residue class ``(r + c) % 3`` in row-major
    order. A nonzero cell keeps its value; a zero cell takes the last
    nonzero value before it in its class, and zero cells before the
    class's first nonzero take the class's last nonzero value. A class
    with no nonzero cell stays 0. This is the fixed point of carrying
    the last seen color per class through row-major passes, so any grid
    is accepted: inconsistent seeds settle on the last color per class.
    """
    rows = grid.to_lists()
    # Row r holds class k at columns (k - r) % 3, +3, ...; start every
    # class's carry at its last nonzero value, found from the bottom up.
    carry = [0, 0, 0]
    missing = [0, 1, 2]
    for r in range(len(rows) - 1, -1, -1):
        row = rows[r]
        if not any(row):
            continue
        for k in missing[:]:
            seen = list(filter(None, row[(k - r) % 3 :: 3]))
            if seen:
                carry[k] = seen[-1]
                missing.remove(k)
        if not missing:
            break
    for r, row in enumerate(rows):
        if not any(row):
            period = [carry[r % 3], carry[(r + 1) % 3], carry[(r + 2) % 3]]
            row[:] = (period * (len(row) // 3 + 1))[: len(row)]
            continue
        for k in range(3):
            start = (k - r) % 3
            cells = row[start::3]
            last = carry[k]
            for i, value in enumerate(cells):
                if value:
                    last = value
                else:
                    cells[i] = last
            row[start::3] = cells
            carry[k] = last
    return Grid._of(rows)
