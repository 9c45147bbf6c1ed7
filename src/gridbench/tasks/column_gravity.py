"""Colored cells fall to the bottom of their column (task 1e0a9b12).

Sparse colored cells on a black background drop straight down and stack
against the bottom edge, keeping their top-to-bottom order per column.
"""

from __future__ import annotations

from ..errors import GenerationError, check_int
from ..framework import MAX_ATTEMPTS
from ..grid import Cells, Example, Grid, _example

TASK_ID = "1e0a9b12"


def generate(size=None, rng=None) -> Example:
    """One square example; every column holds 1-3 colored cells: a count,
    ``rng.sample(range(size), count)`` and the colors, each attempt's words
    taken from one peeked block by randint's multiply-shift."""
    size = rng.randint(4, 6) if size is None else check_int("size", size, 3, 10)
    most = min(3, size - 1)
    for _ in range(MAX_ATTEMPTS):
        words, colors = rng.peek_draws(size * (1 + 2 * most), 9)
        grid, out = bytearray(size * size), bytearray(size * size)
        p, moved = 0, False
        for c in range(size):
            count = 1 + ((words[p] * most) >> 64)
            pool = list(range(size))
            for i in range(count):  # sample's partial Fisher-Yates shuffle
                j = i + ((words[p + 1 + i] * (size - i)) >> 64)
                pool[i], pool[j] = pool[j], pool[i]
            cells = sorted(pool[:count])
            stack = bytes(color + 1 for color in colors[p + 1 + count : p + 1 + 2 * count])
            p += 1 + 2 * count
            for r, color in zip(cells, stack):
                grid[r * size + c] = color
            out[c + (size - count) * size :: size] = stack
            moved = moved or cells[0] != size - count  # not the bottom rows already
        rng.skip(p)
        # At least one column must actually move, or the pair shows nothing.
        if moved:
            return _example(((size, size, grid), (size, size, out)))
    raise GenerationError(f"task {TASK_ID}: every sampled layout was already settled")


def _reference(grid: Grid) -> Grid:
    """Reference transformation: per-column gravity, order preserved."""
    h = grid.height
    columns = []
    for column in zip(*grid):
        stack = list(filter(None, column))
        columns.append([0] * (h - len(stack)) + stack)
    return Grid._of(list(map(list, zip(*columns))))


verifier = _reference  # the Grid entry: a byte path is no faster on rows


def verify_cells(cells: Cells) -> Cells:
    """:func:`verifier` on checked cells: each column's nonzero cells, bottom-aligned."""
    h, w, data = cells
    out = bytearray(h * w)
    for c in range(w):
        stack = data[c::w].translate(None, b"\0")
        out[c + (h - len(stack)) * w :: w] = stack
    return h, w, bytes(out)
