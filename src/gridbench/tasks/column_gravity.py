"""Colored cells fall to the bottom of their column (task 1e0a9b12).

Sparse colored cells on a black background drop straight down and stack
against the bottom edge, keeping their top-to-bottom order per column.
"""

from __future__ import annotations

from ..errors import GenerationError
from ..framework import MAX_ATTEMPTS, check_int
from ..grid import Example, Grid

TASK_ID = "1e0a9b12"


def generate(size=None, rng=None) -> Example:
    """One square example; every column holds 1-3 colored cells."""
    size = rng.randint(4, 6) if size is None else check_int("size", size, 3, 10)
    for _ in range(MAX_ATTEMPTS):
        grid_rows = [[0] * size for _ in range(size)]
        out_rows = [[0] * size for _ in range(size)]
        moved = False
        for c in range(size):
            count = rng.randint(1, min(3, size - 1))
            cells = sorted(_distinct_rows(rng, size, count))
            colors = [rng.randint(1, 9) for _ in range(count)]
            for r, color in zip(cells, colors):
                grid_rows[r][c] = color
            for k, color in enumerate(colors):
                out_rows[size - count + k][c] = color
            if cells != list(range(size - count, size)):
                moved = True
        # At least one column must actually move, or the pair shows nothing.
        if moved:
            return Example(input=Grid._of(grid_rows), output=Grid._of(out_rows))
    raise GenerationError(f"task {TASK_ID}: every sampled layout was already settled")


def _distinct_rows(rng, n: int, k: int) -> list[int]:
    # Partial Fisher-Yates: k distinct values from range(n).
    pool = list(range(n))
    for i in range(k):
        j = rng.randint(i, n - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def verify(grid: Grid) -> Grid:
    """Reference transformation: per-column gravity, order preserved."""
    h = grid.height
    columns = []
    for column in zip(*grid):
        stack = list(filter(None, column))
        columns.append([0] * (h - len(stack)) + stack)
    return Grid._of(list(map(list, zip(*columns))))
