"""The 05269061 and 543a7ed5 verifiers against cell-by-cell references.

Both verifiers confirm the common case on the grid's bytes and hand every
other grid to ``_reference``, a private walk over the cells. The expected
outcomes below never take the byte path. For 543a7ed5 they come from
``_reference`` with its components taken from the flood fill below and
its painting done cell by cell instead of by ``_painted``, which the
byte path shares. For 05269061 they come from three row-major carry
passes over every cell, or from ``_reference`` itself where rows were
mutated to leave the grid contract. On seeded random
grids of every shape from 1x1 to 30x30, on generated inputs, on a
grid for each condition that sends a grid to the reference walk and on
grids whose rows were mutated after construction, both must give the
same output grid or the same exception, and leave the input grid
unchanged.
"""

import random

import pytest

from gridbench import Grid, new_stream
from gridbench.grid import BLUE, CYAN, GREEN, PINK, RED, YELLOW
from gridbench.tasks import borders_and_holes, diagonal_stripes

SIDES = range(1, 31)


def reference_stripes(grid):
    h, w = grid.height, grid.width
    rows = grid.to_lists()
    carry = [0, 0, 0]
    for _ in range(3):
        for r in range(h):
            for c in range(w):
                value = rows[r][c]
                if value:
                    carry[(r + c) % 3] = value
                rows[r][c] = carry[(r + c) % 3]
    return Grid(rows)


def reference_pink_components(grid):
    rows = list(grid)
    h, w = len(rows), len(rows[0])
    seen = [[False] * w for _ in range(h)]
    bounds = []
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            if value != PINK or seen[r][c]:
                continue
            seen[r][c] = True
            stack = [(r, c)]
            r0 = r1 = r
            c0 = c1 = c
            while stack:
                rr, cc = stack.pop()
                r0, r1 = min(r0, rr), max(r1, rr)
                c0, c1 = min(c0, cc), max(c1, cc)
                for nr, nc in ((rr - 1, cc), (rr + 1, cc), (rr, cc - 1), (rr, cc + 1)):
                    if 0 <= nr < h and 0 <= nc < w and rows[nr][nc] == PINK and not seen[nr][nc]:
                        seen[nr][nc] = True
                        stack.append((nr, nc))
            bounds.append((r0, c0, r1, c1))
    return bounds


def reference_paint(data, h, w, bounds):
    # Rows of ``data`` each followed by one separator byte, as _painted takes them.
    rows = [list(data[r * (w + 1) : r * (w + 1) + w]) for r in range(h)]
    out = [list(row) for row in rows]
    for r0, c0, r1, c1 in bounds:
        for r in range(r0 - 1, r1 + 2):
            for c in range(c0 - 1, c1 + 2):
                if not (r0 <= r <= r1 and c0 <= c <= c1):
                    out[r][c] = GREEN
                elif r0 < r < r1 and c0 < c < c1 and rows[r][c] == CYAN:
                    out[r][c] = YELLOW
    return Grid(out)


def _outcome(verify, grid):
    before = grid.to_lists()
    try:
        result = verify(grid)
    except Exception as err:  # the type and message are what is compared
        result = (type(err), str(err))
    assert grid.to_lists() == before, "verify changed its input"
    return result


def _pink_cyan(rnd, h, w):
    # Pink shares range from isolated cells to solid blobs; a few grids
    # get one alien cell, so the color check is compared too.
    share = rnd.random() ** 2
    rows = [[PINK if rnd.random() < share else CYAN for _ in range(w)] for _ in range(h)]
    if rnd.random() < 0.1:
        rows[rnd.randrange(h)][rnd.randrange(w)] = rnd.randint(0, 9)
    return Grid(rows)


def _rectangles(rnd, h, w):
    # Spaced hollow rectangles, so verify's success path runs as well.
    rows = [[CYAN] * w for _ in range(h)]
    for _ in range(rnd.randint(1, 4)):
        r0, c0 = rnd.randrange(h), rnd.randrange(w)
        r1, c1 = min(h - 1, r0 + rnd.randint(0, 6)), min(w - 1, c0 + rnd.randint(0, 6))
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                inner = r0 < r < r1 and c0 < c < c1
                rows[r][c] = CYAN if inner and rnd.random() < 0.5 else PINK
    return Grid(rows)


def _sparse(rnd, h, w):
    # Few nonzero cells, so most classes start with zeros, some stay empty.
    share = rnd.random() * 0.2
    return Grid([[rnd.randint(1, 9) if rnd.random() < share else 0 for _ in range(w)] for _ in range(h)])


def _mixed(rnd, h, w):
    return Grid([[rnd.choice((0, 0, 0, rnd.randint(1, 9))) for _ in range(w)] for _ in range(h)])


def _grids(rnd, fills):
    # One grid of every shape, the fills taking turns.
    return [fills[(h + w) % len(fills)](rnd, h, w) for h in SIDES for w in SIDES]


def _box(rows, r0, c0, r1, c1, hole=True):
    # A pink rectangle, hollow inside its perimeter when ``hole``.
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            inner = r0 < r < r1 and c0 < c < c1
            rows[r][c] = CYAN if inner and hole else PINK
    return rows


def _cyan(h, w):
    return [[CYAN] * w for _ in range(h)]


class Index:
    """An integer-like cell that is not an ``int``, as a NumPy integer is:
    it converts, compares and hashes as its value."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        return other == self.value

    def __hash__(self):
        return hash(self.value)


def _mutated(rows):
    """Grids of ``rows`` whose live rows were changed after the checked constructor.

    The verifiers join rows into bytes, which takes a ``bool`` or
    ``__index__`` cell by its value and rejects every other cell that is
    not a byte; ``BYTE_PATH`` names the grids that the join takes.
    """
    names = (
        "ragged row", "ragged rows of the right total", "short last row", "cell 256", "cell -1",
        "float cell", "None cell", "bool cell", "__index__ cell",
    )
    grids = {name: Grid(rows) for name in names}
    live = {name: list(grid) for name, grid in grids.items()}
    live["ragged row"][1].append(rows[1][0])
    live["ragged rows of the right total"][1].append(rows[1][0])
    live["ragged rows of the right total"][2].pop()
    live["short last row"][-1].pop()
    live["cell 256"][0][0] = 256
    live["cell -1"][0][0] = -1
    live["float cell"][0][0] = float(rows[0][0])  # equal to a color, not an int
    live["None cell"][0][0] = None
    live["bool cell"][0][0] = False
    live["__index__ cell"][0][0] = Index(rows[0][0])
    return grids


def _borders_fallbacks():
    """One grid per condition that the byte check hands to the reference walk,
    and the mutated grids of ``_mutated``."""
    peninsula = _box(_cyan(12, 12), 2, 2, 8, 8)
    peninsula[6][3] = peninsula[6][4] = peninsula[5][4] = PINK  # its own corner at (5, 4)
    island = _box(_cyan(12, 12), 2, 2, 9, 9)
    island[5][5] = PINK
    ring = _box(_cyan(12, 12), 2, 2, 6, 6)
    ring[1][4] = PINK
    corner_ring = _box(_cyan(12, 12), 2, 2, 6, 6)
    corner_ring[7][7] = PINK  # diagonal to the box, so a component of its own
    another_color = _box(_cyan(10, 10), 2, 2, 6, 6)
    another_color[8][8] = BLUE
    # Solid boxes, so that no cell next to the gap becomes a corner.
    gaps = {}
    for side, (r, c) in (("top", (2, 4)), ("bottom", (6, 4)), ("left", (4, 2)), ("right", (4, 6))):
        gaps[side] = _box(_cyan(10, 10), 2, 2, 6, 6, hole=False)
        gaps[side][r][c] = CYAN
    grids = {
        **{f"a gap in the {side} side": rows for side, rows in gaps.items()},
        "pink ring cell": ring,
        "pink ring corner": corner_ring,
        "box on the top edge": _box(_cyan(10, 10), 0, 3, 4, 7),
        "box on the bottom edge": _box(_cyan(10, 10), 5, 3, 9, 7),
        "box on the left edge": _box(_cyan(10, 10), 3, 0, 7, 4),
        "box on the right edge": _box(_cyan(10, 10), 3, 5, 7, 9),
        "pink island in a hole": island,
        "peninsula with an interior corner": peninsula,
        "two boxes at gap 1": _box(_box(_cyan(12, 12), 2, 2, 5, 5), 2, 7, 5, 9),
        "another color": another_color,
    }
    grids = {name: Grid(rows) for name, rows in grids.items()}
    return grids | _mutated(_box(_cyan(10, 10), 2, 2, 6, 6))


def _stripes_fallbacks():
    """One grid per condition that the byte check hands to the reference walk,
    and the mutated grids of ``_mutated``."""
    two_colors = Grid([[0, 0, 0, 0], [0, 0, 0, 0], [RED, 0, 0, 0], [0, 0, BLUE, 0]])
    return {"two colors in a class and an empty class": two_colors} | _mutated([[RED, 0, 0, 0]] * 4)


def test_pink_components_and_borders_verify_match_references(monkeypatch):
    seed = 11
    rnd = random.Random(seed)
    cases = _grids(rnd, (_pink_cyan, _rectangles))
    cases += [
        borders_and_holes.generate(rng=new_stream(seed, "543a7ed5", i), **params).input
        for i in range(10)
        for params in ({}, {"size": 30, "boxes": 1}, {"size": 30, "boxes": 6})
    ]
    for grid in cases:
        assert borders_and_holes._pink_components(grid) == reference_pink_components(grid), grid
    cases += _borders_fallbacks().values()
    actual = [_outcome(borders_and_holes.verifier, g) for g in cases]
    monkeypatch.setattr(borders_and_holes, "_pink_components", reference_pink_components)
    monkeypatch.setattr(borders_and_holes, "_painted", reference_paint)
    expected = [_outcome(borders_and_holes._reference, g) for g in cases]
    for grid, got, want in zip(cases, actual, expected):
        assert got == want, grid
    assert any(isinstance(outcome, Grid) for outcome in expected)
    assert any(isinstance(outcome, tuple) for outcome in expected)


def test_stripes_verify_matches_three_pass_reference():
    seed = 12
    rnd = random.Random(seed)
    cases = _grids(rnd, (_sparse, _mixed))
    cases += [
        diagonal_stripes.generate(rng=new_stream(seed, "05269061", i), **params).input
        for i in range(10)
        for params in ({}, {"size": 30})
    ]
    # One class empty, the others one color each: the bulk case.
    cases.append(Grid([[RED, BLUE, 0, RED], [BLUE, 0, RED, 0]]))
    for grid in cases:
        assert _outcome(diagonal_stripes.verifier, grid) == _outcome(reference_stripes, grid), grid
    # The fallbacks against the walk itself: mutated rows leave the grid
    # contract that the three passes assume.
    for name, grid in _stripes_fallbacks().items():
        want = _outcome(diagonal_stripes._reference, grid)
        assert _outcome(diagonal_stripes.verifier, grid) == want, name
        if name.startswith("two colors"):
            assert want == _outcome(reference_stripes, grid)


# The mutated grids that stay on the byte path: a cell that the join
# takes and that leaves the grid in the verifier's bulk case. A bool
# cell is no 543a7ed5 color, so it is a fallback there.
BYTE_PATH = {
    borders_and_holes: {"__index__ cell"},
    diagonal_stripes: {"bool cell", "__index__ cell"},
}


@pytest.mark.parametrize(
    "module, fallbacks",
    [(borders_and_holes, _borders_fallbacks), (diagonal_stripes, _stripes_fallbacks)],
    ids=["543a7ed5", "05269061"],
)
def test_each_fallback_condition_reaches_the_reference_walk(monkeypatch, module, fallbacks):
    calls = []
    walk = module._reference
    monkeypatch.setattr(module, "_reference", lambda grid: calls.append(grid) or walk(grid))
    for name, grid in fallbacks().items():
        calls.clear()
        _outcome(module.verifier, grid)
        assert len(calls) == (name not in BYTE_PATH[module]), name


@pytest.mark.parametrize(
    "module, params",
    [
        (borders_and_holes, {}),
        (borders_and_holes, {"size": 30}),
        (borders_and_holes, {"size": 30, "boxes": 1}),
        (diagonal_stripes, {}),
        (diagonal_stripes, {"size": 30}),
    ],
    ids=["543a7ed5", "543a7ed5-size30", "543a7ed5-size30-boxes1", "05269061", "05269061-size30"],
)
def test_generated_inputs_are_verified_without_the_reference_walk(monkeypatch, module, params):
    # Defaults and each task's largest size, which between them cover
    # every benchmark workload's parameters for these two tasks.
    def refuse(grid):
        raise AssertionError("the verifier took the reference walk")

    monkeypatch.setattr(module, "_reference", refuse)
    for i in range(300):
        example = module.generate(rng=new_stream(5, module.TASK_ID, i), **params)
        assert module.verifier(example.input) == example.output, i
