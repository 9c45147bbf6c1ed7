"""The four bundled verifiers against cell-by-cell references.

Each task's ``verify_cells`` runs a bulk core on a grid's checked cells
and hands any input that the core does not confirm to ``_reference``, a
private walk over a grid built from those cells. The ``verifier`` of
05269061 and 543a7ed5 runs ``verify_cells`` on a grid's checked cells
(``_cells``), so rows mutated out of the grid contract raise the
``ValueError`` that the checked constructor gives them; 1e0a9b12 and
67a423a3 take their row walk, ``_reference``, for a grid. The expected
outcomes below never take a byte path. For 543a7ed5 they come from
``_reference`` with its components taken from the flood fill below and
its painting done cell by cell instead of by ``_paint``, which the bulk
core shares. For 05269061 they come from three row-major carry passes
over every cell. For a grid with a mutated-in ``bool`` or ``__index__``
cell they come from the same walk on the grid of the cells' values. For
1e0a9b12 and 67a423a3 they come from the row walks. On seeded random
grids of every shape from 1x1 to 30x30, on generated inputs, on a grid
for each condition that sends a grid to the reference walk and on grids
whose rows were mutated after construction, every path must give the
same output grid or the same exception, message included, and leave the
input grid unchanged.
"""

import operator
import random

import pytest

from gridbench import Example, Grid, TaskSet, VerifierDomainError, new_stream
from gridbench.grid import BLUE, CYAN, GREEN, PINK, RED, YELLOW, _grid
from gridbench.tasks import borders_and_holes, column_gravity, crossing_marker, diagonal_stripes

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


def reference_paint(cells, h, w, bounds):
    # The ``h`` rows of ``w`` cells, one byte each in the integer ``cells``, as _paint takes them.
    data = cells.to_bytes(h * w, "little")
    rows = [list(data[r * w : r * w + w]) for r in range(h)]
    out = [list(row) for row in rows]
    for r0, c0, r1, c1 in bounds:
        for r in range(r0 - 1, r1 + 2):
            for c in range(c0 - 1, c1 + 2):
                if not (r0 <= r <= r1 and c0 <= c <= c1):
                    out[r][c] = GREEN
                elif r0 < r < r1 and c0 < c < c1 and rows[r][c] == CYAN:
                    out[r][c] = YELLOW
    return bytes(cell for row in out for cell in row)


def _on_cells(module):
    """``module.verify_cells`` on a grid's cells, its result as a grid."""

    def verify(grid):
        return _grid(module.verify_cells((grid.height, grid.width, b"".join(map(bytes, grid)))))

    return verify


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


def _crossing(rnd, h, w):
    # One full row and one full column of two colors, a few with a gap,
    # so the walk finds one crossing, several or none.
    a, b = rnd.sample(range(1, 10), 2)
    rows = [[0] * w for _ in range(h)]
    rows[rnd.randrange(h)] = [a] * w
    col = rnd.randrange(w)
    for row in rows:
        row[col] = b
    if rnd.random() < 0.3:
        rows[rnd.randrange(h)][rnd.randrange(w)] = 0
    return Grid(rows)


def _dense(rnd, h, w):
    # Mostly nonzero, so many cells have four nonzero neighbors and the last one counts.
    return Grid([[rnd.choice((0, rnd.randint(1, 9), rnd.randint(1, 9))) for _ in range(w)] for _ in range(h)])


def _checked(grid):
    """Whether ``grid``'s rows still meet the grid contract, so that it has cells."""
    try:
        Grid(grid.to_lists())
    except ValueError:
        return False
    return True


def _expected(walk, grid):
    """What a ``Grid`` entry must give for ``grid``: ``walk``'s outcome on it;
    for a mutated-in ``bool`` or ``__index__`` cell, on the grid of the cells'
    values; for other rows out of the grid contract, the ``ValueError`` that
    the checked constructor gives them."""
    try:
        Grid(list(grid))
    except ValueError as err:
        error = ValueError, str(err)
    else:
        return _outcome(walk, grid)
    try:
        by_value = Grid([[operator.index(value) for value in row] for row in grid])
    except (TypeError, ValueError):
        return error
    return _outcome(walk, by_value)


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


class IndexOnly:
    """An integer-like cell with only ``__index__``: it neither compares
    nor hashes as its value."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _mutated(rows):
    """Grids of ``rows`` whose live rows were changed after the checked constructor.

    The ``Grid`` entries join rows into cells, which takes a ``bool`` or
    ``__index__`` cell by its value, even one that does not compare equal
    to its value, and rejects the rows of the ``REJECTED`` grids.
    """
    names = (
        "ragged row", "ragged rows of the right total", "short last row", "cell 256", "cell -1",
        "float cell", "None cell", "bool cell", "__index__ cell", "__index__-only cell",
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
    live["__index__-only cell"][0][0] = IndexOnly(rows[0][0])
    return grids


# A hollow 543a7ed5 box, the rows of its mutated grids.
BOX = _box(_cyan(10, 10), 2, 2, 6, 6)

# The mutated grids whose rows ``_cells`` rejects.
REJECTED = {
    "ragged row", "ragged rows of the right total", "short last row", "cell 256", "cell -1",
    "float cell", "None cell",
}


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
    return grids | _mutated(BOX)


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
    on_cells = [_outcome(_on_cells(borders_and_holes), g) if _checked(g) else None for g in cases]
    monkeypatch.setattr(borders_and_holes, "_pink_components", reference_pink_components)
    monkeypatch.setattr(borders_and_holes, "_paint", reference_paint)
    expected = [_expected(borders_and_holes._reference, g) for g in cases]
    for grid, got, got_cells, want in zip(cases, actual, on_cells, expected):
        assert got == want, grid
        assert got_cells in (None, want), grid
    assert any(isinstance(outcome, Grid) for outcome in expected)
    assert any(isinstance(outcome, tuple) for outcome in expected)


def test_every_box_extent_matches_the_reference(monkeypatch):
    # Sampled boxes reach extent 7 only. A solid and a hollow box of every
    # width and height that fits a 30x30 grid checks the cached masks of
    # larger layouts; the offsets take turns: the top-left corner, the
    # bottom-right one and the middle.
    cases = []
    for height in range(1, 29):
        for width in range(1, 29):
            offsets = ((1, 1), (29 - height, 29 - width), ((30 - height) // 2, (30 - width) // 2))
            r0, c0 = offsets[(height + width) % 3]
            for hole in (False, True):
                rows = _box(_cyan(30, 30), r0, c0, r0 + height - 1, c0 + width - 1, hole)
                cases.append(Grid(rows))
    walk = borders_and_holes._reference

    def refuse(grid):
        raise AssertionError("the verifier took the reference walk")

    monkeypatch.setattr(borders_and_holes, "_reference", refuse)
    actual = [(_outcome(borders_and_holes.verifier, g), _outcome(_on_cells(borders_and_holes), g)) for g in cases]
    monkeypatch.setattr(borders_and_holes, "_reference", walk)
    monkeypatch.setattr(borders_and_holes, "_paint", reference_paint)
    for grid, got in zip(cases, actual):
        want = _outcome(borders_and_holes._reference, grid)
        assert isinstance(want, Grid) and got == (want, want), grid


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
    cases += _stripes_fallbacks().values()
    for grid in cases:
        want = _expected(reference_stripes, grid)
        assert _outcome(diagonal_stripes.verifier, grid) == want, grid
        if _checked(grid):
            assert _outcome(_on_cells(diagonal_stripes), grid) == want, grid


# The mutated grids that stay on the byte path: a cell that the join
# takes and that leaves the grid in the verifier's bulk case. A bool
# cell is no 543a7ed5 color, so it is a fallback there. Neither these
# nor the REJECTED grids reach the walk.
BYTE_PATH = {
    borders_and_holes: {"__index__ cell", "__index__-only cell"},
    diagonal_stripes: {"bool cell", "__index__ cell", "__index__-only cell"},
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
        assert len(calls) == (name not in BYTE_PATH[module] | REJECTED), name
        # The walk sees only grids that meet the grid contract.
        assert all(Grid(g.to_lists()) == g for g in calls), name
        # A grid with cells reaches the walk from its cells too.
        if _checked(grid):
            calls.clear()
            _outcome(_on_cells(module), grid)
            assert len(calls) == 1, name


@pytest.mark.parametrize("name", list(_mutated(BOX)))
def test_every_entry_checks_mutated_rows_by_one_rule(name):
    # TaskSet and both Grid entries take a grid's checked cells: all raise
    # the same ValueError, or none raises one.
    def task_set(g):
        return TaskSet(train=[Example(g, g)], test=[Example(g, g)])

    grid = _mutated(BOX)[name]
    errors, outcomes = set(), []
    for entry in (task_set, diagonal_stripes.verifier, borders_and_holes.verifier):
        try:
            outcomes.append(entry(grid))
        except ValueError as err:
            errors.add(str(err))
            outcomes.append(ValueError)
        except VerifierDomainError as err:
            outcomes.append(str(err))
    assert len(errors) == (name in REJECTED)
    assert outcomes.count(ValueError) in (0, 3)
    if name == "bool cell":
        assert outcomes[2] == "cell (0, 0) holds 0, expected cyan or pink"


@pytest.mark.parametrize(
    "module, fills",
    [(column_gravity, (_sparse, _mixed)), (crossing_marker, (_crossing, _dense, _sparse))],
    ids=["1e0a9b12", "67a423a3"],
)
def test_bulk_cores_match_the_row_walks(monkeypatch, module, fills):
    # Every shape from 1x1 to 30x30, so 1xN, Nx1 and the widths up to 2
    # where 67a423a3 has no interior, and generated inputs.
    seed = 13
    cases = _grids(random.Random(seed), fills)
    cases += [
        module.generate(rng=new_stream(seed, module.TASK_ID, i), **params).input
        for i in range(10)
        for params in ({}, {"size": 10})
    ]
    expected = [_outcome(module._reference, g) for g in cases]
    walked = []
    walk = module._reference
    monkeypatch.setattr(module, "_reference", lambda grid: walked.append(grid) or walk(grid))
    for grid, want in zip(cases, expected):
        walked.clear()
        assert _outcome(_on_cells(module), grid) == want, grid
        # The core confirms every input that the walk accepts.
        assert not walked or isinstance(want, tuple), grid
    assert any(isinstance(outcome, Grid) for outcome in expected)
    if module is crossing_marker:
        assert any(isinstance(outcome, tuple) for outcome in expected)


@pytest.mark.parametrize(
    "module, params",
    [
        (borders_and_holes, {}),
        (borders_and_holes, {"size": 30}),
        (borders_and_holes, {"size": 30, "boxes": 1}),
        (diagonal_stripes, {}),
        (diagonal_stripes, {"size": 30}),
        (column_gravity, {}),
        (column_gravity, {"size": 10}),
        (crossing_marker, {}),
        (crossing_marker, {"size": 30}),
    ],
    ids=[
        "543a7ed5", "543a7ed5-size30", "543a7ed5-size30-boxes1", "05269061", "05269061-size30",
        "1e0a9b12", "1e0a9b12-size10", "67a423a3", "67a423a3-size30",
    ],
)
def test_generated_inputs_are_verified_without_the_reference_walk(monkeypatch, module, params):
    # Defaults and each task's largest size, which between them cover
    # every benchmark workload's parameters. The Grid entries of 1e0a9b12
    # and 67a423a3 are their walks, so only their cells entries are checked.
    def refuse(grid):
        raise AssertionError("the verifier took the reference walk")

    monkeypatch.setattr(module, "_reference", refuse)
    for i in range(300):
        example = module.generate(rng=new_stream(5, module.TASK_ID, i), **params)
        assert module.verifier(example.input) == example.output, i
        assert _on_cells(module)(example.input) == example.output, i
