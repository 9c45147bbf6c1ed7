"""The 05269061 and 543a7ed5 verifiers against cell-by-cell references.

``diagonal_stripes.verifier`` fills each residue class in closed form on
row slices, and ``borders_and_holes._pink_components`` labels runs of
pink cells. The references below are the loops they replace: three
row-major carry passes over every cell, and a flood fill from every
unvisited pink cell. On seeded random grids of every shape from 1x1 to
30x30 both must give the same components, the same output grid or the
same exception, and leave the input grid unchanged.
"""

import random

from gridbench import Grid, new_stream
from gridbench.grid import CYAN, PINK
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


def test_pink_components_and_borders_verify_match_references(monkeypatch):
    seed = 11
    rnd = random.Random(seed)
    cases = _grids(rnd, (_pink_cyan, _rectangles))
    cases += [
        borders_and_holes.generate(rng=new_stream(seed, "543a7ed5", i), **params).input
        for i in range(10)
        for params in ({}, {"size": 30, "boxes": 1}, {"size": 30, "boxes": 6})
    ]
    actual = [
        (borders_and_holes._pink_components(g), _outcome(borders_and_holes.verifier, g))
        for g in cases
    ]
    monkeypatch.setattr(borders_and_holes, "_pink_components", reference_pink_components)
    expected = [
        (reference_pink_components(g), _outcome(borders_and_holes.verifier, g)) for g in cases
    ]
    for grid, got, want in zip(cases, actual, expected):
        assert got == want, grid
    outcomes = [outcome for _, outcome in expected]
    assert any(isinstance(outcome, Grid) for outcome in outcomes)
    assert any(isinstance(outcome, tuple) for outcome in outcomes)


def test_stripes_verify_matches_three_pass_reference():
    seed = 12
    rnd = random.Random(seed)
    cases = _grids(rnd, (_sparse, _mixed))
    cases += [
        diagonal_stripes.generate(rng=new_stream(seed, "05269061", i), **params).input
        for i in range(10)
        for params in ({}, {"size": 30})
    ]
    for grid in cases:
        assert _outcome(diagonal_stripes.verifier, grid) == _outcome(reference_stripes, grid), grid
