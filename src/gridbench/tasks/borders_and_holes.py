"""Pink rectangles gain a green border and yellow holes (task 543a7ed5).

Inputs are square cyan grids holding a few non-overlapping pink
rectangles, some hollowed out. The transformation surrounds each
rectangle with a one-pixel green ring and shades every hollow cell
yellow.

Layout parameters are positional: the first ``boxes`` entries of
rows/cols/widths/heights/colors describe the rectangles, any further
entries describe holes carved out of them. On the task's own
distribution the rectangles are always pink and the holes yellow, so
this positional split coincides with the color split.
"""

from __future__ import annotations

import re

from ..errors import GenerationError, VerifierDomainError, check_int, check_ints
from ..framework import MAX_ATTEMPTS
from ..grid import CYAN, GREEN, MAX_SIDE, PINK, YELLOW, Example, Grid, TaskSet

TASK_ID = "543a7ed5"

# Minimum clearance between rectangles; keeps each green ring clear of
# the next rectangle's pink cells (see _crowded).
_SPACING = 2

# Largest block of stream words the layout sampler peeks at once (unless
# one attempt needs more). Blocks start at one attempt's worth and
# double, so searches that end after a few attempts peek few words.
_BLOCK_CAP = 512

_CYAN_PINK = frozenset((CYAN, PINK))

# A run of pink cells in a row's bytes (cells are checked codes 0-9).
_PINK_RUN = re.compile(bytes((PINK,)) + b"+")


def generate(
    rows=None,
    cols=None,
    widths=None,
    heights=None,
    colors=None,
    boxes=3,
    size=15,
    rng=None,
) -> Example:
    """One example; layout is randomized unless ``rows`` is supplied.

    When a layout is given, all four geometry lists must come together
    and describe ``boxes`` rectangles followed by their holes; ``colors``
    may be omitted (pink rectangles, yellow holes). When the layout is
    randomized, ``colors`` may still be supplied as exactly one color
    per rectangle.
    """
    check_int("boxes", boxes, 1, MAX_SIDE * MAX_SIDE)
    check_int("size", size, 1, MAX_SIDE)
    if colors is not None:
        colors = check_ints("colors", colors, 0, 9)
    for name, values, lo in (
        ("rows", rows, 0), ("cols", cols, 0), ("widths", widths, 1), ("heights", heights, 1)
    ):
        if values is not None:
            check_ints(name, values, lo, MAX_SIDE)
    if [rows, cols, widths, heights].count(None) not in (0, 4):
        raise ValueError("rows, cols, widths and heights must be supplied together")
    if rows is None:
        rows, cols, widths, heights, colors = _sample_layout(boxes, size, colors, rng)
    else:
        colors = _checked_layout(rows, cols, widths, heights, colors, boxes, size)

    grid = [[CYAN] * size for _ in range(size)]
    out = [[CYAN] * size for _ in range(size)]
    for i, (row, col, width, height, color) in enumerate(zip(rows, cols, widths, heights, colors)):
        if i < boxes:  # the green ring, whose middle the rectangle then covers
            for r in range(row - 1, row + height + 1):
                out[r][col - 1 : col + width + 1] = [GREEN] * (width + 2)
        for r in range(row, row + height):
            grid[r][col : col + width] = [color if i < boxes else CYAN] * width
            out[r][col : col + width] = [color] * width
    return Example(input=Grid._of(grid), output=Grid._of(out))


def _sample_layout(boxes, size, box_colors, rng):
    if rng is None:
        raise ValueError("layout randomization needs an rng stream")
    if box_colors is not None and len(box_colors) != boxes:
        raise ValueError(f"expected {boxes} box colors, got {len(box_colors)}")
    # Each attempt is the draw-by-draw rejection sampler: widths, heights,
    # rows, cols (randint raising when a box cannot fit ends the attempt),
    # reject on overlap, then per box two hole extents and, for a
    # non-empty hole, its row and col; reject on too little hole area.
    # The words come from peeked blocks, mapped by the same multiply-shift
    # as randint, and the stream is advanced by exactly the words those
    # draws would have consumed, so layouts and final state are unchanged.
    limit = size - 2  # largest extent that leaves a ring margin; extents reach 7
    need = 8 * boxes  # most words one attempt can consume
    cap = max(_BLOCK_CAP, need)
    block = need // 2  # the first refill peeks one attempt's worth
    words = []
    p = 0
    for _ in range(MAX_ATTEMPTS):
        if p + need > len(words):
            rng.skip(p)
            block = min(2 * block, cap)
            words = rng.peek(block)
            # Every word read as a box extent, randint(2, 7).
            extents = [2 + ((x * 6) >> 64) for x in words]
            p = 0
        # Widths, heights, rows and cols take one word per box each.
        h0 = p + boxes
        r0 = h0 + boxes
        c0 = r0 + boxes
        widths, heights = extents[p:h0], extents[h0:r0]
        if limit < 7:
            if max(heights) > limit:
                p = r0 + next(i for i, h in enumerate(heights) if h > limit)
                continue
            if max(widths) > limit:
                p = c0 + next(i for i, w in enumerate(widths) if w > limit)
                continue
        p = c0 + boxes
        placed = _place_boxes(words[r0:c0], words[c0:p], widths, heights, size)
        if placed is None:
            continue
        rows, cols = placed
        hole_rows, hole_cols, hole_widths, hole_heights = [], [], [], []
        area = 0
        for row, col, width, height in zip(rows, cols, widths, heights):
            w = (words[p] * (width - 1)) >> 64
            t = (words[p + 1] * (height - 1)) >> 64
            p += 2
            if not w or not t:
                continue
            hole_rows.append(row + 1 + ((words[p] * (height - t - 1)) >> 64))
            hole_cols.append(col + 1 + ((words[p + 1] * (width - w - 1)) >> 64))
            p += 2
            hole_widths.append(w)
            hole_heights.append(t)
            area += w * t
        if area < 2 * boxes:
            continue
        rng.skip(p)
        colors = box_colors if box_colors is not None else [PINK] * boxes
        return (
            rows + hole_rows,
            cols + hole_cols,
            widths + hole_widths,
            heights + hole_heights,
            colors + [YELLOW] * len(hole_rows),
        )
    rng.skip(p)
    raise GenerationError(
        f"task {TASK_ID}: no layout satisfied the constraints "
        f"after {MAX_ATTEMPTS} attempts (boxes={boxes}, size={size})"
    )


def _place_boxes(row_words, col_words, widths, heights, size):
    """Rows and cols drawn from the words, or None at the first conflict.

    Applies the rule of :func:`_crowded` box by box, so that a conflict
    rejects before the later boxes are placed.
    """
    rows, cols, placed = [], [], []
    for x, y, width, height in zip(row_words, col_words, widths, heights):
        row = 1 + ((x * (size - height - 1)) >> 64)
        col = 1 + ((y * (size - width - 1)) >> 64)
        bottom, right = row + height + _SPACING, col + width + _SPACING
        for r0, c0, r1, c1 in placed:
            if row < r1 and r0 < bottom and col < c1 and c0 < right:
                return None
        placed.append((row, col, bottom, right))
        rows.append(row)
        cols.append(col)
    return rows, cols


def _crowded(boxes) -> bool:
    """True iff two of the ``(row, col, height, width)`` boxes conflict:
    each grown by ``_SPACING`` cells down and right, the two intersect."""
    grown = [(r, c, r + h + _SPACING, c + w + _SPACING) for r, c, h, w in boxes]
    return any(
        r0 < r3 and r2 < r1 and c0 < c3 and c2 < c1
        for i, (r0, c0, r1, c1) in enumerate(grown)
        for r2, c2, r3, c3 in grown[i + 1 :]
    )


def _checked_layout(rows, cols, widths, heights, colors, boxes, size):
    n = len(rows)
    if not (len(cols) == len(widths) == len(heights) == n):
        raise ValueError("layout lists must have equal lengths")
    if n < boxes:
        raise ValueError(f"layout provides {n} entries for {boxes} boxes")
    if colors is None:
        colors = [PINK] * boxes + [YELLOW] * (n - boxes)
    elif len(colors) != n:
        raise ValueError(f"expected {n} colors, got {len(colors)}")
    # Rectangles keep a one-cell margin on every side for the ring.
    for i in range(boxes):
        if (
            rows[i] < 1
            or cols[i] < 1
            or rows[i] + heights[i] > size - 1
            or cols[i] + widths[i] > size - 1
        ):
            raise ValueError(f"box {i} leaves no ring margin on a {size}x{size} grid")
    if _crowded(zip(rows[:boxes], cols[:boxes], heights, widths)):
        raise ValueError(f"boxes come closer than spacing {_SPACING}")
    # Holes sit strictly inside a rectangle, one cell clear of its edge;
    # overlapping holes count their shared cells once.
    hole_cells = set()
    for i in range(boxes, n):
        inside = any(
            rows[j] + 1 <= rows[i]
            and rows[i] + heights[i] <= rows[j] + heights[j] - 1
            and cols[j] + 1 <= cols[i]
            and cols[i] + widths[i] <= cols[j] + widths[j] - 1
            for j in range(boxes)
        )
        if not inside:
            raise ValueError(f"hole {i} is not strictly inside any box")
        hole_cells.update(
            (r, c)
            for r in range(rows[i], rows[i] + heights[i])
            for c in range(cols[i], cols[i] + widths[i])
        )
    if len(hole_cells) < 2 * boxes:
        raise ValueError(f"total hole area {len(hole_cells)} below the minimum {2 * boxes}")
    return colors


def verifier(grid: Grid) -> Grid:
    """Reference transformation: ring each pink rectangle, shade its holes.

    Accepts cyan/pink grids whose pink cells form axis-aligned rectangles
    (possibly hollowed) that keep one cell clear of the grid edge and are
    not :func:`_crowded`; anything else raises VerifierDomainError.
    """
    rows = list(grid)
    h, w = len(rows), len(rows[0])
    for r, row in enumerate(rows):
        if not _CYAN_PINK.issuperset(row):
            c, value = next((c, v) for c, v in enumerate(row) if v not in _CYAN_PINK)
            raise VerifierDomainError(f"cell ({r}, {c}) holds {value}, expected cyan or pink")
    bounds = _pink_components(grid)
    if _crowded((r0, c0, r1 - r0 + 1, c1 - c0 + 1) for r0, c0, r1, c1 in bounds):
        raise VerifierDomainError(f"pink rectangles come closer than spacing {_SPACING}")
    out = grid.copy()
    out_rows = list(out)
    for r0, c0, r1, c1 in bounds:
        if r0 < 1 or c0 < 1 or r1 > h - 2 or c1 > w - 2:
            raise VerifierDomainError("pink rectangle touches the grid edge")
        span = c1 - c0 + 1
        if (
            rows[r0][c0 : c1 + 1].count(PINK) != span
            or rows[r1][c0 : c1 + 1].count(PINK) != span
            or any(rows[r][c0] != PINK or rows[r][c1] != PINK for r in range(r0, r1 + 1))
        ):
            raise VerifierDomainError("pink component is not rectangular")
        # The perimeter is all pink, so only interior cells can be holes.
        for r in range(r0 + 1, r1):
            row, out_row = rows[r], out_rows[r]
            for c in range(c0 + 1, c1):
                if row[c] == CYAN:
                    out_row[c] = YELLOW
        out_rows[r0 - 1][c0 - 1 : c1 + 2] = [GREEN] * (span + 2)
        out_rows[r1 + 1][c0 - 1 : c1 + 2] = [GREEN] * (span + 2)
        for r in range(r0, r1 + 1):
            out_rows[r][c0 - 1] = GREEN
            out_rows[r][c1 + 1] = GREEN
    return out


def _pink_components(grid: Grid) -> list[tuple[int, int, int, int]]:
    """Bounding boxes (r0, c0, r1, c1) of 4-connected pink components,
    in row-major order of each component's first cell."""
    # Label each row's pink runs; a run joins every component with a run
    # in the row above that shares a column. Labels are numbered in
    # row-major order of their first run, and a merge keeps the smaller,
    # so the surviving roots list components by their first cell.
    parent = []
    boxes = []
    above = []
    for r, row in enumerate(grid):
        if PINK not in row:
            above = []
            continue
        runs = []
        for match in _PINK_RUN.finditer(bytes(row)):
            start, stop = match.span()
            root = None
            for a, b, label in above:
                if a < stop and start < b:
                    while parent[label] != label:
                        label = parent[label]
                    if root is None:
                        root = label
                    elif label != root:
                        root, label = min(root, label), max(root, label)
                        parent[label] = root
                        box, other = boxes[root], boxes[label]
                        box[1] = min(box[1], other[1])
                        box[3] = max(box[3], other[3])
            if root is None:
                root = len(boxes)
                parent.append(root)
                boxes.append([r, start, r, stop - 1])
            else:
                box = boxes[root]
                box[1] = min(box[1], start)
                box[2] = r
                box[3] = max(box[3], stop - 1)
            runs.append((start, stop, root))
        above = runs
    return [tuple(box) for label, box in enumerate(boxes) if parent[label] == label]


def validate() -> TaskSet:
    """Golden fixture: parameters that reproduce the original task pairs."""
    train = [
        generate(
            rows=[2, 4, 10, 3],
            cols=[8, 3, 5, 9],
            widths=[4, 2, 4, 2],
            heights=[5, 2, 4, 3],
            colors=[6, 6, 6, 4],
        ),
        generate(
            rows=[1, 3, 8, 4, 9],
            cols=[8, 2, 8, 3, 9],
            widths=[3, 4, 6, 1, 4],
            heights=[3, 4, 6, 2, 4],
            colors=[6, 6, 6, 4, 4],
        ),
    ]
    test = [
        generate(
            rows=[2, 3, 11, 4, 4, 12],
            cols=[9, 2, 4, 10, 3, 6],
            widths=[3, 4, 7, 1, 2, 2],
            heights=[6, 4, 3, 3, 2, 1],
            colors=[6, 6, 6, 4, 4, 4],
        )
    ]
    return TaskSet(train=train, test=test)
