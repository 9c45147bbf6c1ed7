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
from functools import lru_cache

from ..errors import GenerationError, VerifierDomainError, check_int, check_ints
from ..framework import MAX_ATTEMPTS
from ..grid import CYAN, GREEN, MAX_SIDE, PINK, YELLOW, Cells, Example, Grid, TaskSet
from ..grid import _cells, _example, _grid, _via_grid

TASK_ID = "543a7ed5"

# Minimum clearance between rectangles; keeps each green ring clear of
# the next rectangle's pink cells (see _crowded).
_SPACING = 2

# Largest block of stream words the layout sampler peeks at once (unless
# one attempt needs more). Blocks start at one attempt's worth and
# double, so searches that end after a few attempts peek few words.
_BLOCK_CAP = 512

_CYAN_PINK = frozenset((CYAN, PINK))
_CYAN_PINK_BYTES = bytes((CYAN, PINK))

# A run of pink cells in the verifier's bytes.
_PINK_RUN = re.compile(bytes((PINK,)) + b"+")

_ONE = re.compile(b"\x01")


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

    grid = bytearray((CYAN,)) * (size * size)
    out = bytearray(grid)
    for i, (row, col, width, height, color) in enumerate(zip(rows, cols, widths, heights, colors)):
        if i < boxes:  # the green ring, whose middle the rectangle then covers
            for r in range(row - 1, row + height + 1):
                out[r * size + col - 1 : r * size + col + width + 1] = bytes((GREEN,)) * (width + 2)
        for at in range(row * size + col, (row + height) * size, size):
            grid[at : at + width] = bytes((color if i < boxes else CYAN,)) * width
            out[at : at + width] = bytes((color,)) * width
    return _example(((size, size, grid), (size, size, out)))


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
    # Box i's width, height, row and col are words p + i plus 0, 1, 2 and
    # 3 times boxes; its extents, randint(2, 7), are the block's draws over
    # span 6 plus 2. An overlap consumes all 4 * boxes words wherever it is
    # found, so boxes 0 and 1 are tested first, rows before cols.
    limit = size - 2  # largest extent that leaves a ring margin; extents reach 7
    need = 8 * boxes  # most words one attempt can consume
    cap = max(_BLOCK_CAP, need)
    block = need // 2  # the first refill peeks one attempt's worth
    words = draws = []
    p, end = 0, -1  # refill once an attempt could run past the block
    for _ in range(MAX_ATTEMPTS):
        if p > end:
            rng.skip(p)
            block = min(2 * block, cap)
            words, draws = rng.peek_draws(block, 6)
            p, end = 0, block - need
        h, r, c, q = p + boxes, p + 2 * boxes, p + 3 * boxes, p + 4 * boxes
        if limit < 7:
            # randint raises at the row of the first box too tall, or else
            # at the col of the first box too wide.
            late = [i + boxes for i in range(h, r) if draws[i] + 2 > limit]
            late = late or [i + 3 * boxes for i in range(p, h) if draws[i] + 2 > limit]
            if late:
                p = late[0]
                continue
        width, height = draws[p] + 2, draws[h] + 2
        row = 1 + ((words[r] * (size - height - 1)) >> 64)
        col = 1 + ((words[c] * (size - width - 1)) >> 64)
        if boxes == 1:
            rows, cols, widths, heights = [row], [col], [width], [height]
        else:
            width1, height1 = draws[p + 1] + 2, draws[h + 1] + 2
            row1 = 1 + ((words[r + 1] * (size - height1 - 1)) >> 64)
            col1 = 1 + ((words[c + 1] * (size - width1 - 1)) >> 64)
            if row < row1 + height1 + _SPACING and row1 < row + height + _SPACING:
                if col < col1 + width1 + _SPACING and col1 < col + width + _SPACING:
                    p = q
                    continue
            rows, cols, widths, heights = [row, row1], [col, col1], [width, width1], [height, height1]
        # The later boxes by index, each against those before it by the
        # grown-box rule of _crowded.
        for i in range(2, boxes):
            width, height = draws[p + i] + 2, draws[h + i] + 2
            row = 1 + ((words[r + i] * (size - height - 1)) >> 64)
            col = 1 + ((words[c + i] * (size - width - 1)) >> 64)
            bottom, right = row + height + _SPACING, col + width + _SPACING
            for j in range(i):
                if row < rows[j] + heights[j] + _SPACING and rows[j] < bottom:
                    if col < cols[j] + widths[j] + _SPACING and cols[j] < right:
                        break
            else:
                rows.append(row)
                cols.append(col)
                widths.append(width)
                heights.append(height)
                continue
            break
        p = q
        if len(rows) < boxes:
            continue
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


def _crowded(boxes) -> bool:
    """True iff two of the ``(row, col, height, width)`` boxes conflict:
    each grown by ``_SPACING`` cells down and right, the two intersect."""
    grown = []
    for r0, c0, h, w in boxes:
        r1, c1 = r0 + h + _SPACING, c0 + w + _SPACING
        for r2, c2, r3, c3 in grown:
            if r0 < r3 and r2 < r1 and c0 < c3 and c2 < c1:
                return True
        grown.append((r0, c0, r1, c1))
    return False


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


def verify_cells(cells: Cells) -> Cells:
    """Reference transformation on a grid's checked cells: ring each pink
    rectangle, shade its holes, giving the output's cells.

    Accepts cyan/pink grids whose pink cells form axis-aligned rectangles
    (possibly hollowed) that keep one cell clear of the grid edge and are
    not :func:`_crowded`; anything else raises VerifierDomainError.

    The bulk core ANDs whole-grid masks, one byte per cell: each pink corner
    (a pink cell with no pink above or left of it, as each component's first
    cell is) must start a box with a cyan ring and a pink perimeter
    (:func:`_masks`), and the boxes must not be crowded. Any other grid takes
    :func:`_reference`, the cell walk that alone raises;
    ``tests/test_verifier_equivalence.py`` pins the two together.
    """
    h, w, data = cells
    # Only cyan and pink, none on the grid's edge (the ring of an (h - 2) x
    # (w - 2) box): so no pink run wraps and every box's ring lies inside.
    if data.translate(None, _CYAN_PINK_BYTES):
        return _via_grid(_reference, cells)
    whole = int.from_bytes(data, "little")
    edge, band, middle = _masks(w, w - 2, h - 2)  # together, every cell
    pink = whole >> 1 & (edge | band | middle)  # bit 1 is set in pink (6), not cyan (8)
    if pink & edge:
        return _via_grid(_reference, cells)
    # A shift by 8 bits moves one cell.
    corners = (pink & ~(pink << 8 | pink << 8 * w)).to_bytes(h * w, "little")
    bounds, boxes = [], []
    for corner in _ONE.finditer(corners):
        i = corner.start()
        width = _PINK_RUN.match(data, i).end() - i
        height = _PINK_RUN.match(data[i::w]).end()
        ring, perimeter, _ = _masks(w, width, height)
        near = pink >> 8 * (i - w - 1)  # from the ring's first cell on
        if near & ring or near & perimeter != perimeter:
            return _via_grid(_reference, cells)
        r0, c0 = divmod(i, w)
        bounds.append((r0, c0, r0 + height - 1, c0 + width - 1))
        boxes.append((r0, c0, height, width))
    # Also catches a corner inside an earlier rectangle (an island).
    if _crowded(boxes):
        return _via_grid(_reference, cells)
    return h, w, _paint(whole, h, w, bounds)


def verifier(grid: Grid) -> Grid:
    """The transformation on a ``Grid``: :func:`verify_cells` on its checked cells."""
    return _grid(verify_cells(_cells(grid)))


@lru_cache(maxsize=256)
def _masks(w: int, width: int, height: int) -> tuple[int, int, int]:
    """The ring, perimeter and inside of a ``width`` x ``height`` box in rows of
    ``w`` cells, as masks of one byte per cell (1 in, 0 out) from the ring's first."""
    masks = [bytearray((height + 2) * w) for _ in range(3)]
    for r in range(height + 2):
        for c in range(width + 2):
            depth = min(r, c, height + 1 - r, width + 1 - c)  # 0 on the ring, 1 on the perimeter
            masks[min(depth, 2)][r * w + c] = 1
    return tuple(int.from_bytes(mask, "little") for mask in masks)


def _reference(grid: Grid) -> Grid:
    """The transformation cell by cell: the reference walk, which raises
    VerifierDomainError for every grid outside the domain."""
    rows = list(grid)
    h, w = len(rows), len(rows[0])
    for r, row in enumerate(rows):
        if not _CYAN_PINK.issuperset(row):
            c, value = next((c, v) for c, v in enumerate(row) if v not in _CYAN_PINK)
            raise VerifierDomainError(f"cell ({r}, {c}) holds {value}, expected cyan or pink")
    bounds = _pink_components(rows)
    if _crowded((r0, c0, r1 - r0 + 1, c1 - c0 + 1) for r0, c0, r1, c1 in bounds):
        raise VerifierDomainError(f"pink rectangles come closer than spacing {_SPACING}")
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
    data = b"".join(map(bytes, rows))
    return _grid((h, w, _paint(int.from_bytes(data, "little"), h, w, bounds)))


def _paint(cells: int, h: int, w: int, bounds) -> bytes:
    """The ``h`` x ``w`` cyan and pink ``cells``, one byte each, with each box of ``bounds``
    ringed green (over cyan) and the cyan cells inside its perimeter yellow."""
    ring = inside = 0
    for r0, c0, r1, c1 in bounds:
        box_ring, _, box_inside = _masks(w, c1 - c0 + 1, r1 - r0 + 1)
        at = 8 * ((r0 - 1) * w + c0 - 1)  # from the ring's first cell on
        ring |= box_ring << at
        inside |= box_inside << at
    # Bit 3 of a byte is set in cyan (8), not in pink (6), so ``cells >> 3``
    # marks the cyan cells. Cyan less 5 is green and less 4 yellow: no borrows.
    cells -= 5 * ring + 4 * (inside & cells >> 3)
    return cells.to_bytes(h * w, "little")


def _pink_components(rows) -> list[tuple[int, int, int, int]]:
    """Bounding boxes (r0, c0, r1, c1) of 4-connected pink components,
    in row-major order of each component's first cell."""
    cells = [(r, c) for r, row in enumerate(rows) for c, value in enumerate(row) if value == PINK]
    unseen = set(cells)
    bounds = []
    for cell in cells:
        if cell not in unseen:
            continue
        unseen.remove(cell)
        stack = [cell]
        (r0, c0), (r1, c1) = cell, cell
        while stack:
            r, c = stack.pop()
            r0, c0, r1, c1 = min(r0, r), min(c0, c), max(r1, r), max(c1, c)
            for near in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if near in unseen:
                    unseen.remove(near)
                    stack.append(near)
        bounds.append((r0, c0, r1, c1))
    return bounds


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
