"""The 543a7ed5 layout sampler, its spacing rule and the 1e0a9b12
generator against plain references.

The sampler reads its attempts from peeked blocks of stream words, with
each word's draw over span 6 for the box extents, and rejects an attempt
as soon as a pair of its boxes conflicts: boxes 0 and 1 first, then each
later box against those before it. The reference below is the plain
rejection loop it replaces, one ``randint`` per draw. Both must give the
same layout, or the same error, and leave the stream in the same state,
so that every word consumed is the same. The task words its spacing rule
as grown boxes (``_crowded``); the reference words it as gaps between
nearest edges. The 1e0a9b12 reference is the draw-by-draw loop over row
lists that its generator replaces.
"""

import pytest

from gridbench import Example, GenerationError, Grid, lookup, new_stream
from gridbench.framework import MAX_ATTEMPTS
from gridbench.grid import PINK, YELLOW
from gridbench.tasks.borders_and_holes import TASK_ID, _SPACING, _crowded, _sample_layout

SEED = 5


def overlaps(rows, cols, widths, heights, spacing):
    """True iff some pair of boxes comes closer than ``spacing`` on both axes.

    The distance between two boxes on one axis is the gap between their
    nearest edges, zero when the intervals intersect.
    """
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            row_gap = max(rows[i], rows[j]) - min(rows[i] + heights[i], rows[j] + heights[j])
            col_gap = max(cols[i], cols[j]) - min(cols[i] + widths[i], cols[j] + widths[j])
            if max(row_gap, 0) < spacing and max(col_gap, 0) < spacing:
                return True
    return False


def test_crowded_matches_gap_reference():
    rng = new_stream(31, "crowded", 0)
    for _ in range(2000):
        n = rng.randint(0, 5)
        boxes = [
            (rng.randint(0, 12), rng.randint(0, 12), rng.randint(1, 5), rng.randint(1, 5))
            for _ in range(n)
        ]
        rows, cols, heights, widths = ([box[k] for box in boxes] for k in range(4))
        expected = overlaps(rows, cols, widths, heights, _SPACING)
        assert _crowded(boxes) == expected, boxes
        assert _crowded(boxes[::-1]) == expected, boxes


@pytest.mark.parametrize(
    "boxes, crowded",
    [
        # Identical boxes conflict.
        ([(2, 3, 3, 4), (2, 3, 3, 4)], True),
        # The first golden layout: every pair is at least 2 apart on one axis.
        ([(2, 8, 5, 4), (4, 3, 2, 2), (10, 5, 4, 4)], False),
        # Columns 8-10 and 2-5 leave a gap of 2, which is clear; 1 is not.
        ([(1, 8, 3, 3), (3, 2, 4, 4)], False),
        ([(1, 7, 3, 3), (3, 2, 4, 4)], True),
        # The same on the row axis, the lower box listed first.
        ([(6, 1, 3, 3), (2, 2, 2, 2)], False),
        ([(5, 1, 3, 3), (2, 2, 2, 2)], True),
        # Gap 1 on one axis is clear when the other axis has gap 2.
        ([(1, 1, 2, 2), (4, 5, 2, 2)], False),
        ([(1, 1, 2, 2), (4, 4, 2, 2)], True),
        ([(1, 1, 2, 2)], False),
    ],
)
def test_crowded_at_the_exact_gap(boxes, crowded):
    rows, cols, heights, widths = ([box[k] for box in boxes] for k in range(4))
    assert overlaps(rows, cols, widths, heights, _SPACING) is crowded
    assert _crowded(boxes) is crowded


def reference_layout(boxes, size, rng):
    for _ in range(MAX_ATTEMPTS):
        try:
            widths = [rng.randint(2, 7) for _ in range(boxes)]
            heights = [rng.randint(2, 7) for _ in range(boxes)]
            rows = [rng.randint(1, size - height - 1) for height in heights]
            cols = [rng.randint(1, size - width - 1) for width in widths]
        except ValueError:
            continue
        if overlaps(rows, cols, widths, heights, _SPACING):
            continue
        hole_rows, hole_cols, hole_widths, hole_heights = [], [], [], []
        for row, col, width, height in zip(rows, cols, widths, heights):
            w, t = rng.randint(0, width - 2), rng.randint(0, height - 2)
            if not w or not t:
                continue
            hole_rows.append(row + rng.randint(1, height - t - 1))
            hole_cols.append(col + rng.randint(1, width - w - 1))
            hole_widths.append(w)
            hole_heights.append(t)
        if sum(w * t for w, t in zip(hole_widths, hole_heights)) < 2 * boxes:
            continue
        return (
            rows + hole_rows,
            cols + hole_cols,
            widths + hole_widths,
            heights + hole_heights,
            [PINK] * boxes + [YELLOW] * len(hole_rows),
        )
    raise GenerationError(
        f"task {TASK_ID}: no layout satisfied the constraints "
        f"after {MAX_ATTEMPTS} attempts (boxes={boxes}, size={size})"
    )


def _outcome(sample, boxes, size, index):
    rng = new_stream(SEED, TASK_ID, index)
    try:
        result = sample(boxes, size, rng)
    except GenerationError as err:
        result = str(err)
    return result, rng.state


# (boxes, size): example indexes. On the six smallest grids every search
# of indexes 0-24 fails after MAX_ATTEMPTS (most of these layouts cannot
# exist), and a failed search is slow in the reference, so those cases
# check one index or two. The rest cover accepted layouts, overlap and
# hole-area rejections, boxes that cannot fit and block refills. At size
# 9 the largest extent just fits, so only overlaps and hole area reject:
# (2, 9) has the one pair to test, and in (3, 9), whose search fails, a
# third box conflicts in some attempts after boxes 0 and 1 clear, as in
# most rejections of (6, 25). (2, 30) is one pair on a large grid.
CASES = {
    (3, 15): range(60),
    (1, 30): range(25),
    (2, 30): range(25),
    (5, 20): range(10),
    (6, 25): range(5),
    (4, 12): range(1),
    (2, 9): range(6),
    (3, 9): range(1),
    (2, 8): range(2),
    (1, 8): range(25),
    (3, 6): range(1),
    (2, 5): range(2),
    (2, 4): range(1),
    (1, 3): range(2),
    (8, 30): range(3),
    (12, 30): range(3),
}


@pytest.mark.parametrize("boxes, size", list(CASES))
def test_sampler_matches_draw_by_draw_reference(boxes, size):
    for index in CASES[boxes, size]:
        expected = _outcome(reference_layout, boxes, size, index)
        actual = _outcome(lambda b, s, rng: _sample_layout(b, s, None, rng), boxes, size, index)
        assert actual == expected, index


def reference_gravity(size, rng):
    """The 1e0a9b12 example of ``rng``, one ``randint`` or ``sample`` per draw,
    and the number of attempts it took."""
    size = rng.randint(4, 6) if size is None else size
    for attempt in range(1, MAX_ATTEMPTS + 1):
        grid_rows = [[0] * size for _ in range(size)]
        out_rows = [[0] * size for _ in range(size)]
        moved = False
        for c in range(size):
            count = rng.randint(1, min(3, size - 1))
            cells = sorted(rng.sample(range(size), count))
            colors = [rng.randint(1, 9) for _ in range(count)]
            for r, color in zip(cells, colors):
                grid_rows[r][c] = color
            for k, color in enumerate(colors):
                out_rows[size - count + k][c] = color
            if cells != list(range(size - count, size)):
                moved = True
        if moved:
            return Example(input=Grid(grid_rows), output=Grid(out_rows)), attempt
    raise GenerationError("1e0a9b12: every sampled layout was already settled")


@pytest.mark.parametrize("size", [None, *range(3, 11)])
def test_gravity_matches_draw_by_draw_reference(size):
    generate = lookup("1e0a9b12").generate
    attempts = []
    for index in range(60):
        rng, ref = new_stream(SEED, "1e0a9b12", index), new_stream(SEED, "1e0a9b12", index)
        expected, tries = reference_gravity(size, ref)
        assert (generate(size=size, rng=rng), rng.state) == (expected, ref.state), index
        attempts.append(tries)
    if size == 3:
        # Some index draws an attempt whose every column is already settled.
        assert max(attempts) > 1
