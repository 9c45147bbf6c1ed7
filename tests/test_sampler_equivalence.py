"""The 543a7ed5 layout sampler against a draw-by-draw reference.

The sampler reads its attempts from peeked blocks of stream words. The
reference below is the plain rejection loop it replaces, one ``randint``
per draw. Both must give the same layout, or the same error, and leave
the stream in the same state, so that every word consumed is the same.
"""

import pytest

from gridbench import GenerationError, new_stream
from gridbench.framework import MAX_ATTEMPTS, overlaps
from gridbench.grid import PINK, YELLOW
from gridbench.tasks.borders_and_holes import TASK_ID, _SPACING, _sample_layout

SEED = 5


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
# hole-area rejections, boxes that cannot fit and block refills.
CASES = {
    (3, 15): range(25),
    (1, 30): range(25),
    (5, 20): range(10),
    (4, 12): range(1),
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
