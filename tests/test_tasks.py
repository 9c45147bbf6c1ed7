"""Per-task generators and verifiers against hand-computed expectations."""

import re

import pytest

from gridbench import Grid, VerifierDomainError
from gridbench.rng import new_stream
from gridbench.tasks import borders_and_holes, column_gravity, crossing_marker, diagonal_stripes


def _stream(task_id, index=0, seed=7):
    return new_stream(seed, task_id, index)


# ---- 543a7ed5: bordered rectangles with yellow holes ----


def test_borders_all_cyan_unchanged():
    g = Grid([[8] * 15 for _ in range(15)])
    assert borders_and_holes.verifier(g) == g


def test_borders_solid_box_ring():
    g = Grid([[8] * 5 for _ in range(5)])
    for r, c in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g[r][c] = 6
    # Ring on the perimeter of rows/cols 0..3, pink interior intact.
    expected = Grid(
        [
            [3, 3, 3, 3, 8],
            [3, 6, 6, 3, 8],
            [3, 6, 6, 3, 8],
            [3, 3, 3, 3, 8],
            [8, 8, 8, 8, 8],
        ]
    )
    assert borders_and_holes.verifier(g) == expected


def test_borders_hollow_frame_fills_yellow():
    rows = [[8] * 7 for _ in range(7)]
    for i in range(1, 6):
        rows[1][i] = rows[5][i] = rows[i][1] = rows[i][5] = 6
    expected = Grid(
        [
            [3, 3, 3, 3, 3, 3, 3],
            [3, 6, 6, 6, 6, 6, 3],
            [3, 6, 4, 4, 4, 6, 3],
            [3, 6, 4, 4, 4, 6, 3],
            [3, 6, 4, 4, 4, 6, 3],
            [3, 6, 6, 6, 6, 6, 3],
            [3, 3, 3, 3, 3, 3, 3],
        ]
    )
    assert borders_and_holes.verifier(Grid(rows)) == expected


def test_borders_verifier_rejects_edge_contact():
    g = Grid([[8] * 5 for _ in range(5)])
    g[0][2] = 6
    with pytest.raises(VerifierDomainError, match=r"^pink rectangle touches the grid edge$"):
        borders_and_holes.verifier(g)


def test_borders_verifier_rejects_non_rectangles():
    g = Grid([[8] * 6 for _ in range(6)])
    for r, c in ((1, 1), (2, 1), (2, 2)):  # L-shape
        g[r][c] = 6
    with pytest.raises(VerifierDomainError, match=r"^pink component is not rectangular$"):
        borders_and_holes.verifier(g)


def test_borders_verifier_rejects_alien_colors():
    g = Grid([[8] * 5 for _ in range(5)])
    g[2][2] = 3
    g[2][4] = 0
    g[3][0] = 0
    with pytest.raises(
        VerifierDomainError, match=r"^cell \(2, 2\) holds 3, expected cyan or pink$"
    ):
        borders_and_holes.verifier(g)


def test_borders_verifier_rejects_crowded_rectangles():
    g = Grid([[8] * 8 for _ in range(8)])
    for r, c in ((1, 1), (1, 2), (2, 1), (2, 2), (4, 4), (4, 5), (5, 4), (5, 5)):
        g[r][c] = 6  # diagonal neighbors at gap 1 on both axes
    with pytest.raises(
        VerifierDomainError, match=r"^pink rectangles come closer than spacing 2$"
    ):
        borders_and_holes.verifier(g)


@pytest.mark.parametrize(
    "pink,alien,message",
    [
        # An alien color is reported before any shape problem.
        ([(0, 2), (2, 2), (2, 3)], (4, 0), r"cell \(4, 0\) holds 0"),
        # Spacing is checked over all rectangles before edges and shapes.
        ([(0, 1), (2, 2), (3, 3)], None, "closer than spacing"),
        # Otherwise rectangles are checked in row-major order of first cell.
        ([(0, 1), (4, 3), (4, 4), (5, 4)], None, "touches the grid edge"),
        ([(1, 1), (2, 1), (2, 2), (6, 5)], None, "not rectangular"),
    ],
)
def test_borders_verifier_reports_first_failing_condition(pink, alien, message):
    g = Grid([[8] * 7 for _ in range(7)])
    for r, c in pink:
        g[r][c] = 6
    if alien:
        g[alien[0]][alien[1]] = 0
    with pytest.raises(VerifierDomainError, match=message):
        borders_and_holes.verifier(g)


def test_borders_rejects_partial_layout():
    with pytest.raises(ValueError):
        borders_and_holes.generate(rows=[2], rng=_stream("543a7ed5"))


def test_borders_rejects_overlapping_layout():
    with pytest.raises(ValueError):
        borders_and_holes.generate(
            rows=[2, 3], cols=[2, 3], widths=[3, 3], heights=[3, 3],
            colors=[6, 6], boxes=2,
        )


def test_borders_rejects_hole_outside_boxes():
    with pytest.raises(ValueError):
        borders_and_holes.generate(
            rows=[2, 10], cols=[2, 10], widths=[4, 2], heights=[4, 2],
            colors=[6, 4], boxes=1,
        )


def test_borders_rejects_undersized_holes():
    # One 1x1 hole gives area 1, below the 2-per-box minimum.
    with pytest.raises(ValueError):
        borders_and_holes.generate(
            rows=[2, 3], cols=[2, 3], widths=[4, 1], heights=[4, 1],
            colors=[6, 4], boxes=1,
        )


@pytest.mark.parametrize(
    "layout, message",
    [
        ({"colors": [6, 6]}, "expected 3 box colors, got 2"),
        (
            {"rows": [2, 3], "cols": [2], "widths": [4, 1], "heights": [4, 1], "boxes": 1},
            "layout lists must have equal lengths",
        ),
        (
            {"rows": [2, 8], "cols": [2, 8], "widths": [2, 2], "heights": [2, 2]},
            "layout provides 2 entries for 3 boxes",
        ),
        (
            {"rows": [0], "cols": [2], "widths": [4], "heights": [4], "boxes": 1},
            "box 0 leaves no ring margin on a 15x15 grid",
        ),
        # Two copies of one 1x1 hole cover one cell, not two.
        (
            {"rows": [2, 3, 3], "cols": [2, 3, 3], "widths": [4, 1, 1], "heights": [4, 1, 1], "boxes": 1},
            "total hole area 1 below the minimum 2",
        ),
        # Without colors a supplied layout has pink boxes and yellow holes.
        ({"rows": [2, 3], "cols": [2, 3], "widths": [4, 2], "heights": [4, 2], "boxes": 1}, None),
    ],
    ids=["box-colors", "lengths", "entries", "margin", "shared-hole-cells", "default-colors"],
)
def test_borders_layout_checks(layout, message):
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            borders_and_holes.generate(rng=_stream("543a7ed5"), **layout)
        return
    ex = borders_and_holes.generate(**layout)
    box = {(r, c) for r in range(2, 6) for c in range(2, 6)}
    hole = {(r, c) for r in range(3, 5) for c in range(3, 5)}
    for r in range(15):
        for c in range(15):
            expected = 6 if (r, c) in box - hole else 8
            assert ex.input[r][c] == expected, (r, c)
    assert {(r, c) for r in range(15) for c in range(15) if ex.output[r][c] == 4} == hole
    assert borders_and_holes.verifier(ex.input) == ex.output


def test_borders_rejects_color_length_mismatch():
    with pytest.raises(ValueError):
        borders_and_holes.generate(
            rows=[2, 3], cols=[2, 3], widths=[4, 2], heights=[4, 2],
            colors=[6], boxes=1,
        )


def test_borders_layout_randomization_needs_rng():
    with pytest.raises(ValueError):
        borders_and_holes.generate()


# ---- 1e0a9b12: column gravity ----


def test_gravity_single_column():
    assert column_gravity.verifier(Grid([[5], [0], [2]])) == Grid([[0], [5], [2]])


def test_gravity_all_zero_unchanged():
    g = Grid([[0] * 3 for _ in range(3)])
    assert column_gravity.verifier(g) == g


def test_gravity_multi_column():
    g = Grid([[1, 0], [2, 0], [0, 3]])
    assert column_gravity.verifier(g) == Grid([[0, 0], [1, 0], [2, 3]])


def test_gravity_is_idempotent():
    ex = column_gravity.generate(rng=_stream("1e0a9b12"))
    packed = column_gravity.verifier(ex.input)
    assert column_gravity.verifier(packed) == packed


def test_gravity_generator_distribution():
    for index in range(50):
        ex = column_gravity.generate(rng=_stream("1e0a9b12", index))
        size = ex.input.height
        assert 4 <= size <= 6
        assert ex.input.width == size
        moved = False
        for c in range(size):
            column = [ex.input[r][c] for r in range(size)]
            nonzero = [v for v in column if v]
            assert 1 <= len(nonzero) <= 3
            if column != [0] * (size - len(nonzero)) + nonzero:
                moved = True
        assert moved


def test_gravity_size_validation():
    with pytest.raises(ValueError):
        column_gravity.generate(size=2, rng=_stream("1e0a9b12"))
    with pytest.raises(ValueError):
        column_gravity.generate(size=11, rng=_stream("1e0a9b12"))


# ---- 67a423a3: crossing halo ----

CROSS_INPUT = Grid(
    [
        [0, 0, 5, 0, 0],
        [0, 0, 5, 0, 0],
        [3, 3, 5, 3, 3],
        [0, 0, 5, 0, 0],
        [0, 0, 5, 0, 0],
    ]
)

CROSS_OUTPUT = Grid(
    [
        [0, 0, 5, 0, 0],
        [0, 4, 4, 4, 0],
        [3, 4, 5, 4, 3],
        [0, 4, 4, 4, 0],
        [0, 0, 5, 0, 0],
    ]
)


def test_crossing_center_case():
    assert crossing_marker.verifier(CROSS_INPUT) == CROSS_OUTPUT


def test_crossing_generate_fully_specified():
    ex = crossing_marker.generate(size=5, row=2, col=2, row_color=3, col_color=5)
    assert ex.input == CROSS_INPUT
    assert ex.output == CROSS_OUTPUT


def test_crossing_near_corner():
    # Crossing at (1, 1) on a 4x4: the halo still fits, nothing else moves.
    ex = crossing_marker.generate(size=4, row=1, col=1, row_color=2, col_color=3)
    assert ex.input == Grid([[0, 3, 0, 0], [2, 3, 2, 2], [0, 3, 0, 0], [0, 3, 0, 0]])
    assert ex.output == Grid([[4, 4, 4, 0], [4, 3, 4, 2], [4, 4, 4, 0], [0, 3, 0, 0]])
    assert crossing_marker.verifier(ex.input) == ex.output


def test_crossing_verifier_rejects_no_crossing():
    with pytest.raises(
        VerifierDomainError, match=r"^no cell has four nonzero orthogonal neighbors$"
    ):
        crossing_marker.verifier(Grid([[0] * 4 for _ in range(4)]))


def test_crossing_parameter_validation():
    s = _stream("67a423a3")
    with pytest.raises(ValueError):
        crossing_marker.generate(size=5, row=0, col=2, rng=s)
    with pytest.raises(ValueError):
        crossing_marker.generate(size=5, row_color=4, rng=_stream("67a423a3"))
    with pytest.raises(ValueError):
        crossing_marker.generate(size=5, row_color=3, col_color=3, rng=_stream("67a423a3"))


# ---- 05269061: anti-diagonal stripes ----


def test_stripes_completes_top_row_seed():
    g = Grid([[2, 8, 3], [0, 0, 0], [0, 0, 0]])
    assert diagonal_stripes.verifier(g) == Grid([[2, 8, 3], [8, 3, 2], [3, 2, 8]])


def test_stripes_full_pattern_is_fixed_point():
    full = Grid([[2, 8, 3], [8, 3, 2], [3, 2, 8]])
    assert diagonal_stripes.verifier(full) == full


def test_stripes_tolerates_empty_grid():
    g = Grid([[0] * 4 for _ in range(4)])
    assert diagonal_stripes.verifier(g) == g


def test_stripes_generator_band_structure():
    for index in range(50):
        ex = diagonal_stripes.generate(rng=_stream("05269061", index))
        size = ex.input.height
        assert 5 <= size <= 9
        colors = [ex.output[0][0], ex.output[0][1], ex.output[0][2]]
        assert len(set(colors)) == 3
        revealed = {r + c for r in range(size) for c in range(size) if ex.input[r][c]}
        assert revealed  # a band is present
        assert {d % 3 for d in revealed} == {0, 1, 2}
        assert revealed == set(range(min(revealed), max(revealed) + 1))  # contiguous
        assert min(revealed) == 0 or max(revealed) == 2 * size - 2  # corner-anchored
        for r in range(size):
            for c in range(size):
                assert ex.output[r][c] == colors[(r + c) % 3]
                if ex.input[r][c]:
                    assert ex.input[r][c] == ex.output[r][c]
        assert diagonal_stripes.verifier(ex.input) == ex.output


def test_stripes_parameter_validation():
    with pytest.raises(ValueError):
        diagonal_stripes.generate(colors=[1, 1, 2], rng=_stream("05269061"))
    with pytest.raises(ValueError):
        diagonal_stripes.generate(colors=[0, 1, 2], rng=_stream("05269061"))
    with pytest.raises(ValueError):
        diagonal_stripes.generate(bands=4, rng=_stream("05269061"))
    with pytest.raises(ValueError):
        diagonal_stripes.generate(corner=2, rng=_stream("05269061"))


def test_stripes_fully_specified_is_deterministic():
    a = diagonal_stripes.generate(size=6, colors=[1, 2, 3], bands=1, corner=0)
    b = diagonal_stripes.generate(size=6, colors=[1, 2, 3], bands=1, corner=0)
    assert a == b
    assert all(v == 0 for row in a.input for v in row if v not in (1, 2, 3))


def test_stripes_generator_matches_cell_by_cell_reference():
    # The per-cell construction that the row-slice generator replaced.
    colors = [4, 9, 2]
    for size in range(3, 31):
        diag_count = 2 * size - 1
        for bands in (1, 2, 3):
            band = min(3 * bands, diag_count - 1)
            for corner, revealed in ((0, range(band)), (1, range(diag_count - band, diag_count))):
                out = [[colors[(r + c) % 3] for c in range(size)] for r in range(size)]
                grid = [
                    [out[r][c] if (r + c) in revealed else 0 for c in range(size)]
                    for r in range(size)
                ]
                ex = diagonal_stripes.generate(size=size, colors=colors, bands=bands, corner=corner)
                assert (ex.input, ex.output) == (Grid(grid), Grid(out)), (size, bands, corner)
