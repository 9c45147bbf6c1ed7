"""Per-task generators and verifiers against hand-computed expectations."""

import pytest

from gridbench import Grid, VerifierDomainError, grids, lookup
from gridbench.rng import new_stream
from gridbench.tasks import borders_and_holes, column_gravity, crossing_marker, diagonal_stripes


def _stream(task_id, index=0, seed=7):
    return new_stream(seed, task_id, index)


# ---- 543a7ed5: bordered rectangles with yellow holes ----


def test_borders_all_cyan_unchanged():
    g, _ = grids(15, 15, 8)
    assert borders_and_holes.verify(g) == g


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
    assert borders_and_holes.verify(g) == expected


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
    assert borders_and_holes.verify(Grid(rows)) == expected


def test_borders_verifier_rejects_edge_contact():
    g, _ = grids(5, 5, 8)
    g[0][2] = 6
    with pytest.raises(VerifierDomainError, match=r"^pink rectangle touches the grid edge$"):
        borders_and_holes.verify(g)


def test_borders_verifier_rejects_non_rectangles():
    g, _ = grids(6, 6, 8)
    for r, c in ((1, 1), (2, 1), (2, 2)):  # L-shape
        g[r][c] = 6
    with pytest.raises(VerifierDomainError, match=r"^pink component is not rectangular$"):
        borders_and_holes.verify(g)


def test_borders_verifier_rejects_alien_colors():
    g, _ = grids(5, 5, 8)
    g[2][2] = 3
    g[2][4] = 0
    g[3][0] = 0
    with pytest.raises(
        VerifierDomainError, match=r"^cell \(2, 2\) holds 3, expected cyan or pink$"
    ):
        borders_and_holes.verify(g)


def test_borders_verifier_rejects_crowded_rectangles():
    g, _ = grids(8, 8, 8)
    for r, c in ((1, 1), (1, 2), (2, 1), (2, 2), (4, 4), (4, 5), (5, 4), (5, 5)):
        g[r][c] = 6  # diagonal neighbors at gap 1 on both axes
    with pytest.raises(
        VerifierDomainError, match=r"^pink rectangles come closer than spacing 2$"
    ):
        borders_and_holes.verify(g)


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
    g, _ = grids(7, 7, 8)
    for r, c in pink:
        g[r][c] = 6
    if alien:
        g[alien[0]][alien[1]] = 0
    with pytest.raises(VerifierDomainError, match=message):
        borders_and_holes.verify(g)


def test_borders_golden_fixture_shape():
    ts = borders_and_holes.validate()
    assert len(ts.train) == 2
    assert len(ts.test) == 1
    for ex in (*ts.train, *ts.test):
        assert ex.input.height == ex.input.width == 15
        assert ex.output.height == ex.output.width == 15


def test_borders_golden_first_train_pink_count():
    # Box areas 4*5 + 2*2 + 4*4 = 40 minus the 2x3 hole leaves 34 pink cells.
    first = borders_and_holes.validate().train[0].input
    assert sum(v == 6 for row in first for v in row) == 34


def test_borders_golden_pairs_satisfy_verifier():
    ts = borders_and_holes.validate()
    for ex in (*ts.train, *ts.test):
        assert borders_and_holes.verify(ex.input) == ex.output


def test_borders_randomized_example_is_verifier_consistent():
    ex = borders_and_holes.generate(rng=_stream("543a7ed5"))
    assert borders_and_holes.verify(ex.input) == ex.output


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
    assert column_gravity.verify(Grid([[5], [0], [2]])) == Grid([[0], [5], [2]])


def test_gravity_all_zero_unchanged():
    g = Grid([[0] * 3 for _ in range(3)])
    assert column_gravity.verify(g) == g


def test_gravity_multi_column():
    g = Grid([[1, 0], [2, 0], [0, 3]])
    assert column_gravity.verify(g) == Grid([[0, 0], [1, 0], [2, 3]])


def test_gravity_is_idempotent():
    ex = column_gravity.generate(rng=_stream("1e0a9b12"))
    packed = column_gravity.verify(ex.input)
    assert column_gravity.verify(packed) == packed


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
    assert crossing_marker.verify(CROSS_INPUT) == CROSS_OUTPUT


def test_crossing_generate_fully_specified():
    ex = crossing_marker.generate(size=5, row=2, col=2, row_color=3, col_color=5)
    assert ex.input == CROSS_INPUT
    assert ex.output == CROSS_OUTPUT


def test_crossing_near_corner():
    # Crossing at (1, 1) on a 4x4: the halo still fits, nothing else moves.
    ex = crossing_marker.generate(size=4, row=1, col=1, row_color=2, col_color=3)
    assert ex.input == Grid([[0, 3, 0, 0], [2, 3, 2, 2], [0, 3, 0, 0], [0, 3, 0, 0]])
    assert ex.output == Grid([[4, 4, 4, 0], [4, 3, 4, 2], [4, 4, 4, 0], [0, 3, 0, 0]])
    assert crossing_marker.verify(ex.input) == ex.output


def test_crossing_exactly_eight_cells_change():
    ex = crossing_marker.generate(rng=_stream("67a423a3"))
    diff = sum(
        ex.input[r][c] != ex.output[r][c]
        for r in range(ex.input.height)
        for c in range(ex.input.width)
    )
    assert diff == 8


def test_crossing_verifier_rejects_no_crossing():
    with pytest.raises(
        VerifierDomainError, match=r"^no cell has four nonzero orthogonal neighbors$"
    ):
        crossing_marker.verify(Grid([[0] * 4 for _ in range(4)]))


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
    assert diagonal_stripes.verify(g) == Grid([[2, 8, 3], [8, 3, 2], [3, 2, 8]])


def test_stripes_full_pattern_is_fixed_point():
    full = Grid([[2, 8, 3], [8, 3, 2], [3, 2, 8]])
    assert diagonal_stripes.verify(full) == full


def test_stripes_tolerates_empty_grid():
    g = Grid([[0] * 4 for _ in range(4)])
    assert diagonal_stripes.verify(g) == g


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
        assert diagonal_stripes.verify(ex.input) == ex.output


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


@pytest.mark.parametrize("task_id", ["543a7ed5", "1e0a9b12", "67a423a3", "05269061"])
def test_verifier_result_owns_its_rows(task_id):
    gen = lookup(task_id)
    for index in range(5):
        grid = gen.generate(rng=_stream(task_id, index)).input
        before = grid.to_lists()
        out = gen.verifier(grid)
        assert not {id(row) for row in out} & {id(row) for row in grid}
        assert len({id(row) for row in out}) == out.height
        for row in out:
            row[:] = [9] * len(row)
        assert grid.to_lists() == before


def test_registered_verifiers_match_module_functions():
    assert lookup("543a7ed5").verifier is borders_and_holes.verify
    assert lookup("1e0a9b12").verifier is column_gravity.verify
    assert lookup("67a423a3").verifier is crossing_marker.verify
    assert lookup("05269061").verifier is diagonal_stripes.verify


@pytest.mark.parametrize(
    "task_id, overrides",
    [
        ("543a7ed5", {}),
        ("1e0a9b12", {}),
        ("67a423a3", {}),
        ("05269061", {}),
        ("543a7ed5", {"size": 30, "boxes": 1}),
        ("1e0a9b12", {"size": 10}),
        ("67a423a3", {"size": 30}),
        ("05269061", {"size": 30}),
    ],
)
def test_generated_grids_meet_the_grid_contract(task_id, overrides):
    # Generators wrap their rows unchecked, so the checked constructor must
    # accept every grid they make, and no two grids may share a row.
    gen = lookup(task_id)
    for index in range(40):
        ex = gen.generate(rng=_stream(task_id, index), **overrides)
        for grid in (ex.input, ex.output):
            assert Grid(grid.to_lists()) == grid
        rows = [*ex.input, *ex.output]
        assert len({id(row) for row in rows}) == len(rows)
