"""Shape vectors and the two-stage output-shape arithmetic."""
import random

import pytest

from strips_operad.shapes import ShapeError, check_shape, output_shape


def test_check_shape_accepts_mixed_counts():
    check_shape((2, 0, 3))
    check_shape((1,))


def test_check_shape_rejects_bad_vectors():
    with pytest.raises(ShapeError):
        check_shape(())
    with pytest.raises(ShapeError):
        check_shape((0, 0))
    with pytest.raises(ShapeError):
        check_shape((1, -1))
    with pytest.raises(ShapeError):
        check_shape((1, True))
    with pytest.raises(ShapeError):
        check_shape((1.0, 2))


def test_output_shape_basic():
    assert output_shape((2, 0), (2, 3), [[(1, 0), (2, 1)], []]) == (3, 1, 0, 0, 0)


def test_output_shape_empty_strip_contributes_zero_run():
    assert output_shape((0, 2), (2, 2), [[], [(0, 1), (1, 0)]]) == (0, 0, 1, 1)


def test_output_shape_single_strip():
    assert output_shape((3,), (2,), [[(1, 1), (0, 1), (2, 0)]]) == (3, 2)


def test_output_shape_validates_lengths():
    with pytest.raises(ShapeError):
        output_shape((2,), (2, 2), [[(1, 1)]])
    with pytest.raises(ShapeError):
        output_shape((2, 1), (2, 2), [[(1, 1)]])
    with pytest.raises(ShapeError, match="strip 1"):
        output_shape((2, 1), (2, 2), [[(1, 1), (2, 0), (0, 1)], [(1,)]])


def test_output_shape_preserves_total_counts():
    rng = random.Random("shapes")
    for _ in range(100):
        r = rng.randint(1, 4)
        m = tuple(rng.randint(0, 3) for _ in range(r))
        if not any(m):
            m = m[:-1] + (1,)
        arities = tuple(rng.randint(1, 3) for _ in range(r))
        inner = [[tuple(rng.randint(0, 2) for _ in range(arities[i]))
                  for _ in range(m[i])] for i in range(r)]
        # the zero-shape guard only applies to the composite, enforced below
        try:
            out = output_shape(m, arities, inner)
        except ShapeError:
            continue
        assert len(out) == sum(arities)
        assert sum(out) == sum(sum(row) for rows in inner for row in rows)


def _nonzero_row(rng, width):
    row = tuple(rng.randint(0, 2) for _ in range(width))
    return row if any(row) else row[:-1] + (1,)


def test_output_shape_two_stage_agreement():
    """Shape arithmetic associates.

    Applying the deep layer to the already-composed shape agrees with first
    refining every middle configuration by its own slice of the deep layer
    and composing the refined rows with the outer shape afterwards.
    """
    rng = random.Random("assoc")
    done = 0
    while done < 60:
        r = rng.randint(1, 3)
        m = tuple(rng.randint(0, 2) for _ in range(r))
        if not any(m):
            continue
        s = tuple(rng.randint(1, 3) for _ in range(r))
        mid = [[_nonzero_row(rng, s[i]) for _ in range(m[i])] for i in range(r)]
        n1 = output_shape(m, s, mid)
        t = tuple(rng.randint(1, 2) for _ in range(len(n1)))
        deep = [[_nonzero_row(rng, t[j]) for _ in range(n1[j])]
                for j in range(len(n1))]
        top_down = output_shape(n1, t, deep)

        merged_arities = []
        merged = []
        pos = 0
        for i in range(r):
            width = s[i]
            t_run = t[pos:pos + width]
            merged_arities.append(sum(t_run))
            rows = []
            for j in range(m[i]):
                selection = []
                for a in range(width):
                    before = sum(mid[i][k][a] for k in range(j))
                    count = mid[i][j][a]
                    selection.append(deep[pos + a][before:before + count])
                rows.append(output_shape(mid[i][j], t_run, selection))
            merged.append(rows)
            pos += width
        bottom_up = output_shape(m, tuple(merged_arities), merged)
        assert top_down == bottom_up
        done += 1
