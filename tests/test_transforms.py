"""Transformation construction, algebra, and enumeration."""

import pytest

from starxor import (
    LimitExceeded,
    Transformation,
    cycle,
    enumerate_all,
    identity,
    point_map,
)
from starxor.transforms import transformation_count


def test_identity_fixes_everything():
    t = identity(4)
    assert t.images == (0, 1, 2, 3)
    assert t == Transformation(4, (0, 1, 2, 3))


def test_cycle_rotates_the_support():
    assert cycle(4, (0, 2, 3)).images == (2, 1, 3, 0)
    assert cycle(2, (0, 1)).images == (1, 0)


def test_cycle_degenerate_supports_are_identity():
    assert cycle(3, ()) == identity(3)
    assert cycle(3, (1,)) == identity(3)


def test_cycle_rejects_repeats_and_out_of_range():
    with pytest.raises(ValueError):
        cycle(3, (0, 0))
    with pytest.raises(ValueError):
        cycle(3, (0, 3))


def test_point_map_moves_one_state():
    assert point_map(3, 2, 0).images == (0, 1, 0)
    assert point_map(3, 1, 1) == identity(3)
    with pytest.raises(ValueError):
        point_map(3, 3, 0)


def test_apply_is_image_lookup():
    t = Transformation(3, (2, 0, 1))
    assert [t(q) for q in range(3)] == [2, 0, 1]


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        Transformation(2, (0, 2))
    with pytest.raises(ValueError):
        Transformation(2, (0,))
    with pytest.raises(ValueError):
        Transformation(0, ())


def test_enumerate_all_is_lexicographic_and_complete():
    ts = enumerate_all(2)
    assert [t.images for t in ts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_all(3)) == 27
    assert len(set(enumerate_all(3))) == 27


def test_enumerate_all_respects_the_limit():
    # 8^8 is above the cap, and the cap fires before materializing
    with pytest.raises(LimitExceeded):
        enumerate_all(8)


def test_transformation_count():
    assert [transformation_count(n) for n in (1, 2, 3)] == [1, 4, 27]


def test_render_juxtaposes_single_digits():
    assert Transformation(2, (1, 0)).render() == "[10]"
    assert identity(3).render() == "[012]"


def test_render_separates_wide_domains():
    assert identity(11).render().startswith("[0 1 2 ")

