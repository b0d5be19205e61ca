import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe.boxgeom import (
    AffineMap2D,
    Box,
    apply_map,
    area,
    clip,
    intersect,
    iou,
    pairwise_iou,
)


def pixel_count(b: Box) -> int:
    """Number of integer lattice pixels in the half-open box."""
    return sum(
        1
        for x in range(int(b.x1), int(b.x2))
        for y in range(int(b.y1), int(b.y2))
    )


def pixel_intersection_count(a: Box, b: Box) -> int:
    return sum(
        1
        for x in range(-100, 100)
        for y in range(-100, 100)
        if a.x1 <= x < a.x2 and a.y1 <= y < a.y2 and b.x1 <= x < b.x2 and b.y1 <= y < b.y2
    )


int_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(-32, 32),
    st.integers(-32, 32),
    st.integers(0, 64),
    st.integers(0, 64),
)


class TestArea:
    def test_square(self):
        assert area(Box(0, 0, 10, 10)) == 100

    def test_degenerate_width(self):
        assert area(Box(5, 5, 5, 9)) == 0

    def test_pixel_oracle_example(self):
        b = Box(2, 3, 7, 11)
        assert area(b) == pixel_count(b) == 40


class TestIntersect:
    def test_identity(self):
        b = Box(0, 0, 10, 10)
        assert intersect(b, b) == b

    def test_disjoint(self):
        assert intersect(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) is None

    def test_partial(self):
        got = intersect(Box(0, 0, 10, 10), Box(5, 0, 15, 10))
        assert got == Box(5, 0, 10, 10)
        assert area(got) == pixel_intersection_count(Box(0, 0, 10, 10), Box(5, 0, 15, 10))


class TestIou:
    def test_identical(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 0, 30, 10)) == 0.0

    def test_third(self):
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_both_degenerate(self):
        assert iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0


class TestClip:
    def test_inside(self):
        b = Box(10, 10, 20, 20)
        assert clip(b, Box(0, 0, 100, 100)) == b

    def test_outside(self):
        assert clip(Box(200, 200, 210, 210), Box(0, 0, 100, 100)) is None

    def test_corner(self):
        assert clip(Box(90, 90, 130, 120), Box(0, 0, 100, 100)) == Box(90, 90, 100, 100)


class TestBoxValidation:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Box(10, 0, 0, 10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, math.nan, 10)


@given(int_boxes, int_boxes)
@settings(max_examples=200)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(int_boxes)
def test_iou_self_is_one(b):
    if area(b) > 0:
        assert iou(b, b) == 1.0


@given(int_boxes, int_boxes)
@settings(max_examples=200)
def test_geometry_matches_pixel_oracle(a, b):
    assert area(a) == pixel_count(a)
    inter = intersect(a, b)
    inter_pixels = pixel_intersection_count(a, b)
    assert (0 if inter is None else area(inter)) == inter_pixels
    union_pixels = pixel_count(a) + pixel_count(b) - inter_pixels
    expected = inter_pixels / union_pixels if union_pixels else 0.0
    assert iou(a, b) == pytest.approx(expected, abs=1e-12)


@given(int_boxes, int_boxes)
@settings(max_examples=200)
def test_clip_is_contained(b, frame):
    got = clip(b, frame)
    if got is not None:
        assert got.x1 >= max(b.x1, frame.x1) and got.x2 <= min(b.x2, frame.x2)
        assert got.y1 >= max(b.y1, frame.y1) and got.y2 <= min(b.y2, frame.y2)


affine_maps = st.builds(
    AffineMap2D,
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(-1000.0, 1000.0),
    st.floats(-1000.0, 1000.0),
)

real_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(-1e4, 1e4),
    st.floats(-1e4, 1e4),
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e3),
)


class TestAffine:
    def test_identity(self):
        b = Box(1, 2, 3, 4)
        assert apply_map(b, AffineMap2D(1, 1, 0, 0)) == b

    def test_scale_two(self):
        assert apply_map(Box(1, 1, 2, 2), AffineMap2D(2, 2, 0, 0)) == Box(2, 2, 4, 4)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            AffineMap2D(0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("fields", [
        (math.nan, 1.0, 0.0, 0.0), (1.0, math.inf, 0.0, 0.0),
        (1.0, 1.0, math.nan, 0.0), (1.0, 1.0, 0.0, -math.inf),
    ])
    def test_non_finite_field_rejected(self, fields):
        with pytest.raises(ValueError, match="finite"):
            AffineMap2D(*fields)

    @given(real_boxes, affine_maps)
    @settings(max_examples=200)
    def test_round_trip(self, b, m):
        back = apply_map(apply_map(b, m), m.invert())
        for got, want in zip(back.as_tuple(), b.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)


def corners(boxes):
    return [b.as_tuple() for b in boxes]


# real-valued boxes packed close enough that most pairs overlap
near_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
)


class TestPairwiseIou:
    """The array kernel reproduces the scalar `iou` exactly, pair by pair."""

    def test_named_cases(self):
        a = [Box(0, 0, 10, 10)]
        b = [
            Box(0, 0, 10, 10),  # identical
            Box(20, 0, 30, 10),  # disjoint
            Box(10, 0, 20, 10),  # shares an edge
            Box(10, 10, 20, 20),  # shares a corner
            Box(5, 5, 5, 9),  # zero area, inside
            Box(5, 0, 15, 10),  # a third
        ]
        got = pairwise_iou(corners(a), corners(b))
        assert got.tolist() == [[iou(a[0], y) for y in b]]
        assert got.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 1 / 3]]
        degenerate = Box(1, 1, 1, 1)
        assert pairwise_iou(corners([degenerate]), corners([degenerate])).tolist() == [[0.0]]

    def test_empty_shapes(self):
        boxes = corners([Box(0, 0, 1, 1), Box(2, 2, 3, 3)])
        assert pairwise_iou(np.zeros((0, 4)), boxes).shape == (0, 2)
        assert pairwise_iou(boxes, np.zeros((0, 4))).shape == (2, 0)
        assert pairwise_iou([], []).shape == (0, 0)

    @given(st.lists(int_boxes, max_size=6), st.lists(int_boxes, max_size=6))
    @settings(max_examples=300)
    def test_equals_scalar_on_lattice_boxes(self, a, b):
        # small integer boxes: identical, touching, disjoint and zero-area pairs are common
        got = pairwise_iou(corners(a), corners(b))
        assert got.shape == (len(a), len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert got[i, j] == iou(x, y)

    @given(st.lists(near_boxes, max_size=6), st.lists(near_boxes, max_size=6))
    @settings(max_examples=300)
    def test_equals_scalar_on_real_boxes(self, a, b):
        got = pairwise_iou(corners(a), corners(b))
        assert got.shape == (len(a), len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert got[i, j] == iou(x, y)
