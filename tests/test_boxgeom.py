import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe import boxgeom
from focalpipe.boxgeom import (
    AffineMap2D,
    Box,
    ScoredBox,
    apply_map,
    area,
    intersect,
    iou,
    overlap_pairs,
    pairwise_iou,
)
from focalpipe.evalkit import GtAnnotation
from focalpipe.scenes import SceneSpec

import reference_records


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
        assert intersect(b, Box(0, 0, 100, 100)) == b

    def test_outside(self):
        assert intersect(Box(200, 200, 210, 210), Box(0, 0, 100, 100)) is None

    def test_corner(self):
        assert intersect(Box(90, 90, 130, 120), Box(0, 0, 100, 100)) == Box(90, 90, 100, 100)


class TestBoxValidation:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Box(10, 0, 0, 10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, math.nan, 10)


def outcome(make, *args) -> tuple:
    """The fields of `make(*args)` as (name, type name, repr), or its exception's type and
    message."""
    try:
        record = make(*args)
    except Exception as e:
        return type(e), str(e)
    return tuple((f, type(v).__name__, repr(v)) for f, v in
                 ((f, getattr(record, f)) for f in record.__dataclass_fields__))


NEXT_ABOVE_ONE = math.nextafter(1.0, 2.0)
COORDINATES = st.one_of(
    st.floats(-1e6, 1e6), st.floats(), st.integers(-2**60, 2**60),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**1024, -2**1024, 10**400,
                     True, False, "1.0", 1.5]),
)
CLASS_IDS = st.one_of(st.integers(0, 20), st.sampled_from([-1, 0, 2**63 - 1, 2**63, True,
                                                          1.5, "1"]))
SCORES = st.one_of(st.floats(0.0, 1.0), st.floats(),
                   st.sampled_from([-0.0, 1.0, math.nan, NEXT_ABOVE_ONE, 0, 1, 2, True, "0.5"]))


class TestConstructorsEqualGeneratedForm:
    """The hand-written `Box` and `ScoredBox` constructors against the generated dataclass
    `__init__` and `__post_init__` of `reference_records`: the same fields, or the same
    exception and message, in the same order of checks."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(COORDINATES, min_size=4, max_size=4))
    def test_box(self, corners):
        assert outcome(Box, *corners) == outcome(reference_records.Box, *corners)

    @settings(max_examples=500, deadline=None)
    @given(CLASS_IDS, SCORES)
    def test_scored_box(self, class_id, score):
        made = outcome(ScoredBox, Box(0.0, 0.0, 1.0, 1.0), class_id, score)
        reference = reference_records.Box(0.0, 0.0, 1.0, 1.0)
        assert made == outcome(reference_records.ScoredBox, reference, class_id, score)

    def test_record_behaviour_unchanged(self):
        box, reference = Box(1.0, 2.0, 3.0, 4.0), reference_records.Box(1.0, 2.0, 3.0, 4.0)
        det = ScoredBox(box, 2, 0.5)
        assert repr(box) == repr(reference)
        assert repr(det) == repr(reference_records.ScoredBox(reference, 2, 0.5))
        assert box == Box(1.0, 2.0, 3.0, 4.0) and hash(box) == hash(Box(1.0, 2.0, 3.0, 4.0))
        assert box != Box(1.0, 2.0, 3.0, 5.0) and det != ScoredBox(box, 2, 0.25)
        assert hash(det) == hash(ScoredBox(Box(1.0, 2.0, 3.0, 4.0), 2, 0.5))
        assert dataclasses.replace(box, x2=5.0) == Box(1.0, 2.0, 5.0, 4.0)
        assert dataclasses.replace(det, score=1.0) == ScoredBox(box, 2, 1.0)
        for change in ({"x2": 0.0}, {"y1": math.nan}, {"x1": "0"}):
            def replace(record):
                return dataclasses.replace(record, **change)
            assert outcome(replace, box)[0] in (ValueError, TypeError)
            assert outcome(replace, box) == outcome(replace, reference)
        for record in (box, det):
            assert pickle.loads(pickle.dumps(record)) == record
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(record)[0].name, 0.0)


class TestRecordLayout:
    def test_per_box_records_have_no_instance_dict(self):
        """A box record is one of hundreds per image: its fields live in slots."""
        box = Box(0.0, 1.0, 2.0, 3.0)
        for record in (box, ScoredBox(box, 1, 0.5), GtAnnotation(box, 1)):
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_scene_spec_defaults_read_at_class_level(self):
        """`cli synth` reads `SceneSpec.image_size` and the benchmark `SceneSpec.classes`,
        which a slotted dataclass would no longer hold as class attributes."""
        spec = SceneSpec()
        assert (SceneSpec.image_size, SceneSpec.classes) == (spec.image_size, spec.classes)


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
    got = intersect(b, frame)
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


# lattice corners, so duplicates, shared edges and zero-width boxes are common, plus the
# float64 extremes, where areas overflow to inf and IoU can be NaN
EDGES = st.one_of(st.integers(-3, 6).map(float), st.sampled_from([-1e308, 1e308]))


@st.composite
def grouped_boxes(draw, max_size=16):
    """Rows (n, 4) of boxes with corners from EDGES, some repeated, and a group of 0 or 1
    for each."""
    rows = []
    for _ in range(draw(st.integers(0, max_size))):
        x1, x2 = sorted(draw(st.lists(EDGES, min_size=2, max_size=2)))
        y1, y2 = sorted(draw(st.lists(EDGES, min_size=2, max_size=2)))
        rows.append((x1, y1, x2, y2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    groups = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.float64).reshape(-1, 4), np.array(groups, dtype=np.int64)


def collect(chunks, budget):
    """The pairs of `overlap_pairs` chunks as {(i, j): IoU}, checking each pair comes once
    and each chunk holds at most `budget` pairs."""
    out = {}
    for i, j, v in chunks:
        assert len(i) == len(j) == len(v) <= budget
        for pair, value in zip(zip(i.tolist(), j.tolist()), v.tolist()):
            assert pair not in out
            out[pair] = value
    return out


def same_bits(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


# thresholds for `above`, and offsets that move the lattice far from the origin, where an
# ulp of a coordinate is larger than the slack the sweep allows on a box's side
ABOVE = [0.0, 1e-12, 0.05, 0.5, 0.7, 1.0]
OFFSETS = [0.0, 1e6, 2.0**30]


def far(rows, offset):
    """`grouped_boxes` rows with the lattice values scaled by 1/64 and moved by `offset`:
    IoU ties stay exact. The corners at +-1e308 stay where they are."""
    return np.where(np.abs(rows) < 1e300, rows / 64 + offset, rows)


def check_above(got, matrix, a, b, same, above):
    """The pairs `got` of `overlap_pairs(..., above=above)` against `matrix`, the IoU of
    each row of `a` with each of `b`: each pair given is in one group (`same`), overlaps
    with positive area and has the matrix's IoU bits, and every pair in one group with
    IoU >= `above`, and > 0, is given."""
    for (i, j), value in got.items():
        assert same[i, j] and same_bits(value, matrix[i, j])
        assert max(a[i, 0], b[j, 0]) < min(a[i, 2], b[j, 2])
        assert max(a[i, 1], b[j, 1]) < min(a[i, 3], b[j, 3])
    wanted = np.nonzero(same & (matrix >= above) & (matrix > 0))
    assert set(zip(*(w.tolist() for w in wanted))) <= set(got)


class TestOverlapIou:
    def test_nan_union_divides_as_iou(self):
        """The width overflows, so the union is inf + inf - inf = NaN: not <= 0, so `iou`
        divides, and so do `pairwise_iou` and the sweep, which share one IoU core."""
        huge = Box(-1e308, 0, 1e308, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = pairwise_iou(corners([huge]), corners([huge]))
            (i, j, v), = overlap_pairs(corners([huge, huge]), np.zeros(2, np.int64))
        assert math.isnan(iou(huge, huge)) and math.isnan(matrix[0, 0])
        assert (i.tolist(), j.tolist()) == ([0], [1]) and math.isnan(v[0])


class TestOverlapPairs:
    """The sweep gives every same-group pair with positive IoU, each once, with the IoU
    `pairwise_iou` gives it; every pair it leaves out has IoU exactly 0."""

    @given(a=grouped_boxes(), b=grouped_boxes(), budget=st.sampled_from([1, 5, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_between_two_sets(self, a, b, budget):
        (a, a_group), (b, b_group) = a, b
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = pairwise_iou(a, b)
            with mock.patch.object(boxgeom, "PAIR_BUDGET", budget), mock.patch.object(
                    boxgeom, "_overlap_iou", wraps=boxgeom._overlap_iou) as kernel:
                got = collect(overlap_pairs(a, a_group, b, b_group), budget)
        assert all(len(call.args[0]) <= budget for call in kernel.call_args_list)
        for (i, j), value in got.items():
            assert 0 <= i < len(a) and 0 <= j < len(b)
            assert a_group[i] == b_group[j] and same_bits(value, matrix[i, j])
        for i in range(len(a)):
            for j in range(len(b)):
                assert (i, j) in got or a_group[i] != b_group[j] or matrix[i, j] == 0.0

    @given(a=grouped_boxes(max_size=24), budget=st.sampled_from([1, 5, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_within_one_set(self, a, budget):
        a, group = a
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(boxgeom, "PAIR_BUDGET", budget):
            got = collect(overlap_pairs(a, group), budget)
            matrix = pairwise_iou(a, a)
        for (i, j), value in got.items():
            assert 0 <= i < len(a) and 0 <= j < len(a) and i != j and (j, i) not in got
            assert group[i] == group[j] and same_bits(value, matrix[i, j])
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                assert {(i, j), (j, i)} & set(got) or group[i] != group[j] or matrix[i, j] == 0.0

    def test_empty_and_degenerate(self):
        boxes = np.array([[0, 0, 4, 4], [2, 2, 2, 6], [0, 4, 4, 8]], dtype=np.float64)
        assert collect(overlap_pairs(boxes, np.zeros(3, np.int64)), 1) == {}  # shared edges
        assert collect(overlap_pairs(np.empty((0, 4)), np.empty(0, np.int64)), 1) == {}
        assert collect(overlap_pairs(boxes, np.zeros(3, np.int64), np.empty((0, 4)),
                                     np.empty(0, np.int64)), 1) == {}


class TestOverlapPairsAbove:
    """With `above=t`, the sweep gives every same-group pair with IoU >= t, with the IoU
    `pairwise_iou` gives it, and only pairs that overlap with positive area."""

    @given(a=grouped_boxes(), b=grouped_boxes(), offset=st.sampled_from(OFFSETS),
           above=st.sampled_from(ABOVE))
    @settings(max_examples=60, deadline=None)
    def test_above_between_two_sets(self, a, b, offset, above):
        (a, a_group), (b, b_group) = ((far(rows, offset), group) for rows, group in (a, b))
        with np.errstate(over="ignore", invalid="ignore"):
            got = collect(overlap_pairs(a, a_group, b, b_group, above=above), 8192)
            matrix = pairwise_iou(a, b)
        check_above(got, matrix, a, b, a_group[:, None] == b_group[None, :], above)

    @given(a=grouped_boxes(max_size=24), offset=st.sampled_from(OFFSETS),
           above=st.sampled_from(ABOVE))
    @settings(max_examples=60, deadline=None)
    def test_above_within_one_set(self, a, offset, above):
        rows, group = a
        a = far(rows, offset)
        with np.errstate(over="ignore", invalid="ignore"):
            got = collect(overlap_pairs(a, group, above=above), 8192)
            matrix = pairwise_iou(a, a)
        got = {(min(pair), max(pair)): value for pair, value in got.items()}
        check_above(got, matrix, a, a, np.triu(group[:, None] == group[None, :], 1), above)

    @pytest.mark.parametrize("pair", [
        # IoU exactly 1/2 where an ulp of x is larger than the slack t * 1e-9 * w
        [[1e6, 0, 1e6 + 1 / 32, 1], [1e6 + 1 / 64, 0, 1e6 + 1 / 32, 1]],
        [[2.0**30, 0, 2.0**30 + 1 / 32, 1], [2.0**30 + 1 / 64, 0, 2.0**30 + 1 / 32, 1]],
        # IoU exactly 1/2 with widths of 2 and 1 subnormal ulps: t * w is not a normal float
        [[0, 0, 1e-323, 1e300], [5e-324, 0, 1e-323, 1e300]],
    ])
    def test_pair_exactly_at_threshold(self, pair):
        boxes = np.array(pair, dtype=np.float64)
        assert pairwise_iou(boxes[:1], boxes[1:])[0, 0] == 0.5
        assert collect(overlap_pairs(boxes, np.zeros(2, np.int64), above=0.5), 1) == {(0, 1): 0.5}
        assert collect(overlap_pairs(boxes[:1], np.zeros(1, np.int64), boxes[1:],
                                     np.zeros(1, np.int64), above=0.5), 1) == {(0, 0): 0.5}
