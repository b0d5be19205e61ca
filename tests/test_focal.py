import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focalpipe.boxgeom import AffineMap2D, Box, apply_map, area, intersect
from focalpipe.focal import (
    FocalRegion,
    crop_gt_to_detector,
    eip_regions,
    make_detector_map,
    refine_gt,
    regions_from_clusters,
)

from reference_focal import columns, ref_refine_gt

DETECTOR = (1000, 600)


class TestRegionsFromClusters:
    def test_one_cluster_envelope_with_margin(self):
        boxes = [Box(100, 100, 150, 150), Box(200, 180, 260, 240)]
        regions = regions_from_clusters(boxes, [0, 0], (1000, 1000), DETECTOR, margin=20)
        assert len(regions) == 1
        assert regions[0].rect == Box(80, 80, 280, 260)

    def test_clamped_at_image_border(self):
        regions = regions_from_clusters([Box(5, 5, 30, 30)], [0], (100, 100), DETECTOR, margin=20)
        assert regions[0].rect == Box(0, 0, 50, 50)

    def test_clamped_edge_is_a_float(self):
        # an integer image size clamps to float edges, so regions.json spells 100.0
        rect = regions_from_clusters([Box(80.0, 70.0, 95.0, 90.0)], [0], (100, 100), DETECTOR,
                                     margin=20)[0].rect
        assert rect == Box(60.0, 50.0, 100.0, 100.0)
        assert {type(v) for v in rect.as_tuple()} == {float}

    def test_zero_margin_equals_box(self):
        b = Box(10, 20, 60, 70)
        regions = regions_from_clusters([b], [0], (500, 500), DETECTOR, margin=0)
        assert regions[0].rect == b

    def test_two_clusters_ordered_by_label(self):
        boxes = [Box(0, 0, 10, 10), Box(400, 400, 420, 420)]
        regions = regions_from_clusters(boxes, [1, 0], (500, 500), DETECTOR, margin=0)
        assert [r.region_id for r in regions] == [0, 1]
        assert regions[0].rect == boxes[1]
        assert regions[1].rect == boxes[0]

    def test_empty_input(self):
        assert regions_from_clusters([], [], (100, 100), DETECTOR) == []

    def test_members_contained_before_clamping(self):
        boxes = [Box(100, 100, 140, 150), Box(90, 210, 160, 260), Box(300, 50, 340, 90)]
        labels = [0, 0, 1]
        regions = regions_from_clusters(boxes, labels, (1000, 1000), DETECTOR, margin=20)
        for box, label in zip(boxes, labels):
            rect = regions[label].rect
            assert intersect(box, rect) == box


class TestRefineGt:
    def region(self, rect):
        return regions_from_clusters([rect], [0], (1000, 1000), (rect.width, rect.height),
                                     margin=0)[0]

    def test_fully_inside_kept(self):
        region = self.region(Box(50, 50, 200, 200))
        crop = refine_gt(region, *columns([(Box(60, 70, 80, 90), 3)]))
        assert crop.gt == [(Box(10, 20, 30, 40), 3, 1.0)]

    def test_half_inside_kept(self):
        region = self.region(Box(5, 0, 100, 100))
        crop = refine_gt(region, *columns([(Box(0, 0, 10, 10), 1)]))
        assert len(crop.gt) == 1
        box, class_id, fraction = crop.gt[0]
        assert box == Box(0, 0, 5, 10)
        assert fraction == pytest.approx(0.5)

    def test_fifth_inside_dropped(self):
        region = self.region(Box(8, 0, 100, 100))
        crop = refine_gt(region, *columns([(Box(0, 0, 10, 10), 1)]))
        assert crop.gt == []

    def test_zero_area_annotation_counted(self):
        region = self.region(Box(0, 0, 100, 100))
        crop = refine_gt(region, *columns([(Box(5, 5, 5, 5), 1)]))
        assert crop.gt == []
        assert crop.dropped_zero_area == 1

    def test_threshold_validation(self):
        region = self.region(Box(0, 0, 100, 100))
        with pytest.raises(ValueError):
            refine_gt(region, *columns([]), keep_threshold=0.0)

    def test_kept_boxes_inside_crop(self):
        region = self.region(Box(20, 30, 120, 130))
        annotations = [(Box(0, 0, 50, 60), 2), (Box(100, 100, 140, 140), 2)]
        crop = refine_gt(region, *columns(annotations))
        for box, _, _ in crop.gt:
            assert 0 <= box.x1 <= box.x2 <= 100
            assert 0 <= box.y1 <= box.y2 <= 100


SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308]
COORD = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e4, 1e4, allow_nan=False))
# `eip_regions` gives integer edges for an integer image size
EDGE = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**4, 10**4))


@st.composite
def refine_cases(draw):
    """A region with float or integer edges and annotations whose coordinates mix ±0.0,
    extents of ±1e308 and ties with the region edges; the threshold is at times one box's
    exact fraction."""
    edge = EDGE if draw(st.booleans()) else COORD
    xs, ys = sorted([draw(edge), draw(edge)]), sorted([draw(edge), draw(edge)])
    rect = Box(xs[0], ys[0], xs[1], ys[1])
    coord = st.one_of(COORD, st.sampled_from([float(v) for v in rect.as_tuple()]))
    annotations = []
    for x1, y1, x2, y2, class_id in draw(st.lists(
            st.tuples(coord, coord, coord, coord, st.integers(0, 9)), max_size=12)):
        annotations.append((Box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)), class_id))
    # refine_gt reads only the rect, so the map need not send it onto a detector
    region = FocalRegion(rect, 0, "img", AffineMap2D(1.0, 1.0, 0.0, 0.0))
    fractions = [area(c) / area(b) for b, _ in annotations
                 if area(b) > 0 and (c := intersect(b, rect)) is not None]
    ties = [f for f in fractions if 0.0 < f <= 1.0]
    keep = draw(st.sampled_from(ties) if ties and draw(st.booleans())
                else st.one_of(st.sampled_from([0.30, 1.0]), st.floats(1e-9, 1.0)))
    return region, annotations, keep


def as_floats(gt):
    return [(tuple(map(float, box.as_tuple())), class_id, f) for box, class_id, f in gt]


def _case(rect, boxes, keep=0.30):
    region = FocalRegion(Box(*rect), 0, "img", AffineMap2D(1.0, 1.0, 0.0, 0.0))
    return region, [(Box(*b), 1) for b in boxes], keep


class TestRefineGtEqualsReference:
    @given(refine_cases())
    # max(-0.0, 0.0) is -0.0 and max(0.0, -0.0) is 0.0; np.maximum may give either zero
    @example(_case((0.0, 0.0, 10.0, 10.0), [(-0.0, -0.0, 5.0, 5.0)]))
    @example(_case((-0.0, -0.0, 10.0, 10.0), [(0.0, 0.0, 5.0, 5.0)]))
    # max(-0.0, 0) keeps -0.0, and -0.0 + -0 is 0.0 where -0.0 + -0.0 is -0.0
    @example(_case((0, 0, 10, 10), [(-0.0, -0.0, 5.0, 5.0)]))
    @settings(max_examples=400, deadline=None)
    def test_same_crop(self, case):
        region, annotations, keep = case
        try:
            want = ref_refine_gt(region, annotations, keep_threshold=keep)
        except ValueError as e:  # a translated corner past the float range
            with pytest.raises(ValueError, match=re.escape(str(e))):
                refine_gt(region, *columns(annotations), keep_threshold=keep)
            return
        got = refine_gt(region, *columns(annotations), keep_threshold=keep)
        assert all(type(v) is float for box, _, _ in got.gt for v in box.as_tuple())
        # repr tells -0.0 from 0.0 and 1 from 1.0, and shows nan. The reference keeps an int
        # edge where `max` or `min` picks the rect's; the package never does.
        assert repr(as_floats(got.gt)) == repr(as_floats(want.gt))
        if not any(type(v) is int for v in region.rect.as_tuple()):
            assert repr(got.gt) == repr(want.gt)
        assert got.dropped_zero_area == want.dropped_zero_area
        assert got.region is region

    def test_fraction_at_threshold_kept(self):
        region = FocalRegion(Box(0.0, 0.0, 3.0, 10.0), 0, "", AffineMap2D(1.0, 1.0, 0.0, 0.0))
        crop = refine_gt(region, *columns([(Box(0.0, 0.0, 10.0, 10.0), 1)]), keep_threshold=0.3)
        assert crop.gt == [(Box(0.0, 0.0, 3.0, 10.0), 1, 0.3)]


class TestMakeDetectorMap:
    def test_identity(self):
        m = make_detector_map(Box(0, 0, 1000, 600), 1000, 600)
        assert (m.scale_x, m.scale_y, m.offset_x, m.offset_y) == (1, 1, 0, 0)

    def test_scale_and_offset(self):
        m = make_detector_map(Box(100, 100, 600, 350), 1000, 500)
        assert (m.scale_x, m.scale_y) == (2, 2)
        assert (m.offset_x, m.offset_y) == (-200, -200)

    def test_maps_corners_onto_detector_frame(self):
        rect = Box(37.5, 12.25, 412.0, 300.0)
        m = make_detector_map(rect, 1000, 600)
        got = apply_map(rect, m)
        assert got.x1 == pytest.approx(0, abs=1e-9)
        assert got.y1 == pytest.approx(0, abs=1e-9)
        assert got.x2 == pytest.approx(1000, abs=1e-9)
        assert got.y2 == pytest.approx(600, abs=1e-9)

    def test_round_trip_on_corners(self):
        rect = Box(100, 100, 600, 350)
        m = make_detector_map(rect, 1000, 500)
        back = apply_map(apply_map(rect, m), m.invert())
        for got, want in zip(back.as_tuple(), rect.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_area_region_rejected(self):
        with pytest.raises(ValueError):
            make_detector_map(Box(10, 10, 10, 50), 100, 100)


class TestCropGtToDetector:
    def test_scaling_applied(self):
        region = regions_from_clusters(
            [Box(100, 100, 200, 200)], [0], (1000, 1000), margin=0,
            detector_size=(200, 200),
        )[0]
        crop = refine_gt(region, *columns([(Box(100, 100, 150, 150), 1)]))
        mapped = crop_gt_to_detector(crop)
        assert mapped[0][0] == Box(0, 0, 100, 100)


class TestEipRegions:
    def test_even_partition(self):
        regions = eip_regions((300, 200), DETECTOR)
        assert len(regions) == 6
        for r in regions:
            assert r.rect.width == 100 and r.rect.height == 100

    def test_remainder_to_first_column(self):
        widths = [r.rect.width for r in eip_regions((301, 200), DETECTOR)[:3]]
        assert widths == [101, 100, 100]

    def test_exact_partition(self):
        w, h = 641, 479
        regions = eip_regions((w, h), DETECTOR)
        assert sum(area(r.rect) for r in regions) == w * h
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert intersect(a.rect, b.rect) is None

    @given(st.integers(6, 4000), st.integers(4, 3000))
    @settings(max_examples=100)
    def test_partition_property(self, w, h):
        regions = eip_regions((w, h), DETECTOR)
        assert len(regions) == 6
        assert sum(area(r.rect) for r in regions) == w * h
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert intersect(a.rect, b.rect) is None
