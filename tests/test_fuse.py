import sys
import traceback
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe import boxgeom, evalkit, fuse, pipeline, scenes
from focalpipe.boxgeom import Box, ScoredBox, apply_map, intersect, iou
from focalpipe.config import PipelineConfig
from focalpipe.evalkit import GtAnnotation
from focalpipe.focal import regions_from_clusters
from focalpipe.fuse import (
    FuseConfig,
    RegionDetections,
    ibs,
    ingest_detections,
    merge_both,
    merge_pipeline,
    nms,
    nms_indices,
    remap_to_image,
)
from focalpipe.scenes import OracleSpec, SceneSpec

from reference_records import records_built


def region_at(rect, region_id=0, detector_size=None, image=(2000, 2000)):
    """The region of `rect` alone; without a detector size, its map is the identity."""
    r = regions_from_clusters([rect], [0], image, detector_size or (rect.width, rect.height),
                              margin=0)[0]
    return type(r)(rect=r.rect, region_id=region_id, image_id=r.image_id, to_detector=r.to_detector)


def reference_nms(boxes, iou_threshold, per_class=True):
    """Exhaustive O(n^2) NMS over explicitly ranked boxes."""
    ranked = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    for i in ranked:
        ok = True
        for j in kept:
            same_class = boxes[j].class_id == boxes[i].class_id
            if (not per_class or same_class) and iou(boxes[j].box, boxes[i].box) > iou_threshold:
                ok = False
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


def reference_ibs(per_region, cfg):
    """Scalar IBS: every detection against every clipped competitor, one `iou`
    call per pair. Inputs are assumed to lie in their regions."""
    overlapping = {}
    for i, rd_i in enumerate(per_region):
        overlapping[i] = [
            k
            for k, rd_k in enumerate(per_region)
            if k != i and iou(rd_i.region.rect, rd_k.region.rect) > cfg.ibs_region_iou
        ]

    survivors = []
    for i, rd_i in enumerate(per_region):
        competitors = []  # clip, class, score, region
        for k in overlapping[i]:
            for d in per_region[k].detections:
                clipped = intersect(d.box, rd_i.region.rect)
                if clipped is not None:
                    competitors.append((clipped, d.class_id, d.score, k))

        for d in rd_i.detections:
            suppressed = False
            for c_box, c_class, c_score, c_region in competitors:
                if cfg.per_class and c_class != d.class_id:
                    continue
                outranks = c_score > d.score or (c_score == d.score and c_region < i)
                if outranks and iou(c_box, d.box) > cfg.ibs_box_iou:
                    suppressed = True
                    break
            if not suppressed:
                survivors.append(d)
    return survivors


# few distinct scores, so equal scores are common
LATTICE_SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])


@st.composite
def lattice_detections(draw, frame=(0, 0, 14, 14), max_size=40):
    """Integer boxes inside `frame` (exact IoU ties at 0.5 occur), one to three
    classes, and a few exact duplicates."""
    fx1, fy1, fx2, fy2 = frame
    n_classes = draw(st.integers(1, 3))
    corner = st.tuples(st.integers(fx1, fx2), st.integers(fy1, fy2))
    raw = draw(st.lists(
        st.tuples(corner, corner, st.integers(0, n_classes - 1), LATTICE_SCORES),
        max_size=max_size,
    ))
    dets = [
        ScoredBox(Box(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)), c, s)
        for (ax, ay), (bx, by), c, s in raw
    ]
    if dets:
        # equal, but distinct objects, so the tests can tell which copy survived
        copies = draw(st.lists(st.integers(0, len(dets) - 1), max_size=4))
        dets += [replace(dets[i]) for i in copies]
    return dets


@st.composite
def chain_detections(draw, max_size=24):
    """Shifted copies of one integer box along x or y, each at IoU above 0.5 with
    the next and at most 0.5 with the one after, with lattice scores and one to
    three classes: which copies survive depends on the greedy order along the chain."""
    length, thickness = draw(st.integers(6, 30)), draw(st.integers(1, 10))
    # (length - step) / (length + step) > 0.5 and (length - 2 step) / (length + 2 step) <= 0.5
    step = draw(st.integers(-(-length // 6), (length - 1) // 3))
    n_classes = draw(st.integers(1, 3))
    links = draw(st.lists(st.tuples(st.integers(0, n_classes - 1), LATTICE_SCORES),
                          max_size=max_size))
    vertical = draw(st.booleans())
    dets = []
    for i, (c, s) in enumerate(links):
        x1, y1, x2, y2 = i * step, 0, i * step + length, thickness
        box = Box(y1, x1, y2, x2) if vertical else Box(x1, y1, x2, y2)
        dets.append(ScoredBox(box, c, s))
    return dets


@st.composite
def lattice_regions(draw):
    """One to five regions on a lattice; any may be empty, and any may sit far
    from the rest, with no overlapping neighbour."""
    per_region = []
    for region_id in range(draw(st.integers(1, 5))):
        x, y = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        x += 1000 * draw(st.booleans())
        w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
        region = region_at(Box(x, y, x + w, y + h), region_id=region_id)
        dets = draw(lattice_detections(frame=(x, y, x + w, y + h), max_size=12))
        per_region.append(RegionDetections(region, dets))
    return per_region


@st.composite
def mapped_regions(draw):
    """Like `lattice_regions`, but each region maps onto a detector frame of its
    own size times a per-axis factor, and detections lie in that frame."""
    per_region = []
    for region_id in range(draw(st.integers(1, 5))):
        x, y = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        x += 1000 * draw(st.booleans())
        w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
        fx, fy = draw(st.tuples(*[st.sampled_from([0.5, 1.0, 1.5, 2.3, 3.0])] * 2))
        region = region_at(Box(x, y, x + w, y + h), region_id, detector_size=(w * fx, h * fy))
        frame = (0, 0, int(w * fx), int(h * fy))
        per_region.append(RegionDetections(region, draw(lattice_detections(frame, max_size=12))))
    return per_region


def reference_merge(per_region, cfg):
    """Scalar composition of the merge: `apply_map` per box, `reference_nms`,
    then `reference_ibs` on the survivors. Returns the survivors with IBS and
    without, each by descending score, ties in input order."""
    remapped = [
        RegionDetections(rd.region, [
            ScoredBox(apply_map(d.box, rd.region.to_detector.invert()), d.class_id, d.score)
            for d in rd.detections
        ])
        for rd in per_region
    ]
    flat = [d for rd in remapped for d in rd.detections]
    kept = {id(d) for d in reference_nms(flat, cfg.nms_iou, cfg.per_class)}
    after_nms = [RegionDetections(rd.region, [d for d in rd.detections if id(d) in kept])
                 for rd in remapped]

    def by_score(dets):
        return sorted(dets, key=lambda d: -d.score)

    return (by_score(reference_ibs(after_nms, cfg)),
            by_score([d for rd in after_nms for d in rd.detections]))


def columns(boxes):
    """`nms_indices` input for a list of detections: boxes (n, 4), classes, scores."""
    return (np.array([d.box.as_tuple() for d in boxes], dtype=np.float64).reshape(-1, 4),
            np.array([d.class_id for d in boxes]), np.array([d.score for d in boxes]))


def random_scored_boxes(rng, n, span=400.0):
    out = []
    for _ in range(n):
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        w = rng.uniform(1, 60)
        h = rng.uniform(1, 60)
        out.append(
            ScoredBox(
                box=Box(x, y, x + w, y + h),
                class_id=int(rng.integers(0, 3)),
                score=float(rng.uniform(0, 1)),
            )
        )
    return out


class TestNms:
    def test_duplicate_keeps_highest(self):
        b = Box(0, 0, 10, 10)
        survivors = nms([ScoredBox(b, 0, 0.9), ScoredBox(b, 0, 0.8)], 0.5)
        assert survivors == [ScoredBox(b, 0, 0.9)]

    def test_disjoint_all_survive(self):
        boxes = [
            ScoredBox(Box(0, 0, 10, 10), 0, 0.5),
            ScoredBox(Box(100, 100, 110, 110), 0, 0.4),
        ]
        assert len(nms(boxes, 0.5)) == 2

    def test_per_class_isolation(self):
        b = Box(0, 0, 10, 10)
        boxes = [ScoredBox(b, 0, 0.9), ScoredBox(b, 1, 0.8)]
        assert len(nms(boxes, 0.5, per_class=True)) == 2
        assert len(nms(boxes, 0.5, per_class=False)) == 1

    def test_tie_broken_by_input_index(self):
        b = Box(0, 0, 10, 10)
        boxes = [ScoredBox(b, 0, 0.7), ScoredBox(b, 0, 0.7)]
        assert nms(boxes, 0.5) == [boxes[0]]
        assert nms_indices(*columns(boxes), 0.5) == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_reference(self, seed):
        rng = np.random.default_rng(seed)
        boxes = random_scored_boxes(rng, 200)
        assert nms(boxes, 0.5) == reference_nms(boxes, 0.5)

    def test_subset_and_no_overlapping_survivors(self):
        rng = np.random.default_rng(99)
        boxes = random_scored_boxes(rng, 150)
        survivors = nms(boxes, 0.5)
        assert all(s in boxes for s in survivors)
        for i, a in enumerate(survivors):
            for b in survivors[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.5

    def test_top_scorer_always_survives(self):
        rng = np.random.default_rng(5)
        boxes = random_scored_boxes(rng, 80)
        survivors = nms(boxes, 0.5)
        for c in {b.class_id for b in boxes}:
            top = max((b for b in boxes if b.class_id == c), key=lambda b: b.score)
            assert top in survivors

    @settings(max_examples=300, deadline=None)
    @given(
        boxes=st.one_of(lattice_detections(), chain_detections()),
        threshold=st.sampled_from([0.0, 0.5, 1.0]),
        per_class=st.booleans(),
    )
    def test_equals_reference_on_lattice_boxes(self, boxes, threshold, per_class):
        expected = reference_nms(boxes, threshold, per_class)
        kept = nms_indices(*columns(boxes), threshold, per_class)
        assert [boxes[i] for i in kept] == expected
        # the same boxes, not just equal ones: duplicates must keep the earlier index
        assert [id(boxes[i]) for i in kept] == [id(b) for b in expected]

    def test_duplicate_group(self):
        # 2,000 copies of one box: about 2M overlapping pairs, a budget's worth per kernel
        # call, and the first copy suppresses all the others
        boxes = [ScoredBox(Box(0, 0, 4, 4), 0, 0.5) for _ in range(2000)]
        with mock.patch.object(boxgeom, "_overlap_iou", wraps=boxgeom._overlap_iou) as kernel:
            kept = nms_indices(*columns(boxes), 0.5)
        assert [id(boxes[i]) for i in kept] == [id(b) for b in reference_nms(boxes, 0.5)]
        assert kept == [0]
        assert max(len(call.args[0]) for call in kernel.call_args_list) <= boxgeom.PAIR_BUDGET
        assert nms_indices(*columns(boxes), 1.0) == list(range(2000))

    def test_chain(self):
        # each box overlaps the next at IoU 7/13 > 0.5 and the one after at 1/4, scores fall
        # along the chain, so every other box survives; one kernel call, not one per box
        boxes = [ScoredBox(Box(3 * k, 0, 3 * k + 10, 10), 0, 1 - k / 2000) for k in range(2000)]
        with mock.patch.object(boxgeom, "_overlap_iou", wraps=boxgeom._overlap_iou) as kernel:
            kept = nms_indices(*columns(boxes), 0.5)
        assert [id(boxes[i]) for i in kept] == [id(b) for b in reference_nms(boxes, 0.5)]
        assert kept == list(range(0, 2000, 2))
        assert kernel.call_count == 1


def overlapping_pairs(boxes, classes):
    """Brute force: the same-class pairs whose x- and y-intervals overlap."""
    count = 0
    for c in set(classes.tolist()):
        b = boxes[classes == c]
        x, y = (np.maximum(b[:, None, lo], b[None, :, lo])
                < np.minimum(b[:, None, hi], b[None, :, hi]) for lo, hi in ((0, 2), (1, 3)))
        count += int(np.triu(x & y, 1).sum())
    return count


def detector_sized_scene():
    """Image-space columns of one detector-sized image: 12 oracle replicas with independent
    jitter, plus false positives, over the regions of a 1600 x 1200 scene."""
    config = PipelineConfig()
    scene = scenes.generate_scene(SceneSpec(image_size=(1600, 1200), n_clusters=8,
                                            boxes_per_cluster=(25, 32), rng_seed=5))
    gts = [GtAnnotation(b, c) for b, c in scene.annotations]
    regions = pipeline.regions_for_image(gts, scene.image_size, config, seed=5)
    crops = pipeline.refine_image(regions, gts, config)
    per_region = [RegionDetections(c.region) for c in crops]
    for r in range(12):
        oracle = OracleSpec(rng_seed=500 + r, false_positive_rate=15.0)
        for rd, crop in zip(per_region, crops):
            rd.detections.extend(scenes.oracle_detect(crop, oracle).detections)
    regions, boxes, classes, scores, index = fuse._flat(per_region)
    return fuse._remap(regions, boxes, index), classes, scores


def kernel_pairs(boxes, classes, scores, threshold):
    """The pairs NMS at `threshold` hands the IoU kernel."""
    with mock.patch.object(boxgeom, "_overlap_iou", wraps=boxgeom._overlap_iou) as kernel:
        nms_indices(boxes, classes, scores, threshold)
    return sum(len(call.args[0]) for call in kernel.call_args_list)


class TestNmsScaling:
    def test_kernel_scores_only_overlapping_pairs(self):
        """A count, not a timing: on a detector-sized image NMS hands the IoU kernel no more
        pairs than overlap, where an all-pairs scan would hand it several times as many."""
        boxes, classes, scores = detector_sized_scene()
        assert len(boxes) > 3000
        scored = kernel_pairs(boxes, classes, scores, 0.0)
        overlapping = overlapping_pairs(boxes, classes)
        assert 0 < scored <= overlapping < len(boxes) ** 2 / 20

    def test_threshold_prunes_kernel_pairs(self):
        """A count, not a timing: at 0.5, NMS hands the kernel at most 60 % of the
        overlapping pairs, since a pair whose overlap on either axis is at most half the
        longer side on that axis cannot pass."""
        boxes, classes, scores = detector_sized_scene()
        assert 0 < kernel_pairs(boxes, classes, scores, 0.5) <= 0.6 * overlapping_pairs(boxes,
                                                                                        classes)


class TestRemap:
    def test_identity_region_unchanged(self):
        region = region_at(Box(0, 0, 500, 400))
        det = ScoredBox(Box(10, 10, 50, 50), 0, 0.9)
        assert remap_to_image(RegionDetections(region, [det])) == [det]

    def test_inverse_affine(self):
        region = region_at(Box(100, 100, 600, 350), detector_size=(1000, 500))
        det = ScoredBox(Box(0, 0, 1000, 500), 0, 0.9)
        [out] = remap_to_image(RegionDetections(region, [det]))
        assert out.box.as_tuple() == pytest.approx((100, 100, 600, 350), abs=1e-9)

    def test_round_trip(self):
        region = region_at(Box(37, 11, 612, 489), detector_size=(1000, 600))
        rng = np.random.default_rng(0)
        dets = random_scored_boxes(rng, 20, span=500)
        remapped = remap_to_image(RegionDetections(region, dets))
        for orig, back in zip(dets, remapped):
            from focalpipe.boxgeom import apply_map

            fwd = apply_map(back.box, region.to_detector)
            assert fwd.as_tuple() == pytest.approx(orig.box.as_tuple(), abs=1e-9)


class TestIngest:
    def test_clamps_to_detector_frame(self):
        region = region_at(Box(0, 0, 100, 100), detector_size=(100, 100))
        rd = ingest_detections(region, [ScoredBox(Box(90, 90, 130, 120), 0, 0.5)])
        assert rd.detections[0].box == Box(90, 90, 100, 100)

    def test_drops_fully_outside(self):
        region = region_at(Box(0, 0, 100, 100), detector_size=(100, 100))
        rd = ingest_detections(region, [ScoredBox(Box(200, 200, 210, 210), 0, 0.5)])
        assert rd.detections == []


def fig5_scenario():
    """Two overlapping regions; one complete box, one truncated duplicate.

    The truncated pair's direct IoU is below 0.5 so NMS keeps both, but the
    complete box clipped into the second region overlaps the truncated one
    almost entirely.
    """
    region_a = region_at(Box(0, 0, 300, 200), region_id=0)
    region_b = region_at(Box(250, 0, 550, 200), region_id=1)
    complete = ScoredBox(Box(200, 50, 300, 150), class_id=0, score=0.9)
    truncated = ScoredBox(Box(250, 52, 300, 148), class_id=0, score=0.6)
    assert iou(complete.box, truncated.box) < 0.5
    return region_a, region_b, complete, truncated


class TestIbs:
    def test_single_region_identity(self):
        region = region_at(Box(0, 0, 100, 100))
        dets = [ScoredBox(Box(10, 10, 20, 20), 0, 0.5)]
        assert ibs([RegionDetections(region, dets)], FuseConfig()) == dets

    def test_fig5_truncated_suppressed(self):
        region_a, region_b, complete, truncated = fig5_scenario()
        out = ibs(
            [RegionDetections(region_a, [complete]), RegionDetections(region_b, [truncated])],
            FuseConfig(),
        )
        assert out == [complete]

    def test_nms_alone_fails_on_fig5(self):
        _, _, complete, truncated = fig5_scenario()
        assert len(nms([complete, truncated], 0.5)) == 2

    def test_disjoint_regions_no_suppression(self):
        region_a = region_at(Box(0, 0, 100, 100), region_id=0)
        region_b = region_at(Box(500, 0, 600, 100), region_id=1)
        a = ScoredBox(Box(10, 10, 50, 50), 0, 0.9)
        b = ScoredBox(Box(510, 10, 550, 50), 0, 0.1)
        out = ibs(
            [RegionDetections(region_a, [a]), RegionDetections(region_b, [b])],
            FuseConfig(),
        )
        assert sorted(out, key=lambda d: d.score) == [b, a]

    def test_class_aware_by_default(self):
        region_a, region_b, complete, truncated = fig5_scenario()
        other_class = ScoredBox(truncated.box, class_id=1, score=truncated.score)
        out = ibs(
            [RegionDetections(region_a, [complete]), RegionDetections(region_b, [other_class])],
            FuseConfig(),
        )
        assert len(out) == 2
        out = ibs(
            [RegionDetections(region_a, [complete]), RegionDetections(region_b, [other_class])],
            FuseConfig(per_class=False),
        )
        assert out == [complete]

    def test_equal_scores_keep_one(self):
        region_a, region_b, complete, truncated = fig5_scenario()
        # same-score mutual overlap entirely inside both regions
        box = Box(260, 60, 295, 140)
        d1 = ScoredBox(box, 0, 0.7)
        d2 = ScoredBox(box, 0, 0.7)
        out = ibs(
            [RegionDetections(region_a, [d1]), RegionDetections(region_b, [d2])],
            FuseConfig(),
        )
        assert out == [d1]
        assert out[0] is d1  # the lower-indexed region's box, not its equal twin

    @pytest.mark.parametrize("n_regions", [1, 2, 5, 9])
    def test_one_sweep_per_merge(self, n_regions):
        # one `overlap_pairs` call, not one per region, whatever the region count
        rng = np.random.default_rng(n_regions)
        per_region = []
        for k in range(n_regions):
            rect = Box(100 * k, 0, 100 * k + 300, 300)
            dets = [ScoredBox(d.box.translate(rect.x1, 0), d.class_id, d.score)
                    for d in random_scored_boxes(rng, 20, span=240)]
            per_region.append(RegionDetections(region_at(rect, region_id=k), dets))
        with mock.patch.object(fuse, "overlap_pairs", wraps=fuse.overlap_pairs) as sweep:
            out = ibs(per_region, FuseConfig())
        assert [id(d) for d in out] == [id(d) for d in reference_ibs(per_region, FuseConfig())]
        assert sweep.call_count == 1

    def test_class_ids_near_int64_limit(self):
        # ids 2^62 apart: as `class * 4 + region` over 4 regions, int64 wraps them to one group
        rng = np.random.default_rng(23)
        classes = [2**63 - 1, 2**62 - 1, 2**63 - 2]
        per_region = []
        for k, (x, y) in enumerate([(0, 0), (150, 0), (0, 150), (150, 150)]):
            rect = Box(x, y, x + 300, y + 300)
            dets = [ScoredBox(d.box.translate(x, y), classes[d.class_id], d.score)
                    for d in random_scored_boxes(rng, 60, span=240)]
            per_region.append(RegionDetections(region_at(rect, region_id=k), dets))
        for per_class in (True, False):
            cfg = FuseConfig(per_class=per_class)
            out = ibs(per_region, cfg)
            assert [id(d) for d in out] == [id(d) for d in reference_ibs(per_region, cfg)]
        assert ibs(per_region, FuseConfig()) != ibs(per_region, FuseConfig(per_class=False))

    def test_detection_outside_region_rejected(self):
        region = region_at(Box(0, 0, 100, 100))
        bad = ScoredBox(Box(150, 150, 180, 180), 0, 0.5)
        with pytest.raises(ValueError, match="outside region"):
            ibs([RegionDetections(region, [bad])], FuseConfig())

    def test_never_suppresses_global_top_scorer(self):
        rng = np.random.default_rng(17)
        region_a = region_at(Box(0, 0, 300, 300), region_id=0)
        region_b = region_at(Box(200, 0, 500, 300), region_id=1)
        dets_a = [d for d in random_scored_boxes(rng, 30, span=240)]
        dets_b = [
            ScoredBox(d.box.translate(200, 0), d.class_id, d.score)
            for d in random_scored_boxes(rng, 30, span=240)
        ]
        out = ibs(
            [RegionDetections(region_a, dets_a), RegionDetections(region_b, dets_b)],
            FuseConfig(),
        )
        everything = dets_a + dets_b
        for c in {d.class_id for d in everything}:
            top = max((d for d in everything if d.class_id == c), key=lambda d: d.score)
            assert top in out

    @settings(max_examples=300, deadline=None)
    @given(
        per_region=lattice_regions(),
        region_iou=st.sampled_from([0.0, 0.05, 0.5]),
        box_iou=st.sampled_from([0.0, 0.5, 1.0]),
        per_class=st.booleans(),
    )
    def test_equals_reference_on_lattice_regions(self, per_region, region_iou, box_iou,
                                                 per_class):
        cfg = FuseConfig(ibs_region_iou=region_iou, ibs_box_iou=box_iou, per_class=per_class)
        out = ibs(per_region, cfg)
        expected = reference_ibs(per_region, cfg)
        assert [id(d) for d in out] == [id(d) for d in expected]

    def test_empty_and_isolated_regions(self):
        region_a, region_b, complete, truncated = fig5_scenario()
        empty = region_at(Box(100, 0, 400, 200), region_id=2)
        isolated = region_at(Box(1000, 1000, 1100, 1100), region_id=3)
        lone = ScoredBox(Box(1010, 1010, 1050, 1050), 0, 0.1)
        per_region = [
            RegionDetections(region_a, [complete]),
            RegionDetections(region_b, [truncated]),
            RegionDetections(empty, []),
            RegionDetections(isolated, [lone]),
        ]
        assert ibs(per_region, FuseConfig()) == reference_ibs(per_region, FuseConfig())
        assert ibs(per_region, FuseConfig()) == [complete, lone]

    def test_region_overlap_must_exceed_threshold(self):
        # the two rects' IoU is exactly 0.5
        region_a = region_at(Box(0, 0, 20, 10), region_id=0)
        region_b = region_at(Box(0, 0, 10, 10), region_id=1)
        high = ScoredBox(Box(2, 2, 8, 8), 0, 0.9)
        low = ScoredBox(Box(2, 2, 8, 8), 0, 0.5)
        per_region = [RegionDetections(region_a, [high]), RegionDetections(region_b, [low])]
        assert ibs(per_region, FuseConfig(ibs_region_iou=0.5)) == [high, low]
        assert ibs(per_region, FuseConfig(ibs_region_iou=0.49)) == [high]


class TestOneIouKernel:
    def test_run_path_never_calls_scalar_iou(self, monkeypatch):
        """Merge and evaluation score box pairs with one array IoU core,
        `boxgeom._overlap_iou`: NMS, IBS and evaluation reach it through the sweep, which
        scores IoU from the overlaps it tested and never calls `pairwise_iou`; region rects go
        through `pairwise_iou`, which calls the same core. The scalar `iou` is never called."""

        def scalar_iou(a, b):
            raise AssertionError("scalar iou called in the run path")

        callers = {"_overlap_iou": [], "pairwise_iou": []}  # the functions on the stack, per call

        def recording(name):
            kernel = getattr(boxgeom, name)

            def record(*args):
                callers[name].append({frame.name for frame in traceback.extract_stack()})
                return kernel(*args)
            return record

        # every binding of the scalar `iou` and of `pairwise_iou` in the package
        originals = {"iou": boxgeom.iou, "pairwise_iou": boxgeom.pairwise_iou}
        replacements = {"iou": scalar_iou, "pairwise_iou": recording("pairwise_iou")}
        for name, module in list(sys.modules.items()):
            for attr, original in originals.items():
                if name.startswith("focalpipe") and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, replacements[attr])
        assert fuse.iou is scalar_iou and evalkit.iou is scalar_iou
        assert fuse.pairwise_iou is replacements["pairwise_iou"]
        monkeypatch.setattr(boxgeom, "_overlap_iou", recording("_overlap_iou"))
        spec = SceneSpec(n_clusters=3, boxes_per_cluster=(8, 8), rng_seed=4)
        run = pipeline.run_scene(spec, OracleSpec(rng_seed=4))
        assert run.merged and run.merged_no_ibs
        pipeline.evaluate_runs([run], use_ibs=True)
        pipeline.evaluate_runs([run], use_ibs=False)
        evalkit.voc_ap_at({"x": run.merged}, {"x": run.annotations})
        sweeps = [stack for stack in callers["_overlap_iou"] if "overlap_pairs" in stack]
        for caller in ("nms_indices", "_ibs_keep", "coco_eval", "voc_ap_at"):
            assert any(caller in stack for stack in sweeps), caller
        assert callers["pairwise_iou"]  # the region rects of IBS
        assert all("overlap_pairs" not in stack for stack in callers["pairwise_iou"])
        from_pairwise = [stack for stack in callers["_overlap_iou"] if "pairwise_iou" in stack]
        assert len(from_pairwise) == len(callers["pairwise_iou"])
        assert len(callers["_overlap_iou"]) == len(sweeps) + len(from_pairwise)


class TestMergePipeline:
    def test_empty(self):
        assert merge_pipeline([], FuseConfig()) == []

    def test_single_region_equals_nms(self):
        region = region_at(Box(0, 0, 400, 400))
        rng = np.random.default_rng(3)
        dets = random_scored_boxes(rng, 60, span=340)
        rd = RegionDetections(region, dets)
        merged = merge_pipeline([rd], FuseConfig())
        assert sorted(merged, key=lambda d: -d.score) == sorted(
            nms(dets, 0.5), key=lambda d: -d.score
        )

    def test_fig5_end_to_end(self):
        # merge_pipeline takes detector-frame input; both regions use their
        # own rect size as detector resolution, so detector = crop coords
        region_a, region_b, complete, truncated = fig5_scenario()
        in_a = RegionDetections(region_a, [complete])  # region a starts at origin
        in_b = RegionDetections(
            region_b, [ScoredBox(truncated.box.translate(-250, 0), 0, truncated.score)]
        )
        merged = merge_pipeline([in_a, in_b], FuseConfig())
        assert len(merged) == 1
        assert merged[0].score == complete.score
        assert merged[0].box.as_tuple() == pytest.approx(complete.box.as_tuple(), abs=1e-9)
        without = merge_pipeline([in_a, in_b], FuseConfig(), apply_ibs=False)
        assert len(without) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        region_a = region_at(Box(0, 0, 300, 300), region_id=0)
        region_b = region_at(Box(250, 0, 550, 300), region_id=1)
        dets_a = random_scored_boxes(rng, 40, span=240)
        dets_b = random_scored_boxes(rng, 40, span=240)
        args = [RegionDetections(region_a, dets_a), RegionDetections(region_b, dets_b)]
        assert merge_pipeline(args, FuseConfig()) == merge_pipeline(args, FuseConfig())

    @settings(max_examples=200, deadline=None)
    @given(
        per_region=mapped_regions(),
        nms_iou=st.sampled_from([0.0, 0.5, 1.0]),
        box_iou=st.sampled_from([0.0, 0.5, 1.0]),
        per_class=st.booleans(),
    )
    def test_equals_scalar_composition(self, per_region, nms_iou, box_iou, per_class):
        cfg = FuseConfig(nms_iou=nms_iou, ibs_box_iou=box_iou, per_class=per_class)
        with_ibs, without_ibs = reference_merge(per_region, cfg)
        assert merge_both(per_region, cfg) == (with_ibs, without_ibs)
        assert merge_pipeline(per_region, cfg) == with_ibs
        assert merge_pipeline(per_region, cfg, apply_ibs=False) == without_ibs


class TestRecordsBuilt:
    def test_merge_builds_one_record_per_result_and_evaluation_none(self):
        run = pipeline.run_scene(SceneSpec(rng_seed=6), OracleSpec(rng_seed=6))
        with records_built() as built:
            merged, plain = merge_both(run.region_detections)
        assert built[ScoredBox] == merged + plain
        assert built[Box] == [d.box for d in merged + plain]
        with records_built() as built:
            evalkit.coco_eval({"x": merged}, {"x": run.annotations})
            evalkit.voc_ap_at({"x": merged}, {"x": run.annotations})
        assert built == {Box: [], ScoredBox: []}


class TestOneMergePass:
    def test_run_image_remaps_and_runs_nms_once(self, monkeypatch):
        calls = []
        original = fuse.nms_indices

        def counted(boxes, *args, **kwargs):
            calls.append(len(boxes))
            return original(boxes, *args, **kwargs)

        monkeypatch.setattr(fuse, "nms_indices", counted)
        spec = SceneSpec(n_clusters=3, boxes_per_cluster=(8, 8), rng_seed=4)
        run = pipeline.run_scene(spec, OracleSpec(rng_seed=4))
        assert calls == [sum(len(rd.detections) for rd in run.region_detections)]
        assert run.merged and run.merged_no_ibs
        assert run.merged == merge_pipeline(run.region_detections)
        assert run.merged_no_ibs == merge_pipeline(run.region_detections, apply_ibs=False)
