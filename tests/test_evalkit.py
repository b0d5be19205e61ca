import numpy as np
import pytest

from focalpipe.boxgeom import Box, ScoredBox
from focalpipe.evalkit import (
    EvalReport,
    GtAnnotation,
    coco_eval,
    precision_recall_points,
    report_table,
    voc_ap_at,
)

from reference_eval import reference_coco, reference_voc


def random_micro_dataset(seed, n_images=5, n_classes=3, with_ignore=True):
    """Small random dataset as plain tuples for the reference evaluator."""
    rng = np.random.default_rng(seed)
    gts = {}
    dets = {}
    for i in range(n_images):
        image_id = f"img{i}"
        gt_rows = []
        det_rows = []
        for _ in range(int(rng.integers(1, 8))):
            x, y = rng.uniform(0, 400, 2)
            w, h = rng.uniform(5, 120, 2)
            cls = int(rng.integers(1, n_classes + 1))
            ignore = bool(with_ignore and rng.uniform() < 0.15)
            gt_rows.append(((x, y, x + w, y + h), cls, ignore))
            # a noisy detection of this gt, sometimes missing
            if rng.uniform() < 0.8:
                dx, dy = rng.normal(0, 8, 2)
                det_rows.append(
                    ((x + dx, y + dy, x + w + dx, y + h + dy), cls, float(rng.uniform(0.1, 1)))
                )
        for _ in range(int(rng.integers(0, 4))):  # false positives
            x, y = rng.uniform(0, 400, 2)
            w, h = rng.uniform(5, 80, 2)
            det_rows.append(
                ((x, y, x + w, y + h), int(rng.integers(1, n_classes + 1)), float(rng.uniform(0, 1)))
            )
        gts[image_id] = gt_rows
        dets[image_id] = det_rows
    return dets, gts


def to_production(dets, gts):
    prod_dets = {
        k: [ScoredBox(Box(*b), c, s) for b, c, s in v] for k, v in dets.items()
    }
    prod_gts = {
        k: [GtAnnotation(Box(*b), c, ig) for b, c, ig in v] for k, v in gts.items()
    }
    return prod_dets, prod_gts


class TestCocoEval:
    def test_perfect_single_detection(self):
        gt = {"a": [GtAnnotation(Box(10, 10, 50, 50), 1)]}
        det = {"a": [ScoredBox(Box(10, 10, 50, 50), 1, 0.9)]}
        report = coco_eval(det, gt)
        assert report.ap == 100.0
        assert report.ap50 == 100.0
        assert report.per_class_ap50 == {1: 100.0}

    def test_iou_threshold_semantics(self):
        # IoU = 0.6: TP at 0.5, FP at 0.75
        gt = {"a": [GtAnnotation(Box(0, 0, 100, 100), 1)]}
        det = {"a": [ScoredBox(Box(0, 0, 100, 60), 1, 0.9)]}
        report = coco_eval(det, gt)
        assert report.ap50 == 100.0
        assert report.ap75 == 0.0

    def test_empty_everything(self):
        report = coco_eval({}, {})
        assert report.empty
        assert report.ap == 0.0

    def test_no_detections(self):
        gt = {"a": [GtAnnotation(Box(0, 0, 10, 10), 1)]}
        report = coco_eval({}, gt)
        assert not report.empty
        assert report.ap50 == 0.0

    def test_unknown_class_rejected(self):
        gt = {"a": [GtAnnotation(Box(0, 0, 10, 10), 1)]}
        det = {"a": [ScoredBox(Box(0, 0, 10, 10), 9, 0.9)]}
        with pytest.raises(ValueError, match="unknown class"):
            coco_eval(det, gt)

    def test_ignore_region_absorbs_without_penalty(self):
        gt = {
            "a": [
                GtAnnotation(Box(0, 0, 50, 50), 1),
                GtAnnotation(Box(200, 200, 300, 300), 1, ignore=True),
            ]
        }
        det = {
            "a": [
                ScoredBox(Box(0, 0, 50, 50), 1, 0.9),
                ScoredBox(Box(200, 200, 300, 300), 1, 0.8),  # inside ignore region
            ]
        }
        assert coco_eval(det, gt).ap50 == 100.0

    def test_size_buckets(self):
        gt = {
            "a": [
                GtAnnotation(Box(0, 0, 10, 10), 1),  # small: 100 px
                GtAnnotation(Box(100, 100, 250, 250), 1),  # large: 22500 px
            ]
        }
        det = {"a": [ScoredBox(Box(0, 0, 10, 10), 1, 0.9)]}
        report = coco_eval(det, gt)
        assert report.ap_small == 100.0
        assert report.ap_large == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference(self, seed):
        dets, gts = random_micro_dataset(seed)
        prod_dets, prod_gts = to_production(dets, gts)
        got = coco_eval(prod_dets, prod_gts)
        want = reference_coco(dets, gts)
        for key in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            assert getattr(got, key) == pytest.approx(want[key], abs=1e-6), key
        assert got.per_class_ap50 == pytest.approx(want["per_class_ap50"], abs=1e-6)


class TestMetricProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_threshold_monotonicity(self, seed):
        dets, gts = random_micro_dataset(seed + 100)
        prod_dets, prod_gts = to_production(dets, gts)
        report = coco_eval(prod_dets, prod_gts)
        assert report.ap50 >= report.ap75
        assert report.ap50 >= report.ap
        for v in (report.ap, report.ap50, report.ap75):
            assert 0.0 <= v <= 100.0

    def test_duplicate_lower_scored_detection_never_helps(self):
        dets, gts = random_micro_dataset(7)
        prod_dets, prod_gts = to_production(dets, gts)
        base = coco_eval(prod_dets, prod_gts)
        image_id = next(k for k, v in prod_dets.items() if v)
        d0 = prod_dets[image_id][0]
        dup = ScoredBox(d0.box, d0.class_id, max(0.0, d0.score - 0.05))
        augmented = dict(prod_dets)
        augmented[image_id] = list(prod_dets[image_id]) + [dup]
        dup_report = coco_eval(augmented, prod_gts)
        for key in ("ap", "ap50", "ap75"):
            assert getattr(dup_report, key) <= getattr(base, key) + 1e-9

    def test_removing_false_positive_never_hurts(self):
        gts = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
        dets = {
            "a": [
                ScoredBox(Box(0, 0, 50, 50), 1, 0.8),
                ScoredBox(Box(300, 300, 350, 350), 1, 0.9),  # clear FP
            ]
        }
        with_fp = coco_eval(dets, gts)
        without_fp = coco_eval({"a": dets["a"][:1]}, gts)
        assert without_fp.ap50 >= with_fp.ap50


class TestVocAp:
    def test_perfect(self):
        gt = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
        det = {"a": [ScoredBox(Box(0, 0, 50, 50), 1, 0.9)]}
        assert voc_ap_at(det, gt, 0.7) == 100.0

    def test_no_detections(self):
        gt = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
        assert voc_ap_at({}, gt, 0.7) == 0.0

    def test_classes_merged(self):
        # wrong class but perfect geometry still counts once merged
        gt = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
        det = {"a": [ScoredBox(Box(0, 0, 50, 50), 2, 0.9)]}
        assert voc_ap_at(det, gt, 0.7) == 100.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference(self, seed):
        dets, gts = random_micro_dataset(seed + 500)
        prod_dets, prod_gts = to_production(dets, gts)
        got = voc_ap_at(prod_dets, prod_gts, 0.7)
        want = reference_voc(dets, gts, 0.7)
        assert got == pytest.approx(want, abs=1e-6)


class TestOutputs:
    def test_report_table_contains_metrics(self):
        report = EvalReport(50.0, 70.0, 45.0, 30.0, 55.0, 60.0, {1: 70.0})
        table = report_table(report, class_names={1: "pedestrian"})
        assert "70.00" in table
        assert "pedestrian" in table

    def test_precision_recall_points(self):
        gt = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
        det = {
            "a": [
                ScoredBox(Box(0, 0, 50, 50), 1, 0.9),
                ScoredBox(Box(200, 200, 240, 240), 1, 0.4),
            ]
        }
        points = precision_recall_points(det, gt)
        assert points[0] == (1, 0.9, 1.0, 1.0)
        assert points[1] == (1, 0.4, 0.5, 1.0)
