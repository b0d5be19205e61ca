import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe import boxgeom, evalkit
from focalpipe.boxgeom import Box, ScoredBox, area, iou
from focalpipe.evalkit import (
    EvalReport,
    GtAnnotation,
    coco_eval,
    precision_recall_points,
    report_table,
    voc_ap_at,
)
from focalpipe.pipeline import run_scene
from focalpipe.scenes import OracleSpec, SceneSpec

from reference_eval import ap_101_per_key, reference_coco, reference_voc
from test_scenes import DENSE_SPEC


def reference_match(dets, gts, keys, max_dets, class_key=lambda class_id: class_id):
    """Scalar stand-in for `evalkit._match`: per image and class, detections in
    descending score order, one scalar `iou` call per pair, and the greedy state of
    every key advanced one detection at a time. Inputs are assumed valid."""
    classes = sorted({class_key(g.class_id) for anns in gts.values() for g in anns})
    scores = {c: [] for c in classes}
    outcomes = {c: [[] for _ in keys] for c in classes}
    n_positive = {c: [0] * len(keys) for c in classes}
    for image_id in sorted(set(gts) | set(dets)):
        by_class = {}
        for g in gts.get(image_id, []):
            by_class.setdefault(class_key(g.class_id), ([], []))[1].append(g)
        for d in sorted(dets.get(image_id, []), key=lambda d: -d.score)[:max_dets]:
            by_class.setdefault(class_key(d.class_id), ([], []))[0].append(d)
        for c, (class_dets, class_gts) in by_class.items():
            scores[c] += [d.score for d in class_dets]
            states = []
            for k, (t, a) in enumerate(keys):
                lo, hi = evalkit.AREA_RANGES[a]
                ignore = [g.ignore or not (lo <= area(g.box) < hi) for g in class_gts]
                n_positive[c][k] += ignore.count(False)
                states.append((t, ignore, [False] * len(class_gts), lo, hi, outcomes[c][k]))
            min_thr = min(t for t, _ in keys)
            for d in class_dets:
                row = [iou(d.box, g.box) for g in class_gts]
                candidates = sorted(((v, j) for j, v in enumerate(row) if v >= min_thr),
                                    key=lambda p: (-p[0], p[1]))
                for t, ignore, matched, lo, hi, outcome in states:
                    take = absorb = -1
                    for v, j in candidates:
                        if v < t:
                            break
                        if matched[j]:
                            continue
                        if not ignore[j]:
                            take = j
                            break
                        if absorb < 0:
                            absorb = j
                    if take >= 0:
                        matched[take] = True
                        outcome.append(evalkit.TP)
                    elif absorb >= 0:
                        matched[absorb] = True
                        outcome.append(evalkit.UNCOUNTED)
                    elif lo <= area(d.box) < hi:
                        outcome.append(evalkit.FP)
                    else:
                        outcome.append(evalkit.UNCOUNTED)
    return {
        c: evalkit._ClassMatch(np.array(scores[c], dtype=np.float64),
                               np.array(outcomes[c], dtype=np.int8).reshape(len(keys), -1),
                               np.array(n_positive[c]))
        for c in classes
    }


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

    @pytest.mark.parametrize("offset", [1e6, 2.0**30])
    def test_iou_exactly_at_threshold_far_from_origin(self, offset):
        # IoU exactly 0.5 where a coordinate's ulp is far larger than the box's: still a TP
        # at the 0.5 key, which keeps IoU >= 0.5
        gt = {"a": [GtAnnotation(Box(offset, 0, offset + 1 / 32, 1), 1)]}
        det = {"a": [ScoredBox(Box(offset + 1 / 64, 0, offset + 1 / 32, 1), 1, 0.9)]}
        assert iou(det["a"][0].box, gt["a"][0].box) == 0.5
        assert coco_eval(det, gt).ap50 == 100.0

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

    @pytest.mark.parametrize("seed", range(10))
    def test_tied_scores_accumulate_in_pooled_order(self, seed):
        # scores on a 0.1 grid tie across images; the pooled order (images
        # sorted, then each image's score order) decides how they accumulate
        dets, gts = random_micro_dataset(seed + 900, n_images=12, n_classes=1)
        dets = {k: [(b, c, round(s, 1)) for b, c, s in v] for k, v in dets.items()}
        prod_dets, prod_gts = to_production(dets, gts)
        got = coco_eval(prod_dets, prod_gts)
        want = reference_coco(dets, gts)
        for key in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            assert getattr(got, key) == pytest.approx(want[key], abs=1e-6), key
        assert voc_ap_at(prod_dets, prod_gts, 0.7) == pytest.approx(
            reference_voc(dets, gts, 0.7), abs=1e-6)


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


class TestArgumentChecks:
    """The three evaluators share one set of argument checks."""

    gt = {"a": [GtAnnotation(Box(0, 0, 50, 50), 1)]}
    det = {"a": [ScoredBox(Box(0, 0, 50, 50), 1, 0.9)]}

    @pytest.mark.parametrize("evaluate", [coco_eval, voc_ap_at, precision_recall_points])
    @pytest.mark.parametrize("max_dets", [0, -1])
    def test_max_dets_below_one_rejected(self, evaluate, max_dets):
        with pytest.raises(ValueError, match="max_dets"):
            evaluate(self.det, self.gt, max_dets=max_dets)

    @pytest.mark.parametrize("evaluate", [voc_ap_at, precision_recall_points])
    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, math.nan])
    def test_iou_threshold_outside_unit_interval_rejected(self, evaluate, threshold):
        # at 0 or below every pair would be a candidate: a box 500 px from its
        # ground truth would score AP 100
        with pytest.raises(ValueError, match=r"IoU threshold must be in \(0, 1\]"):
            evaluate(self.det, self.gt, iou_threshold=threshold)

    @pytest.mark.parametrize("evaluate", [coco_eval, voc_ap_at, precision_recall_points])
    def test_unknown_class_message_names_the_detection_class(self, evaluate):
        det = {"a": [ScoredBox(Box(0, 0, 10, 10), 3, 0.9)]}
        # with no ground truth there is no class at all, even with classes merged
        with pytest.raises(ValueError, match="unknown class id 3 in detections for image 'a'"):
            evaluate(det, {})


class TestIouTies:
    def test_tie_goes_to_lower_gt_index(self):
        # the first detection overlaps A and B equally (IoU 1/3) and takes
        # whichever comes first; only A first leaves B for the exact second
        a = GtAnnotation(Box(0, 0, 10, 10), 1)
        b = GtAnnotation(Box(10, 0, 20, 10), 1)
        det = {"x": [ScoredBox(Box(5, 0, 15, 10), 1, 0.9), ScoredBox(Box(10, 0, 20, 10), 1, 0.8)]}
        assert voc_ap_at(det, {"x": [a, b]}, 0.3) == 100.0
        assert voc_ap_at(det, {"x": [b, a]}, 0.3) == 50.0


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


# few distinct scores, so equal scores across images are common
LATTICE_SCORES = st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def lattice_datasets(draw):
    """Up to three images of integer boxes on a 12 x 12 lattice (exact IoU ties,
    zero-area boxes), ignore flags, up to 40 detections per image so one class has
    many overlapping pairs, and in image 0 two detections of one ground truth at
    IoU 0.8 and 0.6: contested at the thresholds up to 0.6 only."""
    n_classes = draw(st.integers(1, 2))
    corner = st.tuples(st.integers(0, 12), st.integers(0, 12))
    box = st.builds(lambda a, b: Box(min(a[0], b[0]), min(a[1], b[1]),
                                     max(a[0], b[0]), max(a[1], b[1])), corner, corner)
    gts, dets = {}, {}
    for i in range(draw(st.integers(1, 3))):
        gts[f"img{i}"] = draw(st.lists(st.builds(GtAnnotation, box, st.integers(0, n_classes - 1),
                                                 st.booleans()), max_size=12))
        dets[f"img{i}"] = draw(st.lists(st.builds(ScoredBox, box, st.integers(0, n_classes - 1),
                                                  LATTICE_SCORES), max_size=40))
    if draw(st.booleans()):
        gts["img0"].append(GtAnnotation(Box(100, 100, 110, 110), 0))
        dets["img0"] += [ScoredBox(Box(100, 100, 110, 108), 0, draw(LATTICE_SCORES)),
                         ScoredBox(Box(100, 100, 110, 106), 0, draw(LATTICE_SCORES))]
    classes = {g.class_id for anns in gts.values() for g in anns}
    return {k: [d for d in v if d.class_id in classes] for k, v in dets.items()}, gts


def all_evaluators(dets, gts, max_dets, iou_threshold):
    return [
        repr(coco_eval(dets, gts, max_dets=max_dets)),
        repr(voc_ap_at(dets, gts, iou_threshold, max_dets=max_dets)),
        repr(precision_recall_points(dets, gts, iou_threshold, max_dets=max_dets)),
    ]


class TestArrayCoreEqualsScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(dataset=lattice_datasets(), max_dets=st.sampled_from([1, 3, 500]),
           iou_threshold=st.sampled_from([0.3, 0.5, 0.7, 1.0]))
    def test_reports_repr_equal(self, dataset, max_dets, iou_threshold):
        dets, gts = dataset
        got = all_evaluators(dets, gts, max_dets, iou_threshold)
        with mock.patch.object(evalkit, "_match", reference_match):
            want = all_evaluators(dets, gts, max_dets, iou_threshold)
        assert got == want

    def test_contested_pair_runs_the_greedy_loop(self):
        gts = {"a": [GtAnnotation(Box(0, 0, 10, 10), 0)]}
        dets = {"a": [ScoredBox(Box(0, 0, 10, 8), 0, 0.9), ScoredBox(Box(0, 0, 10, 6), 0, 0.8)]}
        with mock.patch.object(evalkit, "_resolve_contested",
                               wraps=evalkit._resolve_contested) as resolve:
            got = all_evaluators(dets, gts, 500, 0.5)
        contested = resolve.call_args_list[0].args[1]  # coco_eval's keys
        # at IoU 0.8 and 0.6 both claim the ground truth at the thresholds up to 0.6
        # only, in each of the 4 area ranges
        shared = sum(t <= 0.6 for t in evalkit.COCO_IOU_THRESHOLDS)
        assert 0 < shared < len(evalkit.COCO_IOU_THRESHOLDS)
        assert contested.sum() == 2 * shared * 4
        with mock.patch.object(evalkit, "_match", reference_match):
            assert got == all_evaluators(dets, gts, 500, 0.5)


def ap_bits(m):
    """`_ap_interpolated_101` of `m` and the per-key `searchsorted` form, as hex strings."""
    _, _, precision, recall = evalkit._curves(m)
    return [[None if v is None else v.hex() for v in aps]
            for aps in (evalkit._ap_interpolated_101(m), ap_101_per_key(precision, recall,
                                                                        m.n_positive))]


class TestApSampling:
    """The 101 recall samples of all keys from one count equal one `searchsorted` per key,
    bit for bit."""

    TP, FP, UN = evalkit.TP, evalkit.FP, evalkit.UNCOUNTED

    @pytest.mark.parametrize("outcome, n_positive", [
        # recalls 29/100 and 3/10 land exactly on a sample, and the last row reaches 1.0
        ([[TP] * 29 + [FP] * 3 + [TP] * 71, [TP] * 3 + [FP] * 2 + [TP] * 7 + [FP] * 91,
          [TP] * 50 + [UN] * 3 + [TP] * 50], [100, 10, 100]),
        # repeated recalls, and a class that never reaches recall 1
        ([[TP, FP, FP, UN, TP, FP, TP, TP], [FP, FP, TP, TP, UN, UN, FP, FP]], [9, 7]),
        ([[], [], []], [4, 0, 1]),  # no detections; a key with zero positives
        ([[TP, FP, TP], [UN, UN, UN], [FP, FP, FP]], [2, 0, 0]),  # zero positives
    ])
    def test_cases_equal_per_key_searchsorted(self, outcome, n_positive):
        outcome = np.array(outcome, dtype=np.int8).reshape(len(n_positive), -1)
        scores = np.linspace(1.0, 0.1, outcome.shape[1])
        got, want = ap_bits(evalkit._ClassMatch(scores, outcome, np.array(n_positive)))
        assert got == want
        assert [v is None for v in got] == [p == 0 for p in n_positive]

    @given(data=st.data(), keys=st.integers(1, 40), n=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_random_outcomes_equal_per_key_searchsorted(self, data, keys, n):
        outcome = np.array(data.draw(st.lists(st.sampled_from([self.TP, self.FP, self.UN]),
                                              min_size=keys * n, max_size=keys * n)),
                           dtype=np.int8).reshape(keys, n)
        extra = data.draw(st.lists(st.integers(0, 3), min_size=keys, max_size=keys))
        n_positive = (outcome == self.TP).sum(axis=1) + extra
        scores = np.array(data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=n,
                                             max_size=n)), dtype=np.float64)
        got, want = ap_bits(evalkit._ClassMatch(scores, outcome, n_positive))
        assert got == want

    def test_scene_matches_equal_per_key_searchsorted(self):
        run = run_scene(SceneSpec(**DENSE_SPEC, rng_seed=5), OracleSpec(n_classes=10, rng_seed=5))
        keys = [(t, a) for t in evalkit.COCO_IOU_THRESHOLDS for a in evalkit.AREA_RANGES]
        matches = evalkit._match({"x": run.merged}, {"x": run.annotations}, keys, 500)
        assert len(matches) > 1
        for m in matches.values():
            got, want = ap_bits(m)
            assert got == want


class TestPairBudget:
    def test_reports_do_not_depend_on_the_budget(self):
        run = run_scene(SceneSpec(**DENSE_SPEC, rng_seed=3), OracleSpec(n_classes=10, rng_seed=3))
        dets, gts = {"x": run.merged}, {"x": run.annotations}
        max_dets = len(run.merged)  # no cap, so every detection is scored
        want = all_evaluators(dets, gts, max_dets, 0.7)
        with mock.patch.object(boxgeom, "PAIR_BUDGET", 50), \
                mock.patch.object(boxgeom, "_overlap_iou", wraps=boxgeom._overlap_iou) as kernel:
            assert all_evaluators(dets, gts, max_dets, 0.7) == want
        assert kernel.call_count > 10
        assert max(len(call.args[0]) for call in kernel.call_args_list) <= 50
