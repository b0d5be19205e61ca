"""Brute-force reference evaluator used as the oracle for evalkit tests.

Written deliberately with plain loops and no shared code: per image, greedy
matching over explicitly enumerated detection/GT pairs; AP via direct scans
over precision/recall points. Semantics: detections in descending score
order, match needs IoU >= threshold, an un-ignored GT is preferred over an
ignored one, each GT matches at most once, matches to ignored GT (or
detections outside the area bucket that match nothing) carry no penalty.
"""

from __future__ import annotations

import numpy as np


def ref_iou(a, b):
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def ref_area(box):
    return (box[2] - box[0]) * (box[3] - box[1])


def match_one_image(dets, gts, iou_thr, area_lo, area_hi):
    """dets: [(box, score)], gts: [(box, ignore)] of ONE class.

    Returns [(score, is_tp)] for counted detections and the positive count.
    """
    gt_effective_ignore = []
    for box, ignore in gts:
        a = ref_area(box)
        gt_effective_ignore.append(ignore or a < area_lo or a >= area_hi)
    n_pos = gt_effective_ignore.count(False)

    det_order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    gt_taken = [False] * len(gts)
    results = []
    for di in det_order:
        dbox, score = dets[di]
        # pass 1: best un-ignored gt
        best = -1
        best_v = -1.0
        for gi in range(len(gts)):
            if gt_taken[gi] or gt_effective_ignore[gi]:
                continue
            v = ref_iou(dbox, gts[gi][0])
            if v >= iou_thr and v > best_v:
                best, best_v = gi, v
        if best >= 0:
            gt_taken[best] = True
            results.append((score, True))
            continue
        # pass 2: any ignored gt absorbs the detection
        best = -1
        best_v = -1.0
        for gi in range(len(gts)):
            if gt_taken[gi] or not gt_effective_ignore[gi]:
                continue
            v = ref_iou(dbox, gts[gi][0])
            if v >= iou_thr and v > best_v:
                best, best_v = gi, v
        if best >= 0:
            gt_taken[best] = True
            continue
        a = ref_area(dbox)
        if area_lo <= a < area_hi:
            results.append((score, False))
    return results, n_pos


def pooled_pr_points(per_image_results, n_pos):
    """Cumulative (precision, recall) after each detection in score order."""
    all_results = []
    for image_results in per_image_results:
        all_results.extend(image_results)
    all_results.sort(key=lambda t: -t[0])
    points = []
    tp = 0
    fp = 0
    for _, is_tp in all_results:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append((tp / (tp + fp), tp / n_pos))
    return points


def ap_101(points):
    total = 0.0
    for i in range(101):
        rt = i / 100.0
        best = 0.0
        for p, r in points:
            if r >= rt and p > best:
                best = p
        total += best
    return total / 101.0


def ap_101_per_key(precision, recall, n_positive):
    """101-point AP of each key from its precision and recall rows (keys, D) and positives
    (keys,), one `searchsorted` per key: the sampling `evalkit._ap_interpolated_101` did
    before it counted all keys at once, kept to hold its bits."""
    padded = np.concatenate([precision, np.zeros((len(precision), 1))], axis=1)
    env = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1]
    rec_thrs = np.arange(101) / 100.0
    idx = np.array([np.searchsorted(r, rec_thrs, side="left") for r in recall])
    sampled = np.take_along_axis(env, idx, axis=1)
    return [float(ap) if p else None for ap, p in zip(sampled.mean(axis=1), n_positive)]


def ap_all_points(points):
    total = 0.0
    prev_r = 0.0
    recalls = sorted(set(r for _, r in points))
    for r in recalls:
        best = 0.0
        for p, r2 in points:
            if r2 >= r and p > best:
                best = p
        total += (r - prev_r) * best
        prev_r = r
    return total


def class_ap(dets_by_image, gts_by_image, class_id, iou_thr, area_lo, area_hi,
             max_dets, interpolation):
    """AP for one class, or None when the class has no counted positives."""
    per_image_results = []
    n_pos = 0
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    for image_id in image_ids:
        raw = list(dets_by_image.get(image_id, []))
        order = sorted(range(len(raw)), key=lambda i: (-raw[i][2], i))
        image_dets = [raw[i] for i in order[:max_dets]]
        class_dets = [(d[0], d[2]) for d in image_dets if d[1] == class_id]
        class_gts = [(g[0], g[2]) for g in gts_by_image.get(image_id, []) if g[1] == class_id]
        results, pos = match_one_image(class_dets, class_gts, iou_thr, area_lo, area_hi)
        per_image_results.append(results)
        n_pos += pos
    if n_pos == 0:
        return None
    points = pooled_pr_points(per_image_results, n_pos)
    if not points:
        return 0.0
    if interpolation == "101":
        return ap_101(points)
    return ap_all_points(points)


AREA_BUCKETS = {
    "all": (0.0, float("inf")),
    "small": (0.0, 32.0 * 32.0),
    "medium": (32.0 * 32.0, 96.0 * 96.0),
    "large": (96.0 * 96.0, float("inf")),
}


def reference_coco(dets_by_image, gts_by_image, max_dets=500):
    """dets: {image: [(box, class, score)]}; gts: {image: [(box, class, ignore)]}.

    Returns a dict of percentage metrics mirroring the production report.
    """
    classes = sorted({g[1] for anns in gts_by_image.values() for g in anns})
    thresholds = [0.5 + 0.05 * i for i in range(10)]

    def mean_over(thrs, bucket):
        lo, hi = AREA_BUCKETS[bucket]
        per_class = []
        for c in classes:
            vals = []
            for t in thrs:
                v = class_ap(dets_by_image, gts_by_image, c, t, lo, hi, max_dets, "101")
                if v is not None:
                    vals.append(v)
            if vals:
                per_class.append(sum(vals) / len(vals))
        if not per_class:
            return 0.0
        return 100.0 * sum(per_class) / len(per_class)

    per_class_ap50 = {}
    for c in classes:
        v = class_ap(dets_by_image, gts_by_image, c, 0.5, 0.0, float("inf"), max_dets, "101")
        if v is not None:
            per_class_ap50[c] = 100.0 * v

    return {
        "ap": mean_over(thresholds, "all"),
        "ap50": mean_over([0.5], "all"),
        "ap75": mean_over([0.75], "all"),
        "ap_small": mean_over(thresholds, "small"),
        "ap_medium": mean_over(thresholds, "medium"),
        "ap_large": mean_over(thresholds, "large"),
        "per_class_ap50": per_class_ap50,
    }


def reference_voc(dets_by_image, gts_by_image, iou_thr=0.7, max_dets=500):
    """Single merged-class all-point AP, as a percentage."""
    merged_dets = {
        k: [(d[0], 0, d[2]) for d in v] for k, v in dets_by_image.items()
    }
    merged_gts = {
        k: [(g[0], 0, g[2]) for g in v] for k, v in gts_by_image.items()
    }
    v = class_ap(merged_dets, merged_gts, 0, iou_thr, 0.0, float("inf"), max_dets, "voc")
    if v is None:
        return 0.0
    return 100.0 * v
