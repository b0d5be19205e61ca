"""Detection scoring: COCO-style AP family and PASCAL-VOC AP at a fixed IoU.

Matching is greedy per image at each IoU threshold: detections in descending
score order, each ground-truth box matched at most once, ignore-flagged
ground truth absorbs matches without contributing positives or penalties.
COCO AP uses 101-point interpolated precision averaged over IoU thresholds
0.50:0.05:0.95; size buckets split ground truth at areas 32^2 and 96^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .boxgeom import Box, ScoredBox, area, iou

COCO_IOU_THRESHOLDS = [0.5 + 0.05 * i for i in range(10)]
SMALL_MAX = 32.0 * 32.0
MEDIUM_MAX = 96.0 * 96.0
AREA_RANGES = {
    "all": (0.0, float("inf")),
    "small": (0.0, SMALL_MAX),
    "medium": (SMALL_MAX, MEDIUM_MAX),
    "large": (MEDIUM_MAX, float("inf")),
}


@dataclass(frozen=True)
class GtAnnotation:
    box: Box
    class_id: int
    ignore: bool = False


GroundTruthSet = Mapping[str, Sequence[GtAnnotation]]
DetectionSet = Mapping[str, Sequence[ScoredBox]]


@dataclass
class EvalReport:
    """AP metrics as percentages in [0, 100]."""

    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    per_class_ap50: dict[int, float] = field(default_factory=dict)
    empty: bool = False

    def to_json_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
            "per_class_ap50": {str(k): v for k, v in sorted(self.per_class_ap50.items())},
            "empty": self.empty,
        }


@dataclass
class _MatchRecord:
    """Pooled match outcomes for one (class, threshold, area range)."""

    scores: list[float] = field(default_factory=list)
    is_tp: list[bool] = field(default_factory=list)
    n_positive: int = 0


def _match_image(
    dets: Sequence[ScoredBox],
    gts: Sequence[GtAnnotation],
    iou_thr: float,
    area_range: tuple[float, float],
    record: _MatchRecord,
) -> None:
    """Greedy matching for one image and one class, appended into record."""
    lo, hi = area_range
    gt_ignore = [g.ignore or not (lo <= area(g.box) < hi) for g in gts]
    record.n_positive += sum(1 for ig in gt_ignore if not ig)

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    matched = [False] * len(gts)

    def best_match(d: ScoredBox, want_ignore: bool) -> int:
        best_j, best_v = -1, -1.0
        for j, g in enumerate(gts):
            if matched[j] or gt_ignore[j] != want_ignore:
                continue
            v = iou(d.box, g.box)
            if v >= iou_thr and v > best_v:
                best_j, best_v = j, v
        return best_j

    for i in order:
        d = dets[i]
        j = best_match(d, want_ignore=False)
        if j >= 0:
            matched[j] = True
            record.scores.append(d.score)
            record.is_tp.append(True)
            continue
        j = best_match(d, want_ignore=True)
        if j >= 0:
            matched[j] = True  # absorbed by ignore region, no penalty
        elif lo <= area(d.box) < hi:
            record.scores.append(d.score)
            record.is_tp.append(False)
        # detections outside the area bucket are ignored, not penalized


def _precision_recall(record: _MatchRecord) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort([-s for s in record.scores], kind="stable")
    tp = np.cumsum([record.is_tp[i] for i in order])
    fp = np.cumsum([not record.is_tp[i] for i in order])
    recall = tp / record.n_positive
    precision = tp / np.maximum(tp + fp, 1)
    return precision.astype(float), recall.astype(float)


def _ap_interpolated_101(record: _MatchRecord) -> Optional[float]:
    """COCO-style AP: precision envelope sampled at 101 recall points."""
    if record.n_positive == 0:
        return None
    if not record.scores:
        return 0.0
    precision, recall = _precision_recall(record)
    # monotone envelope from the right
    env = np.maximum.accumulate(precision[::-1])[::-1]
    # exact i/100 values; linspace drifts one ulp at some indices, which
    # matters when recall lands exactly on a threshold
    rec_thrs = np.arange(101) / 100.0
    idx = np.searchsorted(recall, rec_thrs, side="left")
    sampled = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
    return float(np.mean(sampled))


def _ap_all_points(record: _MatchRecord) -> Optional[float]:
    """VOC-style all-point interpolated AP (area under the envelope)."""
    if record.n_positive == 0:
        return None
    if not record.scores:
        return 0.0
    precision, recall = _precision_recall(record)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    changes = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changes + 1] - mrec[changes]) * mpre[changes + 1]))


def _cap_detections(dets: Sequence[ScoredBox], max_dets: int) -> list[ScoredBox]:
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in order[:max_dets]]


def _collect_records(
    dets: DetectionSet,
    gts: GroundTruthSet,
    classes: Sequence[int],
    thresholds: Sequence[float],
    area_names: Sequence[str],
    max_dets: int,
) -> dict[tuple[int, float, str], _MatchRecord]:
    records = {
        (c, t, a): _MatchRecord() for c in classes for t in thresholds for a in area_names
    }
    image_ids = sorted(set(gts) | set(dets))
    for image_id in image_ids:
        image_gts = list(gts.get(image_id, []))
        image_dets = _cap_detections(list(dets.get(image_id, [])), max_dets)
        for c in classes:
            class_dets = [d for d in image_dets if d.class_id == c]
            class_gts = [g for g in image_gts if g.class_id == c]
            for t in thresholds:
                for a in area_names:
                    _match_image(
                        class_dets, class_gts, t, AREA_RANGES[a], records[(c, t, a)]
                    )
    return records


def _validate_classes(dets: DetectionSet, classes: set[int]) -> None:
    for image_id, image_dets in dets.items():
        for d in image_dets:
            if d.class_id not in classes:
                raise ValueError(
                    f"unknown class id {d.class_id} in detections for image {image_id!r}"
                )


def _mean_over_classes(values: Sequence[Optional[float]]) -> float:
    present = [v for v in values if v is not None]
    if not present:
        return 0.0
    return 100.0 * float(np.mean(present))


def coco_eval(dets: DetectionSet, gts: GroundTruthSet, max_dets: int = 500) -> EvalReport:
    """COCO-protocol evaluation of a detection set against ground truth.

    Classes are the class ids present in the ground truth; a detection with
    any other class id is an error. When both sides are empty the report is
    all zeros with the empty flag set.
    """
    if max_dets < 1:
        raise ValueError("max_dets must be >= 1")
    classes = sorted({g.class_id for anns in gts.values() for g in anns})
    n_dets = sum(len(v) for v in dets.values())
    if not classes and n_dets == 0:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True)
    _validate_classes(dets, set(classes))

    records = _collect_records(
        dets, gts, classes, COCO_IOU_THRESHOLDS, list(AREA_RANGES), max_dets
    )
    aps = {
        key: _ap_interpolated_101(record) for key, record in records.items()
    }

    def mean_ap(thresholds: Sequence[float], area_name: str) -> float:
        per_class = []
        for c in classes:
            vals = [aps[(c, t, area_name)] for t in thresholds]
            vals = [v for v in vals if v is not None]
            per_class.append(float(np.mean(vals)) if vals else None)
        return _mean_over_classes(per_class)

    per_class_ap50 = {}
    for c in classes:
        v = aps[(c, 0.5, "all")]
        if v is not None:
            per_class_ap50[c] = 100.0 * v

    return EvalReport(
        ap=mean_ap(COCO_IOU_THRESHOLDS, "all"),
        ap50=mean_ap([0.5], "all"),
        ap75=mean_ap([0.75], "all"),
        ap_small=mean_ap(COCO_IOU_THRESHOLDS, "small"),
        ap_medium=mean_ap(COCO_IOU_THRESHOLDS, "medium"),
        ap_large=mean_ap(COCO_IOU_THRESHOLDS, "large"),
        per_class_ap50=per_class_ap50,
    )


def voc_ap_at(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.7,
    max_dets: int = 500,
) -> float:
    """PASCAL-VOC all-point interpolated AP (percentage) at one IoU threshold.

    Every box is treated as one category, matching the UAVDT
    single-vehicle-class convention.
    """
    dets = {k: [ScoredBox(d.box, 0, d.score) for d in v] for k, v in dets.items()}
    gts = {k: [GtAnnotation(g.box, 0, g.ignore) for g in v] for k, v in gts.items()}
    classes = sorted({g.class_id for anns in gts.values() for g in anns})
    n_dets = sum(len(v) for v in dets.values())
    if not classes and n_dets == 0:
        return 0.0
    _validate_classes(dets, set(classes))
    records = _collect_records(dets, gts, classes, [iou_threshold], ["all"], max_dets)
    per_class = [_ap_all_points(records[(c, iou_threshold, "all")]) for c in classes]
    return _mean_over_classes(per_class)


def precision_recall_points(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    max_dets: int = 500,
) -> list[tuple[int, float, float, float]]:
    """Pooled (class_id, score, precision, recall) points for CSV export."""
    classes = sorted({g.class_id for anns in gts.values() for g in anns})
    _validate_classes(dets, set(classes))
    records = _collect_records(dets, gts, classes, [iou_threshold], ["all"], max_dets)
    out = []
    for c in classes:
        record = records[(c, iou_threshold, "all")]
        if record.n_positive == 0 or not record.scores:
            continue
        precision, recall = _precision_recall(record)
        scores = sorted(record.scores, reverse=True)
        for s, p, r in zip(scores, precision, recall):
            out.append((c, float(s), float(p), float(r)))
    return out


def report_table(report: EvalReport, class_names: Optional[Mapping[int, str]] = None) -> str:
    """Aligned plain-text table: aggregate metrics plus per-class AP50 columns."""
    lines = []
    header = ["AP", "AP50", "AP75", "APs", "APm", "APl"]
    values = [
        report.ap,
        report.ap50,
        report.ap75,
        report.ap_small,
        report.ap_medium,
        report.ap_large,
    ]
    lines.append("  ".join(f"{h:>8s}" for h in header))
    lines.append("  ".join(f"{v:8.2f}" for v in values))
    if report.per_class_ap50:
        lines.append("")
        lines.append("per-class AP50:")
        for c in sorted(report.per_class_ap50):
            name = class_names.get(c, str(c)) if class_names else str(c)
            lines.append(f"  {name:>16s}  {report.per_class_ap50[c]:6.2f}")
    return "\n".join(lines) + "\n"
