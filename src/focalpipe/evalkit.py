"""Detection scoring: COCO-style AP family and PASCAL-VOC AP at a fixed IoU.

All evaluators share one matching core. Each image keeps its `max_dets`
best-scored detections across classes (pycocotools caps per category).
Matching is greedy per image and class, detections in descending score
order; each detection's IoU row against the class's ground truth is computed
once and serves every IoU threshold and area range. A detection takes the
best-IoU unmatched unignored ground truth at or above the threshold, else an
ignored one: ignore-flagged ground truth, and ground truth outside the area
range, absorbs matches without contributing positives or penalties. COCO AP
uses 101-point interpolated precision averaged over IoU thresholds
0.50:0.05:0.95; size buckets split ground truth at areas 32^2 and 96^2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `evalkit.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, area, iou, pairwise_iou  # noqa: F401

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
        doc = asdict(self)
        doc["per_class_ap50"] = {str(k): v for k, v in sorted(self.per_class_ap50.items())}
        return doc


@dataclass
class _MatchRecord:
    """Pooled match outcomes for one (class, threshold, area range)."""

    scores: list[float] = field(default_factory=list)
    is_tp: list[bool] = field(default_factory=list)
    n_positive: int = 0


def _match(
    dets: DetectionSet,
    gts: GroundTruthSet,
    keys: Sequence[tuple[float, str]],
    max_dets: int,
    class_key: Callable[[int], int] = lambda class_id: class_id,
) -> dict[int, dict[tuple[float, str], _MatchRecord]]:
    """The matching core: class -> (IoU threshold, area range name) -> record.

    Classes are the ground-truth class ids mapped through `class_key`; a
    detection of any other class is an error. Empty when both sides are.
    """
    if max_dets < 1:
        raise ValueError("max_dets must be >= 1")
    classes = sorted({class_key(g.class_id) for anns in gts.values() for g in anns})
    records = {c: {k: _MatchRecord() for k in keys} for c in classes}
    for image_id, image_dets in dets.items():
        for d in image_dets:
            if class_key(d.class_id) not in records:
                raise ValueError(
                    f"unknown class id {d.class_id} in detections for image {image_id!r}"
                )
    for image_id in sorted(set(gts) | set(dets)):
        by_class: dict[int, tuple[list[ScoredBox], list[GtAnnotation]]] = {}
        for g in gts.get(image_id, []):
            by_class.setdefault(class_key(g.class_id), ([], []))[1].append(g)
        # a stable sort on score alone keeps ties in input order
        for d in sorted(dets.get(image_id, []), key=lambda d: -d.score)[:max_dets]:
            by_class.setdefault(class_key(d.class_id), ([], []))[0].append(d)
        for c, (class_dets, class_gts) in by_class.items():
            _match_class(class_dets, class_gts, records[c])
    return records


def _match_class(
    dets: Sequence[ScoredBox],
    gts: Sequence[GtAnnotation],
    records: dict[tuple[float, str], _MatchRecord],
) -> None:
    """Greedy matching of one image's detections of one class, in descending
    score order, at every key of `records` at once."""
    min_thr = min(t for t, _ in records)
    gt_xy = np.array([g.box.as_tuple() for g in gts], dtype=np.float64).reshape(-1, 4)
    gt_areas = [area(g.box) for g in gts]
    states = []
    for (t, a), record in records.items():
        lo, hi = AREA_RANGES[a]
        ignore = [g.ignore or not (lo <= ga < hi) for g, ga in zip(gts, gt_areas)]
        record.n_positive += ignore.count(False)
        states.append((t, ignore, [False] * len(gts), lo, hi, record))

    for d in dets:
        row = pairwise_iou(d.box.as_tuple(), gt_xy)[0]
        hits = np.flatnonzero(row >= min_thr)
        # best first (descending IoU, ties to the lower index): the first usable one wins
        candidates = sorted(zip(row[hits].tolist(), hits.tolist()), key=lambda p: (-p[0], p[1]))
        d_area = area(d.box)
        for t, ignore, matched, lo, hi, record in states:
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
                record.scores.append(d.score)
                record.is_tp.append(True)
            elif absorb >= 0:
                matched[absorb] = True  # absorbed by ignore region, no penalty
            elif lo <= d_area < hi:
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
    keys = [(t, a) for t in COCO_IOU_THRESHOLDS for a in AREA_RANGES]
    records = _match(dets, gts, keys, max_dets)
    if not records:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True)
    aps = {
        c: {key: _ap_interpolated_101(record) for key, record in recs.items()}
        for c, recs in records.items()
    }

    def mean_ap(thresholds: Sequence[float], area_name: str) -> float:
        per_class = []
        for class_aps in aps.values():
            vals = [class_aps[(t, area_name)] for t in thresholds]
            vals = [v for v in vals if v is not None]
            per_class.append(float(np.mean(vals)) if vals else None)
        return _mean_over_classes(per_class)

    per_class_ap50 = {
        c: 100.0 * class_aps[(0.5, "all")] for c, class_aps in aps.items()
        if class_aps[(0.5, "all")] is not None
    }

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
    key = (iou_threshold, "all")
    records = _match(dets, gts, [key], max_dets, class_key=lambda class_id: 0)
    return _mean_over_classes([_ap_all_points(recs[key]) for recs in records.values()])


def precision_recall_points(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    max_dets: int = 500,
) -> list[tuple[int, float, float, float]]:
    """Pooled (class_id, score, precision, recall) points for CSV export."""
    key = (iou_threshold, "all")
    out = []
    for c, recs in _match(dets, gts, [key], max_dets).items():
        record = recs[key]
        if record.n_positive == 0 or not record.scores:
            continue
        precision, recall = _precision_recall(record)
        scores = sorted(record.scores, reverse=True)
        out.extend((c, float(s), float(p), float(r)) for s, p, r in zip(scores, precision, recall))
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
