"""Detection scoring: COCO-style AP family and PASCAL-VOC AP at a fixed IoU.

All evaluators share one matching core. Each image keeps its `max_dets`
best-scored detections across classes (pycocotools caps per category), score
ties in input order. Matching is greedy per image and class in that order. A
detection takes the best-IoU unmatched unignored ground truth at or above the
threshold, IoU ties to the lower ground-truth index, else an ignored one:
ignore-flagged ground truth, and ground truth outside the area range, absorbs
matches without contributing positives or penalties. COCO AP uses 101-point
interpolated precision averaged over IoU thresholds 0.50:0.05:0.95; size
buckets split ground truth at areas 32^2 and 96^2.

The core works on arrays. IoU is computed per (image, class) in blocks of
BLOCK detection rows, keeping only the sparse (detection, ground truth, IoU)
candidates at or above the lowest threshold. At each (IoU threshold, area
range) key, a detection that shares none of its candidates with another is
decided in bulk from its own candidates; the greedy loop runs only on the
rest. Each class is sorted by score once, and the precision, recall and AP
samples of every key come from one pass over its (keys, detections) outcomes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `evalkit.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, iou, pairwise_iou  # noqa: F401

COCO_IOU_THRESHOLDS = [0.5 + 0.05 * i for i in range(10)]
SMALL_MAX = 32.0 * 32.0
MEDIUM_MAX = 96.0 * 96.0
AREA_RANGES = {
    "all": (0.0, float("inf")),
    "small": (0.0, SMALL_MAX),
    "medium": (SMALL_MAX, MEDIUM_MAX),
    "large": (MEDIUM_MAX, float("inf")),
}
# detection rows per `pairwise_iou` call. VOC merges classes into one 600 x 600 group
# per `dense` benchmark image: 64 rows raised its peak RSS 2.0 MB, 16 rows 0.2 MB
BLOCK = 16
TP, FP, UNCOUNTED = 1, 0, -1


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


class _ClassMatch(NamedTuple):
    """One class's detections in pooled order (images sorted, then each image's
    score order) and their outcome at each key."""

    scores: np.ndarray  # (D,)
    outcome: np.ndarray  # (keys, D) int8: TP, FP or UNCOUNTED
    n_positive: np.ndarray  # (keys,)


# coordinates near the float64 limit overflow to inf or NaN in areas and IoU, as they do
# in the scalar `iou`, which warns of none of it
@np.errstate(over="ignore", invalid="ignore")
def _match(
    dets: DetectionSet,
    gts: GroundTruthSet,
    keys: Sequence[tuple[float, str]],
    max_dets: int,
    class_key: Callable[[int], int] = lambda class_id: class_id,
) -> dict[int, _ClassMatch]:
    """The matching core: class -> outcomes at every (IoU threshold, area range) key.

    Classes are the ground-truth class ids mapped through `class_key`; a
    detection of any other class is an error. Empty when both sides are.
    """
    if max_dets < 1:
        raise ValueError("max_dets must be >= 1")
    thr = np.array([t for t, _ in keys], dtype=np.float64)
    for t, _ in keys:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"IoU threshold must be in (0, 1], got {t}")
    classes = sorted({class_key(g.class_id) for anns in gts.values() for g in anns})
    class_index = {c: i for i, c in enumerate(classes)}
    for image_id, image_dets in dets.items():
        unknown = [d.class_id for d in image_dets if class_key(d.class_id) not in class_index]
        if unknown:
            raise ValueError(f"unknown class id {unknown[0]} in detections for image {image_id!r}")
    # one row per box: corners, score or ignore flag, (image, class) group
    d_rows, g_rows, image_ids = [], [], sorted(set(gts) | set(dets))
    for i, image_id in enumerate(image_ids):
        group = i * len(classes)
        # a stable sort on score alone keeps ties in input order
        for d in sorted(dets.get(image_id, []), key=lambda d: -d.score)[:max_dets]:
            d_rows.append((*d.box.as_tuple(), d.score, group + class_index[class_key(d.class_id)]))
        for g in gts.get(image_id, []):
            g_rows.append((*g.box.as_tuple(), g.ignore, group + class_index[class_key(g.class_id)]))
    d_arr, g_arr = (np.array(r, dtype=np.float64).reshape(-1, 6) for r in (d_rows, g_rows))
    d_group, g_group = d_arr[:, 5].astype(np.intp), g_arr[:, 5].astype(np.intp)
    tri_d, tri_g, tri_v = _candidates(d_arr[:, :4], d_group, g_arr[:, :4], g_group,
                                      len(image_ids) * len(classes), thr.min())
    lo, hi = np.array([AREA_RANGES[a] for _, a in keys]).T[:, :, None]
    d_area, g_area = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]) for a in (d_arr, g_arr))
    d_in = (lo <= d_area) & (d_area < hi)
    g_ignore = (g_arr[:, 4] > 0) | ~((lo <= g_area) & (g_area < hi))
    rows = np.arange(len(keys))[:, None]
    cand = tri_v >= thr[:, None]

    def count(index: np.ndarray, size: int, mask: np.ndarray) -> np.ndarray:
        """Per key, the number of masked candidates with each index value."""
        flat = np.bincount((rows * size + index)[mask], minlength=len(keys) * size)
        return flat.reshape(len(keys), size)

    # Uncontested: no other detection shares any of its candidates at this key, so
    # they are all unmatched when its turn comes and it is decided on its own
    shared = count(tri_g, len(g_arr), cand)[rows, tri_g] > 1
    contested = count(tri_d, len(d_arr), cand & shared) > 0
    unignored = count(tri_d, len(d_arr), cand & ~g_ignore[rows, tri_g]) > 0
    matched = count(tri_d, len(d_arr), cand) > 0  # absorbed unless `unignored`
    outcome = np.where(unignored, TP, np.where(matched | ~d_in, UNCOUNTED, FP)).astype(np.int8)
    _resolve_contested(outcome, contested, tri_d, tri_g, tri_v, thr, g_ignore, d_in)

    d_class, g_class = d_group % len(classes), g_group % len(classes)
    return {c: _ClassMatch(d_arr[d_class == i, 4], outcome[:, d_class == i],
                           (~g_ignore[:, g_class == i]).sum(axis=1)) for i, c in enumerate(classes)}


def _candidates(d_xy, d_group, g_xy, g_group, n_groups: int, min_iou: float) -> tuple:
    """Every (detection, ground truth, IoU) at or above `min_iou` within one (image,
    class) group, sorted by detection, then descending IoU, then ground truth."""
    d_order, g_order = np.argsort(d_group, kind="stable"), np.argsort(g_group, kind="stable")
    d_end, g_end = (np.cumsum(np.bincount(x, minlength=n_groups)).tolist()
                    for x in (d_group, g_group))
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for d_lo, d_hi, g_lo, g_hi in zip([0] + d_end, d_end, [0] + g_end, g_end):
        gi = g_order[g_lo:g_hi]
        for start in range(d_lo, d_hi if len(gi) else d_lo, BLOCK):
            di = d_order[start:min(start + BLOCK, d_hi)]
            ious = pairwise_iou(d_xy[di], g_xy[gi])
            r, c = np.nonzero(ious >= min_iou)
            parts.append((di[r], gi[c], ious[r, c]))
    tri_d, tri_g, tri_v = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((tri_g, -tri_v, tri_d))
    return tri_d[order], tri_g[order], tri_v[order]


def _resolve_contested(outcome, contested, tri_d, tri_g, tri_v, thr, g_ignore, d_in) -> None:
    """The greedy rule for contested detections, in score order at each key: take the
    best-IoU unmatched unignored candidate, else absorb into an ignored one."""
    starts = np.searchsorted(tri_d, np.arange(outcome.shape[1] + 1)).tolist()
    tri_g, tri_v = tri_g.tolist(), tri_v.tolist()
    for k in np.flatnonzero(contested.any(axis=1)).tolist():
        t, matched = thr[k], set()
        for d in np.flatnonzero(contested[k]).tolist():
            span = slice(starts[d], starts[d + 1])
            free = [j for j, v in zip(tri_g[span], tri_v[span]) if v >= t and j not in matched]
            j = next((j for j in free if not g_ignore[k, j]), free[0] if free else None)
            if j is None:
                outcome[k, d] = FP if d_in[k, d] else UNCOUNTED
            else:  # ignored ground truth absorbs a detection without counting it
                matched.add(j)
                outcome[k, d] = UNCOUNTED if g_ignore[k, j] else TP


def _curves(m: _ClassMatch) -> tuple[np.ndarray, ...]:
    """Scores in descending order (a stable sort of the pooled order), whether each
    detection counts, and the precision and recall after each, one row per key. One
    that does not count repeats the point before it (or 0, 0): no AP sample moves."""
    order = np.argsort(-m.scores, kind="stable")
    outcome = m.outcome[:, order]
    tp, fp = (np.cumsum(outcome == o, axis=1) for o in (TP, FP))
    recall = tp / np.maximum(m.n_positive, 1)[:, None]
    return m.scores[order], outcome != UNCOUNTED, tp / np.maximum(tp + fp, 1), recall


def _ap_interpolated_101(m: _ClassMatch) -> list[Optional[float]]:
    """COCO-style AP per key: precision envelope sampled at 101 recall points."""
    _, _, precision, recall = _curves(m)
    # monotone envelope from the right, and 0 for a recall never reached
    padded = np.concatenate([precision, np.zeros((len(precision), 1))], axis=1)
    env = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1]
    # exact i/100 values; linspace drifts one ulp at some indices, which
    # matters when recall lands exactly on a threshold
    rec_thrs = np.arange(101) / 100.0
    idx = np.array([np.searchsorted(r, rec_thrs, side="left") for r in recall])
    sampled = np.take_along_axis(env, idx, axis=1)
    return [float(ap) if p else None for ap, p in zip(sampled.mean(axis=1), m.n_positive)]


def _ap_all_points(m: _ClassMatch) -> Optional[float]:
    """VOC-style all-point interpolated AP (area under the envelope) at a single key."""
    if m.n_positive[0] == 0:
        return None
    _, _, precision, recall = _curves(m)
    mrec = np.concatenate([[0.0], recall[0], [1.0]])
    mpre = np.concatenate([[0.0], precision[0], [0.0]])
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
    matches = _match(dets, gts, keys, max_dets)
    if not matches:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True)
    aps = {c: dict(zip(keys, _ap_interpolated_101(m))) for c, m in matches.items()}

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
    matches = _match(dets, gts, [(iou_threshold, "all")], max_dets, class_key=lambda class_id: 0)
    return _mean_over_classes([_ap_all_points(m) for m in matches.values()])


def precision_recall_points(
    dets: DetectionSet,
    gts: GroundTruthSet,
    iou_threshold: float = 0.5,
    max_dets: int = 500,
) -> list[tuple[int, float, float, float]]:
    """Pooled (class_id, score, precision, recall) points for CSV export."""
    out = []
    for c, m in _match(dets, gts, [(iou_threshold, "all")], max_dets).items():
        if m.n_positive[0]:
            scores, counted, precision, recall = _curves(m)
            points = (a[counted[0]] for a in (scores, precision[0], recall[0]))
            out.extend((c, float(s), float(p), float(r)) for s, p, r in zip(*points))
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
