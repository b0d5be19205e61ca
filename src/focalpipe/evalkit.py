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

The core works on arrays. `boxgeom.overlap_pairs`, given the lowest threshold
as `above`, gives the (detection, ground truth, IoU) pairs of each (image, class)
that can reach it, and those at or above it are kept: any other pair has IoU
below the lowest threshold. At each (IoU threshold, area range) key, a detection
that shares none of its candidates with another is decided in bulk from its own
candidates; the greedy loop runs only on the rest. Each class is sorted by
score once, and the precision, recall and AP samples of every key come from
one pass over its (keys, detections) outcomes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `evalkit.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, box_array, iou, overlap_pairs  # noqa: F401

COCO_IOU_THRESHOLDS = [0.5 + 0.05 * i for i in range(10)]
SMALL_MAX = 32.0 * 32.0
MEDIUM_MAX = 96.0 * 96.0
AREA_RANGES = {
    "all": (0.0, float("inf")),
    "small": (0.0, SMALL_MAX),
    "medium": (SMALL_MAX, MEDIUM_MAX),
    "large": (MEDIUM_MAX, float("inf")),
}
COCO_KEYS = [(t, a) for t in COCO_IOU_THRESHOLDS for a in AREA_RANGES]  # (0.5, "all") first
RECALL_GRID = np.arange(101) / 100.0  # exact i/100: linspace drifts one ulp at some
TP, FP, UNCOUNTED = 1, 0, -1


@dataclass(frozen=True, slots=True)
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
    g_ids = set(map(attrgetter("class_id"), chain.from_iterable(gts.values())))
    classes = sorted({class_key(c) for c in g_ids})
    position = {c: i for i, c in enumerate(classes)}
    d_ids = map(attrgetter("class_id"), chain.from_iterable(dets.values()))
    class_index = {c: position.get(class_key(c)) for c in g_ids.union(d_ids)}  # once per id
    if None in class_index.values():  # the first detection of an unknown class
        image_id, c = next((image_id, d.class_id) for image_id, image_dets in dets.items()
                           for d in image_dets if class_index[d.class_id] is None)
        raise ValueError(f"unknown class id {c} in detections for image {image_id!r}")

    def columns(per_image: list, value: str) -> tuple:
        """Corners, `value` and (image, class) group of the records of all images in order."""
        records = list(chain.from_iterable(per_image))
        ids = map(class_index.__getitem__, map(attrgetter("class_id"), records))
        group = np.repeat(np.arange(len(per_image)) * len(classes), list(map(len, per_image)))
        return (box_array(map(attrgetter("box"), records)),
                np.fromiter(map(attrgetter(value), records), np.float64, len(records)),
                group + np.fromiter(ids, np.intp, len(records)))

    image_ids = sorted(set(gts) | set(dets))
    # a stable sort on score alone keeps ties in input order, under `reverse` too
    d_xy, d_score, d_group = columns([sorted(dets.get(i, ()), key=attrgetter("score"),
                                             reverse=True)[:max_dets] for i in image_ids], "score")
    g_xy, g_flag, g_group = columns([gts.get(i, ()) for i in image_ids], "ignore")
    tri_d, tri_g, tri_v = _candidates(d_xy, d_group, g_xy, g_group, thr.min())
    lo, hi = np.array([AREA_RANGES[a] for _, a in keys]).T[:, :, None]
    d_area, g_area = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]) for a in (d_xy, g_xy))
    d_in = (lo <= d_area) & (d_area < hi)
    g_ignore = (g_flag > 0) | ~((lo <= g_area) & (g_area < hi))
    rows = np.arange(len(keys))[:, None]
    cand = tri_v >= thr[:, None]

    def count(index: np.ndarray, size: int, mask: np.ndarray) -> np.ndarray:
        """Per key, the number of masked candidates with each index value."""
        flat = np.bincount((rows * size + index)[mask], minlength=len(keys) * size)
        return flat.reshape(len(keys), size)

    # Uncontested: no other detection shares any of its candidates at this key, so
    # they are all unmatched when its turn comes and it is decided on its own
    shared = count(tri_g, len(g_xy), cand)[rows, tri_g] > 1
    contested = count(tri_d, len(d_xy), cand & shared) > 0
    unignored = count(tri_d, len(d_xy), cand & ~g_ignore[rows, tri_g]) > 0
    matched = count(tri_d, len(d_xy), cand) > 0  # absorbed unless `unignored`
    outcome = np.where(unignored, TP, np.where(matched | ~d_in, UNCOUNTED, FP)).astype(np.int8)
    _resolve_contested(outcome, contested, tri_d, tri_g, tri_v, thr, g_ignore, d_in)

    d_class, g_class = d_group % len(classes), g_group % len(classes)
    return {c: _ClassMatch(d_score[d_class == i], outcome[:, d_class == i],
                           (~g_ignore[:, g_class == i]).sum(axis=1)) for i, c in enumerate(classes)}


def _candidates(d_xy, d_group, g_xy, g_group, min_iou: float) -> tuple:
    """Every (detection, ground truth, IoU) at or above `min_iou` > 0 within one (image,
    class) group, sorted by detection, then descending IoU, then ground truth."""
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for d, g, v in overlap_pairs(d_xy, d_group, g_xy, g_group, above=min_iou):
        parts.append((d[keep := v >= min_iou], g[keep], v[keep]))
    tri_d, tri_g, tri_v = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((tri_g, -tri_v, tri_d))
    return tri_d[order], tri_g[order], tri_v[order]


def _resolve_contested(outcome, contested, tri_d, tri_g, tri_v, thr, g_ignore, d_in) -> None:
    """The greedy rule for contested detections, in score order at each key: take the
    best-IoU unmatched unignored candidate, else absorb into an ignored one."""
    starts = np.searchsorted(tri_d, np.arange(outcome.shape[1] + 1)).tolist()
    tri_g, tri_v = tri_g.tolist(), tri_v.tolist()
    for k in contested.any(axis=1).nonzero()[0].tolist():
        t, matched = thr[k], set()
        for d in contested[k].nonzero()[0].tolist():
            span = slice(starts[d], starts[d + 1])
            free = [j for j, v in zip(tri_g[span], tri_v[span]) if v >= t and j not in matched]
            j = next((j for j in free if not g_ignore[k, j]), free[0] if free else None)
            if j is None:
                outcome[k, d] = FP if d_in[k, d] else UNCOUNTED
            else:  # ignored ground truth absorbs a detection without counting it
                matched.add(j)
                outcome[k, d] = UNCOUNTED if g_ignore[k, j] else TP


def _curves(m: _ClassMatch) -> tuple[np.ndarray, ...]:
    """The descending score order (a stable sort of the pooled order), the outcomes in it,
    and the precision and recall after each detection, one row per key. One that does not
    count repeats the point before it (or 0, 0): no AP sample moves."""
    order = (-m.scores).argsort(kind="stable")
    outcome = m.outcome[:, order]
    tp, fp = ((outcome == o).cumsum(axis=1) for o in (TP, FP))
    return order, outcome, tp / np.maximum(tp + fp, 1), tp / np.maximum(m.n_positive, 1)[:, None]


def _ap_interpolated_101(m: _ClassMatch) -> list[Optional[float]]:
    """COCO-style AP per key: precision envelope sampled at 101 recall points."""
    _, _, precision, recall = _curves(m)
    # monotone envelope from the right, and 0 for a recall never reached
    padded = np.concatenate([precision, np.zeros((len(precision), 1))], axis=1)
    env = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1]
    # exact i/100 matter: with b grid points at or below it, a recall is below i exactly if b <= i
    b = RECALL_GRID.searchsorted(recall, side="right")
    rows = np.arange(len(b))[:, None]
    idx = np.bincount((b + 102 * rows).ravel(), minlength=102 * len(b))
    sampled = env.take(idx.reshape(-1, 102).cumsum(axis=1)[:, :101] + env.shape[1] * rows)
    aps = np.add.reduce(sampled, axis=1) / 101  # the sum and division of `mean(axis=1)`
    return [float(ap) if p else None for ap, p in zip(aps, m.n_positive)]


def _ap_all_points(m: _ClassMatch) -> float:
    """VOC all-point interpolated AP (area under the envelope) at one key, NaN if no positive."""
    if m.n_positive[0] == 0:
        return np.nan
    _, _, precision, recall = _curves(m)
    mrec = np.concatenate([[0.0], recall[0], [1.0]])
    mpre = np.concatenate([[0.0], precision[0], [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    changes = np.where(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[changes + 1] - mrec[changes]) * mpre[changes + 1]).sum())


def _mean_over_classes(values: Sequence[float]) -> float:
    """100 times the mean of the per-class values that are not NaN, or 0 if none is."""
    present = [v for v in values if v == v]
    return 100.0 * float(np.add.reduce(present) / len(present)) if present else 0.0


def coco_eval(dets: DetectionSet, gts: GroundTruthSet, max_dets: int = 500) -> EvalReport:
    """COCO-protocol evaluation of a detection set against ground truth.

    Classes are the class ids present in the ground truth; a detection with
    any other class id is an error. When both sides are empty the report is
    all zeros with the empty flag set.
    """
    return _report(_match(dets, gts, COCO_KEYS, max_dets))


def _report(matches: Mapping[int, _ClassMatch]) -> EvalReport:
    """The `coco_eval` report of a `_match` at `COCO_KEYS`."""
    if not matches:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True)
    # (area, class, threshold), NaN where a class has no positive: that depends on the area
    # alone. The mean of a C-contiguous row adds as `np.mean` of its list of thresholds does.
    shape = (len(matches), len(COCO_IOU_THRESHOLDS), len(AREA_RANGES))
    aps = np.array([[np.nan if ap is None else ap for ap in _ap_interpolated_101(m)]
                    for m in matches.values()]).reshape(shape).transpose(2, 0, 1).copy()
    ap50, ap75 = (aps[0, :, COCO_IOU_THRESHOLDS.index(t)] for t in (0.5, 0.75))
    ap, ap_small, ap_medium, ap_large = map(_mean_over_classes, np.add.reduce(aps, 2) / shape[1])
    return EvalReport(ap, _mean_over_classes(ap50), _mean_over_classes(ap75), ap_small, ap_medium,
                      ap_large, {c: 100.0 * v for c, v in zip(matches, ap50.tolist()) if v == v})


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
    return _points(_match(dets, gts, [(iou_threshold, "all")], max_dets))


def _points(matches: Mapping[int, _ClassMatch]) -> list[tuple[int, float, float, float]]:
    """`precision_recall_points` at the first key of a `_match`, the only one it reads."""
    out = []
    for c, m in matches.items():
        if m.n_positive[0]:
            order, outcome, precision, recall = _curves(m)
            counted = outcome[0] != UNCOUNTED
            points = (a[counted] for a in (m.scores[order], precision[0], recall[0]))
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
