"""Merging per-region detections into image-level results.

Pipeline: remap each region's detections back to image coordinates,
concatenate, run per-class greedy NMS, then Incomplete Box Suppression (IBS)
across overlapping regions. IBS lets a complete box from one region suppress
the truncated duplicate another region predicted for the same object, which
plain NMS misses because the truncated pair's IoU is small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `fuse.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, apply_map, clip, iou, pairwise_iou  # noqa: F401
from .focal import FocalRegion

# rows per `pairwise_iou` call: larger blocks make fewer calls but larger arrays
BLOCK = 8


@dataclass
class RegionDetections:
    """Detections belonging to one focal region, in detector-frame coordinates."""

    region: FocalRegion
    detections: list[ScoredBox] = field(default_factory=list)


@dataclass(frozen=True)
class FuseConfig:
    nms_iou: float = 0.5
    ibs_region_iou: float = 0.05
    ibs_box_iou: float = 0.5
    per_class: bool = True

    def __post_init__(self) -> None:
        for name in ("nms_iou", "ibs_region_iou", "ibs_box_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def ingest_detections(region: FocalRegion, detections: Sequence[ScoredBox]) -> RegionDetections:
    """Clamp raw detector output to the detector frame, dropping empty boxes."""
    det_w, det_h = region.detector_size
    frame = Box(0.0, 0.0, det_w, det_h)
    kept = []
    for d in detections:
        clipped = clip(d.box, frame)
        if clipped is not None:
            kept.append(ScoredBox(box=clipped, class_id=d.class_id, score=d.score))
    return RegionDetections(region=region, detections=kept)


def remap_to_image(rd: RegionDetections) -> list[ScoredBox]:
    """Map detector-frame detections back to image coordinates."""
    inverse = rd.region.to_detector.invert()
    return [
        ScoredBox(box=apply_map(d.box, inverse), class_id=d.class_id, score=d.score)
        for d in rd.detections
    ]


def _as_arrays(dets: Sequence[ScoredBox]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4)
    classes = np.array([d.class_id for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return boxes, classes, scores


def nms_indices(
    boxes: Sequence[ScoredBox], iou_threshold: float, per_class: bool = True
) -> list[int]:
    """Indices of NMS survivors, in selection order."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    xy, classes, scores = _as_arrays(boxes)
    order = np.argsort(-scores, kind="stable")  # ties keep the earlier index
    xy, classes = xy[order], classes[order]
    alive = np.ones(len(order), dtype=bool)
    groups = classes if per_class else np.zeros_like(classes)
    for group in set(groups.tolist()):  # not np.unique, which imports numpy.ma
        pos = np.flatnonzero(groups == group)  # in score order
        for start in range(0, len(pos), BLOCK):
            rows, rest = pos[start:start + BLOCK], pos[start:]
            if not alive[rows].any():
                continue
            overlap = pairwise_iou(xy[rows], xy[rest]) > iou_threshold
            for r, row in enumerate(rows):
                if alive[row]:
                    alive[rest[overlap[r]]] = False
                    alive[row] = True  # kept, though its own IoU of 1 may clear it
    return order[alive].tolist()


def nms(
    boxes: Sequence[ScoredBox], iou_threshold: float, per_class: bool = True
) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (ties broken by earlier input
    index); a box is suppressed iff its IoU with an already-kept box of the
    same class (when per_class) exceeds the threshold. Returns survivors in
    selection order with original scores.
    """
    return [boxes[i] for i in nms_indices(boxes, iou_threshold, per_class)]


def _check_in_region(rd: RegionDetections, slack: float = 1.0) -> None:
    r = rd.region.rect
    for d in rd.detections:
        if (
            d.box.x1 < r.x1 - slack
            or d.box.y1 < r.y1 - slack
            or d.box.x2 > r.x2 + slack
            or d.box.y2 > r.y2 + slack
        ):
            raise ValueError(
                f"detection {d.box} lies outside region {rd.region.region_id} rect {r}"
            )


def ibs(per_region: Sequence[RegionDetections], cfg: FuseConfig) -> list[ScoredBox]:
    """Incomplete Box Suppression across overlapping focal regions.

    Input detections must already be in image coordinates. For each region
    C_i: (1) find the other regions whose IoU with C_i exceeds the region
    threshold; (2) clip their boxes to C_i, keeping positive-area clips;
    (3) a box B_ij is suppressed iff some clipped competitor of the same
    class (when per_class) overlaps it beyond the box threshold and outranks
    it: strictly higher score, or equal score from a lower-indexed region.
    The rank rule guarantees a survivor among mutual overlaps.
    """
    for rd in per_region:
        _check_in_region(rd)
    rects = np.array([rd.region.rect.as_tuple() for rd in per_region]).reshape(-1, 4)
    near = (pairwise_iou(rects, rects) > cfg.ibs_region_iou) & ~np.eye(len(rects), dtype=bool)

    dets = [d for rd in per_region for d in rd.detections]
    boxes, classes, scores = _as_arrays(dets)
    counts = [len(rd.detections) for rd in per_region]
    regions = np.repeat(np.arange(len(per_region)), counts)
    # c outranks d iff rank[c] < rank[d]: higher score first, then lower region
    rank = np.argsort(np.lexsort((regions, -scores)))
    keep = np.ones(len(dets), dtype=bool)
    ends = np.cumsum(counts, dtype=int)
    for i in np.flatnonzero(near.any(axis=1)):  # regions with an overlapping neighbour
        rect, start, stop = rects[i], ends[i] - counts[i], ends[i]
        comp = np.flatnonzero(near[i][regions])
        # a competitor outside the rect is clipped onto its edge, with zero area
        clips = np.minimum(np.maximum(boxes[comp], rect[[0, 1, 0, 1]]), rect[[2, 3, 2, 3]])
        positive = (clips[:, 0] < clips[:, 2]) & (clips[:, 1] < clips[:, 3])
        comp, clips = comp[positive], clips[positive]
        for row in range(start, stop, BLOCK):
            rows = slice(row, min(row + BLOCK, stop))
            hit = pairwise_iou(boxes[rows], clips) > cfg.ibs_box_iou
            hit &= rank[comp] < rank[rows, None]
            if cfg.per_class:
                hit &= classes[comp] == classes[rows, None]
            keep[rows] = ~hit.any(axis=1)
    return [d for d, k in zip(dets, keep) if k]


def merge_pipeline(
    per_region: Sequence[RegionDetections],
    cfg: FuseConfig = FuseConfig(),
    apply_ibs: bool = True,
) -> list[ScoredBox]:
    """Full merge: remap to image space, per-class NMS, then IBS.

    Returns the surviving boxes sorted by descending score (ties by input
    order), so output is deterministic for a fixed input order.
    """
    remapped = [RegionDetections(rd.region, remap_to_image(rd)) for rd in per_region]
    flat = [d for rd in remapped for d in rd.detections]
    kept = np.zeros(len(flat), dtype=bool)
    kept[nms_indices(flat, cfg.nms_iou, per_class=cfg.per_class)] = True
    ends = np.cumsum([len(rd.detections) for rd in remapped], dtype=int)
    after_nms = [
        RegionDetections(region=rd.region, detections=[d for d, k in zip(rd.detections, mask) if k])
        for rd, mask in zip(remapped, np.split(kept, ends[:-1]))
    ]
    final = ibs(after_nms, cfg) if apply_ibs else [d for rd in after_nms for d in rd.detections]
    return sorted(final, key=lambda d: -d.score)
