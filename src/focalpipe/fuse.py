"""Merging per-region detections into image-level results.

Pipeline: remap each region's detections back to image coordinates,
concatenate, run per-class greedy NMS, then Incomplete Box Suppression (IBS)
across overlapping regions. IBS lets a complete box from one region suppress
the truncated duplicate another region predicted for the same object, which
plain NMS misses because the truncated pair's IoU is small.

A merge converts its input once, into flat image-space columns (boxes, classes,
scores, region index); NMS and IBS select rows, and only survivors become objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `fuse.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, clip, iou, pairwise_iou  # noqa: F401
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


def _columns(groups: Sequence[Sequence[ScoredBox]]):
    """The detections of all groups in one list, with their boxes (n, 4), classes,
    scores and group index as columns."""
    dets = [d for g in groups for d in g]
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4)
    classes = np.array([d.class_id for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return dets, boxes, classes, scores, np.repeat(np.arange(len(groups)), [len(g) for g in groups])


def _remap(per_region: Sequence[RegionDetections]):
    """`_columns` of the regions' detections, with boxes mapped to image space by
    each region's inverse detector map: the operations of `apply_map`, in its order."""
    dets, boxes, classes, scores, regions = _columns([rd.detections for rd in per_region])
    inverse = [rd.region.to_detector.invert() for rd in per_region]
    maps = np.array([(m.scale_x, m.scale_y, m.offset_x, m.offset_y) for m in inverse],
                    dtype=np.float64).reshape(-1, 4)[regions]
    boxes = boxes * maps[:, [0, 1, 0, 1]] + maps[:, [2, 3, 2, 3]]
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite box coordinate after mapping to image space")
    return dets, boxes, classes, scores, regions


def _scored(dets: Sequence[ScoredBox], boxes: np.ndarray, rows: np.ndarray) -> list[ScoredBox]:
    """Detections `rows` with their image-space boxes, in row order."""
    return [ScoredBox(Box(*xy), dets[i].class_id, dets[i].score)
            for i, xy in zip(rows.tolist(), boxes[rows].tolist())]


def remap_to_image(rd: RegionDetections) -> list[ScoredBox]:
    """Map detector-frame detections back to image coordinates."""
    dets, boxes, *_ = _remap([rd])
    return _scored(dets, boxes, np.arange(len(dets)))


def nms_indices(boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray,
                iou_threshold: float, per_class: bool = True) -> list[int]:
    """Indices of NMS survivors among the rows of `boxes` (n, 4), in selection order."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    order = np.argsort(-scores, kind="stable")  # ties keep the earlier index
    xy, classes = boxes[order], classes[order]
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


def nms(boxes: Sequence[ScoredBox], iou_threshold: float,
        per_class: bool = True) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (ties broken by earlier input
    index); a box is suppressed iff its IoU with an already-kept box of the
    same class (when per_class) exceeds the threshold. Returns survivors in
    selection order with original scores.
    """
    _, xy, classes, scores, _ = _columns([boxes])
    return [boxes[i] for i in nms_indices(xy, classes, scores, iou_threshold, per_class)]


def _ibs_keep(per_region, boxes, classes, scores, regions, cfg: FuseConfig) -> np.ndarray:
    """IBS keep mask over image-space rows; a row over 1 px outside its region is an error."""
    rects = np.array([rd.region.rect.as_tuple() for rd in per_region]).reshape(-1, 4)
    own = rects[regions]
    outside = ((boxes[:, :2] < own[:, :2] - 1.0) | (boxes[:, 2:] > own[:, 2:] + 1.0)).any(axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        region = per_region[regions[row]].region
        raise ValueError(f"detection {Box(*boxes[row].tolist())} lies outside region "
                         f"{region.region_id} rect {region.rect}")
    near = (pairwise_iou(rects, rects) > cfg.ibs_region_iou) & ~np.eye(len(rects), dtype=bool)
    # c outranks d iff rank[c] < rank[d]: higher score first, then lower region
    rank = np.argsort(np.lexsort((regions, -scores)))
    keep = np.ones(len(boxes), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):  # regions with an overlapping neighbour
        rect, mine, comp = rects[i], np.flatnonzero(regions == i), np.flatnonzero(near[i][regions])
        # a competitor outside the rect is clipped onto its edge, with zero area
        clips = np.minimum(np.maximum(boxes[comp], rect[[0, 1, 0, 1]]), rect[[2, 3, 2, 3]])
        positive = (clips[:, 0] < clips[:, 2]) & (clips[:, 1] < clips[:, 3])
        comp, clips = comp[positive], clips[positive]
        for start in range(0, len(mine), BLOCK):
            rows = mine[start:start + BLOCK]
            hit = pairwise_iou(boxes[rows], clips) > cfg.ibs_box_iou
            hit &= rank[comp] < rank[rows, None]
            if cfg.per_class:
                hit &= classes[comp] == classes[rows, None]
            keep[rows] = ~hit.any(axis=1)
    return keep


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
    dets, *columns = _columns([rd.detections for rd in per_region])
    return [d for d, k in zip(dets, _ibs_keep(per_region, *columns, cfg)) if k]


def _merge(per_region: Sequence[RegionDetections], cfg: FuseConfig):
    """One remap and one NMS pass: the rows NMS keeps, in input order; a function giving
    those IBS keeps too; and one giving rows' detections by descending score, ties in order."""
    dets, boxes, classes, scores, regions = _remap(per_region)
    kept = np.array(sorted(nms_indices(boxes, classes, scores, cfg.nms_iou, cfg.per_class)), int)

    def after_ibs() -> np.ndarray:  # IBS runs among the NMS survivors alone
        columns = (boxes[kept], classes[kept], scores[kept], regions[kept])
        return kept[_ibs_keep(per_region, *columns, cfg)]

    def survivors(rows: np.ndarray) -> list[ScoredBox]:
        return sorted(_scored(dets, boxes, rows), key=lambda d: -d.score)

    return kept, after_ibs, survivors


def merge_both(per_region: Sequence[RegionDetections],
               cfg: FuseConfig = FuseConfig()) -> tuple[list[ScoredBox], list[ScoredBox]]:
    """`merge_pipeline` with IBS and without it, from one remap and one NMS pass."""
    kept, after_ibs, survivors = _merge(per_region, cfg)
    return survivors(after_ibs()), survivors(kept)


def merge_pipeline(per_region: Sequence[RegionDetections], cfg: FuseConfig = FuseConfig(),
                   apply_ibs: bool = True) -> list[ScoredBox]:
    """Full merge: remap to image space, per-class NMS, then IBS if `apply_ibs`. Survivors
    come by descending score, ties in input order, so output is deterministic."""
    kept, after_ibs, survivors = _merge(per_region, cfg)
    return survivors(after_ibs() if apply_ibs else kept)
