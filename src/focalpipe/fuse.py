"""Merging per-region detections into image-level results.

Pipeline: remap each region's detections back to image coordinates,
concatenate, run per-class greedy NMS, then Incomplete Box Suppression (IBS)
across overlapping regions. IBS lets a complete box from one region suppress
the truncated duplicate another region predicted for the same object, which
plain NMS misses because the truncated pair's IoU is small.

The merge runs on columns, one image's detections as flat arrays of boxes (n, 4), class
ids, scores and region index; `ingest_columns` and `merge_columns` build no `ScoredBox`.
The `ScoredBox` entry points convert through `_columns` and build objects for results only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# `iou` is not called here, but the benchmark's tracer (perfbench/tracing.py,
# IOU_SITES) rebinds `fuse.iou` to count scalar calls and fails without it
from .boxgeom import Box, ScoredBox, iou, pairwise_iou  # noqa: F401
from .focal import FocalRegion

# rows per `pairwise_iou` call: larger blocks make fewer calls but larger arrays
BLOCK = 16


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


def _columns(groups: Sequence[Sequence[ScoredBox]]):
    """Boxes (n, 4), class ids, scores and group index of the detections of all groups."""
    dets = [d for g in groups for d in g]
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4)
    ids = [d.class_id for d in dets]
    classes = np.array(ids, dtype=None if dets else np.int64)
    # ids past int64 stay Python ints: numpy makes them uint64, or float64 beside smaller
    # ids, and uint64 and int64 columns concatenate to float64
    if classes.dtype.kind in "uf" and all(isinstance(c, int) for c in ids):
        classes = np.array(ids, dtype=object)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return boxes, classes, scores, np.repeat(np.arange(len(groups)), [len(g) for g in groups])


def scored_columns(dets: Sequence[ScoredBox]):
    """Detections as columns: boxes (n, 4), class ids, scores."""
    return _columns([dets])[:3]


def scored_boxes(boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray) -> list[ScoredBox]:
    """Columns back to detections, in row order."""
    return [ScoredBox(Box(*xy), c, s)
            for xy, c, s in zip(boxes.tolist(), classes.tolist(), scores.tolist())]


def _flat(per_region: Sequence[RegionDetections]):
    """Regions and the `_columns` of their detections."""
    return [rd.region for rd in per_region], *_columns([rd.detections for rd in per_region])


def ingest_columns(per_region: Sequence[tuple]):
    """One image's `(region, boxes (n, 4), class ids, scores)` in detector frames, as flat
    columns `(regions, boxes, classes, scores, region index)`. Each box is clamped to its
    region's detector frame with the comparisons of `boxgeom.clip`, so signed zeros come out
    as `clip` gives them, and dropped when that leaves it empty."""
    regions = [r for r, *_ in per_region]
    sizes = np.array([r.detector_size for r in regions], dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(sizes).all():
        raise ValueError("non-finite detector frame")
    boxes = np.concatenate([b for _, b, _, _ in per_region] + [np.empty((0, 4))])
    classes = np.concatenate([c for _, _, c, _ in per_region] + [np.empty(0, np.int64)])
    scores = np.concatenate([s for *_, s in per_region] + [np.empty(0)])
    index = np.repeat(np.arange(len(regions)), [len(s) for *_, s in per_region])
    (x1, y1, x2, y2), (w, h) = boxes.T, sizes[index].T
    x1, y1 = np.where(0.0 > x1, 0.0, x1), np.where(0.0 > y1, 0.0, y1)
    x2, y2 = np.where(w < x2, w, x2), np.where(h < y2, h, y2)
    keep = (x1 < x2) & (y1 < y2)
    boxes = np.stack([x1, y1, x2, y2], axis=1)[keep]
    return regions, boxes, classes[keep], scores[keep], index[keep]


def ingest_detections(region: FocalRegion, detections: Sequence[ScoredBox]) -> RegionDetections:
    """Clamp raw detector output to the detector frame, dropping empty boxes."""
    _, boxes, classes, scores, _ = ingest_columns([(region, *scored_columns(detections))])
    return RegionDetections(region=region, detections=scored_boxes(boxes, classes, scores))


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the check below
def _remap(regions: Sequence[FocalRegion], boxes: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Boxes mapped to image space by their regions' inverse detector maps: the operations
    of `apply_map`, in its order."""
    inverse = [r.to_detector.invert() for r in regions]
    maps = np.array([(m.scale_x, m.scale_y, m.offset_x, m.offset_y) for m in inverse],
                    dtype=np.float64).reshape(-1, 4)[index]
    boxes = boxes * maps[:, [0, 1, 0, 1]] + maps[:, [2, 3, 2, 3]]
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite box coordinate after mapping to image space")
    return boxes


def remap_to_image(rd: RegionDetections) -> list[ScoredBox]:
    """Map detector-frame detections back to image coordinates."""
    regions, boxes, classes, scores, index = _flat([rd])
    return scored_boxes(_remap(regions, boxes, index), classes, scores)


def _meets(boxes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which of `boxes` overlap the bounding box of `rows` with positive area; the others
    have IoU 0 with every row."""
    (x1, y1, _, _), (_, _, x2, y2) = rows.min(axis=0), rows.max(axis=0)
    return (boxes[:, 0] < x2) & (boxes[:, 2] > x1) & (boxes[:, 1] < y2) & (boxes[:, 3] > y1)


# coordinates near the float64 limit overflow to inf or NaN in the kernel, as they do in
# the scalar `iou`, which warns of none of it
@np.errstate(over="ignore", invalid="ignore")
def nms_indices(boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray,
                iou_threshold: float, per_class: bool = True) -> list[int]:
    """Indices of NMS survivors among the rows of `boxes` (n, 4), in selection order.

    Each group goes in score order, BLOCK rows at a time: suppressed rows drop out of a
    block, a block with none left is skipped, and a block scores only the live rows after
    it that meet its bounding box. Memory is O(n) plus one block's kernel arrays."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    order = np.argsort(-scores, kind="stable")  # ties keep the earlier index
    groups = (classes if per_class else np.zeros(len(classes), dtype=int))[order]
    alive = np.ones(len(order), dtype=bool)
    for group in set(groups.tolist()):  # not np.unique, which imports numpy.ma
        pos = np.flatnonzero(groups == group)  # in score order
        xy, live = boxes[order[pos]], np.ones(len(pos), dtype=bool)
        for start in range(0, len(pos), BLOCK):
            end = start + BLOCK
            rows = start + np.flatnonzero(live[start:end])
            if not len(rows):
                continue
            tail = end + np.flatnonzero(live[end:] & _meets(xy[end:], xy[rows]))
            cols = np.concatenate([rows, tail])
            overlap = pairwise_iou(xy[rows], xy[cols]) > iou_threshold
            kept: list[int] = []  # greedy among the block's own rows, which lead `cols`
            within = overlap[:, :len(rows)].tolist()
            for r in range(len(rows)):
                if not any(within[k][r] for k in kept):
                    kept.append(r)
            live[cols[overlap[kept].any(axis=0)]] = False
            live[rows[kept]] = True  # kept, though its own IoU of 1 may clear it
        alive[pos] = live
    return order[alive].tolist()


def nms(boxes: Sequence[ScoredBox], iou_threshold: float,
        per_class: bool = True) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (ties broken by earlier input
    index); a box is suppressed iff its IoU with an already-kept box of the
    same class (when per_class) exceeds the threshold. Returns survivors in
    selection order with original scores.
    """
    xy, classes, scores = scored_columns(boxes)
    return [boxes[i] for i in nms_indices(xy, classes, scores, iou_threshold, per_class)]


@np.errstate(over="ignore", invalid="ignore")  # see `nms_indices`
def _ibs_keep(regions, boxes, classes, scores, index, cfg: FuseConfig) -> np.ndarray:
    """IBS keep mask over image-space rows; a row over 1 px outside its region is an error."""
    rects = np.array([r.rect.as_tuple() for r in regions]).reshape(-1, 4)
    own = rects[index]
    outside = ((boxes[:, :2] < own[:, :2] - 1.0) | (boxes[:, 2:] > own[:, 2:] + 1.0)).any(axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        region = regions[index[row]]
        raise ValueError(f"detection {Box(*boxes[row].tolist())} lies outside region "
                         f"{region.region_id} rect {region.rect}")
    near = (pairwise_iou(rects, rects) > cfg.ibs_region_iou) & ~np.eye(len(rects), dtype=bool)
    # c outranks d iff rank[c] < rank[d]: higher score first, then lower region
    rank = np.argsort(np.lexsort((index, -scores)))
    keep = np.ones(len(boxes), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):  # regions with an overlapping neighbour
        rect, comp = rects[i], np.flatnonzero(near[i][index])
        # a competitor outside the rect is clipped onto its edge, with zero area
        clips = np.minimum(np.maximum(boxes[comp], rect[[0, 1, 0, 1]]), rect[[2, 3, 2, 3]])
        positive = (clips[:, 0] < clips[:, 2]) & (clips[:, 1] < clips[:, 3])
        comp, clips = comp[positive], clips[positive]
        if not len(comp):
            continue
        mine = np.flatnonzero((index == i) & _meets(boxes, clips))
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
    dets = [d for rd in per_region for d in rd.detections]
    return [d for d, k in zip(dets, _ibs_keep(*_flat(per_region), cfg)) if k]


def _merge(regions, boxes, classes, scores, index, cfg: FuseConfig):
    """One remap and one NMS pass. Returns a function of `apply_ibs` giving the columns
    (boxes, classes, scores) of the NMS survivors, after IBS among them if `apply_ibs`,
    by descending score with ties in input order."""
    boxes = _remap(regions, boxes, index)
    kept = np.sort(np.array(nms_indices(boxes, classes, scores, cfg.nms_iou, cfg.per_class),
                            dtype=int))

    def survivors(apply_ibs: bool):
        rows = kept
        if apply_ibs:  # IBS runs among the NMS survivors alone
            columns = (c[kept] for c in (boxes, classes, scores, index))
            rows = kept[_ibs_keep(regions, *columns, cfg)]
        rows = rows[np.argsort(-scores[rows], kind="stable")]
        return boxes[rows], classes[rows], scores[rows]

    return survivors


def merge_columns(regions: Sequence[FocalRegion], boxes: np.ndarray, classes: np.ndarray,
                  scores: np.ndarray, index: np.ndarray, cfg: FuseConfig = FuseConfig(),
                  apply_ibs: bool = True):
    """`merge_pipeline` on the flat columns `ingest_columns` gives; returns the survivors'
    columns (image-space boxes, classes, scores)."""
    return _merge(regions, boxes, classes, scores, index, cfg)(apply_ibs)


def merge_both(per_region: Sequence[RegionDetections],
               cfg: FuseConfig = FuseConfig()) -> tuple[list[ScoredBox], list[ScoredBox]]:
    """`merge_pipeline` with IBS and without it, from one remap and one NMS pass."""
    survivors = _merge(*_flat(per_region), cfg)
    return scored_boxes(*survivors(True)), scored_boxes(*survivors(False))


def merge_pipeline(per_region: Sequence[RegionDetections], cfg: FuseConfig = FuseConfig(),
                   apply_ibs: bool = True) -> list[ScoredBox]:
    """Full merge: remap to image space, per-class NMS, then IBS if `apply_ibs`. Survivors
    come by descending score, ties in input order, so output is deterministic."""
    return scored_boxes(*merge_columns(*_flat(per_region), cfg, apply_ibs))
