"""Focal-region construction, crop-level ground-truth refinement, EIP baseline.

A focal region is the tight envelope of one cluster's boxes expanded by a
margin (default 20 px) and clamped to the image. Each region carries an
affine map taking image coordinates inside the region onto the detector's
input resolution.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .boxgeom import AffineMap2D, Box, apply_map, area


@dataclass(frozen=True, slots=True)
class FocalRegion:
    """A rectangle within an image plus its image -> detector-resolution map."""

    rect: Box
    region_id: int
    image_id: str
    to_detector: AffineMap2D

    @property
    def detector_size(self) -> tuple[float, float]:
        """Detector frame dimensions implied by to_detector applied to rect."""
        w = self.rect.width * self.to_detector.scale_x
        h = self.rect.height * self.to_detector.scale_y
        return (w, h)


@dataclass
class RefinedCrop:
    """Crop-space ground truth for one focal region.

    gt entries are (box in crop coordinates, class_id, kept_fraction); only
    annotations with kept_fraction >= the keep threshold survive refinement.
    """

    region: FocalRegion
    gt: list[tuple[Box, int, float]] = field(default_factory=list)
    dropped_zero_area: int = 0


def make_detector_map(rect: Box, detector_w: float, detector_h: float) -> AffineMap2D:
    """Affine map sending a region rectangle onto (0, 0, detector_w, detector_h)."""
    if area(rect) <= 0:
        raise ValueError("cannot build a detector map for a zero-area region")
    if detector_w <= 0 or detector_h <= 0:
        raise ValueError("detector dimensions must be positive")
    sx = detector_w / rect.width
    sy = detector_h / rect.height
    return AffineMap2D(scale_x=sx, scale_y=sy, offset_x=-rect.x1 * sx, offset_y=-rect.y1 * sy)


def _build_region(
    rect: Box, region_id: int, image_id: str, detector_size: tuple[float, float]
) -> FocalRegion:
    return FocalRegion(rect=rect, region_id=region_id, image_id=image_id,
                       to_detector=make_detector_map(rect, *detector_size))


def regions_from_clusters(
    boxes: Sequence[Box],
    labels: Sequence[int],
    image_size: tuple[float, float],
    detector_size: tuple[float, float],
    margin: float = 20.0,
    image_id: str = "",
) -> list[FocalRegion]:
    """Envelope of each cluster's boxes, expanded by margin, clamped to the image.

    Regions are emitted in ascending cluster-label order with sequential ids.
    Empty clusters yield no region. The far edges clamp to `float(w)` and `float(h)`,
    so a region at the image edge is written `1600.0` as `refine-gt` reads it back.
    """
    if len(boxes) != len(labels):
        raise ValueError("boxes and labels length mismatch")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    w, h = image_size
    members: dict[int, list[Box]] = defaultdict(list)
    for box, label in zip(boxes, labels):
        members[label].append(box)

    regions: list[FocalRegion] = []
    for region_id, label in enumerate(sorted(members)):
        cluster = members[label]
        rect = Box(
            x1=max(0.0, min(b.x1 for b in cluster) - margin),
            y1=max(0.0, min(b.y1 for b in cluster) - margin),
            x2=min(float(w), max(b.x2 for b in cluster) + margin),
            y2=min(float(h), max(b.y2 for b in cluster) + margin),
        )
        regions.append(_build_region(rect, region_id, image_id, detector_size))
    return regions


def refine_gt(
    region: FocalRegion,
    boxes: np.ndarray,
    class_ids: Sequence[int],
    keep_threshold: float = 0.30,
) -> RefinedCrop:
    """Clip annotation columns (boxes (n, 4) float64, n class ids) to the region;
    keep those with enough area inside.

    A box is kept iff area(clipped) / area(original) >= keep_threshold, as a
    `Box` of Python floats in crop coordinates (origin at the region top-left).
    Zero-area originals are dropped and counted. Each row goes through the
    comparisons and operations of `intersect`, `area` and `Box.translate` in order.
    """
    if not 0.0 < keep_threshold <= 1.0:
        raise ValueError("keep_threshold must be in (0, 1]")
    r = region.rect
    # (2, n) corner rows vs (2, 1) region columns; negating before the cast keeps int 0 at +0.0
    b_lo, b_hi = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T.reshape(2, 2, -1).copy()
    edges = np.array((r.x1, r.y1, r.x2, r.y2, -r.x1, -r.y1, -r.x1, -r.y1), dtype=np.float64)
    (r_lo, r_hi), shift = edges[:4].reshape(2, 2, 1), edges[4:, None]
    # max(a, b) keeps a unless b > a: np.maximum may pick the other of -0.0 and 0.0
    lo, hi = np.where(r_lo > b_lo, r_lo, b_lo), np.where(r_hi < b_hi, r_hi, b_hi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (bw, bh), (w, h), (x_in, y_in) = b_hi - b_lo, hi - lo, lo < hi
        original = bw * bh
        zero_area = original <= 0
        fraction = w * h / original
        rows = (~zero_area & x_in & y_in & ~(fraction < keep_threshold)).nonzero()[0]
        corners = np.concatenate((lo.take(rows, 1), hi.take(rows, 1))) + shift
    gt = [(Box(a, b, c, d), class_ids[i], f) for a, b, c, d, i, f
          in zip(*corners.tolist(), rows.tolist(), fraction[rows].tolist())]
    return RefinedCrop(region, gt, dropped_zero_area=int(np.count_nonzero(zero_area)))


def crop_gt_to_detector(crop: RefinedCrop) -> list[tuple[Box, int, float]]:
    """Crop-space ground truth mapped into the detector frame."""
    origin_x, origin_y = crop.region.rect.x1, crop.region.rect.y1
    out = []
    for box, class_id, fraction in crop.gt:
        image_box = box.translate(origin_x, origin_y)
        out.append((apply_map(image_box, crop.region.to_detector), class_id, fraction))
    return out


def eip_regions(
    image_size: tuple[float, float], detector_size: tuple[float, float], image_id: str = ""
) -> list[FocalRegion]:
    """Evenly-image-partition baseline: six non-overlapping tiles (3 cols x 2 rows).

    Integer division remainders go to the first column and the first row, so
    the tiles always partition the image exactly.
    """
    w, h = image_size
    if w <= 0 or h <= 0:
        raise ValueError("image dimensions must be positive")
    col_w = w // 3 if isinstance(w, int) else w / 3
    row_h = h // 2 if isinstance(h, int) else h / 2
    xs = [0, w - 2 * col_w, w - col_w, w]
    ys = [0, h - row_h, h]
    regions = []
    region_id = 0
    for ri in range(2):
        for ci in range(3):
            rect = Box(xs[ci], ys[ri], xs[ci + 1], ys[ri + 1])
            regions.append(_build_region(rect, region_id, image_id, detector_size))
            region_id += 1
    return regions
