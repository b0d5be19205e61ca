"""Axis-aligned box arithmetic shared by the whole pipeline.

Boxes use the half-open pixel convention [x1, x2) x [y1, y2), so the area of
an integer-coordinate box equals the number of lattice pixels it covers.
Coordinates are real-valued throughout; rounding happens only at
serialization when an output format demands integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with corners (x1, y1) top-left, (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"inverted box: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class ScoredBox:
    """A detection: box plus class id and confidence score in [0, 1]."""

    box: Box
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"negative class id: {self.class_id}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")


@dataclass(frozen=True)
class AffineMap2D:
    """Axis-aligned affine transform: x' = scale_x * x + offset_x (same for y).

    The pipeline only crops and resizes, so scales are strictly positive and
    the transform never flips or rotates.
    """

    scale_x: float
    scale_y: float
    offset_x: float
    offset_y: float

    def __post_init__(self) -> None:
        fields = (self.scale_x, self.scale_y, self.offset_x, self.offset_y)
        if not all(map(math.isfinite, fields)) or self.scale_x <= 0 or self.scale_y <= 0:
            raise ValueError(f"affine map needs finite fields and positive scales: {self}")

    def apply_point(self, x: float, y: float) -> tuple[float, float]:
        return (self.scale_x * x + self.offset_x, self.scale_y * y + self.offset_y)

    def invert(self) -> "AffineMap2D":
        return AffineMap2D(
            scale_x=1.0 / self.scale_x,
            scale_y=1.0 / self.scale_y,
            offset_x=-self.offset_x / self.scale_x,
            offset_y=-self.offset_y / self.scale_y,
        )


def area(b: Box) -> float:
    return b.width * b.height


def intersect(a: Box, b: Box) -> Optional[Box]:
    """Overlap rectangle of two boxes, or None when the overlap is empty.

    A zero-area intersection (shared edge or corner) counts as empty,
    consistent with the half-open convention.
    """
    x1 = max(a.x1, b.x1)
    y1 = max(a.y1, b.y1)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x1 >= x2 or y1 >= y2:
        return None
    return Box(x1, y1, x2, y2)


def iou(a: Box, b: Box) -> float:
    """Intersection over union; defined as 0 when both boxes are degenerate."""
    inter = intersect(a, b)
    if inter is None:
        return 0.0
    ai = area(inter)
    union = area(a) + area(b) - ai
    if union <= 0.0:
        return 0.0
    return ai / union


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each (x1, y1, x2, y2) row of `a` (n, 4) against each row of `b` (m, 4),
    as an (n, m) array equal bit for bit to `iou` of each pair: same operations, same order."""
    ax1, ay1, ax2, ay2 = np.asarray(a, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    bx1, by1, bx2, by2 = np.asarray(b, dtype=np.float64).reshape(-1, 4).T[:, None, :]
    x1 = np.maximum(ax1, bx1)
    y1 = np.maximum(ay1, by1)
    x2 = np.minimum(ax2, bx2)
    y2 = np.minimum(ay2, by2)
    inter = (x2 - x1) * (y2 - y1)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    # `not union <= 0` as in `iou`, rather than `union > 0`: they differ on NaN
    valid = (x1 < x2) & (y1 < y2) & ~(union <= 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=valid)


def clip(b: Box, frame: Box) -> Optional[Box]:
    """Clip a box to a frame, keeping only positive-area results."""
    return intersect(b, frame)


def apply_map(b: Box, m: AffineMap2D) -> Box:
    x1, y1 = m.apply_point(b.x1, b.y1)
    x2, y2 = m.apply_point(b.x2, b.y2)
    return Box(x1, y1, x2, y2)

