"""Axis-aligned box arithmetic shared by the whole pipeline.

Boxes use the half-open pixel convention [x1, x2) x [y1, y2), so the area of
an integer-coordinate box equals the number of lattice pixels it covers.
Coordinates are real-valued throughout; rounding happens only at
serialization when an output format demands integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isfinite
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle with corners (x1, y1) top-left, (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    # by hand: a generated frozen __init__ calls object.__setattr__ per field, then __post_init__
    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        for v in (x1, y1, x2, y2):
            if not isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        _set_x1(self, x1), _set_y1(self, y1), _set_x2(self, x2), _set_y2(self, y2)
        if x2 < x1 or y2 < y1:
            raise ValueError(f"inverted box: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True)
class ScoredBox:
    """A detection: box plus class id in [0, 2^63) and confidence score in [0, 1]."""

    box: Box
    class_id: int
    score: float

    def __init__(self, box: Box, class_id: int, score: float) -> None:  # as `Box.__init__`
        if not 0 <= class_id < 2**63:
            raise ValueError(f"class id outside [0, 2^63): {class_id}")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {score}")
        _set_box(self, box), _set_class_id(self, class_id), _set_score(self, score)


_set_x1, _set_y1, _set_x2, _set_y2 = (getattr(Box, f).__set__ for f in Box.__slots__)
_set_box, _set_class_id, _set_score = (getattr(ScoredBox, f).__set__ for f in ScoredBox.__slots__)


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """The (x1, y1, x2, y2) rows of `boxes` as an (n, 4) float64 array, read in one flat pass."""
    rows = list(map(attrgetter("x1", "y1", "x2", "y2"), boxes))
    return np.fromiter(chain.from_iterable(rows), np.float64, 4 * len(rows)).reshape(-1, 4)


@dataclass(frozen=True, slots=True)
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
        if not all(map(isfinite, fields)) or self.scale_x <= 0 or self.scale_y <= 0:
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


def _overlap_iou(iw: np.ndarray, ih: np.ndarray, area_a, area_b) -> np.ndarray:
    """`iou` bit for bit from overlaps iw = min(x2) - max(x1), ih = min(y2) - max(y1) and areas
    (x2 - x1) * (y2 - y1): iw > 0 exactly when max(x1) < min(x2), for every float. Spends iw, ih."""
    valid, inter = np.minimum(iw, ih) > 0.0, np.multiply(iw, ih, out=iw)
    union = np.subtract(np.add(area_a, area_b, out=ih), inter, out=ih)
    # `not union <= 0` as in `iou`, rather than `union > 0`: they differ on NaN
    return np.divide(inter, union, out=np.zeros(inter.shape), where=valid & ~(union <= 0.0))


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each (x1, y1, x2, y2) row of `a` (n, 4) against each row of `b` (m, 4), as an
    (n, m) array, equal bit for bit to `iou` of each pair: same operations, same order."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1, 4)
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = ([c[..., k] for k in range(4)] for c in (a, b))
    iw, ih = np.minimum(ax2, bx2), np.minimum(ay2, by2)
    iw -= np.maximum(ax1, bx1)
    ih -= np.maximum(ay1, by1)
    return _overlap_iou(iw, ih, (ax2 - ax1) * (ay2 - ay1), (bx2 - bx1) * (by2 - by1))


PAIR_BUDGET = 8192  # most candidates `overlap_pairs` tests at once: O(n + budget) memory


def overlap_pairs(a: np.ndarray, a_group: np.ndarray, b: Optional[np.ndarray] = None,
                  b_group: Optional[np.ndarray] = None, above: float = 0.0):
    """Pairs of a row of `a` (n, 4) and a row of `b` (m, 4) of the same group whose boxes
    overlap with positive area, as chunks `(i, j, IoU)`, `i` indexing `a` and `j` indexing `b`;
    without `b`, each unordered pair of distinct rows of `a` once: all with IoU >= `above`, or
    all at `above=0`. A sweep over boxes sorted by (group, x1): a box's candidates, PAIR_BUDGET
    at a time, are the later ones with x1 below x2 - t' * w widened by 16 ulps of max |x|, t' =
    above * (1 - 1e-9), and that overlap in y. IoU <= overlap / max(side) per axis, so both
    prefilters keep supersets, and a pair is scored, from them, only if its correctly rounded
    overlaps min(x2) - max(x1) and min(y2) - max(y1) exceed t' w and t' h of a box: one left out
    has computed IoU <= t' (1 + ~10 * 2**-53) < `above`. A box with t' * min(w, 1) * min(h, 1) <
    2**-1000 bounds no pair."""
    offset = 0 if b is None else len(np.reshape(a, (-1, 4)))  # of `b`'s rows in `xy`
    xy = np.concatenate([np.reshape(c, (-1, 4)) for c in (a, b) if c is not None], dtype=float)
    groups = np.concatenate([g for g in (a_group, b_group) if g is not None])
    # only boxes of positive area can overlap with positive area
    rows = ((xy[:, 0] < xy[:, 2]) & (xy[:, 1] < xy[:, 3])).nonzero()[0]
    rows = rows[np.lexsort((xy[rows, 0], groups[rows]))]
    group, planes = groups[rows], np.empty((7, len(rows)))  # x1, y1, x2, y2, need x, y, area
    planes[:4] = xy[rows].T
    x1, y1, x2, y2 = planes[:4]
    t, side = above * (1.0 - 1e-9), planes[2:4] - planes[:2]  # w, h
    np.multiply(*side, out=planes[6])
    # the overlaps a partner needs on each axis, 0 where the box bounds no pair
    planes[4:6] = np.where(t * np.multiply(*np.minimum(side, 1.0)) >= 2.0**-1000, t * side, 0.0)
    reach = x2 - planes[4] + 16.0 * np.spacing(np.maximum(-x1, x2))
    cuts = [0, *((group[1:] != group[:-1]).nonzero()[0] + 1).tolist(), len(rows)]
    stop = np.concatenate([lo + x1[lo:hi].searchsorted(reach[lo:hi])
                           for lo, hi in zip(cuts[:-1], cuts[1:])])
    count = np.maximum(stop - np.arange(1, len(rows) + 1), 0)
    end = count.cumsum()
    shift = stop - end  # a candidate's partner is its flat index plus its box's shift
    for lo in range(0, int(count.sum()), PAIR_BUDGET):
        hi = min(lo + PAIR_BUDGET, int(end[-1]))
        first, last = end.searchsorted([lo, hi - 1], "right").tolist()
        k = slice(first, last + 1)
        run = np.minimum(end[k], hi) - np.maximum(end[k] - count[k], lo)  # in [lo, hi)
        p = shift[k].repeat(run) + np.arange(lo, hi)
        # x1 of the partner p lies in the window of the box q, and both have positive area
        hit = (y1[k].repeat(run) < y2[p]) & (y1[p] < y2[k].repeat(run))
        if b is not None:  # only a row of `a` with a row of `b`
            hit &= (rows[k] >= offset).repeat(run) != (rows[p] >= offset)
        hit = hit.nonzero()[0]
        q, p = first + run.cumsum().searchsorted(hit, "right"), p[hit]
        u, v = planes.take(q, axis=1), planes.take(p, axis=1)  # the pairs' planes
        over = np.minimum(u[2:4], v[2:4]) - np.maximum(u[:2], v[:2])
        hit = np.logical_and(*(over > np.maximum(u[4:6], v[4:6]))).nonzero()[0]
        i, j = rows[q[hit]], rows[p[hit]]
        if b is not None:  # `a` first
            i, j = np.minimum(i, j), np.maximum(i, j)
        yield i, j - offset, _overlap_iou(*over.take(hit, axis=1), u[6, hit], v[6, hit])


def apply_map(b: Box, m: AffineMap2D) -> Box:
    x1, y1 = m.apply_point(b.x1, b.y1)
    x2, y2 = m.apply_point(b.x2, b.y2)
    return Box(x1, y1, x2, y2)

