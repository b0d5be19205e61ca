"""Scalar-form reference for `focalpipe.focal.refine_gt`, used as the oracle in tests.

This is ground-truth refinement as first written: one annotation at a time
through `area`, `intersect` and `Box.translate`. The package's column form
must give the same crop, value and type, on float input. On integer rect edges
the values must be equal, signed zeros included, but this form keeps an `int`
where `max` or `min` picks the rect's edge, and the package gives a `float`.
"""

from __future__ import annotations

import numpy as np

from focalpipe.boxgeom import area, intersect
from focalpipe.focal import RefinedCrop


def columns(annotations):
    """(boxes (n, 4) float64, class ids) of a sequence of (Box, class_id) pairs."""
    boxes = np.array([b.as_tuple() for b, _ in annotations], dtype=np.float64)
    return boxes.reshape(-1, 4), [c for _, c in annotations]


def ref_refine_gt(region, annotations, keep_threshold=0.30):
    if not 0.0 < keep_threshold <= 1.0:
        raise ValueError("keep_threshold must be in (0, 1]")
    crop = RefinedCrop(region=region)
    for box, class_id in annotations:
        original = area(box)
        if original <= 0:
            crop.dropped_zero_area += 1
            continue
        clipped = intersect(box, region.rect)
        if clipped is None:
            continue
        fraction = area(clipped) / original
        if fraction < keep_threshold:
            continue
        crop.gt.append(
            (clipped.translate(-region.rect.x1, -region.rect.y1), class_id, fraction)
        )
    return crop
