"""Synthetic scene generation and an oracle detector for closed-loop testing.

Scenes are clusters of boxes with cluster-correlated sizes, standing in for
aerial imagery; the oracle detector perturbs crop-level ground truth with
localization noise, misses, false positives and class flips on truncated
boxes. Everything is reproducible bit-for-bit from the configured seeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from math import inf, isfinite
from typing import Optional, Sequence

import numpy as np

from .boxgeom import Box, ScoredBox, area
from .focal import RefinedCrop, crop_gt_to_detector
from .fuse import RegionDetections


def _whole(v) -> bool:
    """An `int` or numpy integer, not a `bool`."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SceneSpec:
    image_size: tuple[int, int] = (1600, 1200)
    n_clusters: int = 4
    boxes_per_cluster: tuple[int, int] = (5, 12)
    cluster_spread: float = 60.0
    box_size_range: tuple[float, float] = (16.0, 48.0)
    classes: int = 3
    rng_seed: int = 0
    # per-cluster size multiplier range; makes cluster scale vary the way
    # altitude and viewing angle do, so crop-and-resize has something to
    # normalize
    size_multiplier_range: tuple[float, float] = (0.5, 2.5)

    def __post_init__(self) -> None:
        (w, h), (b_lo, b_hi) = self.image_size, self.boxes_per_cluster
        (s_lo, s_hi), (m_lo, m_hi) = self.box_size_range, self.size_multiplier_range
        for name, ok, rule in (
                ("n_clusters", _whole(self.n_clusters) and self.n_clusters >= 1, "an integer >= 1"),
                ("classes", _whole(self.classes) and self.classes >= 1, "an integer >= 1"),
                ("boxes_per_cluster", _whole(b_lo) and _whole(b_hi) and 0 <= b_lo <= b_hi,
                 "integers, 0 <= low <= high"),
                ("cluster_spread", 0.0 <= self.cluster_spread < inf, "a finite number >= 0"),
                ("box_size_range", 0.0 <= s_lo <= s_hi < inf, "finite, 0 <= low <= high"),
                ("size_multiplier_range", 0.0 <= m_lo <= m_hi < inf, "finite, 0 <= low <= high"),
                ("image_size", w > 0 and h > 0, "positive"),
                ("rng_seed", _whole(self.rng_seed) and self.rng_seed >= 0, "an integer >= 0")):
            v = getattr(self, name)  # no field takes a bool, which a range test reads as 0 or 1
            if not ok or bool in map(type, v if isinstance(v, tuple) else (v,)):
                raise ValueError(f"{name} must be {rule}, got {v}")


@dataclass(frozen=True)
class OracleSpec:
    localization_noise: float = 2.0
    score_mean_tp: float = 0.8
    score_std: float = 0.05
    miss_rate: float = 0.05
    false_positive_rate: float = 0.5
    class_flip_rate_truncated: float = 0.5
    n_classes: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("score_mean_tp", "miss_rate", "class_flip_rate_truncated"):
            if isinstance(v := getattr(self, name), bool) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {v}")
        for name in ("localization_noise", "score_std", "false_positive_rate"):
            if isinstance(v := getattr(self, name), bool) or not 0.0 <= v < inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {v}")
        for name, low in (("n_classes", 1), ("rng_seed", 0)):
            if not (_whole(v := getattr(self, name)) and v >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {v}")


@dataclass
class Scene:
    annotations: list[tuple[Box, int]]
    labels: list[int]
    image_size: tuple[int, int]


@dataclass
class ScaleStats:
    cv_raw: Optional[float]
    cv_cropped: Optional[float]


def _clip(v: float, lo: float, hi: float) -> float:
    """Exactly `float(np.clip(v, lo, hi))` for floats lo <= hi; `min(hi, max(lo, v))` is not."""
    return lo if v < lo else hi if v > hi else v


def generate_scene(spec: SceneSpec) -> Scene:
    """Sample clustered boxes; returns annotations plus true cluster labels."""
    w, h = spec.image_size
    max_size = spec.box_size_range[1] * spec.size_multiplier_range[1]
    if max_size >= w or max_size >= h:
        raise ValueError("boxes cannot fit inside the image for this spec")
    rng = np.random.default_rng(spec.rng_seed)

    annotations: list[tuple[Box, int]] = []
    labels: list[int] = []
    # Cluster centers sit on a jittered grid so clusters stay spatially
    # separated; overlapping clusters would make one focal region swallow
    # boxes at a very different scale.
    grid_cols = int(np.ceil(np.sqrt(spec.n_clusters * w / h)))
    grid_rows = int(np.ceil(spec.n_clusters / grid_cols))
    cells = [(r, c) for r in range(grid_rows) for c in range(grid_cols)]
    chosen = rng.permutation(len(cells))[: spec.n_clusters]
    cell_w, cell_h = w / grid_cols, h / grid_rows
    for cluster in range(spec.n_clusters):
        row, col = cells[int(chosen[cluster])]
        cx = (col + 0.5) * cell_w + rng.uniform(-0.1, 0.1) * cell_w
        cy = (row + 0.5) * cell_h + rng.uniform(-0.1, 0.1) * cell_h
        multiplier = rng.uniform(*spec.size_multiplier_range)
        # the multiplier scales spread along with box size: a cluster seen
        # from lower altitude has both larger objects and larger extent
        spread = spec.cluster_spread * multiplier
        n_boxes = int(rng.integers(spec.boxes_per_cluster[0], spec.boxes_per_cluster[1] + 1))
        for _ in range(n_boxes):
            bw = rng.uniform(*spec.box_size_range) * multiplier
            bh = rng.uniform(*spec.box_size_range) * multiplier
            # offsets truncated at 2 sigma keep the cluster footprint
            # proportional to its multiplier
            x = cx + _clip(rng.normal(0.0, spread), -2 * spread, 2 * spread)
            y = cy + _clip(rng.normal(0.0, spread), -2 * spread, 2 * spread)
            x = _clip(x, bw / 2, w - bw / 2)
            y = _clip(y, bh / 2, h - bh / 2)
            box = Box(x - bw / 2, y - bh / 2, x + bw / 2, y + bh / 2)
            annotations.append((box, int(rng.integers(spec.classes))))
            labels.append(cluster)
    return Scene(annotations=annotations, labels=labels, image_size=spec.image_size)


def _crop_rng(spec: OracleSpec, crop: RefinedCrop) -> np.random.Generator:
    image_hash = zlib.crc32(crop.region.image_id.encode("utf-8"))
    seq = np.random.SeedSequence([spec.rng_seed, crop.region.region_id, image_hash])
    return np.random.default_rng(seq)


def oracle_detect(crop: RefinedCrop, spec: OracleSpec) -> RegionDetections:
    """Emit noise-perturbed crop ground truth as detector-frame detections. Each box is
    mapped, jittered and clipped with the operations of `Box.translate`, `apply_map` and
    `intersect` in their order, on plain floats; only the detection's own `Box` is built.
    A kept box's four jitter normals and its score normal come from one `standard_normal`
    call unless a class-flip draw falls between them, scaled as `Generator.normal` scales
    them (`loc + scale * z`), so the draws and their values are those of separate calls."""
    rng = _crop_rng(spec, crop)
    frame, m = Box(0.0, 0.0, *crop.region.detector_size), crop.region.to_detector
    det_w, det_h, ox, oy = frame.x2, frame.y2, crop.region.rect.x1, crop.region.rect.y1
    sx, sy, tx, ty = m.scale_x, m.scale_y, m.offset_x, m.offset_y
    noise, mean, std, n_classes = (spec.localization_noise, spec.score_mean_tp, spec.score_std,
                                   spec.n_classes)
    n_jitter, n_score = 4 * (noise > 0), int(std > 0)
    random, normal = rng.random, rng.standard_normal

    detections: list[ScoredBox] = []
    for box, class_id, fraction in crop.gt:
        x1, x2 = sx * (box.x1 + ox) + tx, sx * (box.x2 + ox) + tx
        y1, y2 = sy * (box.y1 + oy) + ty, sy * (box.y2 + oy) + ty
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise ValueError(f"non-finite detector-frame box: {(x1, y1, x2, y2)}")
        if random() < spec.miss_rate:
            continue
        flips = fraction < 1.0 and n_classes > 1  # a NaN fraction takes no flip draw
        n = n_jitter if flips else n_jitter + n_score
        z = normal(n).tolist() if n else []
        if n_jitter:
            x2, y2 = x2 + (0.0 + noise * z[2]), y2 + (0.0 + noise * z[3])
            x1 = min(x1 + (0.0 + noise * z[0]), x2 - 1e-6)
            y1 = min(y1 + (0.0 + noise * z[1]), y2 - 1e-6)
            if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
                raise ValueError(f"non-finite jittered box: {(x1, y1, x2, y2)}")
        out_class = class_id
        if flips and random() < spec.class_flip_rate_truncated:
            out_class = int((class_id + 1 + rng.integers(n_classes - 1)) % n_classes)
        score = _clip(mean + std * (normal() if flips else z[-1]), 0.0, 1.0) if n_score else mean
        x1, y1, x2, y2 = max(x1, 0.0), max(y1, 0.0), min(x2, det_w), min(y2, det_h)
        if x1 < x2 and y1 < y2:
            detections.append(ScoredBox(Box(x1, y1, x2, y2), out_class, score))

    for _ in range(int(rng.poisson(spec.false_positive_rate))):
        fw = rng.uniform(0.02, 0.15) * det_w
        fh = rng.uniform(0.02, 0.15) * det_h
        fx = rng.uniform(0.0, det_w - fw)
        fy = rng.uniform(0.0, det_h - fh)
        score = _clip(rng.normal(0.3, 0.1), 0.0, 1.0)
        detections.append(
            ScoredBox(Box(fx, fy, fx + fw, fy + fh), int(rng.integers(spec.n_classes)), score))
    return RegionDetections(region=crop.region, detections=detections)


def _cv(areas: Sequence[float]) -> Optional[float]:
    if len(areas) < 2:
        return None
    arr = np.asarray(areas, dtype=float)
    mean = arr.mean()
    if mean == 0:
        return None
    return float(arr.std() / mean)


def scale_stats(
    crops: Sequence[RefinedCrop], raw_annotations: Sequence[tuple[Box, int]]
) -> ScaleStats:
    """Coefficient of variation of box areas, raw vs after crop-and-resize.

    Cropped areas are measured in the detector frame each crop maps onto, so
    the statistic reflects what the second-stage detector actually sees.
    """
    raw_areas = [area(b) for b, _ in raw_annotations]
    cropped_areas = [area(box) for crop in crops for box, _, _ in crop_gt_to_detector(crop)]
    return ScaleStats(cv_raw=_cv(raw_areas), cv_cropped=_cv(cropped_areas))
