"""End-to-end orchestration shared by the CLI, the experiment scripts and
the acceptance suite: cluster boxes, build regions, refine ground truth,
detect (oracle or external), merge, evaluate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .boxgeom import Box, ScoredBox, box_array
from .config import PipelineConfig
from .evalkit import EvalReport, GtAnnotation, coco_eval
from .focal import FocalRegion, RefinedCrop, refine_gt, regions_from_clusters
from .fuse import RegionDetections, merge_both
from .mixture import EmConfig, _centers, assign_clusters, fit_em, num_focal_regions
from .scenes import OracleSpec, SceneSpec, generate_scene, oracle_detect


def cluster_boxes(boxes: Sequence[Box], config: PipelineConfig, seed: int = 0) -> list[int]:
    """Cluster labels of the mixture fit on box centers, with density power P =
    `config.grid_points`: the fit on each center's offsets to P grid points."""
    centers = _centers(boxes)
    k = num_focal_regions(len(boxes))
    model = fit_em(centers, k, EmConfig(rng_seed=seed), density_power=config.grid_points)
    return assign_clusters(model, centers)


def regions_for_image(
    annotations: Sequence[GtAnnotation],
    image_size: tuple[float, float],
    config: PipelineConfig,
    image_id: str = "",
    seed: int = 0,
) -> list[FocalRegion]:
    """GMM focal regions for one image; ignore-flagged annotations are skipped."""
    boxes = [a.box for a in annotations if not a.ignore]
    if not boxes:
        return []
    labels = cluster_boxes(boxes, config, seed=seed)
    return regions_from_clusters(boxes, labels, image_size, config.detector_size,
                                 margin=config.margin, image_id=image_id)


def refine_image(
    regions: Sequence[FocalRegion],
    annotations: Sequence[GtAnnotation],
    config: PipelineConfig,
) -> list[RefinedCrop]:
    kept = [a for a in annotations if not a.ignore]
    boxes = box_array([a.box for a in kept])
    class_ids = [a.class_id for a in kept]
    return [refine_gt(r, boxes, class_ids, keep_threshold=config.keep_threshold)
            for r in regions]


@dataclass
class ImageRun:
    """All artifacts of one image; `merged` is the result with IBS, `merged_no_ibs` without."""

    annotations: list[GtAnnotation]
    regions: list[FocalRegion]
    crops: list[RefinedCrop]
    region_detections: list[RegionDetections]
    merged: list[ScoredBox]
    merged_no_ibs: list[ScoredBox]


def run_image(annotations: Sequence[GtAnnotation], image_size: tuple[float, float],
              oracle_spec: OracleSpec, config: PipelineConfig = PipelineConfig(),
              image_id: str = "", seed: int = 0) -> ImageRun:
    """Focus, refine, oracle detect and merge one image, with and without IBS; `seed` seeds EM."""
    regions = regions_for_image(annotations, image_size, config, image_id=image_id, seed=seed)
    crops = refine_image(regions, annotations, config)
    rds = [oracle_detect(crop, oracle_spec) for crop in crops]
    return ImageRun(list(annotations), regions, crops, rds, *merge_both(rds, config.fuse_config()))


def run_scene(scene_spec: SceneSpec, oracle_spec: OracleSpec,
              config: PipelineConfig = PipelineConfig(), image_id: str = "scene") -> ImageRun:
    """Synthesize one scene and run it through `run_image`, EM seeded by the scene."""
    scene = generate_scene(scene_spec)
    annotations = [GtAnnotation(box=b, class_id=c) for b, c in scene.annotations]
    return run_image(annotations, scene.image_size, oracle_spec, config, image_id=image_id,
                     seed=scene_spec.rng_seed)


def evaluate_runs(
    runs: Sequence[ImageRun], config: PipelineConfig = PipelineConfig(), use_ibs: bool = True
) -> EvalReport:
    """COCO report over a corpus of image runs treated as one dataset."""
    gts = {}
    dets = {}
    for i, run in enumerate(runs):
        image_id = f"scene{i:04d}"
        gts[image_id] = run.annotations
        dets[image_id] = run.merged if use_ibs else run.merged_no_ibs
    return coco_eval(dets, gts, max_dets=config.max_dets)
