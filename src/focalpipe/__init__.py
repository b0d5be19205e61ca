"""Region-search pipeline for small-object detection in aerial-style imagery.

Geometric and statistical core: GMM focal-region generation from
annotations, crop-level ground-truth refinement, detection merging with NMS
and Incomplete Box Suppression, COCO/VOC-style evaluation, and a synthetic
scene generator with an oracle detector for closed-loop verification.
"""

from .boxgeom import AffineMap2D, Box, ScoredBox, apply_map, area, clip, intersect, iou
from .config import PipelineConfig
from .evalkit import EvalReport, GtAnnotation, coco_eval, voc_ap_at
from .focal import FocalRegion, RefinedCrop, eip_regions, make_detector_map, refine_gt, regions_from_clusters
from .fuse import FuseConfig, RegionDetections, ibs, merge_pipeline, nms, remap_to_image
from .mixture import (
    EmConfig,
    FeatureGrid,
    MixtureModel,
    assign_clusters,
    featurize,
    fit_em,
    num_focal_regions,
    posterior,
)
from .scenes import OracleSpec, SceneSpec, generate_scene, oracle_detect, scale_stats

__all__ = [
    "AffineMap2D",
    "Box",
    "EmConfig",
    "EvalReport",
    "FeatureGrid",
    "FocalRegion",
    "FuseConfig",
    "GtAnnotation",
    "MixtureModel",
    "OracleSpec",
    "PipelineConfig",
    "RefinedCrop",
    "RegionDetections",
    "SceneSpec",
    "ScoredBox",
    "apply_map",
    "area",
    "assign_clusters",
    "clip",
    "coco_eval",
    "eip_regions",
    "featurize",
    "fit_em",
    "generate_scene",
    "ibs",
    "intersect",
    "iou",
    "make_detector_map",
    "merge_pipeline",
    "nms",
    "num_focal_regions",
    "oracle_detect",
    "posterior",
    "refine_gt",
    "regions_from_clusters",
    "remap_to_image",
    "scale_stats",
    "voc_ap_at",
]

__version__ = "0.1.0"
