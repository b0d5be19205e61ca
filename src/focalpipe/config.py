"""Declarative pipeline configuration with strict validation.

Defaults follow the constants the pipeline is built around: 20 px region
margin, 0.30 keep threshold, NMS IoU 0.5, IBS thresholds 0.05 (regions) and
0.5 (boxes). Precedence when loading: CLI flag > config file > default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .fuse import FuseConfig
from .mixture import EmConfig


@dataclass(frozen=True)
class PipelineConfig:
    # the grid acts only through its point count: the clustering density power
    # is grid_rows * grid_cols (see `mixture`), so 4 x 4 and 2 x 8 cluster alike
    grid_rows: int = 4
    grid_cols: int = 4
    margin: float = 20.0
    keep_threshold: float = 0.30
    detector_width: float = 1000.0
    detector_height: float = 600.0
    nms_iou: float = 0.5
    ibs_region_iou: float = 0.05
    ibs_box_iou: float = 0.5
    per_class: bool = True
    em_max_iterations: int = 100
    em_tolerance: float = 1e-4
    em_covariance_floor: float = 1.0
    em_restarts: int = 3
    max_dets: int = 500

    def __post_init__(self) -> None:
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must have at least one row and column")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if not 0.0 < self.keep_threshold <= 1.0:
            raise ValueError("keep_threshold must be in (0, 1]")
        if self.detector_width <= 0 or self.detector_height <= 0:
            raise ValueError("detector dimensions must be positive")
        if self.max_dets < 1:
            raise ValueError("max_dets must be >= 1")
        # delegate threshold / EM validation to the owning configs
        self.fuse_config()
        self.em_config()

    def fuse_config(self) -> FuseConfig:
        return FuseConfig(
            nms_iou=self.nms_iou,
            ibs_region_iou=self.ibs_region_iou,
            ibs_box_iou=self.ibs_box_iou,
            per_class=self.per_class,
        )

    def em_config(self, rng_seed: int = 0) -> EmConfig:
        return EmConfig(
            max_iterations=self.em_max_iterations,
            tolerance=self.em_tolerance,
            covariance_floor=self.em_covariance_floor,
            rng_seed=rng_seed,
            restarts=self.em_restarts,
        )

    @property
    def detector_size(self) -> tuple[float, float]:
        return (self.detector_width, self.detector_height)

    @classmethod
    def load(cls, path: str | Path | None = None, overrides: dict[str, Any] | None = None) -> "PipelineConfig":
        """Build a config from an optional JSON file plus explicit overrides.

        Unknown keys in either source are rejected.
        """
        values: dict[str, Any] = {}
        known = {f.name for f in dataclasses.fields(cls)}
        if path is not None:
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError(f"config file {path} must hold a JSON object")
            unknown = set(data) - known
            if unknown:
                raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
            values.update(data)
        if overrides:
            unknown = set(overrides) - known
            if unknown:
                raise ValueError(f"unknown config overrides: {sorted(unknown)}")
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)
