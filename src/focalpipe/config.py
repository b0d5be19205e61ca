"""Declarative pipeline configuration with strict validation.

Defaults follow the constants the pipeline is built around: 20 px region
margin, 0.30 keep threshold, NMS IoU 0.5, IBS thresholds 0.05 (regions) and
0.5 (boxes), 16 grid points. Precedence when loading: CLI flag > config file >
default. A field is a CLI flag, `--name-with-dashes`, on each command that reads
it (see `cli.config_options`); a config file may set every field on every command.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .fuse import FuseConfig
from .serialize import integer, number


@dataclass(frozen=True)
class PipelineConfig:
    margin: float = field(default=20.0, metadata={"help": "Region margin in pixels."})
    keep_threshold: float = field(default=0.30, metadata={
        "help": "Minimum kept area fraction for refined ground truth."})
    nms_iou: float = 0.5
    ibs_region_iou: float = 0.05
    ibs_box_iou: float = 0.5
    detector_width: float = 1000.0
    detector_height: float = 600.0
    grid_points: int = field(default=16, metadata={
        "help": "Grid points P: the clustering density power (see `mixture`)."})
    max_dets: int = 500

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):  # NaN would pass every range check below
            value = getattr(self, f.name)
            try:  # and an int no float holds would pass them, then overflow where used
                finite = not isinstance(value, (int, float)) or math.isfinite(value)
            except OverflowError:
                finite, value = False, "an integer too large for a float"
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if not 0.0 < self.keep_threshold <= 1.0:
            raise ValueError("keep_threshold must be in (0, 1]")
        if self.detector_width <= 0 or self.detector_height <= 0:
            raise ValueError("detector_width and detector_height must be positive")
        if self.max_dets < 1:
            raise ValueError("max_dets must be >= 1")
        self.fuse_config()  # the fuse thresholds are validated by their owner

    def fuse_config(self) -> FuseConfig:
        return FuseConfig(nms_iou=self.nms_iou, ibs_region_iou=self.ibs_region_iou,
                          ibs_box_iou=self.ibs_box_iou)

    @property
    def detector_size(self) -> tuple[float, float]:
        return (self.detector_width, self.detector_height)

    @classmethod
    def load(cls, path: str | Path | None = None, overrides: dict[str, Any] | None = None) -> "PipelineConfig":
        """Build a config from an optional JSON file, then apply the overrides that are not None.

        Unknown keys in the file are rejected. File values follow the stage-document
        number rule (`serialize.number` for a float field, `serialize.integer` for an int
        field, so `16.0` loads as 16), and they must be valid on their own, so that their
        errors, like those of decoding the file, start with `config file <path>:`.
        """
        config = cls()
        if path is not None:
            types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
            try:
                data = json.loads(Path(path).read_text(encoding="utf-8"))
                if not isinstance(data, dict):
                    raise ValueError("must hold a JSON object")
                unknown = set(data) - set(types)
                if unknown:
                    raise ValueError(f"unknown config keys: {sorted(unknown)}")
                config = cls(**{key: (integer if types[key] is int else number)(value, key)
                                for key, value in data.items()})
            except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
                raise ValueError(f"config file {path}: {e}") from e
        return dataclasses.replace(
            config, **{k: v for k, v in (overrides or {}).items() if v is not None})
