"""JSON schemas for the file boundaries between pipeline stages.

Every stage reads and writes these documents, so an external detector can
replace the built-in oracle by consuming region JSON and producing
region-detection JSON. Writes are atomic (write to a temp file, then rename)
so a failed run never leaves a half-written output.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TextIO

from .boxgeom import AffineMap2D, Box, ScoredBox
from .evalkit import GtAnnotation
from .focal import FocalRegion, RefinedCrop
from .fuse import RegionDetections


def _write_atomic(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Call `write` on a temp file beside `path`, then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj: Any) -> None:
    def dump(f: TextIO) -> None:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")

    _write_atomic(path, dump)


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_atomic(path, lambda f: f.write(text))


def box_to_list(b: Box) -> list[float]:
    return [b.x1, b.y1, b.x2, b.y2]


def box_from_list(v: Sequence[float]) -> Box:
    return Box(*map(float, v))


def map_to_dict(m: AffineMap2D) -> dict:
    return {
        "scale_x": m.scale_x,
        "scale_y": m.scale_y,
        "offset_x": m.offset_x,
        "offset_y": m.offset_y,
    }


def region_to_dict(r: FocalRegion) -> dict:
    return {
        "rect": box_to_list(r.rect),
        "region_id": r.region_id,
        "image_id": r.image_id,
        "to_detector": map_to_dict(r.to_detector),
    }


def region_from_dict(d: Mapping) -> FocalRegion:
    return FocalRegion(
        rect=box_from_list(d["rect"]),
        region_id=int(d["region_id"]),
        image_id=str(d["image_id"]),
        to_detector=AffineMap2D(**{k: float(v) for k, v in d["to_detector"].items()}),
    )


def scored_box_to_dict(d: ScoredBox) -> dict:
    return {"bbox": box_to_list(d.box), "class_id": d.class_id, "score": d.score}


def scored_box_from_dict(d: Mapping) -> ScoredBox:
    return ScoredBox(
        box=box_from_list(d["bbox"]), class_id=int(d["class_id"]), score=float(d["score"])
    )


def regions_doc(per_image: Mapping[str, tuple[tuple[float, float], Sequence[FocalRegion]]]) -> dict:
    return {
        "images": {
            image_id: {
                "image_size": list(size),
                "regions": [region_to_dict(r) for r in regions],
            }
            for image_id, (size, regions) in per_image.items()
        }
    }


def regions_from_doc(doc: Mapping) -> dict[str, list[FocalRegion]]:
    return {
        image_id: [region_from_dict(r) for r in entry["regions"]]
        for image_id, entry in doc["images"].items()
    }


def crops_doc(per_image: Mapping[str, Sequence[RefinedCrop]]) -> dict:
    return {
        "images": {
            image_id: [
                {
                    "region": region_to_dict(c.region),
                    "gt": [
                        {"bbox": box_to_list(b), "class_id": cls, "kept_fraction": frac}
                        for b, cls, frac in c.gt
                    ],
                    "dropped_zero_area": c.dropped_zero_area,
                }
                for c in crops
            ]
            for image_id, crops in per_image.items()
        }
    }


def crops_from_doc(doc: Mapping) -> dict[str, list[RefinedCrop]]:
    out: dict[str, list[RefinedCrop]] = {}
    for image_id, entries in doc["images"].items():
        out[image_id] = [
            RefinedCrop(
                region=region_from_dict(e["region"]),
                gt=[
                    (
                        box_from_list(g["bbox"]),
                        int(g["class_id"]),
                        float(g["kept_fraction"]),
                    )
                    for g in e["gt"]
                ],
                dropped_zero_area=int(e.get("dropped_zero_area", 0)),
            )
            for e in entries
        ]
    return out


def region_detections_doc(per_image: Mapping[str, Sequence[RegionDetections]]) -> dict:
    return {
        "images": {
            image_id: [
                {
                    "region": region_to_dict(rd.region),
                    "detections": [scored_box_to_dict(d) for d in rd.detections],
                }
                for rd in rds
            ]
            for image_id, rds in per_image.items()
        }
    }


def region_detections_from_doc(doc: Mapping) -> dict[str, list[RegionDetections]]:
    return {
        image_id: [
            RegionDetections(
                region=region_from_dict(e["region"]),
                detections=[scored_box_from_dict(d) for d in e["detections"]],
            )
            for e in entries
        ]
        for image_id, entries in doc["images"].items()
    }


def merged_detections_doc(per_image: Mapping[str, Sequence[ScoredBox]]) -> dict:
    return {
        "images": {
            image_id: [scored_box_to_dict(d) for d in dets]
            for image_id, dets in per_image.items()
        }
    }


def merged_detections_from_doc(doc: Mapping) -> dict[str, list[ScoredBox]]:
    return {
        image_id: [scored_box_from_dict(d) for d in dets]
        for image_id, dets in doc["images"].items()
    }


def annotations_doc(
    per_image: Mapping[str, Sequence[GtAnnotation]],
    image_sizes: Mapping[str, tuple[float, float]],
) -> dict:
    return {
        "images": {
            image_id: {
                "image_size": list(image_sizes[image_id]),
                "annotations": [
                    {
                        "bbox": box_to_list(g.box),
                        "class_id": g.class_id,
                        "ignore": g.ignore,
                    }
                    for g in anns
                ],
            }
            for image_id, anns in per_image.items()
        }
    }


def image_sizes_from_doc(doc: Any) -> dict[str, tuple[float, float]]:
    """Image sizes, as `--image-sizes` files and annotation documents give them."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object of image_id -> [width, height]")
    for image_id, v in doc.items():
        if not (isinstance(v, list) and len(v) == 2
                and all(isinstance(x, (int, float)) for x in v)):
            raise ValueError(f"size of {image_id!r} is not a [width, height] pair: {v!r}")
    return {image_id: (v[0], v[1]) for image_id, v in doc.items()}


def annotations_from_doc(
    doc: Mapping,
) -> tuple[dict[str, list[GtAnnotation]], dict[str, tuple[float, float]]]:
    gts: dict[str, list[GtAnnotation]] = {}
    for image_id, entry in doc["images"].items():
        gts[image_id] = [
            GtAnnotation(
                box=box_from_list(a["bbox"]),
                class_id=int(a["class_id"]),
                ignore=bool(a.get("ignore", False)),
            )
            for a in entry["annotations"]
        ]
    sizes = image_sizes_from_doc({k: e["image_size"] for k, e in doc["images"].items()})
    return gts, sizes
