"""JSON schemas for the file boundaries between pipeline stages.

Every stage reads and writes these documents, so an external detector can
replace the built-in oracle by consuming region JSON and producing
region-detection JSON. Writes are atomic (write to a temp file, then rename)
so a failed run never leaves a half-written output.

Region and merged detections load as arrays, validated in one vectorized check per region
or image, and merged detections are written from arrays; a document that does not fit raises
`DocumentError` naming its JSON path, e.g. `images/m00/[2]/detections/[17]/score`.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TextIO

import numpy as np

from .boxgeom import AffineMap2D, Box, ScoredBox
from .evalkit import GtAnnotation
from .focal import FocalRegion, RefinedCrop
from .fuse import RegionDetections, scored_boxes, scored_columns

# a merged detection as `json.dump(doc, indent=2, sort_keys=True)` lays it out at its
# depth, numbers by `repr` as `json` prints them; written CHUNK detections at a time
_DETECTION = ('\n      {\n        "bbox": [\n          %r,\n          %r,\n          %r,\n'
              '          %r\n        ],\n        "class_id": %r,\n        "score": %r\n      }')
CHUNK = 512


class DocumentError(ValueError):
    """A stage document that does not fit its schema, at the JSON path its message starts with."""


@contextmanager
def _at(path: str):
    """Raise a conversion that fails inside as a `DocumentError` at `path`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise DocumentError(f"{path}: {type(e).__name__}: {e}") from e


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


def _int(v: Any, name: str) -> int:
    """An integer field; `int` would truncate 2.7 and overflow on infinity."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def box_to_list(b: Box) -> list[float]:
    return [b.x1, b.y1, b.x2, b.y2]


def box_from_list(v: Sequence[float]) -> Box:
    return Box(*map(float, v))


def region_to_dict(r: FocalRegion) -> dict:
    return {
        "rect": box_to_list(r.rect),
        "region_id": r.region_id,
        "image_id": r.image_id,
        "to_detector": asdict(r.to_detector),
    }


def region_from_dict(d: Mapping) -> FocalRegion:
    return FocalRegion(
        rect=box_from_list(d["rect"]),
        region_id=_int(d["region_id"], "region_id"),
        image_id=str(d["image_id"]),
        to_detector=AffineMap2D(**{k: float(v) for k, v in d["to_detector"].items()}),
    )


def scored_box_to_dict(d: ScoredBox) -> dict:
    return {"bbox": box_to_list(d.box), "class_id": d.class_id, "score": d.score}


def scored_box_from_dict(d: Mapping) -> ScoredBox:
    return ScoredBox(
        box=box_from_list(d["bbox"]), class_id=_int(d["class_id"], "class_id"),
        score=float(d["score"]),
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
                        _int(g["class_id"], "class_id"),
                        float(g["kept_fraction"]),
                    )
                    for g in e["gt"]
                ],
                dropped_zero_area=_int(e.get("dropped_zero_area", 0), "dropped_zero_area"),
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


def _list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise DocumentError(f"{path}: expected a list, got {type(v).__name__}")
    return v


def _detection_columns(dets: list, path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boxes (n, 4) float64, class ids and scores of a list of detections: one region's,
    or one image's merged."""
    try:  # plain JSON numbers in the right shapes convert at once
        boxes, classes, scores = (np.array([d[k] for d in dets])
                                  for k in ("bbox", "class_id", "score"))
        fast = (boxes.shape == (len(dets), 4) and classes.shape == scores.shape == (len(dets),)
                and boxes.dtype.kind in "bif" and classes.dtype.kind in "bi"
                and scores.dtype.kind in "bif")
    except (KeyError, TypeError, ValueError, IndexError, OverflowError):
        fast = False
    if fast:
        boxes, classes, scores = boxes.astype(float), classes.astype(np.int64), scores.astype(float)
    else:  # anything else converts one detection at a time, as `scored_box_from_dict` does
        objects = []
        for j, d in enumerate(dets):
            with _at(f"{path}/[{j}]"):
                objects.append(scored_box_from_dict(d))
        boxes, classes, scores = scored_columns(objects)
    checks = [("bbox", ~np.isfinite(boxes).all(axis=1), "has a non-finite coordinate"),
              ("bbox", (boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1]), "is inverted"),
              ("class_id", classes < 0, "is negative"),
              ("score", ~((0.0 <= scores) & (scores <= 1.0)), "outside [0, 1]")]
    bad = np.logical_or.reduce([rows for _, rows, _ in checks])
    if bad.any():  # the first bad detection, by the first check it fails
        j = int(np.argmax(bad))
        key, _, what = next(check for check in checks if check[1][j])
        raise DocumentError(f"{path}/[{j}]/{key}: {dets[j][key]!r} {what}")
    return boxes, classes, scores


def region_detection_columns(doc: Any) -> dict[str, list[tuple]]:
    """A region-detection document as arrays: per image, each region's `(region, boxes
    (n, 4), class ids, scores)`, holding the values `scored_box_from_dict` gives."""
    with _at("images"):
        images = doc["images"].items()
    out: dict[str, list[tuple]] = {}
    for image_id, entries in images:
        out[image_id] = []
        for i, e in enumerate(_list(entries, f"images/{image_id}")):
            path = f"images/{image_id}/[{i}]"
            with _at(path):
                region, dets = region_from_dict(e["region"]), e["detections"]
            dets = _list(dets, f"{path}/detections")
            out[image_id].append((region, *_detection_columns(dets, f"{path}/detections")))
    return out


def region_detections_from_doc(doc: Mapping) -> dict[str, list[RegionDetections]]:
    return {
        image_id: [RegionDetections(region, scored_boxes(*columns)) for region, *columns in entries]
        for image_id, entries in region_detection_columns(doc).items()
    }


def merged_detections_doc(per_image: Mapping[str, Sequence[ScoredBox]]) -> dict:
    return {
        "images": {
            image_id: [scored_box_to_dict(d) for d in dets]
            for image_id, dets in per_image.items()
        }
    }


def write_merged_json(path: str | Path, per_image: Mapping[str, tuple]) -> None:
    """Write `merged_detections_doc` of per-image columns `(boxes (n, 4), class ids, scores)`
    as the bytes `write_json_atomic` writes for it, a chunk of detections at a time."""
    def dump(f: TextIO) -> None:
        f.write('{\n  "images": {')
        for n, image_id in enumerate(sorted(per_image)):
            boxes, classes, scores = per_image[image_id]
            f.write(f'{"," if n else ""}\n    {json.dumps(image_id)}: [')
            for start in range(0, len(scores), CHUNK):
                chunk = slice(start, start + CHUNK)
                rows = zip(*boxes[chunk].T.tolist(), classes[chunk].tolist(),
                           scores[chunk].tolist())
                f.write(("," if start else "") + ",".join([_DETECTION % row for row in rows]))
            f.write("\n    ]" if len(scores) else "]")
        f.write("\n  }\n}\n" if per_image else "}\n}\n")

    _write_atomic(path, dump)


def merged_detections_from_doc(doc: Any) -> dict[str, list[ScoredBox]]:
    """A merged-detections document, each image's list loaded and checked as columns."""
    with _at("images"):
        images = doc["images"].items()
    return {
        image_id: scored_boxes(*_detection_columns(_list(dets, f"images/{image_id}"),
                                                   f"images/{image_id}"))
        for image_id, dets in images
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
                class_id=_int(a["class_id"], "class_id"),
                ignore=bool(a.get("ignore", False)),
            )
            for a in entry["annotations"]
        ]
    sizes = image_sizes_from_doc({k: e["image_size"] for k, e in doc["images"].items()})
    return gts, sizes
