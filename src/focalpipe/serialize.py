"""JSON schemas for the file boundaries between pipeline stages.

Every stage reads and writes these documents, so an external detector can
replace the built-in oracle by consuming region JSON and producing
region-detection JSON. Writes are atomic (write to a temp file, then rename)
so a failed run never leaves a half-written output.

Every numeric field, here and in a config file, is read by one rule: a JSON number is an
`int` or a `float`, never a `bool` or a string (`number`), and an integer field is an
integral number in [0, 2^63) (`integer`). Region and merged detections load as arrays,
validated in one vectorized check per region or image, and merged detections are written
from arrays; a document that does not fit raises `DocumentError` naming its JSON path, e.g.
`images/m00/[2]/detections/[17]/score` or `images/s0/regions/[2]`.
"""

from __future__ import annotations

import csv
import json
import os
import secrets
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from itertools import chain, takewhile
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .boxgeom import AffineMap2D, Box, ScoredBox
from .evalkit import GtAnnotation
from .focal import FocalRegion, RefinedCrop
from .fuse import RegionDetections, scored_boxes

# a merged detection as `json.dump(doc, indent=2, sort_keys=True)` lays it out at its
# depth, numbers by `repr` as `json` prints them; written CHUNK detections at a time
_DETECTION = ('\n      {\n        "bbox": [\n          %r,\n          %r,\n          %r,\n'
              '          %r\n        ],\n        "class_id": %r,\n        "score": %r\n      }')
CHUNK = 512
NUMBER = {int, float}  # the types of a JSON number; `bool` is not one
_created: list[Path] | None = None  # inside `_all_or_nothing`, each directory and file made


class DocumentError(ValueError):
    """A stage document that does not fit its schema, at the JSON path its message starts with."""


@contextmanager
def _at(path: str):
    """Raise a conversion that fails inside as a `DocumentError` at `path`, unless it is one."""
    try:
        yield
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise DocumentError(f"{path}: {type(e).__name__}: {e}") from e


@contextmanager
def _all_or_nothing():
    """Record what the writers make inside; if the body raises, remove it, the last first."""
    global _created
    _created = created = []
    try:
        yield
    except BaseException:
        for path in reversed(created):  # a directory goes only if it is empty
            with suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        raise
    finally:
        _created = None


def _make_dir(path: Path) -> None:
    """Create the directory `path` and its missing parents, recording them first."""
    if _created is not None:  # first, as a `mkdir` that fails can have made some
        _created.extend([*takewhile(lambda p: not os.path.lexists(p), (path, *path.parents))][::-1])
    path.mkdir(parents=True, exist_ok=True)


def _write_atomic(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Call `write` on a new temp file beside `path`, then rename it over `path`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}{secrets.token_hex(4)}.tmp")
    try:  # an `OSError` names `path`, not the directory or temp file it failed on
        _make_dir(path.parent)
        f = open(tmp, "x", encoding="utf-8")  # 0o666 less the umask; on a clash, not ours
        try:
            with f:
                write(f)
            if _created is not None and not os.path.lexists(path):
                _created.append(path)  # a rerun keeps the outputs that were there
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as e:
        raise OSError(f"{path}: {e}") from e


def write_json_atomic(path: str | Path, obj: Any) -> None:
    def dump(f: TextIO) -> None:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")

    _write_atomic(path, dump)


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_atomic(path, lambda f: f.write(text))


def write_csv_atomic(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    _write_atomic(path, lambda f: csv.writer(f).writerows([header, *rows]))


def number(v: Any, name: str) -> int | float:
    """A numeric field as JSON gives it: an `int` or a `float`, never a `bool` or a string."""
    if type(v) not in NUMBER:
        raise ValueError(f"{name} must be a number, got {v!r}")
    return v


def integer(v: Any, name: str) -> int:
    """An integer field: an integral number in [0, 2^63); 2.0 loads as 2, 2.7 is an error."""
    if not (type(number(v, name)) is int or v.is_integer()) or not 0 <= v < 2**63:
        raise ValueError(f"{name} must be an integer in [0, 2^63), got {v!r}")
    return int(v)


def _bool(v: Any, name: str) -> bool:
    """A boolean field; `bool` would read the string "false" as true."""
    if not isinstance(v, bool):
        raise ValueError(f"{name} must be true or false, got {v!r}")
    return v


def box_to_list(b: Box) -> list[float]:
    return [b.x1, b.y1, b.x2, b.y2]


def box_from_list(v: Any) -> Box:
    """A box from a JSON list of four numbers; a string of four characters is no box."""
    if not (isinstance(v, list) and len(v) == 4):
        raise ValueError(f"a box must be a list of four numbers, got {v!r}")
    return Box(*(float(number(x, "a box coordinate")) for x in v))


def region_to_dict(r: FocalRegion) -> dict:
    return {
        "rect": box_to_list(r.rect),
        "region_id": r.region_id,
        "image_id": r.image_id,
        "to_detector": asdict(r.to_detector),
    }


def region_from_dict(d: Mapping) -> FocalRegion:
    if not isinstance(d["image_id"], str):
        raise ValueError(f"image_id must be a string, got {d['image_id']!r}")
    return FocalRegion(
        rect=box_from_list(d["rect"]),
        region_id=integer(d["region_id"], "region_id"),
        image_id=d["image_id"],
        to_detector=AffineMap2D(**{k: float(number(v, k)) for k, v in d["to_detector"].items()}),
    )


def scored_box_to_dict(d: ScoredBox) -> dict:
    return {"bbox": box_to_list(d.box), "class_id": d.class_id, "score": d.score}


def scored_box_from_dict(d: Mapping) -> ScoredBox:
    return ScoredBox(
        box=box_from_list(d["bbox"]), class_id=integer(d["class_id"], "class_id"),
        score=float(number(d["score"], "score")),
    )


def _doc(per_image: Mapping[str, Any], write: Callable[[Any], Any]) -> dict:
    """The envelope of every stage document: `{"images": {image_id: write(per_image[id])}}`."""
    return {"images": {image_id: write(value) for image_id, value in per_image.items()}}


def _images(doc: Any, read: Callable[[Any, str], Any]) -> dict:
    """Each image's entry of a stage document, as `read(entry, its JSON path)` converts it."""
    with _at("images"):
        images = doc["images"].items()
    return {image_id: _read_at(read, entry, f"images/{image_id}") for image_id, entry in images}


def _each(items: Any, path: str, read: Callable[[Any, str], Any]) -> list:
    """Each item of the JSON list at `path`, as `read(item, its JSON path)` converts it."""
    return [_read_at(read, item, f"{path}/[{i}]") for i, item in enumerate(_list(items, path))]


def _read_at(read: Callable[[Any, str], Any], value: Any, path: str) -> Any:
    """`read(value, path)`, converted inside `_at(path)`."""
    with _at(path):
        return read(value, path)


def _list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise DocumentError(f"{path}: expected a list, got {type(v).__name__}")
    return v


def regions_doc(per_image: Mapping[str, tuple[tuple[float, float], Sequence[FocalRegion]]]) -> dict:
    return _doc(per_image, lambda size_regions: {
        "image_size": list(size_regions[0]),
        "regions": [region_to_dict(r) for r in size_regions[1]],
    })


def regions_from_doc(doc: Mapping) -> dict[str, list[FocalRegion]]:
    return _images(doc, lambda entry, path: _each(entry["regions"], f"{path}/regions",
                                                  lambda r, _: region_from_dict(r)))


def crops_doc(per_image: Mapping[str, Sequence[RefinedCrop]]) -> dict:
    return _doc(per_image, lambda crops: [
        {
            "region": region_to_dict(c.region),
            "gt": [
                {"bbox": box_to_list(b), "class_id": cls, "kept_fraction": frac}
                for b, cls, frac in c.gt
            ],
            "dropped_zero_area": c.dropped_zero_area,
        }
        for c in crops
    ])


def crops_from_doc(doc: Mapping) -> dict[str, list[RefinedCrop]]:
    def crop(e: Any, path: str) -> RefinedCrop:
        return RefinedCrop(
            region=region_from_dict(e["region"]),
            gt=_each(e["gt"], f"{path}/gt", lambda g, _: (
                box_from_list(g["bbox"]), integer(g["class_id"], "class_id"),
                float(number(g["kept_fraction"], "kept_fraction")))),
            dropped_zero_area=integer(e.get("dropped_zero_area", 0), "dropped_zero_area"),
        )

    return _images(doc, lambda entries, path: _each(entries, path, crop))


def region_detections_doc(per_image: Mapping[str, Sequence[RegionDetections]]) -> dict:
    return _doc(per_image, lambda rds: [
        {
            "region": region_to_dict(rd.region),
            "detections": [scored_box_to_dict(d) for d in rd.detections],
        }
        for rd in rds
    ])


def _detection_columns(dets: Any, path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boxes (n, 4) float64, class ids int64 and scores float64 of the JSON list of detections
    at `path`: one region's, or one image's merged. Each field converts as one array, once its
    values pass `number` and `integer` as a whole column; a list that does not is reported at
    the first detection `scored_box_from_dict` rejects."""
    dets = _list(dets, path)
    try:
        bboxes, ids, scores = ([d[k] for d in dets] for k in ("bbox", "class_id", "score"))
        if float in set(map(type, ids)):  # integral floats load as `integer` gives them
            ids = [integer(c, "class_id") for c in ids]
        if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}
                and set(map(type, chain(ids, scores, chain.from_iterable(bboxes)))) <= NUMBER):
            raise TypeError("not JSON numbers")
        # one flat pass converts faster than the nested lists
        boxes = np.fromiter(chain.from_iterable(bboxes), np.float64, 4 * len(dets)).reshape(-1, 4)
        classes, scores = np.array(ids, dtype=np.int64), np.array(scores, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        _each(dets, path, lambda d, _: scored_box_from_dict(d))  # names the first bad one
        raise DocumentError(f"{path}: malformed detections") from None
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
    def region(e: Any, path: str) -> tuple:
        return (region_from_dict(e["region"]),
                *_detection_columns(e["detections"], f"{path}/detections"))

    return _images(doc, lambda entries, path: _each(entries, path, region))


def region_detections_from_doc(doc: Mapping) -> dict[str, list[RegionDetections]]:
    return {
        image_id: [RegionDetections(region, scored_boxes(*columns)) for region, *columns in entries]
        for image_id, entries in region_detection_columns(doc).items()
    }


def merged_detections_doc(per_image: Mapping[str, Sequence[ScoredBox]]) -> dict:
    return _doc(per_image, lambda dets: [scored_box_to_dict(d) for d in dets])


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
    return _images(doc, lambda dets, path: scored_boxes(*_detection_columns(dets, path)))


def annotations_doc(
    per_image: Mapping[str, Sequence[GtAnnotation]],
    image_sizes: Mapping[str, tuple[float, float]],
) -> dict:
    sized = {image_id: (image_sizes[image_id], anns) for image_id, anns in per_image.items()}
    return _doc(sized, lambda size_anns: {
        "image_size": list(size_anns[0]),
        "annotations": [
            {
                "bbox": box_to_list(g.box),
                "class_id": g.class_id,
                "ignore": g.ignore,
            }
            for g in size_anns[1]
        ],
    })


def image_sizes_from_doc(doc: Any) -> dict[str, tuple[float, float]]:
    """Image sizes, as `--image-sizes` files and annotation documents give them."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object of image_id -> [width, height]")
    for image_id, v in doc.items():
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError(f"size of {image_id!r} is not a [width, height] pair: {v!r}")
        for name, side in zip(("width", "height"), v):  # compared exactly, integers too
            if not 0 < number(side, f"{name} of {image_id!r}") <= sys.float_info.max:
                raise ValueError(f"{name} of {image_id!r} must be positive and finite: {side!r}")
    return {image_id: (v[0], v[1]) for image_id, v in doc.items()}


def annotations_from_doc(
    doc: Mapping,
) -> tuple[dict[str, list[GtAnnotation]], dict[str, tuple[float, float]]]:
    def annotation(a: Any, _: str) -> GtAnnotation:
        return GtAnnotation(box_from_list(a["bbox"]), integer(a["class_id"], "class_id"),
                            _bool(a.get("ignore", False), "ignore"))

    gts = _images(doc, lambda entry, path: _each(entry["annotations"], f"{path}/annotations",
                                                 annotation))
    sizes = image_sizes_from_doc(_images(doc, lambda entry, _: entry["image_size"]))
    return gts, sizes
