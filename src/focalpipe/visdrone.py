"""VisDrone-style annotation and result text parsing and writing.

One comma-separated file per image, one record per line:
    bbox_left,bbox_top,bbox_width,bbox_height,score,category,truncation,occlusion
Category 0 marks ignored regions and maps to the ignore flag.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .boxgeom import Box, ScoredBox
from .evalkit import GtAnnotation
from .serialize import _make_dir, write_text_atomic

IGNORED_REGION_CATEGORY = 0


class VisDroneFormatError(ValueError):
    """Malformed VisDrone text input."""


def load_class_names(path: str | Path) -> dict[int, str]:
    """The class-id -> name mapping in the JSON object at `path`. A key is a class id as a
    category is: decimal digits alone, of a value below 2^63."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise VisDroneFormatError("class names must be a JSON object of class id -> name")
    bad = [k for k in doc if not (k.isascii() and k.isdecimal()
                                  and len(k.lstrip("0")) <= 19 and int(k) < 2**63)]
    if bad:
        raise VisDroneFormatError(f"class id {bad[0]!r} is not an integer in [0, 2^63)")
    return {int(k): v for k, v in doc.items()}


def _parse_line(line: str, path: Path, lineno: int) -> tuple[float, ...]:
    fields = line.rstrip(",").split(",")
    if len(fields) != 8:
        raise VisDroneFormatError(
            f"{path}:{lineno}: expected 8 comma-separated fields, got {len(fields)}"
        )
    try:
        values = tuple(float(f) for f in fields)
    except ValueError as e:
        raise VisDroneFormatError(f"{path}:{lineno}: non-numeric field: {e}") from e
    bad = [f for f, v in zip(fields, values) if not math.isfinite(v)]
    if bad:
        raise VisDroneFormatError(f"{path}:{lineno}: non-finite field {bad[0]!r}")
    if values[2] < 0 or values[3] < 0:
        raise VisDroneFormatError(f"{path}:{lineno}: negative box width or height")
    exact = fields[5].strip().isdecimal()  # digits alone read exactly, not through a float
    category = int(fields[5]) if exact else int(values[5]) if values[5].is_integer() else -1
    if not 0 <= category < 2**63:  # a class id, as in JSON
        raise VisDroneFormatError(
            f"{path}:{lineno}: category {fields[5]!r} is not an integer in [0, 2^63)"
        )
    return (*values[:5], category, *values[6:])


def _record_box(values: tuple[float, ...]) -> Box:
    left, top, width, height = values[0], values[1], values[2], values[3]
    return Box(left, top, left + width, top + height)


def _parse_records(path: str | Path, make: Callable[[tuple[float, ...]], Any]) -> list[Any]:
    """One record per non-blank line; a record `make` rejects, or an undecodable byte, is
    named by `path:line`."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:  # its line as `splitlines` below would count it
        lineno = len((data[:e.start].decode() + ".").splitlines())
        raise VisDroneFormatError(f"{path}:{lineno}: {e}") from e
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        values = _parse_line(line, path, lineno)
        try:
            records.append(make(values))
        except ValueError as e:
            raise VisDroneFormatError(f"{path}:{lineno}: {e}") from e
    return records


def _annotation(values: tuple[float, ...]) -> GtAnnotation:
    return GtAnnotation(_record_box(values), int(values[5]), values[5] == IGNORED_REGION_CATEGORY)


def _detection(values: tuple[float, ...]) -> ScoredBox:
    return ScoredBox(box=_record_box(values), class_id=int(values[5]), score=values[4])


def _parse_dir(path: str | Path, what: str,
               make: Callable[[tuple[float, ...]], Any]) -> dict[str, list[Any]]:
    """Parse a directory of per-image .txt files (image id = file stem)."""
    path = Path(path)
    if not path.is_dir():
        raise VisDroneFormatError(f"{what} path {path} is not a directory")
    return {f.stem: _parse_records(f, make) for f in sorted(path.glob("*.txt"))}


def parse_annotations(path: str | Path) -> dict[str, list[GtAnnotation]]:
    return _parse_dir(path, "annotation", _annotation)


def parse_detections(path: str | Path) -> dict[str, list[ScoredBox]]:
    return _parse_dir(path, "detection", _detection)


def format_annotation_line(a: GtAnnotation) -> str:
    b = a.box
    return (
        f"{round(b.x1)},{round(b.y1)},{round(b.width)},{round(b.height)},"
        f"{0 if a.ignore else 1},{a.class_id},0,0"
    )


def _detection_lines(boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray) -> str:
    """Result records of detection columns; `np.rint` rounds half to even, as `round` does."""
    xywh = np.rint(np.concatenate([boxes[:, :2], boxes[:, 2:] - boxes[:, :2]], axis=1))
    return "".join(["%d,%d,%d,%d,%.6f,%s,-1,-1\n" % (*b, s, c)
                    for b, c, s in zip(xywh.tolist(), classes.tolist(), scores.tolist())])


def _write_per_image(
    out_dir: str | Path, per_image: Mapping[str, Any], text: Callable[[Any], str]
) -> None:
    """One `<image_id>.txt` per image, each written atomically. An id must name a file in
    `out_dir`, as `eval` reads it back by the file's stem: not empty, no `/` or NUL."""
    out_dir = Path(out_dir)
    bad = [i for i in sorted(per_image) if not i or "/" in i or "\0" in i]
    if bad:
        raise ValueError(f"image {bad[0]!r} names no file in {out_dir}")
    _make_dir(out_dir)
    for image_id in sorted(per_image):
        write_text_atomic(out_dir / f"{image_id}.txt", text(per_image[image_id]))


def write_annotations(out_dir: str | Path, per_image: Mapping[str, list[GtAnnotation]]) -> None:
    _write_per_image(out_dir, per_image,
                     lambda anns: "".join(format_annotation_line(a) + "\n" for a in anns))


def write_detections(out_dir: str | Path, per_image: Mapping[str, tuple]) -> None:
    """Result files from per-image detection columns `(boxes (n, 4), class ids, scores)`."""
    _write_per_image(out_dir, per_image, lambda columns: _detection_lines(*columns))
