"""VisDrone-style annotation and result text parsing and writing.

One comma-separated file per image, one record per line:
    bbox_left,bbox_top,bbox_width,bbox_height,score,category,truncation,occlusion
Category 0 marks ignored regions and maps to the ignore flag. The class-id
mapping ships as data (visdrone_classes.json) and can be overridden by the
user.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .boxgeom import Box, ScoredBox
from .evalkit import GtAnnotation
from .serialize import write_text_atomic

IGNORED_REGION_CATEGORY = 0


class VisDroneFormatError(ValueError):
    """Malformed VisDrone text input."""


def default_class_names() -> dict[int, str]:
    data = resources.files("focalpipe").joinpath("visdrone_classes.json").read_text()
    return {int(k): v for k, v in json.loads(data).items()}


def load_class_names(path: str | Path | None = None) -> dict[int, str]:
    """The shipped class-id -> name mapping, or the JSON object at `path`."""
    if path is None:
        return default_class_names()
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise VisDroneFormatError("class names must be a JSON object of class id -> name")
    try:
        return {int(k): v for k, v in doc.items()}
    except ValueError as e:
        raise VisDroneFormatError(f"class id is not an integer: {e}") from e


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
    if values[2] < 0 or values[3] < 0:
        raise VisDroneFormatError(f"{path}:{lineno}: negative box width or height")
    return values


def _record_box(values: tuple[float, ...]) -> Box:
    left, top, width, height = values[0], values[1], values[2], values[3]
    return Box(left, top, left + width, top + height)


def parse_annotation_file(path: str | Path) -> list[GtAnnotation]:
    path = Path(path)
    annotations = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        values = _parse_line(line, path, lineno)
        category = int(values[5])
        annotations.append(
            GtAnnotation(
                box=_record_box(values),
                class_id=category,
                ignore=category == IGNORED_REGION_CATEGORY,
            )
        )
    return annotations


def parse_annotations(path: str | Path) -> dict[str, list[GtAnnotation]]:
    """Parse a directory of per-image .txt files (image id = file stem)."""
    path = Path(path)
    if not path.is_dir():
        raise VisDroneFormatError(f"annotation path {path} is not a directory")
    return {
        f.stem: parse_annotation_file(f) for f in sorted(path.glob("*.txt"))
    }


def parse_detection_file(path: str | Path) -> list[ScoredBox]:
    path = Path(path)
    detections = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        values = _parse_line(line, path, lineno)
        score = values[4]
        if not 0.0 <= score <= 1.0:
            raise VisDroneFormatError(f"{path}:{lineno}: score {score} outside [0, 1]")
        detections.append(
            ScoredBox(box=_record_box(values), class_id=int(values[5]), score=score)
        )
    return detections


def parse_detections(path: str | Path) -> dict[str, list[ScoredBox]]:
    path = Path(path)
    if not path.is_dir():
        raise VisDroneFormatError(f"detection path {path} is not a directory")
    return {f.stem: parse_detection_file(f) for f in sorted(path.glob("*.txt"))}


def format_annotation_line(a: GtAnnotation) -> str:
    b = a.box
    return (
        f"{round(b.x1)},{round(b.y1)},{round(b.width)},{round(b.height)},"
        f"{0 if a.ignore else 1},{a.class_id},0,0"
    )


def format_detection_line(d: ScoredBox) -> str:
    b = d.box
    return (
        f"{round(b.x1)},{round(b.y1)},{round(b.width)},{round(b.height)},"
        f"{d.score:.6f},{d.class_id},-1,-1"
    )


def _write_per_image(
    out_dir: str | Path, per_image: Mapping[str, Sequence[Any]], format_line: Callable[[Any], str]
) -> None:
    """One `<image_id>.txt` per image, each written atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for image_id in sorted(per_image):
        text = "".join(format_line(x) + "\n" for x in per_image[image_id])
        write_text_atomic(out_dir / f"{image_id}.txt", text)


def write_annotations(out_dir: str | Path, per_image: Mapping[str, list[GtAnnotation]]) -> None:
    _write_per_image(out_dir, per_image, format_annotation_line)


def write_detections(out_dir: str | Path, per_image: Mapping[str, list[ScoredBox]]) -> None:
    _write_per_image(out_dir, per_image, format_detection_line)
