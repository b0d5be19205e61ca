"""Command-line front end wiring the pipeline stages through files.

Stage boundaries are JSON/CSV/VisDrone-text files, so any stage can be
replaced by an external process that honors the same schemas. Exit codes:
0 success, 1 usage error, 2 data error: an unreadable, non-UTF-8 or malformed input or
an unwritable output, named in the message. A run that fails removes the outputs it made.
"""

from __future__ import annotations

import dataclasses
import json
import secrets
import sys
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

import click

from . import evalkit, serialize, visdrone
from .config import PipelineConfig
from .evalkit import GtAnnotation, coco_eval, report_table, voc_ap_at
from .fuse import ingest_columns, merge_columns, scored_columns
from .pipeline import refine_image, regions_for_image, run_image
from .scenes import OracleSpec, SceneSpec, generate_scene


class DataError(click.ClickException):
    """Invalid or inconsistent input data; maps to exit code 2."""


@contextmanager
def _data_errors(*where: object):
    """Raise a `ValueError` (JSON syntax, Unicode and schema errors) or `RecursionError` (JSON
    nested too deep) inside as a `DataError` starting with `where`: the input, then the path."""
    try:
        yield
    except (ValueError, RecursionError) as e:
        raise DataError(": ".join([*map(str, where), str(e)])) from e


def config_options(*names: str):
    """Add `--config` and a `--name-with-dashes` flag for each named `PipelineConfig` field,
    in field order: the fields the command reads, so that every flag it takes has an effect."""
    fields = [f for f in dataclasses.fields(PipelineConfig) if f.name in names]

    def decorate(f):
        for field in reversed(fields):
            f = click.option(f"--{field.name.replace('_', '-')}", type=type(field.default),
                             default=None, help=field.metadata.get("help"))(f)
        return click.option("--config", "config_path", type=click.Path(exists=True),
                            default=None, help="JSON config file; CLI flags override it.")(f)
    return decorate


def _load_config(config_path: Optional[str], **overrides) -> PipelineConfig:
    with _data_errors():  # a config file's errors name it; a flag's name the field
        return PipelineConfig.load(config_path, overrides=overrides)


def _load_annotations(path: str):
    """Ground truth and image sizes from an annotations JSON doc, or ground truth and no
    sizes (None) from a VisDrone directory."""
    if not Path(path).is_dir():
        return _load_doc(path, serialize.annotations_from_doc)
    with _data_errors():  # its errors name the file and line
        return visdrone.parse_annotations(path), None


def _load_json(path: str) -> dict:
    with _data_errors(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_doc(path: str, from_doc: Callable[[dict], Any]) -> Any:
    """Read a stage document and convert it with a `serialize.*_from_doc`
    function, whose `DocumentError` names the JSON path where it does not fit."""
    doc = _load_json(path)
    with _data_errors(path):
        return from_doc(doc)


def _resolve_seed(seed: Optional[int]) -> int:
    return seed if seed is not None else secrets.randbelow(2**31)


def _image_seed(seed: int, image_id: str) -> int:
    """One image's EM seed, from the base seed and its id, not its corpus position."""
    return zlib.crc32(image_id.encode("utf-8"), seed % 2**32)


@click.group()
def cli() -> None:
    """Focal-region search pipeline: cluster, crop, merge, evaluate."""


@cli.command("synth")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="RNG seed; auto-chosen and recorded in metadata when omitted.")
@click.option("--num-scenes", type=click.IntRange(min=0), default=10, show_default=True)
def synth_cmd(out_dir, seed, num_scenes) -> tuple[dict, dict]:
    """Generate a `SceneSpec`-default scene corpus (VisDrone text plus JSON)."""
    seed = _resolve_seed(seed)
    out = Path(out_dir)
    gts, sizes = {}, {}
    for i in range(num_scenes):
        scene = generate_scene(SceneSpec(rng_seed=seed + i))
        image_id = f"scene{i:04d}"
        gts[image_id] = [GtAnnotation(box=b, class_id=c) for b, c in scene.annotations]
        sizes[image_id] = scene.image_size
    visdrone.write_annotations(out / "annotations", gts)
    serialize.write_json_atomic(out / "annotations.json", serialize.annotations_doc(gts, sizes))
    serialize.write_json_atomic(
        out / "metadata.json",
        {"seed": seed, "num_scenes": num_scenes, "image_size": list(SceneSpec.image_size)},
    )
    click.echo(f"wrote {num_scenes} scenes to {out}")
    return gts, sizes  # the corpus `pipeline` runs on


@cli.command("gen-regions")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--image-sizes", "sizes_path", type=click.Path(exists=True), default=None,
              help="image_id -> [w, h] JSON; for (and required by) a VisDrone directory.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True, help="EM seed.")
@config_options("margin", "detector_width", "detector_height", "grid_points")
def gen_regions_cmd(annotations_path, sizes_path, out_path, seed, config_path, **overrides) -> None:
    """Cluster ground truth per image and emit focal-region JSON."""
    if sizes_path is not None and not Path(annotations_path).is_dir():
        raise click.UsageError("--image-sizes applies only to a VisDrone directory; "
                               f"{annotations_path} carries its own image sizes")
    config = _load_config(config_path, **overrides)
    gts, sizes = _load_annotations(annotations_path)
    sizes_from = annotations_path
    if sizes is None:  # a VisDrone directory
        if sizes_path is None:
            raise DataError("VisDrone directories carry no image dimensions; pass --image-sizes")
        sizes, sizes_from = _load_doc(sizes_path, serialize.image_sizes_from_doc), sizes_path
        if set(gts) - set(sizes):
            raise DataError(f"{sizes_path}: no image size for: {sorted(set(gts) - set(sizes))[:5]}")
    per_image = {}
    for image_id in sorted(gts):
        with _data_errors(sizes_from, image_id):
            regions = regions_for_image(
                gts[image_id], sizes[image_id], config, image_id=image_id,
                seed=_image_seed(seed, image_id),
            )
        per_image[image_id] = (sizes[image_id], regions)
    serialize.write_json_atomic(out_path, serialize.regions_doc(per_image))
    click.echo(f"wrote regions for {len(per_image)} images to {out_path}")


@cli.command("refine-gt")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--regions", "regions_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@config_options("keep_threshold")
def refine_gt_cmd(annotations_path, regions_path, out_path, config_path, **overrides) -> None:
    """Clip and filter ground truth into focal-region crops."""
    config = _load_config(config_path, **overrides)
    gts, _ = _load_annotations(annotations_path)
    regions = _load_doc(regions_path, serialize.regions_from_doc)
    per_image = {}
    for image_id in sorted(regions):
        if image_id not in gts:
            raise DataError(f"{regions_path}: images/{image_id}: not in {annotations_path}")
        per_image[image_id] = refine_image(regions[image_id], gts[image_id], config)
    serialize.write_json_atomic(out_path, serialize.crops_doc(per_image))
    click.echo(f"wrote crops for {len(per_image)} images to {out_path}")


@cli.command("merge")
@click.option("--region-detections", "rd_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--out-visdrone", type=click.Path(), default=None,
              help="Also write VisDrone-format result text files here.")
@click.option("--no-ibs", is_flag=True, help="Skip Incomplete Box Suppression (ablation).")
@config_options("nms_iou", "ibs_region_iou", "ibs_box_iou")
def merge_cmd(rd_path, out_path, out_visdrone, no_ibs, config_path, **overrides) -> None:
    """Merge per-region detections into image-level results (NMS then IBS)."""
    config = _load_config(config_path, **overrides)
    per_image = _load_doc(rd_path, serialize.region_detection_columns)
    merged = {}
    for image_id in sorted(per_image):
        with _data_errors(rd_path, f"images/{image_id}"):
            # external detectors may overrun the detector frame; clamp to it first
            merged[image_id] = merge_columns(*ingest_columns(per_image[image_id]),
                                             config.fuse_config(), apply_ibs=not no_ibs)
    serialize.write_merged_json(out_path, merged)
    if out_visdrone:
        with _data_errors(rd_path):
            visdrone.write_detections(out_visdrone, merged)
    total = sum(len(scores) for *_, scores in merged.values())
    click.echo(f"wrote {total} merged detections to {out_path}")


@cli.command("eval")
@click.option("--detections", "det_path", type=click.Path(exists=True), required=True,
              help="Merged-detection JSON or a VisDrone result directory.")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--table", "table_path", type=click.Path(), default=None)
@click.option("--pr-csv", "pr_csv_path", type=click.Path(), default=None)
@click.option("--voc-iou", type=float, default=None,
              help="Also report VOC all-point AP at this IoU (classes merged).")
@click.option("--class-names", "class_names_path", type=click.Path(exists=True), default=None)
@config_options("max_dets")
def eval_cmd(det_path, annotations_path, out_path, table_path, pr_csv_path,
             voc_iou, class_names_path, config_path, **overrides) -> None:
    """Score merged detections against ground truth."""
    config = _load_config(config_path, **overrides)
    gts, _ = _load_annotations(annotations_path)
    with _data_errors(class_names_path):
        names = visdrone.load_class_names(class_names_path) if class_names_path else None
    with _data_errors():  # a VisDrone error names its file and line
        dets = (visdrone.parse_detections(det_path) if Path(det_path).is_dir()
                else _load_doc(det_path, serialize.merged_detections_from_doc))
    with _data_errors(det_path):  # one match gives the report and the PR points
        matches = evalkit._match(dets, gts, evalkit.COCO_KEYS, config.max_dets)
    report = evalkit._report(matches)
    doc = report.to_json_dict()
    if voc_iou is not None:
        with _data_errors("--voc-iou"):
            doc["voc_ap"] = voc_ap_at(dets, gts, iou_threshold=voc_iou, max_dets=config.max_dets)
        doc["voc_iou"] = voc_iou
    serialize.write_json_atomic(out_path, doc)
    table = report_table(report, class_names=names)
    if table_path:
        serialize.write_text_atomic(table_path, table)
    if pr_csv_path:
        serialize.write_csv_atomic(  # at (0.5, "all"), the first key
            pr_csv_path, ["class_id", "score", "precision", "recall"],
            [(c, f"{s:.6f}", f"{p:.6f}", f"{r:.6f}") for c, s, p, r in evalkit._points(matches)])
    click.echo(table, nl=False)


@cli.command("pipeline")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Base seed; auto-chosen and recorded in metadata when omitted.")
@click.option("--num-scenes", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--no-ibs", is_flag=True)
@config_options(*(f.name for f in dataclasses.fields(PipelineConfig)))
@click.pass_context
def pipeline_cmd(ctx, out_dir, seed, num_scenes, no_ibs, config_path, **overrides) -> None:
    """Closed loop: synth, gen-regions, refine-gt, oracle detect, merge, eval."""
    config = _load_config(config_path, **overrides)
    seed = _resolve_seed(seed)
    out = Path(out_dir)

    gts, sizes = ctx.invoke(synth_cmd, out_dir=str(out), seed=seed, num_scenes=num_scenes)

    classes = max((g.class_id for anns in gts.values() for g in anns), default=0) + 1
    oracle = OracleSpec(n_classes=classes, rng_seed=seed)
    runs = {}
    for image_id in sorted(gts):
        with _data_errors(out / "annotations.json", image_id):
            runs[image_id] = run_image(gts[image_id], sizes[image_id], oracle, config,
                                       image_id=image_id, seed=_image_seed(seed, image_id))
    regions = {image_id: (sizes[image_id], run.regions) for image_id, run in runs.items()}
    crops = {image_id: run.crops for image_id, run in runs.items()}
    rds = {image_id: run.region_detections for image_id, run in runs.items()}
    merged = {image_id: run.merged_no_ibs if no_ibs else run.merged
              for image_id, run in runs.items()}
    columns = {image_id: scored_columns(dets) for image_id, dets in merged.items()}

    serialize.write_json_atomic(out / "regions.json", serialize.regions_doc(regions))
    serialize.write_json_atomic(out / "crops.json", serialize.crops_doc(crops))
    serialize.write_json_atomic(
        out / "region_detections.json", serialize.region_detections_doc(rds)
    )
    serialize.write_merged_json(out / "merged.json", columns)
    visdrone.write_detections(out / "results", columns)

    report = coco_eval(merged, gts, max_dets=config.max_dets)
    doc = report.to_json_dict()
    doc["seed"] = seed
    doc["ibs"] = not no_ibs
    serialize.write_json_atomic(out / "report.json", doc)
    serialize.write_text_atomic(out / "table.txt", report_table(report))
    click.echo(report_table(report), nl=False)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        with serialize._all_or_nothing():  # a run that fails removes what it made
            cli.main(args=argv, standalone_mode=False)
    except (DataError, OSError) as e:  # an OSError's message names its path
        click.echo(f"error: {e}", err=True)
        return 2
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
