"""Command-line front end wiring the pipeline stages through files.

Stage boundaries are JSON/CSV/VisDrone-text files, so any stage can be
replaced by an external process that honors the same schemas. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import csv
import io
import json
import secrets
import sys
import zlib
from pathlib import Path
from typing import Any, Callable, Optional

import click

from . import serialize, visdrone
from .config import PipelineConfig
from .evalkit import GtAnnotation, coco_eval, precision_recall_points, report_table, voc_ap_at
from .fuse import ingest_detections, merge_pipeline
from .pipeline import refine_image, regions_for_image, run_image
from .scenes import OracleSpec, SceneSpec, generate_scene
from .visdrone import VisDroneFormatError


class DataError(click.ClickException):
    """Invalid or inconsistent input data; maps to exit code 2."""


_CONFIG_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                 help="JSON config file; CLI flags override it."),
    click.option("--margin", type=float, default=None, help="Region margin in pixels."),
    click.option("--keep-threshold", type=float, default=None,
                 help="Minimum kept area fraction for refined ground truth."),
    click.option("--nms-iou", type=float, default=None),
    click.option("--ibs-region-iou", type=float, default=None),
    click.option("--ibs-box-iou", type=float, default=None),
    click.option("--detector-width", type=float, default=None),
    click.option("--detector-height", type=float, default=None),
    click.option("--grid-rows", type=int, default=None),
    click.option("--grid-cols", type=int, default=None),
    click.option("--max-dets", type=int, default=None),
]


def config_options(f):
    for opt in reversed(_CONFIG_OPTIONS):
        f = opt(f)
    return f


def _load_config(config_path: Optional[str], **overrides) -> PipelineConfig:
    try:
        return PipelineConfig.load(config_path, overrides=overrides)
    except (ValueError, json.JSONDecodeError) as e:
        raise DataError(str(e)) from e


def _load_annotations(path: str, sizes_path: Optional[str]):
    """Ground truth from an annotations JSON doc or a VisDrone directory."""
    p = Path(path)
    if not p.is_dir():
        return _load_doc(path, serialize.annotations_from_doc)
    try:
        gts = visdrone.parse_annotations(p)
        if sizes_path is None:
            raise DataError("VisDrone directories carry no image dimensions; pass --image-sizes")
        sizes = _load_doc(sizes_path, serialize.image_sizes_from_doc)
        missing = set(gts) - set(sizes)
        if missing:
            raise DataError(f"no image size for: {sorted(missing)[:5]}")
        return gts, sizes
    except (VisDroneFormatError, ValueError, KeyError, OSError) as e:
        raise DataError(str(e)) from e


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: {e}") from e


def _load_doc(path: str, from_doc: Callable[[dict], Any]) -> Any:
    """Read a stage document and convert it with a `serialize.*_from_doc`
    function; a document that does not fit the schema is a data error."""
    doc = _load_json(path)
    try:
        return from_doc(doc)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
        raise DataError(f"{path}: malformed document ({type(e).__name__}: {e})") from e


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
@click.option("--seed", type=int, default=None,
              help="RNG seed; auto-chosen and recorded in metadata when omitted.")
@click.option("--num-scenes", type=int, default=10, show_default=True)
@click.option("--image-width", type=int, default=1600, show_default=True)
@click.option("--image-height", type=int, default=1200, show_default=True)
@click.option("--n-clusters", type=int, default=4, show_default=True)
@click.option("--boxes-per-cluster", type=(int, int), default=(5, 12), show_default=True)
@click.option("--cluster-spread", type=float, default=60.0, show_default=True)
@click.option("--classes", type=int, default=3, show_default=True)
def synth_cmd(out_dir, seed, num_scenes, image_width, image_height, n_clusters,
              boxes_per_cluster, cluster_spread, classes) -> None:
    """Generate a synthetic scene corpus (VisDrone text plus JSON)."""
    seed = _resolve_seed(seed)
    out = Path(out_dir)
    gts = {}
    sizes = {}
    for i in range(num_scenes):
        spec = SceneSpec(
            image_size=(image_width, image_height),
            n_clusters=n_clusters,
            boxes_per_cluster=boxes_per_cluster,
            cluster_spread=cluster_spread,
            classes=classes,
            rng_seed=seed + i,
        )
        try:
            scene = generate_scene(spec)
        except ValueError as e:
            raise DataError(str(e)) from e
        image_id = f"scene{i:04d}"
        gts[image_id] = [GtAnnotation(box=b, class_id=c) for b, c in scene.annotations]
        sizes[image_id] = scene.image_size
    visdrone.write_annotations(out / "annotations", gts)
    serialize.write_json_atomic(out / "annotations.json", serialize.annotations_doc(gts, sizes))
    serialize.write_json_atomic(
        out / "metadata.json",
        {"seed": seed, "num_scenes": num_scenes, "image_size": [image_width, image_height]},
    )
    click.echo(f"wrote {num_scenes} scenes to {out}")


@cli.command("gen-regions")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--image-sizes", "sizes_path", type=click.Path(exists=True), default=None,
              help="image_id -> [w, h] JSON; required for VisDrone directories.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True, help="EM seed.")
@config_options
def gen_regions_cmd(annotations_path, sizes_path, out_path, seed, config_path, **overrides) -> None:
    """Cluster ground truth per image and emit focal-region JSON."""
    config = _load_config(config_path, **overrides)
    gts, sizes = _load_annotations(annotations_path, sizes_path)
    per_image = {}
    for image_id in sorted(gts):
        try:
            regions = regions_for_image(
                gts[image_id], sizes[image_id], config, image_id=image_id,
                seed=_image_seed(seed, image_id),
            )
        except ValueError as e:
            raise DataError(f"{image_id}: {e}") from e
        per_image[image_id] = (sizes[image_id], regions)
    serialize.write_json_atomic(out_path, serialize.regions_doc(per_image))
    click.echo(f"wrote regions for {len(per_image)} images to {out_path}")


@cli.command("refine-gt")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--image-sizes", "sizes_path", type=click.Path(exists=True), default=None)
@click.option("--regions", "regions_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@config_options
def refine_gt_cmd(annotations_path, sizes_path, regions_path, out_path, config_path, **overrides) -> None:
    """Clip and filter ground truth into focal-region crops."""
    config = _load_config(config_path, **overrides)
    gts, _ = _load_annotations(annotations_path, sizes_path)
    regions = _load_doc(regions_path, serialize.regions_from_doc)
    per_image = {}
    for image_id in sorted(regions):
        if image_id not in gts:
            raise DataError(f"regions reference unknown image {image_id!r}")
        per_image[image_id] = refine_image(regions[image_id], gts[image_id], config)
    serialize.write_json_atomic(out_path, serialize.crops_doc(per_image))
    click.echo(f"wrote crops for {len(per_image)} images to {out_path}")


@cli.command("merge")
@click.option("--region-detections", "rd_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--out-visdrone", type=click.Path(), default=None,
              help="Also write VisDrone-format result text files here.")
@click.option("--no-ibs", is_flag=True, help="Skip Incomplete Box Suppression (ablation).")
@config_options
def merge_cmd(rd_path, out_path, out_visdrone, no_ibs, config_path, **overrides) -> None:
    """Merge per-region detections into image-level results (NMS then IBS)."""
    config = _load_config(config_path, **overrides)
    per_image = _load_doc(rd_path, serialize.region_detections_from_doc)
    merged = {}
    for image_id in sorted(per_image):
        try:
            # external detectors may overrun the detector frame; clamp to it first
            rds = [ingest_detections(rd.region, rd.detections) for rd in per_image[image_id]]
            merged[image_id] = merge_pipeline(rds, config.fuse_config(), apply_ibs=not no_ibs)
        except ValueError as e:
            raise DataError(f"{rd_path}: {image_id}: {e}") from e
    serialize.write_json_atomic(out_path, serialize.merged_detections_doc(merged))
    if out_visdrone:
        visdrone.write_detections(out_visdrone, merged)
    total = sum(len(v) for v in merged.values())
    click.echo(f"wrote {total} merged detections to {out_path}")


@cli.command("eval")
@click.option("--detections", "det_path", type=click.Path(exists=True), required=True,
              help="Merged-detection JSON or a VisDrone result directory.")
@click.option("--annotations", "annotations_path", type=click.Path(exists=True), required=True)
@click.option("--image-sizes", "sizes_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--table", "table_path", type=click.Path(), default=None)
@click.option("--pr-csv", "pr_csv_path", type=click.Path(), default=None)
@click.option("--voc-iou", type=float, default=None,
              help="Also report VOC all-point AP at this IoU (classes merged).")
@click.option("--class-names", "class_names_path", type=click.Path(exists=True), default=None)
@config_options
def eval_cmd(det_path, annotations_path, sizes_path, out_path, table_path, pr_csv_path,
             voc_iou, class_names_path, config_path, **overrides) -> None:
    """Score merged detections against ground truth."""
    config = _load_config(config_path, **overrides)
    gts, _ = _load_annotations(annotations_path, sizes_path)
    try:
        names = visdrone.load_class_names(class_names_path) if class_names_path else None
    except (ValueError, OSError) as e:
        raise DataError(f"{class_names_path}: {e}") from e
    p = Path(det_path)
    try:
        if p.is_dir():
            dets = visdrone.parse_detections(p)
        else:
            dets = _load_doc(det_path, serialize.merged_detections_from_doc)
        report = coco_eval(dets, gts, max_dets=config.max_dets)
    except (VisDroneFormatError, ValueError) as e:
        raise DataError(str(e)) from e
    doc = report.to_json_dict()
    if voc_iou is not None:
        doc["voc_ap"] = voc_ap_at(dets, gts, iou_threshold=voc_iou, max_dets=config.max_dets)
        doc["voc_iou"] = voc_iou
    serialize.write_json_atomic(out_path, doc)
    table = report_table(report, class_names=names)
    if table_path:
        serialize.write_text_atomic(table_path, table)
    if pr_csv_path:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["class_id", "score", "precision", "recall"])
        for row in precision_recall_points(dets, gts, max_dets=config.max_dets):
            writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}", f"{row[3]:.6f}"])
        serialize.write_text_atomic(pr_csv_path, buf.getvalue())
    click.echo(table, nl=False)


@cli.command("pipeline")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None,
              help="Base seed; auto-chosen and recorded in metadata when omitted.")
@click.option("--num-scenes", type=int, default=10, show_default=True)
@click.option("--no-ibs", is_flag=True)
@click.option("--miss-rate", type=float, default=0.05, show_default=True)
@click.option("--localization-noise", type=float, default=2.0, show_default=True)
@click.option("--false-positive-rate", type=float, default=0.5, show_default=True)
@click.option("--class-flip-rate", type=float, default=0.5, show_default=True)
@config_options
@click.pass_context
def pipeline_cmd(ctx, out_dir, seed, num_scenes, no_ibs, miss_rate, localization_noise,
                 false_positive_rate, class_flip_rate, config_path, **overrides) -> None:
    """Closed loop: synth, gen-regions, refine-gt, oracle detect, merge, eval."""
    config = _load_config(config_path, **overrides)
    seed = _resolve_seed(seed)
    out = Path(out_dir)

    ctx.invoke(synth_cmd, out_dir=str(out), seed=seed, num_scenes=num_scenes)
    gts, sizes = _load_doc(str(out / "annotations.json"), serialize.annotations_from_doc)

    classes = max((g.class_id for anns in gts.values() for g in anns), default=0) + 1
    oracle = OracleSpec(
        localization_noise=localization_noise,
        miss_rate=miss_rate,
        false_positive_rate=false_positive_rate,
        class_flip_rate_truncated=class_flip_rate,
        n_classes=classes,
        rng_seed=seed,
    )
    runs = {
        image_id: run_image(gts[image_id], sizes[image_id], oracle, config, image_id=image_id,
                            seed=_image_seed(seed, image_id), apply_ibs=not no_ibs)
        for image_id in sorted(gts)
    }
    regions = {image_id: (sizes[image_id], run.regions) for image_id, run in runs.items()}
    crops = {image_id: run.crops for image_id, run in runs.items()}
    rds = {image_id: run.region_detections for image_id, run in runs.items()}
    merged = {image_id: run.merged for image_id, run in runs.items()}

    serialize.write_json_atomic(out / "regions.json", serialize.regions_doc(regions))
    serialize.write_json_atomic(out / "crops.json", serialize.crops_doc(crops))
    serialize.write_json_atomic(
        out / "region_detections.json", serialize.region_detections_doc(rds)
    )
    serialize.write_json_atomic(out / "merged.json", serialize.merged_detections_doc(merged))
    visdrone.write_detections(out / "results", merged)

    report = coco_eval(merged, gts, max_dets=config.max_dets)
    doc = report.to_json_dict()
    doc["seed"] = seed
    doc["ibs"] = not no_ibs
    serialize.write_json_atomic(out / "report.json", doc)
    serialize.write_text_atomic(out / "table.txt", report_table(report))
    click.echo(report_table(report), nl=False)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except DataError as e:
        click.echo(f"error: {e.format_message()}", err=True)
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
