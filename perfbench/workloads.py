"""The benchmark's workloads: seeded input generation and one unit of work each.

A unit is what one closed-loop step carries from input to final output:
a corpus of scenes for `ablation` and `dense` (search path per image, then
scoring per corpus), one region-detection JSON file through
`focalpipe merge` for `merge-io`. Inputs are generated once per run from
the seed into a pool that the loop cycles through; the program only ever
sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from focalpipe import cli, evalkit, fuse, pipeline, scenes, serialize
from focalpipe.boxgeom import ScoredBox
from focalpipe.config import PipelineConfig
from focalpipe.evalkit import GtAnnotation
from focalpipe.fuse import RegionDetections
from focalpipe.scenes import OracleSpec, SceneSpec

# scripts/ibs_ablation.py and the IBS acceptance test: about 48 boxes/image
ABLATION_SCENE = dict(image_size=(1200, 900), n_clusters=3, boxes_per_cluster=(12, 20),
                      cluster_spread=120.0, box_size_range=(16.0, 40.0),
                      size_multiplier_range=(0.8, 1.5))
# about 600 boxes/image: k = 11 EM components, quadratic eval and NMS/IBS.
# VisDrone's 10 classes rather than the default 3: eval still dominates, and
# at a third of the per-class pairs a run holds enough images for a median
DENSE_SCENE = dict(image_size=(2000, 1500), n_clusters=20, boxes_per_cluster=(25, 35),
                   box_size_range=(10.0, 30.0), size_multiplier_range=(0.5, 1.5),
                   classes=10)
# about 230 boxes/image; 12 oracle replicas with independent jitter plus 15
# false positives per crop and replica give about 4,500 raw detections per
# image, of which about 1,800 survive NMS
MERGE_SCENE = dict(image_size=(1600, 1200), n_clusters=8, boxes_per_cluster=(25, 32))
MERGE_REPLICAS = 12
MERGE_FP_RATE = 15.0

VOC_IOU = 0.7


@dataclass
class Image:
    image_id: str
    size: tuple[int, int]
    seed: int
    gts: list[GtAnnotation]
    # merge-io only: the pre-generated region-detection document
    path: Optional[Path] = None


@dataclass
class Unit:
    """Outcome of one unit of work; times exclude digests and checks."""

    images: int = 0
    failed: int = 0
    elapsed: float = 0.0
    image_s: list[float] = field(default_factory=list)
    eval_s: Optional[float] = None
    digest: str = ""
    ap: Optional[float] = None
    ap50_gain: Optional[float] = None
    errors: list[str] = field(default_factory=list)
    # outputs kept only until checked: image id -> (region detections,
    # [merged lists that must be sorted subsets of their remapped input])
    outputs: dict = field(default_factory=dict)


def _scene_image(spec: dict, image_id: str, seed: int) -> Image:
    scene = scenes.generate_scene(SceneSpec(**spec, rng_seed=seed))
    gts = [GtAnnotation(box=b, class_id=c) for b, c in scene.annotations]
    return Image(image_id=image_id, size=scene.image_size, seed=seed, gts=gts)


def _hash_dets(h, dets) -> None:
    for d in dets:
        b = d.box
        h.update(struct.pack("<4did", b.x1, b.y1, b.x2, b.y2, d.class_id, d.score))
    h.update(b"|")


def perfect_ap(images: list[Image]) -> float:
    """COCO AP of ground truth fed back as score-1 detections (must be 100).

    max_dets is raised to the largest image so the per-image cap does not
    cut recall on the dense scenes.
    """
    gts = {im.image_id: im.gts for im in images}
    dets = {k: [ScoredBox(box=g.box, class_id=g.class_id, score=1.0) for g in v]
            for k, v in gts.items()}
    max_dets = max([PipelineConfig().max_dets] + [len(v) for v in gts.values()])
    return evalkit.coco_eval(dets, gts, max_dets=max_dets).ap


def check_merged(rds: list[RegionDetections], merged: list[ScoredBox]) -> list[str]:
    """Merged output must be score-sorted and a subset of the remapped input."""
    errors = []
    if any(a.score < b.score for a, b in zip(merged, merged[1:])):
        errors.append("merged detections are not sorted by descending score")
    remapped = {d for rd in rds for d in fuse.remap_to_image(rd)}
    missing = sum(1 for d in merged if d not in remapped)
    if missing:
        errors.append(f"{missing} merged detections are not in the remapped input")
    return errors


class ClosedLoop:
    """Scenes in corpora: search path per image, then scoring per corpus."""

    def __init__(self, spec: dict, corpora: int, per_corpus: int, trace_units: int,
                 ablate_ibs: bool) -> None:
        self.spec = spec
        self.corpora = corpora
        self.per_corpus = per_corpus
        self.trace_units = trace_units
        self.ablate_ibs = ablate_ibs
        self.classes = spec.get("classes", SceneSpec.classes)
        self.config = PipelineConfig()

    def make_inputs(self, seed: int, work_dir: Path) -> list[list[Image]]:
        return [
            [_scene_image(self.spec, f"c{c}s{s}", seed * 10_000 + c * 10 + s)
             for s in range(self.per_corpus)]
            for c in range(self.corpora)
        ]

    def first_corpus(self, pool) -> list[Image]:
        return pool[0]

    def pool_len(self, pool) -> int:
        return len(pool)

    def input_digest(self, pool) -> str:
        h = hashlib.sha256()
        for corpus in pool:
            for im in corpus:
                h.update(f"{im.image_id}:{im.size}:{im.seed}".encode())
                for g in im.gts:
                    b = g.box
                    h.update(struct.pack("<4di", b.x1, b.y1, b.x2, b.y2, g.class_id))
        return h.hexdigest()

    def run(self, pool, index: int, tracer=None) -> Unit:
        corpus = pool[index % len(pool)]
        cfg = self.config
        fuse_cfg = cfg.fuse_config()
        unit = Unit()
        merged: dict[str, list[ScoredBox]] = {}
        plain: dict[str, list[ScoredBox]] = {}
        start = time.perf_counter()
        for im in corpus:
            unit.images += 1
            if tracer is not None:
                tracer.image = im.image_id
            t0 = time.perf_counter()
            try:
                regions = pipeline.regions_for_image(im.gts, im.size, cfg,
                                                     image_id=im.image_id, seed=im.seed)
                crops = pipeline.refine_image(regions, im.gts, cfg)
                oracle = OracleSpec(rng_seed=im.seed, n_classes=self.classes)
                rds = [scenes.oracle_detect(crop, oracle) for crop in crops]
                merged[im.image_id] = fuse.merge_pipeline(rds, fuse_cfg, apply_ibs=True)
                image_s = time.perf_counter() - t0
                if self.ablate_ibs:
                    plain[im.image_id] = fuse.merge_pipeline(rds, fuse_cfg, apply_ibs=False)
            except Exception as e:  # one failing image must not end the run
                unit.failed += 1
                unit.errors.append(f"{im.image_id}: {type(e).__name__}: {e}")
                merged.pop(im.image_id, None)
                continue
            unit.image_s.append(image_s)
            kept = [merged[im.image_id]] + ([plain[im.image_id]] if self.ablate_ibs else [])
            unit.outputs[im.image_id] = (rds, kept)
        gts = {im.image_id: im.gts for im in corpus if im.image_id in merged}
        if tracer is not None:
            tracer.image = f"corpus:{corpus[0].image_id}"
        t0 = time.perf_counter()
        try:
            report = evalkit.coco_eval(merged, gts, max_dets=cfg.max_dets)
            voc = evalkit.voc_ap_at(merged, gts, iou_threshold=VOC_IOU, max_dets=cfg.max_dets)
            unit.eval_s = time.perf_counter() - t0
            report_plain = (evalkit.coco_eval(plain, gts, max_dets=cfg.max_dets)
                            if self.ablate_ibs else None)
        except Exception as e:
            unit.failed = unit.images
            unit.errors.append(f"scoring {corpus[0].image_id}: {type(e).__name__}: {e}")
            unit.elapsed = time.perf_counter() - start
            return unit
        unit.elapsed = time.perf_counter() - start

        h = hashlib.sha256()
        for image_id in sorted(merged):
            _hash_dets(h, merged[image_id])
            if self.ablate_ibs:
                _hash_dets(h, plain[image_id])
        h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        h.update(repr(voc).encode())
        unit.ap = report.ap
        if report_plain is not None:
            h.update(json.dumps(report_plain.to_json_dict(), sort_keys=True).encode())
            unit.ap50_gain = report.ap50 - report_plain.ap50
        unit.digest = h.hexdigest()
        return unit

    def check(self, pool, index: int, unit: Unit) -> list[str]:
        errors = []
        for image_id, (rds, kept) in unit.outputs.items():
            for merged in kept:
                errors += [f"{image_id}: {e}" for e in check_merged(rds, merged)]
        return errors


class MergeIO:
    """`focalpipe merge` in-process on one pre-generated image document."""

    trace_units = 2

    def __init__(self, pool_size: int = 8) -> None:
        self.pool_size = pool_size
        self.config = PipelineConfig()

    def make_inputs(self, seed: int, work_dir: Path) -> dict:
        cfg = self.config
        images = []
        for i in range(self.pool_size):
            im = _scene_image(MERGE_SCENE, f"m{i:02d}", seed * 10_000 + i)
            regions = pipeline.regions_for_image(im.gts, im.size, cfg,
                                                 image_id=im.image_id, seed=im.seed)
            crops = pipeline.refine_image(regions, im.gts, cfg)
            rds = [RegionDetections(region=c.region) for c in crops]
            for r in range(MERGE_REPLICAS):
                oracle = OracleSpec(rng_seed=im.seed * 100 + r,
                                    false_positive_rate=MERGE_FP_RATE)
                for rd, crop in zip(rds, crops):
                    rd.detections.extend(scenes.oracle_detect(crop, oracle).detections)
            # compact, as a detector would write it; also keeps set-up short
            im.path = work_dir / "in" / f"{im.image_id}.json"
            im.path.parent.mkdir(parents=True, exist_ok=True)
            im.path.write_text(json.dumps(serialize.region_detections_doc({im.image_id: rds})))
            images.append(im)
        return {"images": images, "out": work_dir / "out"}

    def first_corpus(self, pool) -> list[Image]:
        return pool["images"][:1]

    def pool_len(self, pool) -> int:
        return len(pool["images"])

    def input_digest(self, pool) -> str:
        h = hashlib.sha256()
        for im in pool["images"]:
            h.update(im.path.read_bytes())
        return h.hexdigest()

    def _outputs(self, pool, im: Image) -> tuple[Path, Path]:
        # one output directory per image, so a unit's files stay in place
        # until they are checked
        out = pool["out"] / im.image_id
        return out / "merged.json", out / "results" / f"{im.image_id}.txt"

    def run(self, pool, index: int, tracer=None) -> Unit:
        im = pool["images"][index % len(pool["images"])]
        merged_path, _ = self._outputs(pool, im)
        argv = ["merge", "--region-detections", str(im.path), "--out", str(merged_path),
                "--out-visdrone", str(merged_path.parent / "results")]
        unit = Unit(images=1)
        if tracer is not None:
            tracer.image = im.image_id
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception as e:
            code = f"{type(e).__name__}: {e}"
        unit.elapsed = time.perf_counter() - start
        if code != 0:
            unit.failed = 1
            unit.errors.append(f"{im.image_id}: merge exited with {code}")
            return unit
        unit.image_s.append(unit.elapsed)
        h = hashlib.sha256()
        for path in self._outputs(pool, im):
            h.update(path.read_bytes())
        unit.digest = h.hexdigest()
        return unit

    def check(self, pool, index: int, unit: Unit) -> list[str]:
        im = pool["images"][index % len(pool["images"])]
        merged_path, text_path = self._outputs(pool, im)
        rds = serialize.region_detections_from_doc(json.loads(im.path.read_text()))
        merged = serialize.merged_detections_from_doc(json.loads(merged_path.read_text()))
        if set(merged) != {im.image_id}:
            return [f"{im.image_id}: merged output holds images {sorted(merged)}"]
        errors = [f"{im.image_id}: {e}" for e in check_merged(rds[im.image_id],
                                                               merged[im.image_id])]
        lines = [ln for ln in text_path.read_text().splitlines() if ln.strip()]
        if len(lines) != len(merged[im.image_id]):
            errors.append(f"{im.image_id}: VisDrone output has {len(lines)} lines, "
                          f"merged JSON has {len(merged[im.image_id])} detections")
        return errors


WORKLOADS = {
    "ablation": ClosedLoop(ABLATION_SCENE, corpora=64, per_corpus=3, trace_units=4,
                           ablate_ibs=True),
    "dense": ClosedLoop(DENSE_SCENE, corpora=16, per_corpus=1, trace_units=1,
                        ablate_ibs=False),
    "merge-io": MergeIO(),
}
