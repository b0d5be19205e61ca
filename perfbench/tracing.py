"""Span tracing of focalpipe's layers, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent, image id) and, where
a hook is given, deterministic counters read from the call's arguments and
result. Every module attribute bound to a wrapped function is rebound, so
`from .mixture import fit_em` style imports inside the package are traced
too. `uninstall()` restores the originals. Spans stay in memory until the
benchmark writes them out at the end of a run.

Element-level helpers (`serialize.box_to_list`, `visdrone.format_*`, the
`boxgeom` primitives) are not wrapped: they run once per box and a span
each would swamp the layer being measured. `iou` is counted, not spanned,
separately for the `fuse` and `evalkit` call sites.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from focalpipe import cli, evalkit, focal, fuse, mixture, pipeline, scenes, serialize, visdrone

LAYERS = ("pipeline", "mixture", "focal", "scenes", "fuse", "evalkit", "serialize", "visdrone", "cli")

Hook = Callable[[Counter, tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _n_dets(per_region) -> int:
    return sum(len(rd.detections) for rd in per_region)


def _fit_em_hook(c: Counter, args: tuple, kwargs: dict, model) -> None:
    cfg = _arg(args, kwargs, 2, "cfg", mixture.EmConfig())
    # ll_history holds one entry per EM iteration of the winning restart plus
    # the final log likelihood
    iterations = len(model.ll_history) - 1
    c["mixture.fits"] += 1
    c["mixture.em_iters"] += iterations
    c["mixture.em_capped"] += int(iterations >= cfg.max_iterations)


def _refine_image_hook(c: Counter, args: tuple, kwargs: dict, crops) -> None:
    annotations = _arg(args, kwargs, 1, "annotations")
    c["focal.gt_in"] += sum(1 for a in annotations if not a.ignore)


def _refine_gt_hook(c: Counter, args: tuple, kwargs: dict, crop) -> None:
    c["focal.crop_gt"] += len(crop.gt)
    c["focal.dropped_zero_area"] += crop.dropped_zero_area


def _merge_hook(c: Counter, args: tuple, kwargs: dict, merged) -> None:
    c["fuse.raw_dets"] += _n_dets(_arg(args, kwargs, 0, "per_region"))


def _nms_hook(c: Counter, args: tuple, kwargs: dict, kept) -> None:
    c["fuse.nms_in"] += len(_arg(args, kwargs, 0, "boxes"))
    c["fuse.nms_kept"] += len(kept)


def _ibs_hook(c: Counter, args: tuple, kwargs: dict, survivors) -> None:
    c["fuse.ibs_in"] += _n_dets(_arg(args, kwargs, 0, "per_region"))
    c["fuse.ibs_kept"] += len(survivors)


def _eval_hook(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["evalkit.calls"] += 1
    c["evalkit.dets_scored"] += sum(len(v) for v in _arg(args, kwargs, 0, "dets").values())
    c["evalkit.gts_scored"] += sum(len(v) for v in _arg(args, kwargs, 1, "gts").values())


def _load_json_hook(c: Counter, args: tuple, kwargs: dict, doc) -> None:
    c["serialize.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_atomic_hook(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["serialize.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_detections_hook(c: Counter, args: tuple, kwargs: dict, result) -> None:
    out_dir = Path(_arg(args, kwargs, 0, "out_dir"))
    for image_id in _arg(args, kwargs, 1, "per_image"):
        c["visdrone.bytes_written"] += os.path.getsize(out_dir / f"{image_id}.txt")


def _count(c: Counter, key: str, n: int) -> None:
    c[key] += n


# (module, function name, span name, counter hook). The span name's prefix
# before the first dot is the layer the span's self time is charged to.
TARGETS: list[tuple[Any, str, str, Optional[Hook]]] = [
    (pipeline, "cluster_boxes", "pipeline.cluster_boxes", None),
    (pipeline, "regions_for_image", "pipeline.regions_for_image", None),
    (pipeline, "refine_image", "pipeline.refine_image", _refine_image_hook),
    (pipeline, "run_scene", "pipeline.run_scene", None),
    (pipeline, "evaluate_runs", "pipeline.evaluate_runs", None),
    (mixture, "num_focal_regions", "mixture.num_focal_regions", None),
    (mixture, "featurize", "mixture.featurize", None),
    (mixture, "fit_em", "mixture.fit_em", _fit_em_hook),
    (mixture, "posterior", "mixture.posterior", None),
    (mixture, "assign_clusters", "mixture.assign_clusters", None),
    (focal, "make_detector_map", "focal.make_detector_map", None),
    (focal, "regions_from_clusters", "focal.regions_from_clusters",
     lambda c, a, k, r: _count(c, "focal.regions", len(r))),
    (focal, "refine_gt", "focal.refine_gt", _refine_gt_hook),
    (focal, "crop_gt_to_detector", "focal.crop_gt_to_detector", None),
    (focal, "eip_regions", "focal.eip_regions", None),
    (scenes, "generate_scene", "scenes.generate_scene", None),
    (scenes, "oracle_detect", "scenes.oracle_detect",
     lambda c, a, k, r: _count(c, "scenes.oracle_dets", len(r.detections))),
    (scenes, "scale_stats", "scenes.scale_stats", None),
    (fuse, "ingest_detections", "fuse.ingest_detections", None),
    (fuse, "remap_to_image", "fuse.remap_to_image", None),
    (fuse, "nms_indices", "fuse.nms_indices", _nms_hook),
    (fuse, "nms", "fuse.nms", None),
    (fuse, "ibs", "fuse.ibs", _ibs_hook),
    (fuse, "merge_pipeline", "fuse.merge_pipeline", _merge_hook),
    (evalkit, "coco_eval", "evalkit.coco_eval", _eval_hook),
    (evalkit, "voc_ap_at", "evalkit.voc_ap_at", _eval_hook),
    (evalkit, "precision_recall_points", "evalkit.precision_recall_points", None),
    (evalkit, "report_table", "evalkit.report_table", None),
    # cli._load_json is the CLI's only stage-document reader (file read plus
    # JSON decode), so its time is charged to the serialize layer
    (cli, "_load_json", "serialize.load_json", _load_json_hook),
    (serialize, "write_json_atomic", "serialize.write_json_atomic", _write_atomic_hook),
    (serialize, "write_text_atomic", "serialize.write_text_atomic", _write_atomic_hook),
    (serialize, "regions_doc", "serialize.regions_doc", None),
    (serialize, "regions_from_doc", "serialize.regions_from_doc", None),
    (serialize, "crops_doc", "serialize.crops_doc", None),
    (serialize, "crops_from_doc", "serialize.crops_from_doc", None),
    (serialize, "region_detections_doc", "serialize.region_detections_doc", None),
    (serialize, "region_detections_from_doc", "serialize.region_detections_from_doc", None),
    (serialize, "merged_detections_doc", "serialize.merged_detections_doc", None),
    (serialize, "merged_detections_from_doc", "serialize.merged_detections_from_doc", None),
    (serialize, "annotations_doc", "serialize.annotations_doc", None),
    (serialize, "annotations_from_doc", "serialize.annotations_from_doc", None),
    (visdrone, "load_class_names", "visdrone.load_class_names", None),
    (visdrone, "parse_annotations", "visdrone.parse_annotations", None),
    (visdrone, "parse_detections", "visdrone.parse_detections", None),
    (visdrone, "write_annotations", "visdrone.write_annotations", None),
    (visdrone, "write_detections", "visdrone.write_detections", _write_detections_hook),
    (cli, "main", "cli.main", None),
]

# modules whose `iou` binding is replaced by a counting wrapper
IOU_SITES = {fuse: "fuse.iou_calls", evalkit: "evalkit.iou_calls"}


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int, str]]] = []
        self.counts: Counter = Counter()
        self.image = ""
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, hook: Optional[Hook]) -> Callable:
        spans, stack, counts, perf = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.image)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original: Any, replacement: Any) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, fn_name, span_name, hook in TARGETS:
            original = getattr(module, fn_name)
            self._rebind(original, self._wrap(original, span_name, hook))
        for module, key in IOU_SITES.items():
            self._saved.append((module, "iou", module.iou))
            module.iou = _counting(module.iou, self.counts, key)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent index, image id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                name, start, end, parent, image = span
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "image": image}) + "\n")


def _counting(fn: Callable, counts: Counter, key: str) -> Callable:
    def counted(a, b):
        counts[key] += 1
        return fn(a, b)

    counted.__wrapped__ = fn
    return counted


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "focalpipe" or name.startswith("focalpipe."))]


def summarize(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive time per span name and self time per layer.

    Self time is a span's duration minus the durations of its direct
    children; summed over a layer's spans it is the time spent in that
    layer's own code.
    """
    inclusive: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        inclusive[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return dict(inclusive), layer_self


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, which its name shows."""
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if "ratio" in name or "per_gt" in name or "frac" in name:
        return "ratio"
    return "count"


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    inc, self_s = summarize(spans)

    def t(*names: str) -> float:
        return sum(inc.get(n, 0.0) for n in names)

    serialize_read = [n for n in inc if n.startswith("serialize.") and
                      (n.endswith("_from_doc") or n == "serialize.load_json")]
    serialize_write = [n for n in inc if n.startswith("serialize.") and n not in serialize_read]
    return {
        "mixture.fit_em_s": t("mixture.fit_em"),
        "mixture.assign_s": t("mixture.assign_clusters"),
        "mixture.featurize_s": t("mixture.featurize"),
        "mixture.fits": counts["mixture.fits"],
        "mixture.em_iters": counts["mixture.em_iters"],
        "mixture.em_capped": counts["mixture.em_capped"],
        "mixture.self_s": self_s["mixture"],
        "focal.regions_s": t("focal.regions_from_clusters"),
        "focal.refine_s": t("focal.refine_gt"),
        "focal.regions": counts["focal.regions"],
        "focal.crop_gt_per_gt": _ratio(counts["focal.crop_gt"], counts["focal.gt_in"]),
        "focal.dropped_zero_area": counts["focal.dropped_zero_area"],
        "focal.self_s": self_s["focal"],
        "scenes.oracle_s": t("scenes.oracle_detect"),
        "scenes.oracle_dets": counts["scenes.oracle_dets"],
        "scenes.self_s": self_s["scenes"],
        "pipeline.self_s": self_s["pipeline"],
        "fuse.merge_s": t("fuse.merge_pipeline"),
        "fuse.remap_s": t("fuse.remap_to_image"),
        "fuse.nms_s": t("fuse.nms_indices"),
        "fuse.ibs_s": t("fuse.ibs"),
        "fuse.raw_dets": counts["fuse.raw_dets"],
        "fuse.nms_keep_ratio": _ratio(counts["fuse.nms_kept"], counts["fuse.nms_in"]),
        "fuse.ibs_keep_ratio": _ratio(counts["fuse.ibs_kept"], counts["fuse.ibs_in"]),
        "fuse.iou_calls": counts["fuse.iou_calls"],
        "fuse.self_s": self_s["fuse"],
        "evalkit.coco_s": t("evalkit.coco_eval"),
        "evalkit.voc_s": t("evalkit.voc_ap_at"),
        "evalkit.calls": counts["evalkit.calls"],
        "evalkit.iou_calls": counts["evalkit.iou_calls"],
        "evalkit.dets_scored": counts["evalkit.dets_scored"],
        "evalkit.gts_scored": counts["evalkit.gts_scored"],
        "evalkit.self_s": self_s["evalkit"],
        "serialize.read_s": t(*serialize_read),
        "serialize.write_s": t(*serialize_write),
        "serialize.bytes_read": counts["serialize.bytes_read"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "serialize.self_s": self_s["serialize"],
        "visdrone.write_s": t("visdrone.write_detections", "visdrone.write_annotations"),
        "visdrone.bytes_written": counts["visdrone.bytes_written"],
        "visdrone.self_s": self_s["visdrone"],
        "cli.self_s": self_s["cli"],
    }
