import json
from pathlib import Path

import pytest

from focalpipe import serialize, visdrone
from focalpipe.boxgeom import Box, ScoredBox
from focalpipe.cli import _image_seed, main
from focalpipe.config import PipelineConfig
from focalpipe.evalkit import GtAnnotation
from focalpipe.focal import FocalRegion, make_detector_map
from focalpipe.fuse import RegionDetections
from focalpipe.pipeline import run_image
from focalpipe.scenes import OracleSpec


def run(*argv) -> int:
    return main(list(argv))


def snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_annotations_doc(path: Path, gts, sizes) -> None:
    serialize.write_json_atomic(path, serialize.annotations_doc(gts, sizes))


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path / "c"), "--seed", "1") == 0

    def test_unknown_option_is_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "c"), "--bogus") == 1

    def test_missing_required_option_is_usage_error(self):
        assert run("synth") == 1

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "annotations.json"
        bad.write_text("{not json")
        assert (
            run("gen-regions", "--annotations", str(bad), "--out", str(tmp_path / "r.json"))
            == 2
        )

    def test_unknown_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"no_such_key": 1}')
        ann = tmp_path / "annotations.json"
        write_annotations_doc(ann, {"img": [GtAnnotation(Box(0, 0, 10, 10), 1)]}, {"img": (100, 100)})
        assert (
            run("gen-regions", "--annotations", str(ann), "--out", str(tmp_path / "r.json"),
                "--config", str(cfg))
            == 2
        )

    def test_infeasible_synth_spec_is_data_error(self, tmp_path):
        assert (
            run("synth", "--out", str(tmp_path / "c"), "--seed", "1",
                "--image-width", "20", "--image-height", "20")
            == 2
        )


class TestStageChaining:
    def test_gen_regions_then_refine_gt(self, tmp_path, capsys):
        ann = tmp_path / "annotations.json"
        gts = {
            "img": [
                GtAnnotation(Box(100, 100, 140, 140), 1),
                GtAnnotation(Box(150, 120, 190, 160), 2),
                GtAnnotation(Box(700, 600, 760, 660), 1),
            ]
        }
        write_annotations_doc(ann, gts, {"img": (1000, 800)})
        regions = tmp_path / "regions.json"
        crops = tmp_path / "crops.json"
        assert run("gen-regions", "--annotations", str(ann), "--out", str(regions),
                   "--seed", "3") == 0
        assert run("refine-gt", "--annotations", str(ann), "--regions", str(regions),
                   "--out", str(crops)) == 0
        per_image = serialize.crops_from_doc(json.loads(crops.read_text()))
        assert sum(len(c.gt) for c in per_image["img"]) >= len(gts["img"])

    def test_visdrone_directory_requires_image_sizes(self, tmp_path):
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        (ann_dir / "img.txt").write_text("10,20,30,40,1,1,0,0\n")
        assert run("gen-regions", "--annotations", str(ann_dir),
                   "--out", str(tmp_path / "r.json")) == 2
        sizes = tmp_path / "sizes.json"
        sizes.write_text('{"img": [200, 200]}')
        assert run("gen-regions", "--annotations", str(ann_dir), "--image-sizes", str(sizes),
                   "--out", str(tmp_path / "r.json")) == 0


class TestMerge:
    def region_detection_doc(self):
        """Two overlapping regions; region B holds a truncated duplicate."""
        region_a = FocalRegion(
            rect=Box(0, 0, 300, 200), region_id=0, image_id="img",
            to_detector=make_detector_map(Box(0, 0, 300, 200), 300, 200),
        )
        region_b = FocalRegion(
            rect=Box(250, 0, 550, 200), region_id=1, image_id="img",
            to_detector=make_detector_map(Box(250, 0, 550, 200), 300, 200),
        )
        complete = ScoredBox(box=Box(200, 50, 300, 150), class_id=0, score=0.9)
        truncated = ScoredBox(box=Box(0, 52, 50, 148), class_id=0, score=0.6)
        per_image = {
            "img": [
                RegionDetections(region=region_a, detections=[complete]),
                RegionDetections(region=region_b, detections=[truncated]),
            ]
        }
        return serialize.region_detections_doc(per_image)

    def test_no_ibs_keeps_strictly_more_boxes(self, tmp_path, capsys):
        rd = tmp_path / "rd.json"
        serialize.write_json_atomic(rd, self.region_detection_doc())
        with_ibs = tmp_path / "merged.json"
        without = tmp_path / "merged_no_ibs.json"
        assert run("merge", "--region-detections", str(rd), "--out", str(with_ibs)) == 0
        assert run("merge", "--region-detections", str(rd), "--out", str(without),
                   "--no-ibs") == 0
        n_ibs = len(serialize.merged_detections_from_doc(json.loads(with_ibs.read_text()))["img"])
        n_plain = len(serialize.merged_detections_from_doc(json.loads(without.read_text()))["img"])
        assert n_ibs < n_plain

    def test_visdrone_results_written(self, tmp_path, capsys):
        rd = tmp_path / "rd.json"
        serialize.write_json_atomic(rd, self.region_detection_doc())
        assert run("merge", "--region-detections", str(rd), "--out", str(tmp_path / "m.json"),
                   "--out-visdrone", str(tmp_path / "results")) == 0
        assert (tmp_path / "results" / "img.txt").exists()


class TestMergeClampsToDetectorFrame:
    def test_detection_past_frame_edge_is_clamped(self, tmp_path, capsys):
        rect = Box(100, 50, 400, 250)
        region = FocalRegion(rect=rect, region_id=0, image_id="img",
                             to_detector=make_detector_map(rect, 600, 400))
        # runs 60 px past the right edge of the 600 x 400 detector frame
        overrun = ScoredBox(box=Box(500, 100, 660, 200), class_id=0, score=0.8)
        rd = tmp_path / "rd.json"
        serialize.write_json_atomic(rd, serialize.region_detections_doc(
            {"img": [RegionDetections(region=region, detections=[overrun])]}))
        out = tmp_path / "merged.json"
        assert run("merge", "--region-detections", str(rd), "--out", str(out)) == 0
        [merged] = serialize.merged_detections_from_doc(json.loads(out.read_text()))["img"]
        assert merged.box == Box(350, 100, 400, 150)
        assert rect.x1 <= merged.box.x1 and merged.box.x2 <= rect.x2


def malformed_case(case: str, tmp_path: Path) -> tuple[list[str], Path]:
    """Write the input files of one malformed-document case; returns the
    command line and the path of the malformed file."""
    rd_doc = TestMerge().region_detection_doc()
    ann_doc = serialize.annotations_doc(
        {"img": [GtAnnotation(Box(0, 0, 10, 10), 1)]}, {"img": (100, 100)})
    if case == "region-without-id":
        del rd_doc["images"]["img"][0]["region"]["region_id"]
    elif case == "score-above-one":
        rd_doc["images"]["img"][0]["detections"][0]["score"] = 1.5
    elif case == "images-is-a-list":
        rd_doc = {"images": []}
    elif case == "three-number-bbox":
        ann_doc["images"]["img"]["annotations"][0]["bbox"] = [0, 0, 10]
    elif case in ("detector-scale-nan", "detector-scale-overflows"):
        to_detector = rd_doc["images"]["img"][0]["region"]["to_detector"]
        to_detector["scale_x"] = float("nan") if case == "detector-scale-nan" else 1e308
    elif case.startswith("annotation-size-has-a-"):
        bad_width = {"string": "x", "null": None, "list": [1]}[case.rsplit("-", 1)[1]]
        ann_doc["images"]["img"]["image_size"] = [bad_width, 900]
    rd, ann = tmp_path / "rd.json", tmp_path / "ann.json"
    serialize.write_json_atomic(rd, rd_doc)
    serialize.write_json_atomic(ann, ann_doc)
    out = str(tmp_path / "out.json")
    if case in ("image-size-not-a-pair", "image-sizes-is-a-list", "image-sizes-not-json"):
        ann_dir, sizes = tmp_path / "visdrone", tmp_path / "sizes.json"
        visdrone.write_annotations(ann_dir, {"img": [GtAnnotation(Box(0, 0, 10, 10), 1)]})
        serialize.write_json_atomic(sizes, {"img": 5} if case == "image-size-not-a-pair" else [])
        if case == "image-sizes-not-json":
            sizes.write_text('{"img": [100, 100]')
        return ["gen-regions", "--annotations", str(ann_dir), "--image-sizes", str(sizes),
                "--out", out], sizes
    if case in ("class-id-not-an-integer", "class-names-is-a-list"):
        dets, names = tmp_path / "merged.json", tmp_path / "names.json"
        serialize.write_json_atomic(dets, serialize.merged_detections_doc(
            {"img": [ScoredBox(Box(0, 0, 10, 10), 1, 0.9)]}))
        serialize.write_json_atomic(names, {"a": "x"} if case == "class-id-not-an-integer" else [])
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out,
                "--class-names", str(names)], names
    if case == "three-number-bbox" or case.startswith("annotation-size-has-a-"):
        return ["gen-regions", "--annotations", str(ann), "--out", out], ann
    if case == "regions-given-region-detections":
        return ["refine-gt", "--annotations", str(ann), "--regions", str(rd), "--out", out], rd
    return ["merge", "--region-detections", str(rd), "--out", out], rd


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", [
        "region-without-id", "score-above-one", "images-is-a-list", "three-number-bbox",
        "regions-given-region-detections", "image-size-not-a-pair", "image-sizes-is-a-list",
        "image-sizes-not-json", "class-id-not-an-integer", "class-names-is-a-list",
        "detector-scale-nan", "detector-scale-overflows", "annotation-size-has-a-string",
        "annotation-size-has-a-null", "annotation-size-has-a-list",
    ])
    def test_exits_2_naming_the_file(self, case, tmp_path, capsys):
        argv, bad = malformed_case(case, tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err


class TestEval:
    def test_detections_equal_gt_scores_ap_100(self, tmp_path, capsys):
        gts = {
            "img": [
                GtAnnotation(Box(10, 10, 50, 50), 1),
                GtAnnotation(Box(100, 100, 160, 160), 2),
            ]
        }
        ann = tmp_path / "annotations.json"
        write_annotations_doc(ann, gts, {"img": (200, 200)})
        dets = {
            "img": [ScoredBox(box=g.box, class_id=g.class_id, score=0.9) for g in gts["img"]]
        }
        det_path = tmp_path / "merged.json"
        serialize.write_json_atomic(det_path, serialize.merged_detections_doc(dets))
        report_path = tmp_path / "report.json"
        assert run("eval", "--detections", str(det_path), "--annotations", str(ann),
                   "--out", str(report_path), "--voc-iou", "0.7",
                   "--table", str(tmp_path / "table.txt"),
                   "--pr-csv", str(tmp_path / "pr.csv")) == 0
        doc = json.loads(report_path.read_text())
        assert doc["ap"] == 100.0
        assert doc["ap50"] == 100.0
        assert doc["voc_ap"] == 100.0
        assert (tmp_path / "table.txt").read_text().strip()
        header = (tmp_path / "pr.csv").read_text().splitlines()[0]
        assert header == "class_id,score,precision,recall"

    def test_voc_iou_respects_max_dets(self, tmp_path, capsys):
        gts = {"img": [GtAnnotation(Box(10, 10, 50, 50), 1)]}
        ann = tmp_path / "annotations.json"
        write_annotations_doc(ann, gts, {"img": (200, 200)})
        # the higher-scored detection is a false positive, so a cap of one
        # detection per image leaves nothing to match the ground truth
        dets = {"img": [ScoredBox(Box(120, 120, 160, 160), 1, 0.9),
                        ScoredBox(Box(10, 10, 50, 50), 1, 0.8)]}
        det_path = tmp_path / "merged.json"
        serialize.write_json_atomic(det_path, serialize.merged_detections_doc(dets))
        voc = {}
        for max_dets in ("1", "2"):
            out = tmp_path / f"report{max_dets}.json"
            assert run("eval", "--detections", str(det_path), "--annotations", str(ann),
                       "--out", str(out), "--voc-iou", "0.7", "--max-dets", max_dets) == 0
            voc[max_dets] = json.loads(out.read_text())["voc_ap"]
        assert voc == {"1": 0.0, "2": 50.0}


class TestPipelineDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", "--seed", "7", "--num-scenes", "3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert snapshot(a) == snapshot(b)

    def test_auto_seed_recorded_in_metadata(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("synth", "--out", str(out), "--num-scenes", "1") == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert isinstance(meta["seed"], int)

    def test_report_records_seed_and_ibs_flag(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run("pipeline", "--seed", "5", "--num-scenes", "2", "--out", str(out),
                   "--no-ibs") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["seed"] == 5
        assert doc["ibs"] is False


def regions_by_image(path: Path) -> dict:
    return json.loads(path.read_text())["images"]


class TestImageSeeds:
    def test_regions_do_not_depend_on_other_images(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run("synth", "--out", str(corpus), "--seed", "2", "--num-scenes", "3") == 0
        ann = corpus / "annotations.json"
        alone = tmp_path / "alone.json"
        assert run("gen-regions", "--annotations", str(ann), "--out", str(alone),
                   "--seed", "9") == 0
        # an extra image whose id sorts before every other one
        doc = json.loads(ann.read_text())
        doc["images"]["aaa"] = doc["images"]["scene0002"]
        grown_ann = tmp_path / "grown_annotations.json"
        grown_ann.write_text(json.dumps(doc))
        grown = tmp_path / "grown.json"
        assert run("gen-regions", "--annotations", str(grown_ann), "--out", str(grown),
                   "--seed", "9") == 0
        grown_regions = regions_by_image(grown)
        del grown_regions["aaa"]
        assert grown_regions == regions_by_image(alone)

    def test_pipeline_regions_equal_gen_regions(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run("pipeline", "--seed", "6", "--num-scenes", "3", "--out", str(out)) == 0
        regions = tmp_path / "regions.json"
        assert run("gen-regions", "--annotations", str(out / "annotations.json"),
                   "--out", str(regions), "--seed", "6") == 0
        assert regions.read_bytes() == (out / "regions.json").read_bytes()


class TestOneRunPath:
    def test_pipeline_files_equal_run_image(self, tmp_path, capsys):
        seed = 8
        out = tmp_path / "p"
        assert run("pipeline", "--seed", str(seed), "--num-scenes", "3", "--out", str(out)) == 0
        gts, sizes = serialize.annotations_from_doc(
            json.loads((out / "annotations.json").read_text())
        )
        classes = max(g.class_id for anns in gts.values() for g in anns) + 1
        oracle = OracleSpec(localization_noise=2.0, miss_rate=0.05, false_positive_rate=0.5,
                            class_flip_rate_truncated=0.5, n_classes=classes, rng_seed=seed)
        runs = {
            image_id: run_image(gts[image_id], sizes[image_id], oracle, PipelineConfig(),
                                image_id=image_id, seed=_image_seed(seed, image_id))
            for image_id in sorted(gts)
        }
        expected = {
            "regions.json": serialize.regions_doc(
                {i: (sizes[i], r.regions) for i, r in runs.items()}),
            "crops.json": serialize.crops_doc({i: r.crops for i, r in runs.items()}),
            "region_detections.json": serialize.region_detections_doc(
                {i: r.region_detections for i, r in runs.items()}),
            "merged.json": serialize.merged_detections_doc(
                {i: r.merged for i, r in runs.items()}),
        }
        for name, doc in expected.items():
            assert json.loads((out / name).read_text()) == json.loads(json.dumps(doc)), name
