import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_builds_no_box_or_scored_box_per_detection(self, tmp_path, monkeypatch, capsys):
        rd = tmp_path / "rd.json"
        serialize.write_json_atomic(rd, self.region_detection_doc())

        def forbidden(det):
            raise AssertionError("merge built a ScoredBox")

        built = []
        monkeypatch.setattr(ScoredBox, "__post_init__", forbidden)
        monkeypatch.setattr(Box, "__post_init__", lambda box: built.append(box))
        assert run("merge", "--region-detections", str(rd), "--out", str(tmp_path / "m.json"),
                   "--out-visdrone", str(tmp_path / "results")) == 0
        # the two region rects, and no box per detection
        assert [b.as_tuple() for b in built] == [(0, 0, 300, 200), (250, 0, 550, 200)]


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
    elif case.startswith("detection-"):  # the first detection of the second region
        det = rd_doc["images"]["img"][1]["detections"][0]
        key, value = {
            "detection-bbox-nan": ("bbox", [0, float("nan"), 50, 148]),
            "detection-bbox-inverted": ("bbox", [50, 52, 0, 148]),
            "detection-bbox-three-numbers": ("bbox", [0, 52, 50]),
            "detection-bbox-int-overflows": ("bbox", [0, 52, 10**400, 148]),
            "detection-class-id-negative": ("class_id", -1),
            "detection-class-id-fraction": ("class_id", 2.7),
        }[case]
        det[key] = value
    elif case == "detections-not-a-list":
        rd_doc["images"]["img"][1]["detections"] = {"bbox": [0, 52, 50, 148]}
    elif case == "images-is-a-list":
        rd_doc = {"images": []}
    elif case == "three-number-bbox":
        ann_doc["images"]["img"]["annotations"][0]["bbox"] = [0, 0, 10]
    elif case in ("detector-scale-nan", "detector-scale-overflows"):
        to_detector = rd_doc["images"]["img"][0]["region"]["to_detector"]
        to_detector["scale_x"] = float("nan") if case == "detector-scale-nan" else 1e308
    elif case.startswith("annotation-class-id-"):
        ann_doc["images"]["img"]["annotations"][0]["class_id"] = (
            float("inf") if case.endswith("-inf") else 2.7)
    elif case == "region-id-inf":
        rd_doc["images"]["img"][0]["region"]["region_id"] = float("inf")
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
    if case.startswith("visdrone-"):
        # one image; the detection or the annotation file has a bad second line
        kind, line = {
            "visdrone-detection-category-inf": ("det", "0,0,10,10,0.5,inf,-1,-1"),
            "visdrone-detection-category-nan": ("det", "0,0,10,10,0.5,nan,-1,-1"),
            "visdrone-detection-box-nan": ("det", "0,nan,10,10,0.5,1,-1,-1"),
            "visdrone-detection-category-negative": ("det", "0,0,10,10,0.5,-1,-1,-1"),
            "visdrone-annotation-category-inf": ("ann", "0,0,10,10,1,inf,0,0"),
        }[case]
        files = {"det": "0,0,10,10,0.5,1,-1,-1\n", "ann": "0,0,10,10,1,1,0,0\n"}
        files[kind] += line + "\n"
        for name, text in files.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "img.txt").write_text(text)
        sizes = tmp_path / "sizes.json"
        serialize.write_json_atomic(sizes, {"img": [100, 100]})
        argv = ["eval", "--detections", str(tmp_path / "det"), "--annotations",
                str(tmp_path / "ann"), "--image-sizes", str(sizes), "--out", out]
        return argv, tmp_path / kind / "img.txt:2"
    if case == "voc-iou-zero":
        dets = tmp_path / "merged.json"
        serialize.write_json_atomic(dets, serialize.merged_detections_doc(
            {"img": [ScoredBox(Box(500, 500, 510, 510), 1, 0.9)]}))
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out,
                "--voc-iou", "0"], Path("--voc-iou")
    if case.startswith("merged-"):  # `eval` on one image of one detection
        det = {"bbox": [0, 0, 10, 10], "class_id": 1, "score": 0.9}
        not_a_list = {"merged-detections-a-dict": {}, "merged-detections-a-string": ""}
        image = not_a_list[case] if case in not_a_list else [{**det, **{
            "merged-bbox-nan": {"bbox": [0, float("nan"), 10, 10]},
            "merged-score-above-one": {"score": 1.5},
            "merged-class-id-negative": {"class_id": -1},
        }[case]}]
        dets = tmp_path / "merged.json"
        serialize.write_json_atomic(dets, {"images": {"img": image}})
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out], dets
    if case in ("class-id-not-an-integer", "class-names-is-a-list"):
        dets, names = tmp_path / "merged.json", tmp_path / "names.json"
        serialize.write_json_atomic(dets, serialize.merged_detections_doc(
            {"img": [ScoredBox(Box(0, 0, 10, 10), 1, 0.9)]}))
        serialize.write_json_atomic(names, {"a": "x"} if case == "class-id-not-an-integer" else [])
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out,
                "--class-names", str(names)], names
    if case == "three-number-bbox" or case.startswith("annotation-"):
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
        "annotation-size-has-a-null", "annotation-size-has-a-list", "voc-iou-zero",
        "visdrone-detection-category-inf", "visdrone-detection-category-nan",
        "visdrone-detection-box-nan", "visdrone-detection-category-negative",
        "visdrone-annotation-category-inf", "annotation-class-id-inf",
        "annotation-class-id-fraction", "region-id-inf",
    ])
    def test_exits_2_naming_the_file(self, case, tmp_path, capsys):
        argv, bad = malformed_case(case, tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("case, json_path", [
        ("detection-bbox-nan", "images/img/[1]/detections/[0]/bbox"),
        ("detection-bbox-inverted", "images/img/[1]/detections/[0]/bbox"),
        ("detection-bbox-three-numbers", "images/img/[1]/detections/[0]"),
        ("detection-bbox-int-overflows", "images/img/[1]/detections/[0]"),
        ("detection-class-id-negative", "images/img/[1]/detections/[0]/class_id"),
        ("detection-class-id-fraction", "images/img/[1]/detections/[0]"),
        ("score-above-one", "images/img/[0]/detections/[0]/score: 1.5 outside [0, 1]"),
        ("detections-not-a-list", "images/img/[1]/detections"),
        ("region-without-id", "images/img/[0]"),
        ("images-is-a-list", "images"),
        ("merged-bbox-nan", "images/img/[0]/bbox: [0, nan, 10, 10] has a non-finite coordinate"),
        ("merged-score-above-one", "images/img/[0]/score: 1.5 outside [0, 1]"),
        ("merged-class-id-negative", "images/img/[0]/class_id: -1 is negative"),
        ("merged-detections-a-dict", "images/img: expected a list, got dict"),
        ("merged-detections-a-string", "images/img: expected a list, got str"),
    ])
    def test_region_detection_errors_name_the_json_path(self, case, json_path, tmp_path, capsys):
        argv, bad = malformed_case(case, tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: {json_path}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


def slots(node):
    """Every (container, key) of a JSON document, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else [])
    for key, value in list(items):
        yield node, key
        yield from slots(value)


BAD_VALUES = [None, "x", [], {}, -1, 2.7, 1.5, -0.5, True, float("nan"), float("inf"),
              -float("inf"), 1e308, 10**30, [0, 0, 1]]


@st.composite
def mutated_region_detection_docs(draw):
    """The merge test document with one to three keys dropped, values swapped for other
    types, NaN, infinities or out-of-range numbers, or four-number lists inverted."""
    doc = TestMerge().region_detection_doc()
    for _ in range(draw(st.integers(1, 3))):
        places = list(slots(doc))
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        how = draw(st.sampled_from(["drop", "replace", "invert"]))
        if how == "drop":
            del node[key]
        elif how == "invert" and isinstance(node[key], list) and len(node[key]) == 4:
            x1, y1, x2, y2 = node[key]
            node[key] = [x2, y2, x1, y1]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return doc


class TestMergeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=mutated_region_detection_docs())
    def test_exits_0_or_2_naming_a_json_path(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            rd, out = Path(tmp) / "rd.json", Path(tmp) / "out.json"
            rd.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["merge", "--region-detections", str(rd), "--out", str(out)])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert f"{rd}: images" in err.getvalue()
                assert not out.exists()


class TestHugeCoordinates:
    """Coordinates near the float64 limit overflow in the array kernels: those pairs score
    as the scalar `iou` scores them, and no numpy warning reaches the terminal."""

    def run_without_warnings(self, *argv) -> int:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv)
        assert [str(w.message) for w in caught] == []
        return code

    @pytest.mark.parametrize("offset, bbox, code", [
        (0.0, [200, 50, 300, 150], 0),  # to about 3e302: areas overflow in NMS and IBS
        (-1e8, [0, 0, 1e8, 1e8], 2),  # to 2e308: the remap overflows, a non-finite box
    ], ids=["nms-and-ibs", "remap"])
    def test_merge(self, offset, bbox, code, tmp_path, capsys):
        doc = TestMerge().region_detection_doc()
        entry = doc["images"]["img"][0]  # a detector frame of 1e8 x 1e8
        entry["region"]["rect"] = [0, 0, 1e308, 1e308]
        entry["region"]["to_detector"].update(scale_x=1e-300, scale_y=1e-300, offset_x=offset)
        entry["detections"][0]["bbox"] = bbox
        rd, out = tmp_path / "rd.json", tmp_path / "merged.json"
        serialize.write_json_atomic(rd, doc)
        assert self.run_without_warnings("merge", "--region-detections", str(rd),
                                         "--out", str(out)) == code
        if code == 0:
            assert len(json.loads(out.read_text())["images"]["img"]) == 2
        else:
            assert "non-finite box coordinate" in capsys.readouterr().err

    def test_eval(self, tmp_path):
        big, tall = Box(0, 0, 1e308, 1e308), Box(0, 0, 1e307, 1e308)
        det_path, ann = tmp_path / "merged.json", tmp_path / "annotations.json"
        serialize.write_json_atomic(det_path, serialize.merged_detections_doc(
            {"img": [ScoredBox(big, 1, 0.9), ScoredBox(tall, 1, 0.8)]}))
        write_annotations_doc(ann, {"img": [GtAnnotation(big, 1), GtAnnotation(tall, 1)]},
                              {"img": (10, 10)})
        out = tmp_path / "report.json"
        assert self.run_without_warnings("eval", "--detections", str(det_path), "--annotations",
                                         str(ann), "--out", str(out), "--voc-iou", "0.5") == 0
        assert json.loads(out.read_text())["ap"] == 0.0


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
