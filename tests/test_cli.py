import ast
import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalpipe.cli
from focalpipe import evalkit, serialize, visdrone
from focalpipe.boxgeom import Box, ScoredBox
from focalpipe.cli import _image_seed, cli, main
from focalpipe.config import PipelineConfig
from focalpipe.evalkit import GtAnnotation
from focalpipe.focal import FocalRegion, make_detector_map
from focalpipe.fuse import RegionDetections
from focalpipe.pipeline import run_image, run_scene
from focalpipe.scenes import OracleSpec, SceneSpec

from reference_records import records_built


def run(*argv) -> int:
    return main(list(argv))


# the config fields each config-taking command reads; it has a flag for each
COMMAND_FIELDS = {
    "gen-regions": ["margin", "detector_width", "detector_height", "grid_points"],
    "refine-gt": ["keep_threshold"],
    "merge": ["nms_iou", "ibs_region_iou", "ibs_box_iou"],
    "eval": ["max_dets"],
    "pipeline": [f.name for f in dataclasses.fields(PipelineConfig)],
}


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

    @pytest.mark.parametrize("key", ["no_such_key", "per_class", "em_max_iterations",
                                     "em_tolerance", "em_covariance_floor", "em_restarts"])
    def test_unknown_config_key_is_data_error(self, key, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: 1}))
        ann = tmp_path / "annotations.json"
        write_annotations_doc(ann, {"img": [GtAnnotation(Box(0, 0, 10, 10), 1)]}, {"img": (100, 100)})
        assert (
            run("gen-regions", "--annotations", str(ann), "--out", str(tmp_path / "r.json"),
                "--config", str(cfg))
            == 2
        )

    def test_config_int_past_float_range_is_data_error(self, tmp_path, capsys):
        argv, cfg = malformed_case("config-margin-int-overflows", tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: margin must be finite" in err
        assert "Traceback" not in err
        # an integer a float holds is kept as the integer
        cfg.write_text(json.dumps({"margin": 10**300}))
        assert PipelineConfig.load(cfg).margin == 10**300

    @pytest.mark.parametrize("command", ["merge", "synth", "eval"])
    def test_unwritable_output_is_data_error(self, command, tmp_path, capsys):
        file = tmp_path / "file"  # a regular file where a directory is needed
        file.write_text("")
        docs = {"rd.json": TestMerge().region_detection_doc(), "merged.json": MERGED_DOC,
                "ann.json": ANNOTATIONS_DOC}
        for name, doc in docs.items():
            serialize.write_json_atomic(tmp_path / name, doc)
        argv = {
            "merge": ["merge", "--region-detections", str(tmp_path / "rd.json"),
                      "--out", str(file / "m.json")],
            "synth": ["synth", "--out", str(file), "--num-scenes", "1"],
            "eval": ["eval", "--detections", str(tmp_path / "merged.json"), "--annotations",
                     str(tmp_path / "ann.json"), "--out", str(tmp_path / "r.json"),
                     "--table", str(file / "t.txt")],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert str(file) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        requested = {"merge": file / "m.json", "eval": file / "t.txt"}.get(command)
        if requested:  # `synth` fails creating its VisDrone directory, before any file
            assert err.startswith(f"error: {requested}: ")
        assert not (tmp_path / "r.json").exists()  # the report `eval` would write first

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # a fresh interpreter in the C locale without UTF-8 mode, where text defaults to ASCII
        ann, dets = tmp_path / "ann.json", tmp_path / "merged.json"
        names, table = tmp_path / "names.json", tmp_path / "table.txt"
        box = Box(0, 0, 10, 10)
        for path, doc in [(ann, serialize.annotations_doc({"café": [GtAnnotation(box, 1)]},
                                                          {"café": (100, 100)})),
                          (dets, serialize.merged_detections_doc(
                              {"café": [ScoredBox(box, 1, 0.9)]})),
                          (names, {"1": "vélo"})]:
            path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        src = str(Path(focalpipe.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0"}
        result = subprocess.run(
            [sys.executable, "-m", "focalpipe.cli", "eval", "--detections", str(dets),
             "--annotations", str(ann), "--class-names", str(names), "--out",
             str(tmp_path / "report.json"), "--table", str(table)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "vélo" in table.read_bytes().decode("utf-8")

    def test_only_the_converter_and_main_raise_data_errors_from_handlers(self):
        """Every other function lets a `ValueError` reach the converter, so that one code
        path words every data error."""
        tree = ast.parse(Path(focalpipe.cli.__file__).read_text())
        offenders = [
            f.name for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name not in ("_data_errors", "main")
            for handler in ast.walk(f) if isinstance(handler, ast.ExceptHandler)
            for r in ast.walk(handler) if isinstance(r, ast.Raise)
            if any(isinstance(n, ast.Name) and n.id == "DataError" for n in ast.walk(r))
        ]
        assert offenders == []

    def test_no_handler_catches_schema_errors(self):
        """`serialize._at` is the one translator of a stage document's schema errors into a
        message naming the JSON path; a CLI handler that caught them would word them again."""
        tree = ast.parse(Path(focalpipe.cli.__file__).read_text())
        schema_errors = {"KeyError", "TypeError", "AttributeError", "IndexError", "OverflowError"}
        caught = [n.id for handler in ast.walk(tree)
                  if isinstance(handler, ast.ExceptHandler) and handler.type is not None
                  for n in ast.walk(handler.type) if isinstance(n, ast.Name)
                  if n.id in schema_errors]
        assert caught == []

    def test_config_flags_are_the_fields_each_command_reads(self):
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert fields == ["margin", "keep_threshold", "nms_iou", "ibs_region_iou",
                          "ibs_box_iou", "detector_width", "detector_height", "grid_points",
                          "max_dets"]
        for name, reads in COMMAND_FIELDS.items():
            opts = [o for p in cli.commands[name].params for o in p.opts]
            config_opts = [o for o in opts if o == "--config" or o[2:].replace("-", "_") in fields]
            assert config_opts == ["--config", *(f"--{f.replace('_', '-')}" for f in reads)]
        assert sum(map(len, COMMAND_FIELDS.values())) == 18

    @pytest.mark.parametrize("command, flag", [
        ("gen-regions", "--keep-threshold"), ("refine-gt", "--margin"), ("merge", "--max-dets"),
        ("eval", "--nms-iou"), ("gen-regions", "--grid-rows")])
    def test_config_flag_a_command_does_not_read_is_usage_error(self, command, flag, tmp_path,
                                                                capsys):
        assert run(command, flag, "1", "--out", str(tmp_path / "out.json")) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_config_numbers_follow_the_document_rule(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid_points": 16.0, "max_dets": 2.0, "margin": 5}))
        config = PipelineConfig.load(cfg)
        assert (config.grid_points, config.max_dets, config.margin) == (16, 2, 5)
        assert type(config.grid_points) is int and type(config.max_dets) is int

    def test_simulation_flags_are_seed_count_and_config(self):
        # the scene and oracle parameters are `SceneSpec`'s and `OracleSpec`'s defaults
        config_flags = ["--config", *(f"--{f.name.replace('_', '-')}"
                                      for f in dataclasses.fields(PipelineConfig))]
        opts = {name: [o for p in cli.commands[name].params for o in p.opts]
                for name in ("synth", "pipeline")}
        assert opts["synth"] == ["--out", "--seed", "--num-scenes"]
        assert opts["pipeline"] == ["--out", "--seed", "--num-scenes", "--no-ibs", *config_flags]

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--num-scenes", "-2")])
    def test_negative_seed_or_scene_count_is_usage_error(self, command, flag, value, tmp_path,
                                                         capsys):
        out = tmp_path / "c"
        assert run(command, "--out", str(out), flag, value) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestAllOrNothing:
    """A command whose late output cannot be written exits 2 naming that output, and leaves
    the tree as it found it: no output, temp file or directory of the failed run."""

    @pytest.mark.parametrize("command", ["eval", "merge", "gen-regions", "refine-gt", "synth",
                                         "pipeline"])
    def test_unwritable_late_output_leaves_no_output(self, command, tmp_path, capsys):
        inputs, out = tmp_path / "in", tmp_path / "out"
        for name, doc in {"rd.json": TestMerge().region_detection_doc(), "ann.json":
                          ANNOTATIONS_DOC, "merged.json": MERGED_DOC,
                          "regions.json": REGIONS_DOC}.items():
            serialize.write_json_atomic(inputs / name, doc)
        (inputs / "file").write_text("")  # a regular file where a directory is needed
        argv, blocked = {
            "eval": (["eval", "--detections", inputs / "merged.json", "--annotations",
                      inputs / "ann.json", "--out", out / "r.json", "--table", out / "t.txt",
                      "--pr-csv", out / "pr.csv"], out / "pr.csv"),
            "merge": (["merge", "--region-detections", inputs / "rd.json", "--out",
                       out / "m.json", "--out-visdrone", inputs / "file" / "vd"],
                      inputs / "file" / "vd"),
            "gen-regions": (["gen-regions", "--annotations", inputs / "ann.json", "--out",
                             out / "regions.json"], out / "regions.json"),
            "refine-gt": (["refine-gt", "--annotations", inputs / "ann.json", "--regions",
                           inputs / "regions.json", "--out", out / "crops.json"],
                          out / "crops.json"),
            "synth": (["synth", "--out", out, "--num-scenes", "2"], out / "metadata.json"),
            "pipeline": (["pipeline", "--out", out, "--seed", "1", "--num-scenes", "2"],
                         out / "table.txt"),
        }[command]
        if blocked.parent == out:  # a directory where the last output goes
            blocked.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert str(blocked) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["merge", "pipeline"])
    def test_failed_rerun_keeps_the_outputs_that_were_there(self, command, tmp_path, capsys):
        rd, out = tmp_path / "rd.json", tmp_path / "out"
        serialize.write_json_atomic(rd, TestMerge().region_detection_doc())
        argv, last = {
            "merge": (["merge", "--region-detections", rd, "--out", out / "m.json",
                       "--out-visdrone", out / "vd"], out / "vd"),
            "pipeline": (["pipeline", "--out", out, "--seed", "1", "--num-scenes", "2"],
                         out / "table.txt"),
        }[command]
        assert run(*map(str, argv)) == 0
        if last.is_dir():  # the rerun's last output is blocked: a file for a directory
            for p in last.iterdir():
                p.unlink()
            last.rmdir()
            last.write_text("")
        else:  # or a directory for a file
            last.unlink()
            last.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert run(*map(str, argv)) == 2
        assert str(last) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_dangling_link_in_the_way_stays(self, tmp_path, capsys):
        rd, link = tmp_path / "rd.json", tmp_path / "link"
        serialize.write_json_atomic(rd, TestMerge().region_detection_doc())
        link.symlink_to(tmp_path / "nowhere")
        assert run("merge", "--region-detections", str(rd), "--out", str(link / "m.json")) == 2
        assert str(link / "m.json") in capsys.readouterr().err
        assert link.is_symlink()

    def test_temp_name_clash_leaves_the_other_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize.secrets, "token_hex", lambda n: "aa")
        clash = tmp_path / "r.jsonaa.tmp"
        clash.write_text("not ours")
        with pytest.raises(OSError, match="r.json: "):
            serialize.write_json_atomic(tmp_path / "r.json", [1])
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonaa.tmp"]
        assert clash.read_text() == "not ours"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_get_the_mode_open_gives(self, umask, mode, tmp_path, capsys):
        old = os.umask(umask)
        try:
            assert run("pipeline", "--out", str(tmp_path / "run"), "--seed", "1",
                       "--num-scenes", "1") == 0
        finally:
            os.umask(old)
        files = [p for p in (tmp_path / "run").rglob("*") if p.is_file()]
        assert len(files) == 10
        assert {p.stat().st_mode & 0o777 for p in files} == {mode}


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

    def test_image_sizes_with_an_annotations_document_is_usage_error(self, tmp_path, capsys):
        ann, sizes = tmp_path / "annotations.json", tmp_path / "sizes.json"
        write_annotations_doc(ann, {"img": [GtAnnotation(Box(10, 20, 30, 40), 1)]},
                              {"img": (200, 200)})
        sizes.write_text('{"img": [10, 10]}')
        out = tmp_path / "r.json"
        assert run("gen-regions", "--annotations", str(ann), "--image-sizes", str(sizes),
                   "--out", str(out)) == 1
        assert "--image-sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_refine_gt_and_eval_take_a_visdrone_directory_without_sizes(self, tmp_path, capsys):
        ann_dir, ann = tmp_path / "ann", tmp_path / "annotations.json"
        gts = {"img": [GtAnnotation(Box(10, 20, 40, 60), 1),
                       GtAnnotation(Box(90, 90, 120, 130), 2)]}
        visdrone.write_annotations(ann_dir, gts)
        write_annotations_doc(ann, gts, {"img": (200, 200)})
        regions = tmp_path / "regions.json"
        assert run("gen-regions", "--annotations", str(ann), "--out", str(regions)) == 0
        for name, source in (("dir", ann_dir), ("doc", ann)):
            assert run("refine-gt", "--annotations", str(source), "--regions", str(regions),
                       "--out", str(tmp_path / f"crops_{name}.json")) == 0
            assert run("eval", "--detections", str(ann_dir), "--annotations", str(source),
                       "--out", str(tmp_path / f"report_{name}.json")) == 0
        for name in ("crops", "report"):
            dir_bytes = (tmp_path / f"{name}_dir.json").read_bytes()
            assert dir_bytes == (tmp_path / f"{name}_doc.json").read_bytes()
        assert json.loads(dir_bytes)["ap"] == 100.0


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

    def test_builds_no_box_or_scored_box_per_detection(self, tmp_path, capsys):
        rd = tmp_path / "rd.json"
        serialize.write_json_atomic(rd, self.region_detection_doc())
        with records_built() as built:
            assert run("merge", "--region-detections", str(rd), "--out", str(tmp_path / "m.json"),
                       "--out-visdrone", str(tmp_path / "results")) == 0
        assert built[ScoredBox] == []
        # the two region rects, and no box per detection
        assert [b.as_tuple() for b in built[Box]] == [(0, 0, 300, 200), (250, 0, 550, 200)]

    @pytest.mark.parametrize("image_id", ["", "../escaped", "sub/dir/img", "<absolute>", "a\0b"])
    def test_image_id_naming_no_visdrone_file_is_rejected(self, tmp_path, capsys, image_id):
        """`eval` reads a result file's image id back from its stem in the directory."""
        image_id = str(tmp_path / "abs") if image_id == "<absolute>" else image_id
        doc = self.region_detection_doc()
        doc["images"] = {image_id: doc["images"]["img"]}
        rd = tmp_path / "in" / "rd.json"
        serialize.write_json_atomic(rd, doc)
        before, out = snapshot(tmp_path), tmp_path / "out"
        assert run("merge", "--region-detections", str(rd), "--out", str(out / "m.json"),
                   "--out-visdrone", str(out / "vd" / "results")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{rd}: image {image_id!r}" in err
        assert snapshot(tmp_path) == before and not out.exists()


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


# a case whose malformed file is that of another case, with a Latin-1 "é" in its first key
NOT_UTF8 = {"annotations-not-utf8": "three-number-bbox",
            "regions-not-utf8": "regions-given-region-detections",
            "region-detections-not-utf8": "region-without-id",
            "image-sizes-not-utf8": "image-size-not-a-pair", "merged-not-utf8": "merged-bbox-nan",
            "config-not-utf8": "config-margin-nan"}
# each loader on JSON nested far deeper than the recursion limit: arrays, or objects for
# `--config`, which must hold one
NESTED_DEEP = {"region-detections-nested-deep": "region-without-id",
               "regions-nested-deep": "regions-rect-missing",
               "merged-nested-deep": "merged-bbox-nan",
               "annotations-nested-deep": "three-number-bbox",
               "config-nested-deep": "config-margin-nan"}


def malformed_case(case: str, tmp_path: Path) -> tuple[list[str], Path]:
    """Write the input files of one malformed-document case; returns the
    command line and the path of the malformed file."""
    if case in NOT_UTF8:
        argv, bad = malformed_case(NOT_UTF8[case], tmp_path)
        bad.write_bytes(bad.read_bytes().replace(b'"', b'"\xe9', 1))
        return argv, bad
    if case in NESTED_DEEP:
        argv, bad = malformed_case(NESTED_DEEP[case], tmp_path)
        bad.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000 if case.startswith("config-")
                       else "[" * 200_000 + "]" * 200_000)
        return argv, bad
    if case.startswith("eval-"):  # the annotations of a `gen-regions` case, read by `eval`
        _, ann = malformed_case(case.removeprefix("eval-"), tmp_path)
        dets = tmp_path / "merged.json"
        serialize.write_json_atomic(dets, MERGED_DOC)
        return ["eval", "--detections", str(dets), "--annotations", str(ann),
                "--out", str(tmp_path / "out.json")], ann
    rd_doc, regions_doc = TestMerge().region_detection_doc(), copy.deepcopy(REGIONS_DOC)
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
            "detection-bbox-a-string": ("bbox", "1234"),
            "detection-bbox-numeric-strings": ("bbox", ["0", "52", "50", "148"]),
            "detection-class-id-a-string": ("class_id", "1"),
            "detection-class-id-a-boolean": ("class_id", True),
            "detection-class-id-2-to-64": ("class_id", 2**64),
            "detection-score-a-string": ("score", "0.5"),
            "detection-score-a-boolean": ("score", True),
        }[case]
        det[key] = value
    elif case == "detections-not-a-list":
        rd_doc["images"]["img"][1]["detections"] = {"bbox": [0, 52, 50, 148]}
    elif case == "images-is-a-list":
        rd_doc = {"images": []}
    elif case == "three-number-bbox":
        ann_doc["images"]["img"]["annotations"][0]["bbox"] = [0, 0, 10]
    elif case == "annotation-without-class-id":
        del ann_doc["images"]["img"]["annotations"][0]["class_id"]
    elif case == "annotation-without-image-size":
        del ann_doc["images"]["img"]["image_size"]
    elif case == "regions-rect-missing":
        del regions_doc["images"]["img"]["regions"][1]["rect"]
    elif case == "regions-rect-three-numbers":
        regions_doc["images"]["img"]["regions"][1]["rect"] = [0, 0, 60]
    elif case == "regions-key-missing":
        del regions_doc["images"]["img"]["regions"]
    elif case == "regions-of-an-unknown-image":
        regions_doc["images"]["other"] = regions_doc["images"].pop("img")
    elif case in ("detector-scale-nan", "detector-scale-overflows"):
        to_detector = rd_doc["images"]["img"][0]["region"]["to_detector"]
        to_detector["scale_x"] = float("nan") if case == "detector-scale-nan" else 1e308
    elif case.startswith("annotation-class-id-"):
        ann_doc["images"]["img"]["annotations"][0]["class_id"] = (
            float("inf") if case.endswith("-inf") else 2.7)
    elif case.startswith("annotation-bbox-"):
        ann_doc["images"]["img"]["annotations"][0]["bbox"] = (
            "1234" if case == "annotation-bbox-a-string" else ["0", "0", "10", "10"])
    elif case == "annotation-centers-overflow":  # squared center distances overflow float64
        ann_doc["images"]["img"]["annotations"].append(
            {"bbox": [1e160, 0, 2e160, 10], "class_id": 1, "ignore": False})
    elif case == "annotation-ignore-a-string":
        ann_doc["images"]["img"]["annotations"][0]["ignore"] = "false"
    elif case == "region-id-inf":
        rd_doc["images"]["img"][0]["region"]["region_id"] = float("inf")
    elif case == "region-image-id-null":
        rd_doc["images"]["img"][0]["region"]["image_id"] = None
    elif case == "detector-scale-a-string":
        rd_doc["images"]["img"][0]["region"]["to_detector"]["scale_x"] = "1.0"
    elif case.startswith(("annotation-size-has-a-", "annotation-size-has-an-")):
        bad_width = {"string": "x", "null": None, "list": [1], "boolean": True,
                     "negative": -1, "zero": 0, "nan": float("nan"), "infinity": float("inf"),
                     "overflow": 10**400}[case.rsplit("-", 1)[1]]
        ann_doc["images"]["img"]["image_size"] = [bad_width, 900]
    rd, ann, regions = tmp_path / "rd.json", tmp_path / "ann.json", tmp_path / "regions.json"
    serialize.write_json_atomic(rd, rd_doc)
    serialize.write_json_atomic(ann, ann_doc)
    serialize.write_json_atomic(regions, regions_doc)
    out = str(tmp_path / "out.json")
    if case in ("image-size-not-a-pair", "image-sizes-is-a-list", "image-sizes-not-json",
                "image-size-infinite"):
        ann_dir, sizes = tmp_path / "visdrone", tmp_path / "sizes.json"
        visdrone.write_annotations(ann_dir, {"img": [GtAnnotation(Box(0, 0, 10, 10), 1)]})
        serialize.write_json_atomic(sizes, {"image-size-not-a-pair": {"img": 5},
                                            "image-size-infinite": {"img": [1e999, 100]}}
                                    .get(case, []))
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
            "visdrone-annotation-category-2-to-63": ("ann", f"0,0,10,10,1,{2**63},0,0"),
            "visdrone-detection-category-2-to-64": ("det", f"0,0,10,10,0.5,{2**64},-1,-1"),
            "visdrone-annotation-not-utf8": ("ann", "0,0,10,10,1,1,0,0 # café"),
        }[case]
        files = {"det": "0,0,10,10,0.5,1,-1,-1\n", "ann": "0,0,10,10,1,1,0,0\n"}
        files[kind] += line + "\n"
        for name, text in files.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "img.txt").write_bytes(text.encode("latin-1"))
        argv = ["eval", "--detections", str(tmp_path / "det"), "--annotations",
                str(tmp_path / "ann"), "--out", out]
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
            "merged-bbox-a-string": {"bbox": "1234"},
            "merged-bbox-numeric-strings": {"bbox": ["0", "0", "10", "10"]},
            "merged-class-id-a-string": {"class_id": "1"},
            "merged-class-id-a-boolean": {"class_id": True},
            "merged-class-id-2-to-64": {"class_id": 2**64},
            "merged-score-a-string": {"score": "0.5"},
            "merged-score-a-boolean": {"score": True},
        }[case]}]
        dets = tmp_path / "merged.json"
        serialize.write_json_atomic(dets, {"images": {"img": image}})
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out], dets
    if case.startswith(("class-id-", "class-names-")):
        dets, names = tmp_path / "merged.json", tmp_path / "names.json"
        serialize.write_json_atomic(dets, serialize.merged_detections_doc(
            {"img": [ScoredBox(Box(0, 0, 10, 10), 1, 0.9)]}))
        key = {"class-id-not-an-integer": "a", "class-id-negative": "-1",
               "class-id-with-an-underscore": "1_0", "class-id-with-a-space": " 7",
               "class-id-with-a-plus": "+3", "class-id-2-to-63": str(2**63)}
        serialize.write_json_atomic(names, {key[case]: "x"} if case in key else [])
        return ["eval", "--detections", str(dets), "--annotations", str(ann), "--out", out,
                "--class-names", str(names)], names
    if case == "flag-margin-nan":
        argv = ["gen-regions", "--annotations", str(ann), "--out", out, "--margin", "nan"]
        return argv, Path("margin must be finite")
    if case == "pipeline-detector-width-1e308":  # the first image's detector map overflows
        argv = ["pipeline", "--out", str(tmp_path / "run"), "--seed", "1", "--num-scenes", "2",
                "--detector-width", "1e308"]
        return argv, tmp_path / "run" / "annotations.json"
    if case.startswith("config-"):
        cfg = tmp_path / "config.json"
        if case == "config-a-directory":
            cfg.mkdir()
        elif case == "config-truncated":
            cfg.write_text('{"margin": 1')
        else:
            key, value = {"config-margin-a-string": ("margin", "x"),
                          "config-nms-iou-null": ("nms_iou", None),
                          "config-max-dets-fraction": ("max_dets", 1.5),
                          "config-grid-points-fraction": ("grid_points", 2.5),
                          "config-max-dets-a-boolean": ("max_dets", True),
                          "config-margin-nan": ("margin", float("nan")),
                          "config-margin-negative": ("margin", -1),
                          "config-margin-int-overflows": ("margin", 10**400)}[case]
            serialize.write_json_atomic(cfg, {key: value})
        return ["gen-regions", "--annotations", str(ann), "--out", out, "--config", str(cfg)], cfg
    if case == "three-number-bbox" or case.startswith("annotation-"):
        return ["gen-regions", "--annotations", str(ann), "--out", out], ann
    if case == "regions-given-region-detections":
        return ["refine-gt", "--annotations", str(ann), "--regions", str(rd), "--out", out], rd
    if case.startswith("regions-"):
        return ["refine-gt", "--annotations", str(ann), "--regions", str(regions),
                "--out", out], regions
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
        "annotation-class-id-fraction", "region-id-inf", "annotation-bbox-a-string",
        "annotation-ignore-a-string", "config-margin-a-string", "config-nms-iou-null",
        "config-max-dets-fraction", "config-grid-points-fraction", "config-max-dets-a-boolean",
        "config-margin-nan", "config-margin-negative", "config-margin-int-overflows",
        "flag-margin-nan", "annotation-bbox-numeric-strings", "annotation-size-has-a-boolean",
        "detector-scale-a-string", "region-image-id-null", "visdrone-annotation-category-2-to-63",
        "visdrone-detection-category-2-to-64", "annotation-size-has-a-negative",
        "annotation-size-has-a-zero", "annotation-size-has-a-nan",
        "annotation-size-has-an-infinity", "annotation-size-has-an-overflow",
        "image-size-infinite", "class-id-negative", "class-id-with-an-underscore",
        "class-id-with-a-space", "class-id-with-a-plus", "class-id-2-to-63",
        "annotation-centers-overflow", *NOT_UTF8, "config-truncated", "config-a-directory",
        "visdrone-annotation-not-utf8", "pipeline-detector-width-1e308", *NESTED_DEEP,
    ])
    def test_exits_2_naming_the_file(self, case, tmp_path, capsys):
        argv, bad = malformed_case(case, tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out.json").exists()
        if "size" in case and "sizes" not in case and "pair" not in case:
            assert "width of 'img'" in err  # the image, not only the file
        if case == "annotation-centers-overflow":
            assert f"{bad}: img: " in err and "overflow" in err
        if case.endswith("not-utf8"):
            assert f"{bad}: 'utf-8' codec can't decode byte 0xe9" in err
        if case.startswith("config-") and case != "config-a-directory":
            assert f"config file {bad}: " in err
        if case in NESTED_DEEP:  # the message starts with the file, not a traceback
            config = "config file " if case.startswith("config-") else ""
            assert err.startswith(f"error: {config}{bad}: maximum recursion depth exceeded")
        if case.startswith("pipeline-"):  # the synthesized corpus named, and then removed
            assert f"{bad}: scene0000: " in err
            assert not bad.parent.exists()

    @pytest.mark.parametrize("case, json_path", [
        ("detection-bbox-nan", "images/img/[1]/detections/[0]/bbox"),
        ("detection-bbox-inverted", "images/img/[1]/detections/[0]/bbox"),
        ("detection-bbox-three-numbers", "images/img/[1]/detections/[0]"),
        ("detection-bbox-int-overflows", "images/img/[1]/detections/[0]"),
        ("detection-class-id-negative", "images/img/[1]/detections/[0]/class_id"),
        ("detection-class-id-fraction", "images/img/[1]/detections/[0]"),
        ("detection-bbox-a-string", "images/img/[1]/detections/[0]"),
        ("score-above-one", "images/img/[0]/detections/[0]/score: 1.5 outside [0, 1]"),
        ("detections-not-a-list", "images/img/[1]/detections"),
        ("region-without-id", "images/img/[0]"),
        ("images-is-a-list", "images"),
        ("merged-bbox-nan", "images/img/[0]/bbox: [0, nan, 10, 10] has a non-finite coordinate"),
        ("merged-score-above-one", "images/img/[0]/score: 1.5 outside [0, 1]"),
        ("merged-class-id-negative", "images/img/[0]/class_id: -1 is negative"),
        ("merged-bbox-a-string", "images/img/[0]"),
        *[(f"{kind}-{field}", path)
          for kind, path in [("detection", "images/img/[1]/detections/[0]"),
                             ("merged", "images/img/[0]")]
          for field in ["bbox-numeric-strings", "class-id-a-string", "class-id-a-boolean",
                        "class-id-2-to-64", "score-a-string", "score-a-boolean"]],
        ("merged-detections-a-dict", "images/img: expected a list, got dict"),
        ("merged-detections-a-string", "images/img: expected a list, got str"),
        ("regions-rect-missing", "images/img/regions/[1]: KeyError: 'rect'"),
        ("regions-rect-three-numbers",
         "images/img/regions/[1]: ValueError: a box must be a list of four numbers"),
        ("regions-key-missing", "images/img: KeyError: 'regions'"),
        ("regions-of-an-unknown-image", "images/other: not in "),
        *[(f"{prefix}{case}", path) for prefix in ["", "eval-"] for case, path in [
            ("annotation-without-class-id", "images/img/annotations/[0]: KeyError: 'class_id'"),
            ("three-number-bbox",
             "images/img/annotations/[0]: ValueError: a box must be a list of four numbers"),
            ("annotation-without-image-size", "images/img: KeyError: 'image_size'")]],
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
              -float("inf"), 1e308, 10**30, [0, 0, 1], "0.5", "1", False, 2**64]


@st.composite
def mutated_docs(draw, doc):
    """A copy of `doc` with one to three keys dropped, values swapped for other types, NaN,
    infinities, out-of-range numbers or look-alikes of numbers, or four-number lists
    inverted."""
    doc = copy.deepcopy(doc)
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


MERGED_DOC = serialize.merged_detections_doc({"img": [ScoredBox(Box(0, 0, 10, 10), 1, 0.9),
                                                      ScoredBox(Box(5, 5, 20, 30), 2, 0.5)]})
ANNOTATIONS_DOC = serialize.annotations_doc(
    {"img": [GtAnnotation(Box(0, 0, 10, 10), 1), GtAnnotation(Box(40, 50, 60, 90), 2, True)]},
    {"img": (100, 120)})
REGIONS_DOC = serialize.regions_doc({"img": ((100, 120), [
    FocalRegion(rect, i, "img", make_detector_map(rect, 100, 60))
    for i, rect in enumerate([Box(0, 0, 30, 20), Box(30, 40, 70, 100)])])})


@st.composite
def byte_edited_docs(draw, doc):
    """`doc` encoded as JSON, with one to three bytes of any value overwritten or inserted."""
    data = bytearray(json.dumps(doc).encode())
    for _ in range(draw(st.integers(1, 3))):
        i, byte = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 255))
        if draw(st.booleans()):
            data[i] = byte
        else:
            data.insert(i, byte)
    return bytes(data)


def run_on_mutated(doc, argv, tmp) -> str:
    """Run `argv` with `doc` written to `tmp/doc.json`, the path `{doc}` in `argv` stands for;
    a `bytes` doc is written as it is, any other as JSON.
    It exits 0 or 2; a data error names that file, and no failure is a traceback or leaves
    `tmp/out.json`. Returns the message of a data error, or "" on success."""
    path, out = Path(tmp) / "doc.json", Path(tmp) / "out.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(path) if a == "{doc}" else a for a in argv] + ["--out", str(out)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert str(path) in err.getvalue()
        assert not out.exists()
    return err.getvalue() if code else ""


class TestMergeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=mutated_docs(TestMerge().region_detection_doc()))
    def test_exits_0_or_2_naming_a_json_path(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            err = run_on_mutated(doc, ["merge", "--region-detections", "{doc}"], tmp)
            if err:
                assert f"{Path(tmp) / 'doc.json'}: images" in err

    @settings(max_examples=150, deadline=None)
    @given(doc=byte_edited_docs(TestMerge().region_detection_doc()))
    def test_byte_edits_exit_0_or_2_naming_the_file(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            run_on_mutated(doc, ["merge", "--region-detections", "{doc}"], tmp)


class TestLoaderFuzz:
    @staticmethod
    def eval_detections(doc):
        with tempfile.TemporaryDirectory() as tmp:
            ann = Path(tmp) / "ann.json"
            serialize.write_json_atomic(ann, ANNOTATIONS_DOC)
            run_on_mutated(doc, ["eval", "--detections", "{doc}", "--annotations", str(ann)], tmp)

    @staticmethod
    def gen_regions_annotations(doc):
        with tempfile.TemporaryDirectory() as tmp:
            run_on_mutated(doc, ["gen-regions", "--annotations", "{doc}"], tmp)

    @settings(max_examples=150, deadline=None)
    @given(doc=mutated_docs(REGIONS_DOC))
    def test_refine_gt_regions_name_a_json_path(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            ann = Path(tmp) / "ann.json"
            serialize.write_json_atomic(ann, ANNOTATIONS_DOC)
            err = run_on_mutated(doc, ["refine-gt", "--annotations", str(ann),
                                       "--regions", "{doc}"], tmp)
            if err:
                assert f"{Path(tmp) / 'doc.json'}: images" in err

    @settings(max_examples=150, deadline=None)
    @given(doc=mutated_docs(MERGED_DOC))
    def test_eval_detections(self, doc):
        self.eval_detections(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=mutated_docs(ANNOTATIONS_DOC))
    def test_gen_regions_annotations(self, doc):
        self.gen_regions_annotations(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=byte_edited_docs(MERGED_DOC))
    def test_eval_detections_byte_edits(self, doc):
        self.eval_detections(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=byte_edited_docs(ANNOTATIONS_DOC))
    def test_gen_regions_annotations_byte_edits(self, doc):
        self.gen_regions_annotations(doc)


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

    @pytest.mark.parametrize("voc, matches", [((), 1), (("--voc-iou", "0.7"), 2)])
    def test_pr_csv_comes_from_the_coco_match(self, tmp_path, capsys, monkeypatch, voc, matches):
        """The (0.5, "all") key of the COCO match holds the outcomes of the PR points; VOC
        matches classes merged, once more."""
        run_ = run_scene(SceneSpec(rng_seed=2), OracleSpec(rng_seed=2), image_id="img")
        ann, det_path = tmp_path / "annotations.json", tmp_path / "merged.json"
        write_annotations_doc(ann, {"img": run_.annotations}, {"img": (1600, 1200)})
        serialize.write_json_atomic(det_path, serialize.merged_detections_doc({"img": run_.merged}))
        gts, _ = serialize.annotations_from_doc(json.loads(ann.read_text()))
        dets = serialize.merged_detections_from_doc(json.loads(det_path.read_text()))
        rows = ["class_id,score,precision,recall"] + [
            f"{c},{s:.6f},{p:.6f},{r:.6f}" for c, s, p, r in
            evalkit.precision_recall_points(dets, gts, max_dets=7)]
        match = mock.Mock(wraps=evalkit._match)
        monkeypatch.setattr(evalkit, "_match", match)
        assert run("eval", "--detections", str(det_path), "--annotations", str(ann), "--out",
                   str(tmp_path / "r.json"), "--pr-csv", str(tmp_path / "pr.csv"),
                   "--max-dets", "7", *voc) == 0
        assert match.call_count == matches
        assert (tmp_path / "pr.csv").read_bytes() == "".join(r + "\r\n" for r in rows).encode()
        assert len(rows) > 3

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
        oracle = OracleSpec(n_classes=classes, rng_seed=seed)
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

    @pytest.mark.parametrize("ibs_flags", [[], ["--no-ibs"]], ids=["ibs", "no-ibs"])
    def test_stages_reproduce_pipeline_files(self, ibs_flags, tmp_path, capsys):
        whole, staged = tmp_path / "p", tmp_path / "s"
        assert run("pipeline", "--seed", "7", "--num-scenes", "3", "--out", str(whole),
                   *ibs_flags) == 0
        ann = str(whole / "annotations.json")
        regions, crops, merged = (str(staged / f"{n}.json") for n in ("regions", "crops", "merged"))
        assert run("gen-regions", "--annotations", ann, "--seed", "7", "--out", regions) == 0
        assert run("refine-gt", "--annotations", ann, "--regions", regions, "--out", crops) == 0
        assert run("merge", "--region-detections", str(whole / "region_detections.json"),
                   "--out", merged, "--out-visdrone", str(staged / "results"), *ibs_flags) == 0
        assert run("eval", "--detections", merged, "--annotations", ann,
                   "--out", str(staged / "report.json"), "--table", str(staged / "table.txt")) == 0
        files = snapshot(staged)
        assert sorted(files) == ["crops.json", "merged.json", "regions.json", "report.json",
                                 *(f"results/scene000{i}.txt" for i in range(3)), "table.txt"]
        report = json.loads((whole / "report.json").read_text())
        assert (report.pop("seed"), report.pop("ibs")) == (7, not ibs_flags)
        serialize.write_json_atomic(whole / "report.json", report)
        for name, data in files.items():
            assert data == (whole / name).read_bytes(), name


class TestConfigReads:
    """After loading its config, each command reads exactly the fields it has flags for,
    so no flag is dead and no field it reads lacks a flag."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reads") / "p"
        assert run("pipeline", "--seed", "3", "--num-scenes", "2", "--out", str(out)) == 0
        return out

    @pytest.mark.parametrize("command", list(COMMAND_FIELDS))
    def test_reads_are_the_flags(self, command, corpus, tmp_path, monkeypatch, capsys):
        ann = str(corpus / "annotations.json")
        argv = {
            "gen-regions": ["--annotations", ann],
            "refine-gt": ["--annotations", ann, "--regions", str(corpus / "regions.json")],
            "merge": ["--region-detections", str(corpus / "region_detections.json")],
            "eval": ["--detections", str(corpus / "merged.json"), "--annotations", ann],
            "pipeline": ["--seed", "3", "--num-scenes", "2"],
        }[command]
        fields, reads = {f.name for f in dataclasses.fields(PipelineConfig)}, set()
        load = focalpipe.cli._load_config

        def load_then_record(*args, **kwargs):
            config = load(*args, **kwargs)  # reads while building and validating do not count

            def getattribute(self, name):
                if self is config and name in fields:
                    reads.add(name)
                return object.__getattribute__(self, name)

            monkeypatch.setattr(PipelineConfig, "__getattribute__", getattribute)
            return config

        monkeypatch.setattr(focalpipe.cli, "_load_config", load_then_record)
        assert run(command, *argv, "--out", str(tmp_path / "out")) == 0
        flags = {o[2:].replace("-", "_") for p in cli.commands[command].params for o in p.opts}
        assert reads == flags & fields
