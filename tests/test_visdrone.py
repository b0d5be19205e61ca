import json
import os

import pytest

from focalpipe.boxgeom import Box, ScoredBox
from focalpipe.evalkit import GtAnnotation
from focalpipe.fuse import scored_columns
from focalpipe.visdrone import (
    VisDroneFormatError,
    _annotation,
    _detection,
    _detection_lines,
    _parse_records,
    format_annotation_line,
    load_class_names,
    parse_annotations,
    parse_detections,
    write_annotations,
    write_detections,
)

class TestParseAnnotations:
    def test_corner_conversion(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("10,20,30,40,1,4,0,0\n")
        (a,) = _parse_records(f, _annotation)
        assert a.box == Box(10, 20, 40, 60)
        assert a.class_id == 4
        assert not a.ignore

    def test_category_zero_is_ignore(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("0,0,50,50,1,0,0,0\n")
        (a,) = _parse_records(f, _annotation)
        assert a.ignore

    def test_empty_file(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("")
        assert _parse_records(f, _annotation) == []

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("\n10,20,30,40,1,4,0,0\n\n")
        assert len(_parse_records(f, _annotation)) == 1

    def test_trailing_comma_tolerated(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("10,20,30,40,1,4,0,0,\n")
        assert len(_parse_records(f, _annotation)) == 1

    @pytest.mark.parametrize("field, class_id", [
        ("9007199254740993", 9007199254740993),  # 2^53 + 1, which a float rounds down
        ("9223372036854775807", 2**63 - 1),  # in range, though a float rounds it to 2^63
        ("3.0", 3),
        ("3e0", 3),
    ])
    @pytest.mark.parametrize("make, score", [(_annotation, "1"), (_detection, "0.5")])
    def test_category_read_exactly(self, tmp_path, field, class_id, make, score):
        f = tmp_path / "img.txt"
        f.write_text(f"10,20,30,40,{score},{field},0,0\n")
        (record,) = _parse_records(f, make)
        assert record.class_id == class_id

    def test_seven_fields_rejected_with_location(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("1,2,3,4,5,6,7\n")
        with pytest.raises(VisDroneFormatError, match=r"img\.txt:1.*8 comma"):
            _parse_records(f, _annotation)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("1,2,x,4,5,6,7,8\n")
        with pytest.raises(VisDroneFormatError, match=r"img\.txt:1"):
            _parse_records(f, _annotation)

    def test_negative_size_rejected(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("10,20,30,40,1,4,0,0\n10,20,-5,40,1,4,0,0\n")
        with pytest.raises(VisDroneFormatError, match=r"img\.txt:2.*negative"):
            _parse_records(f, _annotation)

    def test_directory_keyed_by_stem(self, tmp_path):
        (tmp_path / "b.txt").write_text("0,0,10,10,1,1,0,0\n")
        (tmp_path / "a.txt").write_text("")
        per_image = parse_annotations(tmp_path)
        assert list(per_image) == ["a", "b"]
        assert per_image["a"] == []

    def test_file_is_not_a_directory(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("")
        with pytest.raises(VisDroneFormatError, match="not a directory"):
            parse_annotations(f)


class TestParseDetections:
    def test_score_parsed(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("10,20,30,40,0.75,2,-1,-1\n")
        (d,) = _parse_records(f, _detection)
        assert d == ScoredBox(box=Box(10, 20, 40, 60), class_id=2, score=0.75)

    def test_score_outside_unit_interval_rejected(self, tmp_path):
        f = tmp_path / "img.txt"
        f.write_text("10,20,30,40,1.5,2,-1,-1\n")
        with pytest.raises(VisDroneFormatError, match="outside"):
            _parse_records(f, _detection)


# one bad field each; every one is reported with its file and line
BAD_FIELDS = {
    "category-inf": "10,20,30,40,{score},inf,0,0",
    "category-nan": "10,20,30,40,{score},nan,0,0",
    "category-negative": "10,20,30,40,{score},-1,0,0",
    "category-not-an-integer": "10,20,30,40,{score},2.5,0,0",
    "category-past-int64": "10,20,30,40,{score},9223372036854775808,0,0",
    "box-field-nan": "10,nan,30,40,{score},1,0,0",
    "width-inf": "10,20,inf,40,{score},1,0,0",
    "truncation-inf": "10,20,30,40,{score},1,inf,0",
    "right-edge-overflows": "1e308,20,1e308,40,{score},1,0,0",
}


class TestMalformedFields:
    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    @pytest.mark.parametrize("make, score", [(_annotation, "1"), (_detection, "0.5")])
    def test_rejected_with_location(self, tmp_path, case, make, score):
        f = tmp_path / "img.txt"
        f.write_text("0,0,10,10,0.5,1,0,0\n" + BAD_FIELDS[case].format(score=score) + "\n")
        with pytest.raises(VisDroneFormatError, match=r"img\.txt:2: "):
            _parse_records(f, make)


class TestRoundTrip:
    def test_annotations_round_trip(self, tmp_path):
        per_image = {
            "img1": [
                GtAnnotation(box=Box(10, 20, 40, 60), class_id=4),
                GtAnnotation(box=Box(0, 0, 5, 5), class_id=0, ignore=True),
            ],
            "img2": [],
        }
        write_annotations(tmp_path / "ann", per_image)
        assert parse_annotations(tmp_path / "ann") == per_image

    def test_detections_round_trip(self, tmp_path):
        per_image = {
            "img1": [
                ScoredBox(box=Box(10, 20, 40, 60), class_id=4, score=0.5),
                ScoredBox(box=Box(1, 2, 3, 4), class_id=1, score=1.0),
            ]
        }
        write_detections(tmp_path / "res", {k: scored_columns(v) for k, v in per_image.items()})
        assert parse_detections(tmp_path / "res") == per_image

    @pytest.mark.parametrize("write, record", [
        (write_annotations, [GtAnnotation(box=Box(10, 20, 40, 60), class_id=4)]),
        (write_detections,
         scored_columns([ScoredBox(box=Box(10, 20, 40, 60), class_id=4, score=0.5)])),
    ])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write, record):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write(tmp_path / "out", {"img1": record})
        assert list((tmp_path / "out").iterdir()) == []

    def test_line_formats(self):
        a = GtAnnotation(box=Box(10, 20, 40, 60), class_id=4)
        assert format_annotation_line(a) == "10,20,30,40,1,4,0,0"
        d = ScoredBox(box=Box(10, 20, 40, 60), class_id=4, score=0.5)
        assert _detection_lines(*scored_columns([d])) == "10,20,30,40,0.500000,4,-1,-1\n"


class TestClassNames:
    def test_user_override(self, tmp_path):
        f = tmp_path / "classes.json"
        f.write_text('{"1": "widget", "007": "gadget", "9223372036854775807": "last"}')
        assert load_class_names(f) == {1: "widget", 7: "gadget", 2**63 - 1: "last"}

    @pytest.mark.parametrize("key", ["-1", "1_0", " 7", "7 ", "+3", "\u0663", "a", "",
                                     str(2**63), "1" * 5000])
    def test_key_that_is_not_a_class_id_rejected(self, tmp_path, key):
        f = tmp_path / "classes.json"
        f.write_text(json.dumps({"1": "widget", key: "gadget"}))
        with pytest.raises(VisDroneFormatError) as e:
            load_class_names(f)
        assert str(e.value) == f"class id {key!r} is not an integer in [0, 2^63)"
