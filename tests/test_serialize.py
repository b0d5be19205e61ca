"""The columnar stage-document paths against the object paths they replace: the
region-detection loader plus the detector-frame clamp, the merged-detection loader, and
the streaming merged-detection writer against `json.dump`."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe import serialize
from focalpipe.boxgeom import Box, ScoredBox, clip
from focalpipe.focal import FocalRegion, make_detector_map
from focalpipe.fuse import ingest_columns, scored_columns


def reference_ingest(doc):
    """Per image: rows (x1, y1, x2, y2, class id, score, region) as the object path gives
    them, `scored_box_from_dict` per detection, then `clip` to the detector frame."""
    out = {}
    for image_id, entries in doc["images"].items():
        out[image_id] = rows = []
        for i, e in enumerate(entries):
            region = serialize.region_from_dict(e["region"])
            frame = Box(0.0, 0.0, *region.detector_size)
            for d in e["detections"]:
                det = serialize.scored_box_from_dict(d)
                clipped = clip(det.box, frame)
                if clipped is not None:
                    rows.append((*clipped.as_tuple(), det.class_id, det.score, i))
    return out


# signed zeros, integers, values past the frame edges and a subnormal
COORDS = st.sampled_from([-0.0, 0.0, -3, -0.5, 2, 2.5, 5e-324, 7, 10, 10.0, 13.25, 40])


@st.composite
def region_detection_docs(draw):
    images = {}
    for image in range(draw(st.integers(0, 2))):
        entries = []
        for region_id in range(draw(st.integers(0, 3))):
            rect = Box(0, 0, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
            size = draw(st.sampled_from([(10, 10), (20, 15), (7.5, 12)]))
            region = FocalRegion(rect, region_id, f"i{image}", make_detector_map(rect, *size))
            dets = []
            for _ in range(draw(st.integers(0, 6))):
                xs, ys = sorted(draw(st.lists(COORDS, min_size=2, max_size=2))), \
                    sorted(draw(st.lists(COORDS, min_size=2, max_size=2)))
                det = {"bbox": [xs[0], ys[0], xs[1], ys[1]], "class_id": draw(st.integers(0, 3)),
                       "score": draw(st.sampled_from([0, 0.25, 1, 1.0, -0.0]))}
                if draw(st.integers(0, 7)) == 0:  # numbers as strings or bools, which convert too
                    det = {"bbox": [str(v) for v in det["bbox"]], "class_id": True, "score": "0.5"}
                dets.append(det)
            entries.append({"region": serialize.region_to_dict(region), "detections": dets})
        images[f"i{image}"] = entries
    return {"images": images}


class TestRegionDetectionColumns:
    @settings(max_examples=100, deadline=None)
    @given(doc=region_detection_docs())
    def test_load_and_clamp_equal_object_path_bit_for_bit(self, doc):
        doc = json.loads(json.dumps(doc))  # as a detector's file gives it
        expected = reference_ingest(doc)
        columns = serialize.region_detection_columns(doc)
        assert list(columns) == list(expected)
        for image_id, rows in expected.items():
            _, boxes, classes, scores, index = ingest_columns(columns[image_id])
            want = np.array([r[:4] for r in rows], dtype=np.float64).reshape(-1, 4)
            assert boxes.tobytes() == want.tobytes()  # signed zeros included
            assert json.dumps(classes.tolist()) == json.dumps([r[4] for r in rows])  # 1, not 1.0
            assert scores.tobytes() == np.array([r[5] for r in rows], dtype=np.float64).tobytes()
            assert index.tolist() == [r[6] for r in rows]

    def test_region_detections_from_doc_builds_the_same_objects(self):
        rect = Box(0, 0, 10, 10)
        region = FocalRegion(rect, 0, "img", make_detector_map(rect, 20, 20))
        dets = [{"bbox": [1, 2, 3, 4], "class_id": 2, "score": 0.5},
                {"bbox": [0.5, 1, 30, 4.25], "class_id": 2.0, "score": 1}]
        entry = {"region": serialize.region_to_dict(region), "detections": dets}
        doc = {"images": {"img": [entry]}}
        [rd] = serialize.region_detections_from_doc(doc)["img"]
        assert rd.region == region
        assert rd.detections == [serialize.scored_box_from_dict(d) for d in dets]


def reference_merged(doc):
    """Merged detections as the per-record loader gave them, `scored_box_from_dict` each."""
    return {image_id: [serialize.scored_box_from_dict(d) for d in dets]
            for image_id, dets in doc["images"].items()}


# valid class ids and scores, in the types JSON gives and some that convert
CLASS_IDS = st.sampled_from([0, 1, 3, 2.0, -0.0, True, 2**63, 2**64 + 1])
SCORES = st.sampled_from([0, 0.25, 1, 1.0, -0.0, 5e-324, False, "0.5"])
# values put in place of a field, most of which the loaders reject
ODD_VALUES = st.sampled_from([None, "x", "0.5", [], {}, -1, 2.7, 1.5, float("nan"),
                              float("inf"), 1e308, 10**400, [0, 0, 1], [1, 2, 3, 4],
                              [4, 3, 2, 1], [0, "1", 2, True], "1234"])


@st.composite
def merged_docs(draw):
    images = {}
    for image in range(draw(st.integers(0, 2))):
        dets = []
        for _ in range(draw(st.integers(0, 5))):
            xs, ys = (sorted(draw(st.lists(COORDS, min_size=2, max_size=2))) for _ in "xy")
            det = {"bbox": [xs[0], ys[0], xs[1], ys[1]], "class_id": draw(CLASS_IDS),
                   "score": draw(SCORES)}
            if draw(st.integers(0, 4)) == 0:
                det[draw(st.sampled_from(sorted(det)))] = draw(ODD_VALUES)
            dets.append(det)
        images[f"i{image}"] = dets
    return {"images": images}


class TestMergedDetectionsLoader:
    @settings(max_examples=200, deadline=None)
    @given(doc=merged_docs())
    def test_equals_per_record_loader(self, doc):
        doc = json.loads(json.dumps(doc))
        try:
            expected = reference_merged(doc)
        except (TypeError, ValueError, OverflowError):
            with pytest.raises(serialize.DocumentError):
                serialize.merged_detections_from_doc(doc)
        else:
            assert repr(serialize.merged_detections_from_doc(doc)) == repr(expected)


def scored_boxes_strategy():
    coord = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda xs, ys, c, s: ScoredBox(Box(min(xs), min(ys), max(xs), max(ys)), c, s),
        st.tuples(coord, coord), st.tuples(coord, coord),
        st.integers(0, 2**70), st.floats(0.0, 1.0))


def written(tmp_path, per_image) -> bytes:
    path = tmp_path / "merged.json"
    serialize.write_merged_json(path, {k: scored_columns(v) for k, v in per_image.items()})
    return path.read_bytes()


def dumped(per_image) -> bytes:
    doc = serialize.merged_detections_doc(per_image)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class TestMergedJsonWriter:
    def test_equals_json_dump_on_edge_cases(self, tmp_path):
        odd = [ScoredBox(Box(-0.0, 5e-324, 1e16, 3.0), 0, 0.0),
               ScoredBox(Box(0.1, 0.2, 0.30000000000000004, 1e300), 2**64, 5e-324),
               ScoredBox(Box(-1e16, -2.0, -0.0, 0.0), 7, 1.0)]
        for per_image in ({}, {"empty": []},
                          {"b": odd, "a": odd[:1], "": [], 'quo"te\\': odd[1:],
                           "naïve 日本": odd}):
            assert written(tmp_path, per_image) == dumped(per_image)

    @settings(max_examples=100, deadline=None)
    @given(per_image=st.dictionaries(st.text(max_size=4),
                                     st.lists(scored_boxes_strategy(), max_size=5), max_size=3),
           chunk=st.sampled_from([1, 2, serialize.CHUNK]))
    def test_equals_json_dump(self, tmp_path_factory, per_image, chunk):
        with mock.patch.object(serialize, "CHUNK", chunk):
            assert written(tmp_path_factory.mktemp("w"), per_image) == dumped(per_image)
