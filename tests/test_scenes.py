import importlib.util
import math
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from focalpipe.boxgeom import AffineMap2D, Box
from focalpipe.config import PipelineConfig
from focalpipe.mixture import (
    EmConfig,
    assign_clusters,
    featurize,
    fit_em,
    num_focal_regions,
)
from focalpipe.pipeline import cluster_boxes, refine_image, regions_for_image, run_scene
from focalpipe.evalkit import GtAnnotation
from focalpipe.focal import FocalRegion, RefinedCrop, refine_gt, regions_from_clusters
from focalpipe import scenes
from focalpipe.scenes import (
    OracleSpec,
    _clip,
    SceneSpec,
    generate_scene,
    oracle_detect,
    scale_stats,
)

from reference_focal import columns
from reference_mixture import box_centers, grid_points
from reference_scenes import ref_oracle_detect
from test_claims import claims


def separated_spec(seed, n_clusters=4):
    return SceneSpec(
        image_size=(2000, 1500),
        n_clusters=n_clusters,
        boxes_per_cluster=(10, 10),
        cluster_spread=40.0,
        box_size_range=(10.0, 30.0),
        classes=3,
        rng_seed=seed,
    )


class TestClip:
    def test_equals_np_clip(self):
        grid = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1e308, -1e308, float("nan")]
        for v, lo, hi in product(grid, repeat=3):
            if lo <= hi:  # ties and signed zeros included
                assert repr(_clip(v, lo, hi)) == repr(float(np.clip(v, lo, hi))), (v, lo, hi)


class TestGenerateScene:
    def test_single_box(self):
        spec = SceneSpec(n_clusters=1, boxes_per_cluster=(1, 1), rng_seed=0)
        scene = generate_scene(spec)
        assert len(scene.annotations) == 1
        assert scene.labels == [0]

    def test_deterministic(self):
        a = generate_scene(separated_spec(5))
        b = generate_scene(separated_spec(5))
        assert a.annotations == b.annotations
        assert a.labels == b.labels

    def test_boxes_inside_image(self):
        for seed in range(5):
            scene = generate_scene(separated_spec(seed))
            w, h = scene.image_size
            for box, _ in scene.annotations:
                assert 0 <= box.x1 <= box.x2 <= w
                assert 0 <= box.y1 <= box.y2 <= h

    def test_infeasible_spec_rejected(self):
        spec = SceneSpec(image_size=(50, 50), box_size_range=(40.0, 60.0))
        with pytest.raises(ValueError, match="cannot fit"):
            generate_scene(spec)

    def test_clustering_recovers_labels(self):
        """GMM clustering agrees with generating labels on separated scenes."""
        agreements = []
        for seed in range(20):
            scene = generate_scene(separated_spec(seed))
            boxes = [b for b, _ in scene.annotations]
            features = featurize(boxes, grid_points(4, 4, *scene.image_size))
            k = len(set(scene.labels))
            model = fit_em(features, k, EmConfig(rng_seed=seed, covariance_floor=1.0))
            got = assign_clusters(model, features)
            best = 0
            for perm in permutations(range(k)):
                best = max(best, sum(perm[g] == t for g, t in zip(got, scene.labels)))
            agreements.append(best / len(scene.labels))
        assert float(np.mean(agreements)) >= 0.95


# the dense benchmark scenes (about 600 boxes, k = 11)
DENSE_SPEC = dict(image_size=(2000, 1500), n_clusters=20, boxes_per_cluster=(25, 35),
                  box_size_range=(10.0, 30.0), size_multiplier_range=(0.5, 1.5), classes=10)


class TestCenterFitEqualsGridFeatureFit:
    """A box's clustering feature is its center's offsets from a grid of P image points
    (`featurize`). A diagonal Gaussian log density on it is exactly P times a 2-D one on the
    center, so `cluster_boxes` fits the centers with every component log density multiplied
    by P (`density_power=P`, P = `PipelineConfig.grid_points` = rows x cols): only the point
    count acts, not the grid's layout. The reference fits the 2P-dimensional feature with
    power 1."""

    @pytest.mark.parametrize("spec,rows,cols,n_scenes", [
        (claims.IBS_SCENE, 4, 4, 40),
        (DENSE_SPEC, 4, 4, 8),
        (claims.IBS_SCENE, 2, 3, 10),
    ], ids=["ablation-4x4", "dense-4x4", "ablation-2x3"])
    def test_same_labels_and_likelihood(self, spec, rows, cols, n_scenes):
        config = PipelineConfig(grid_points=rows * cols)
        for seed in range(n_scenes):
            scene = generate_scene(SceneSpec(rng_seed=seed, **spec))
            boxes = [b for b, _ in scene.annotations]
            k = num_focal_regions(len(boxes))
            em = EmConfig(rng_seed=seed)
            features = featurize(boxes, grid_points(rows, cols, *scene.image_size))
            reference = fit_em(features, k, em)
            centers = box_centers(boxes)
            model = fit_em(centers, k, em, density_power=rows * cols)
            assert cluster_boxes(boxes, config, seed=seed) == assign_clusters(
                reference, features), f"seed {seed}"
            assert model.log_likelihood == pytest.approx(reference.log_likelihood, rel=1e-9)
            assert len(model.ll_history) == len(reference.ll_history)


def crops_for(scene, config=PipelineConfig()):
    annotations = [GtAnnotation(b, c) for b, c in scene.annotations]
    regions = regions_for_image(annotations, scene.image_size, config, seed=0)
    return refine_image(regions, annotations, config)


class TestSceneSpec:
    @pytest.mark.parametrize("name,value", [
        ("n_clusters", 0), ("n_clusters", -1), ("classes", 0),
        ("n_clusters", 2.5), ("n_clusters", True), ("classes", 2.5), ("classes", True),
        ("boxes_per_cluster", (5, 2)), ("boxes_per_cluster", (-1, 2)),
        ("boxes_per_cluster", (2.0, 5)),
        ("cluster_spread", -5.0), ("cluster_spread", math.nan), ("cluster_spread", math.inf),
        ("box_size_range", (40.0, 10.0)), ("box_size_range", (-1.0, 10.0)),
        ("box_size_range", (10.0, math.nan)), ("size_multiplier_range", (-1.0, 1.0)),
        ("size_multiplier_range", (1.0, math.inf)),
        ("image_size", (0, 100)), ("image_size", (100, -5)),
        ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", True), ("cluster_spread", True),
        ("box_size_range", (True, 10.0)), ("size_multiplier_range", (0.5, True)),
    ])
    def test_rejects_out_of_range(self, name, value):
        """Each field outside its range is an error naming it, not a failure deep inside
        numpy or `Box` (`n_clusters=0` was a ZeroDivisionError, `rng_seed=-1` numpy's
        "expected non-negative integer"); a bool is no number, though it compares as 0 or 1."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SceneSpec(**{name: value})

    def test_accepts_bounds(self):
        spec = SceneSpec(n_clusters=1, classes=1, boxes_per_cluster=(0, 0), cluster_spread=0.0,
                         box_size_range=(0.0, 0.0), size_multiplier_range=(0.0, 0.0),
                         image_size=(1, 1), rng_seed=0)
        assert generate_scene(spec).annotations == []

    def test_counts_take_numpy_integers(self):
        spec = SceneSpec(n_clusters=np.int64(2), classes=np.int32(2), rng_seed=np.int64(1))
        assert generate_scene(spec) == generate_scene(SceneSpec(n_clusters=2, classes=2,
                                                                rng_seed=1))

    def test_every_project_spec_constructs(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # for its dataclasses
        module_spec.loader.exec_module(workloads)
        for spec in (claims.IBS_SCENE, claims.SCALE_SCENE, DENSE_SPEC, workloads.ABLATION_SCENE,
                     workloads.DENSE_SCENE, workloads.MERGE_SCENE):
            generate_scene(SceneSpec(**spec))


class TestOracleSpec:
    @pytest.mark.parametrize("name,value", [
        ("localization_noise", -2.0), ("localization_noise", math.nan),
        ("localization_noise", math.inf), ("score_std", -0.05), ("score_std", math.nan),
        ("false_positive_rate", -1.0), ("false_positive_rate", math.inf),
        ("n_classes", 0), ("n_classes", -1), ("n_classes", 2.5), ("n_classes", True),
        ("score_mean_tp", 1.5), ("miss_rate", math.nan), ("class_flip_rate_truncated", -0.1),
        ("rng_seed", -1), ("rng_seed", 2.5), ("rng_seed", True),
        ("miss_rate", True), ("score_mean_tp", True), ("class_flip_rate_truncated", False),
        ("localization_noise", True), ("score_std", False), ("false_positive_rate", True),
    ])
    def test_rejects_out_of_range(self, name, value):
        """Each field outside its range is an error naming it, not a run that ignores it
        (a negative or NaN noise ran as no noise) or fails later inside numpy (a negative or
        fractional seed, at the first `oracle_detect`)."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            OracleSpec(**{name: value})

    def test_accepts_bounds(self):
        OracleSpec(localization_noise=0.0, score_std=0.0, false_positive_rate=0.0, n_classes=1,
                   score_mean_tp=1.0, miss_rate=0.0, class_flip_rate_truncated=1.0, rng_seed=0)
        OracleSpec(n_classes=np.int64(1), rng_seed=np.int64(2**63 - 1))


class TestOracleDetect:
    def perfect_spec(self):
        return OracleSpec(
            localization_noise=0.0,
            score_std=0.0,
            miss_rate=0.0,
            false_positive_rate=0.0,
            class_flip_rate_truncated=0.0,
            rng_seed=0,
        )

    def test_perfect_oracle_reproduces_gt(self):
        scene = generate_scene(separated_spec(1))
        crops = crops_for(scene)
        spec = self.perfect_spec()
        for crop in crops:
            rd = oracle_detect(crop, spec)
            assert len(rd.detections) == len(crop.gt)
            for d in rd.detections:
                assert d.score == spec.score_mean_tp

    def test_miss_rate_one_empty(self):
        scene = generate_scene(separated_spec(2))
        crops = crops_for(scene)
        spec = OracleSpec(miss_rate=1.0, false_positive_rate=0.0, rng_seed=0)
        for crop in crops:
            assert oracle_detect(crop, spec).detections == []

    def test_deterministic_per_seed(self):
        scene = generate_scene(separated_spec(3))
        crops = crops_for(scene)
        spec = OracleSpec(rng_seed=9)
        for crop in crops:
            a = oracle_detect(crop, spec)
            b = oracle_detect(crop, spec)
            assert a.detections == b.detections

    def test_detections_inside_detector_frame(self):
        scene = generate_scene(separated_spec(4))
        crops = crops_for(scene)
        spec = OracleSpec(localization_noise=10.0, false_positive_rate=3.0, rng_seed=1)
        for crop in crops:
            det_w, det_h = crop.region.detector_size
            for d in oracle_detect(crop, spec).detections:
                assert -1e-9 <= d.box.x1 <= d.box.x2 <= det_w + 1e-9
                assert -1e-9 <= d.box.y1 <= d.box.y2 <= det_h + 1e-9


def detection_bits(rd):
    """Every field of every detection with its type; floats as their exact hex."""
    return [(tuple((type(v), float(v).hex()) for v in d.box.as_tuple()),
             type(d.class_id), d.class_id, type(d.score), float(d.score).hex())
            for d in rd.detections]


class TestOracleEqualsReference:
    """`oracle_detect`'s float form against the object form of `reference_scenes`:
    the same detections, value and element type, from the same draws."""

    ORACLES = {
        "default": {},
        "no-noise": dict(localization_noise=0.0),
        "no-score-noise": dict(score_std=0.0),
        "one-class": dict(n_classes=1),
        "many-fp": dict(false_positive_rate=6.0, miss_rate=0.3),
        "all-flip": dict(class_flip_rate_truncated=1.0),
        "no-draws": dict(localization_noise=0.0, score_std=0.0),
    }

    @pytest.mark.parametrize("oracle", list(ORACLES))
    @pytest.mark.parametrize("spec,n_scenes", [(claims.IBS_SCENE, 12), (DENSE_SPEC, 2), ({}, 12)],
                             ids=["ablation", "dense", "default"])
    def test_same_detections(self, spec, n_scenes, oracle):
        for seed in range(n_scenes):
            scene = generate_scene(SceneSpec(rng_seed=seed, **spec))
            crops = crops_for(scene)
            spec_o = OracleSpec(rng_seed=seed, **{"n_classes": spec.get("classes", 3),
                                                  **self.ORACLES[oracle]})
            for crop in crops:
                got, want = oracle_detect(crop, spec_o), ref_oracle_detect(crop, spec_o)
                assert got.region is want.region
                assert detection_bits(got) == detection_bits(want), (seed, crop.region.region_id)

    def test_signed_zero_clips_as_intersect(self):
        """A corner mapped to -0.0 stays -0.0: `max(x1, 0.0)` keeps its first argument."""
        region = FocalRegion(rect=Box(-0.0, -0.0, 10.0, 10.0), region_id=0, image_id="img",
                             to_detector=AffineMap2D(1.0, 1.0, -0.0, -0.0))
        crop = RefinedCrop(region=region, gt=[(Box(-0.0, -0.0, 5.0, 5.0), 0, 1.0)])
        spec = OracleSpec(localization_noise=0.0, miss_rate=0.0, false_positive_rate=0.0)
        got, want = oracle_detect(crop, spec), ref_oracle_detect(crop, spec)
        assert detection_bits(got) == detection_bits(want)
        assert math.copysign(1.0, got.detections[0].box.x1) == -1.0

    def test_nan_fraction_takes_no_flip_draw(self):
        """A kept fraction of inf / inf is NaN, which `fraction < 1.0` counts as untruncated:
        no flip draw, so even at flip rate 1 the class stays and the draws stay in line."""
        rect = Box(0.0, 0.0, 1e200, 1e200)
        region = FocalRegion(rect=rect, region_id=0, image_id="img",
                             to_detector=AffineMap2D(1e-178, 1e-178, 0.0, 0.0))
        crop = refine_gt(region, np.array([[0.0, 0.0, 1e180, 1e180]]), [1])
        assert len(crop.gt) == 1 and math.isnan(crop.gt[0][2])
        for seed in range(8):
            spec = OracleSpec(rng_seed=seed, miss_rate=0.0, class_flip_rate_truncated=1.0)
            got, want = oracle_detect(crop, spec), ref_oracle_detect(crop, spec)
            assert detection_bits(got) == detection_bits(want)
            assert got.detections[0].class_id == 1

    @pytest.mark.parametrize("rect,gt,scale,spec", [
        (Box(10.0, 10.0, 20.0, 20.0), Box(0.0, 0.0, 1e10, 5.0), 1e300, OracleSpec()),
        (Box(10.0, 10.0, 20.0, 20.0), Box(0.0, 0.0, 1e10, 5.0), 1e300, OracleSpec(miss_rate=1.0)),
        (Box(10.0, 10.0, 20.0, 20.0), Box(0.0, 0.0, 5.0, 5.0), 1.0,
         OracleSpec(localization_noise=1e308)),  # finite, but the jitter overflows
        (Box(0.0, 0.0, 1e10, 1.0), Box(0.0, 0.0, 1.0, 1.0), 1e300, OracleSpec()),
    ], ids=["map-overflow", "map-overflow-missed", "jitter-inf", "frame-overflow"])
    def test_same_errors(self, rect, gt, scale, spec):
        """Where the object form raises ValueError on a non-finite box, so does the float form."""
        region = FocalRegion(rect=rect, region_id=0, image_id="img", to_detector=AffineMap2D(
            scale, 1.0, -rect.x1 * scale, -rect.y1))
        crop = RefinedCrop(region=region, gt=[(gt, 0, 1.0)])
        for detect in (ref_oracle_detect, oracle_detect):
            with pytest.raises(ValueError):
                detect(crop, spec)


class CountingRng:
    """A `Generator` whose method calls are recorded by name in `calls`."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


class TestOracleDraws:
    def test_two_calls_per_kept_untruncated_detection(self, monkeypatch):
        """The miss draw and one normal draw for the jitter and the score; a truncated box
        takes four (miss, jitter, flip, score), and each crop one Poisson draw."""
        calls = []
        original = scenes._crop_rng
        monkeypatch.setattr(scenes, "_crop_rng",
                            lambda spec, crop: CountingRng(original(spec, crop), calls))
        spec = OracleSpec(miss_rate=0.0, class_flip_rate_truncated=0.0, false_positive_rate=0.0)
        crops = crops_for(generate_scene(SceneSpec(**claims.IBS_SCENE, rng_seed=3)))
        truncated = sum(fraction < 1.0 for crop in crops for _, _, fraction in crop.gt)
        untruncated = sum(len(crop.gt) for crop in crops) - truncated
        assert truncated and untruncated
        for crop in crops:
            oracle_detect(crop, spec)
        assert len(calls) == 2 * untruncated + 4 * truncated + len(crops)


class TestScaleStats:
    def test_identical_boxes_zero_cv(self):
        boxes = [(Box(x, 100, x + 20, 120), 0) for x in (100, 200, 300)]
        regions = regions_from_clusters(
            [b for b, _ in boxes], [0, 0, 1], (1000, 1000), margin=10,
            detector_size=(500, 500),
        )
        crops = [refine_gt(r, *columns(boxes)) for r in regions]
        stats = scale_stats(crops, boxes)
        assert stats.cv_raw == 0.0

    def test_single_box_flagged_undefined(self):
        stats = scale_stats([], [(Box(0, 0, 10, 10), 0)])
        assert stats.cv_raw is None
        assert stats.cv_cropped is None

    def test_cv_scale_invariant(self):
        boxes = [(Box(0, 0, 10, 10), 0), (Box(50, 50, 90, 90), 0)]
        scaled = [(Box(0, 0, 30, 30), 0), (Box(150, 150, 270, 270), 0)]
        assert scale_stats([], boxes).cv_raw == pytest.approx(
            scale_stats([], scaled).cv_raw
        )


class TestRunScene:
    def test_pipeline_deterministic(self):
        a = run_scene(separated_spec(7), OracleSpec(rng_seed=7))
        b = run_scene(separated_spec(7), OracleSpec(rng_seed=7))
        assert a.merged == b.merged
        assert a.merged_no_ibs == b.merged_no_ibs

    def test_cluster_boxes_labels_in_range(self):
        scene = generate_scene(separated_spec(11))
        boxes = [b for b, _ in scene.annotations]
        labels = cluster_boxes(boxes, PipelineConfig(), seed=11)
        assert len(labels) == len(boxes)
        assert all(0 <= l for l in labels)
