from itertools import permutations

import numpy as np
import pytest

from focalpipe.boxgeom import Box
from focalpipe.config import PipelineConfig
from focalpipe.mixture import (
    EmConfig,
    FeatureGrid,
    assign_clusters,
    featurize,
    fit_em,
    num_focal_regions,
)
from focalpipe.pipeline import cluster_boxes, refine_image, regions_for_image, run_scene
from focalpipe.evalkit import GtAnnotation
from focalpipe.focal import refine_gt, regions_from_clusters
from focalpipe.scenes import (
    OracleSpec,
    SceneSpec,
    generate_scene,
    oracle_detect,
    scale_stats,
)

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
            grid = FeatureGrid(4, 4, *scene.image_size)
            features = featurize(boxes, grid)
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
    """`cluster_boxes` fits box centers with density power rows x cols; the
    reference fits the 2*rows*cols grid-offset feature `featurize` with power 1."""

    @pytest.mark.parametrize("spec,rows,cols,n_scenes", [
        (claims.IBS_SCENE, 4, 4, 40),
        (DENSE_SPEC, 4, 4, 8),
        (claims.IBS_SCENE, 2, 3, 10),
    ], ids=["ablation-4x4", "dense-4x4", "ablation-2x3"])
    def test_same_labels_and_likelihood(self, spec, rows, cols, n_scenes):
        config = PipelineConfig(grid_rows=rows, grid_cols=cols)
        for seed in range(n_scenes):
            scene = generate_scene(SceneSpec(rng_seed=seed, **spec))
            boxes = [b for b, _ in scene.annotations]
            k = num_focal_regions(len(boxes))
            em = config.em_config(rng_seed=seed)
            features = featurize(boxes, FeatureGrid(rows, cols, *scene.image_size))
            reference = fit_em(features, k, em)
            centers = np.array([b.center for b in boxes])
            model = fit_em(centers, k, em, density_power=rows * cols)
            assert cluster_boxes(boxes, config, seed=seed) == assign_clusters(
                reference, features), f"seed {seed}"
            assert model.log_likelihood == pytest.approx(reference.log_likelihood, rel=1e-9)
            assert len(model.ll_history) == len(reference.ll_history)


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

    def crop_for(self, scene, config=PipelineConfig()):
        annotations = [GtAnnotation(b, c) for b, c in scene.annotations]
        regions = regions_for_image(annotations, scene.image_size, config, seed=0)
        return refine_image(regions, annotations, config)

    def test_perfect_oracle_reproduces_gt(self):
        scene = generate_scene(separated_spec(1))
        crops = self.crop_for(scene)
        spec = self.perfect_spec()
        for crop in crops:
            rd = oracle_detect(crop, spec)
            assert len(rd.detections) == len(crop.gt)
            for d in rd.detections:
                assert d.score == spec.score_mean_tp

    def test_miss_rate_one_empty(self):
        scene = generate_scene(separated_spec(2))
        crops = self.crop_for(scene)
        spec = OracleSpec(miss_rate=1.0, false_positive_rate=0.0, rng_seed=0)
        for crop in crops:
            assert oracle_detect(crop, spec).detections == []

    def test_deterministic_per_seed(self):
        scene = generate_scene(separated_spec(3))
        crops = self.crop_for(scene)
        spec = OracleSpec(rng_seed=9)
        for crop in crops:
            a = oracle_detect(crop, spec)
            b = oracle_detect(crop, spec)
            assert a.detections == b.detections

    def test_detections_inside_detector_frame(self):
        scene = generate_scene(separated_spec(4))
        crops = self.crop_for(scene)
        spec = OracleSpec(localization_noise=10.0, false_positive_rate=3.0, rng_seed=1)
        for crop in crops:
            det_w, det_h = crop.region.detector_size
            for d in oracle_detect(crop, spec).detections:
                assert -1e-9 <= d.box.x1 <= d.box.x2 <= det_w + 1e-9
                assert -1e-9 <= d.box.y1 <= d.box.y2 <= det_h + 1e-9


class TestScaleStats:
    def test_identical_boxes_zero_cv(self):
        boxes = [(Box(x, 100, x + 20, 120), 0) for x in (100, 200, 300)]
        regions = regions_from_clusters(
            [b for b, _ in boxes], [0, 0, 1], (1000, 1000), margin=10,
            detector_size=(500, 500),
        )
        crops = [refine_gt(r, boxes) for r in regions]
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
