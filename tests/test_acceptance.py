"""Acceptance suite: one timed pass/fail line per criterion.

Each test exercises one end-to-end claim about the pipeline at a stated
tolerance and time budget, and prints a single [PASS]/[FAIL] line directly
to the terminal (bypassing capture) so the run log shows every criterion.
"""

import time

import numpy as np
import pytest

import conftest

from focalpipe.boxgeom import Box, area, clip, intersect, iou
from focalpipe.cli import main as cli_main
from focalpipe.config import PipelineConfig
from focalpipe.evalkit import GtAnnotation, coco_eval, voc_ap_at
from focalpipe.focal import refine_gt, regions_from_clusters
from focalpipe.fuse import FuseConfig, RegionDetections, ibs, nms
from focalpipe.mixture import EmConfig, MixtureModel, fit_em, num_focal_regions, posterior
from focalpipe.scenes import OracleSpec, SceneSpec, generate_scene, oracle_detect

from reference_eval import reference_coco, reference_voc
from test_evalkit import random_micro_dataset, to_production
from test_fuse import fig5_scenario, random_scored_boxes, reference_nms
from test_claims import claims


def report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    line = f"[{status}] {name} ({elapsed:.2f}s, budget {budget:g}s)"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, name
    assert in_budget, f"{name}: {elapsed:.2f}s exceeded {budget:g}s budget"


def test_region_count_formula():
    """floor(log2(N))+2 regions, clamped to N for tiny annotation counts."""
    start = time.perf_counter()
    ok = (
        num_focal_regions(4) == 4
        and num_focal_regions(16) == 6
        and num_focal_regions(256) == 10
        and num_focal_regions(1) == 1
        and num_focal_regions(2) == 2
    )
    report("region-count formula exact, clamped at small counts", ok, time.perf_counter() - start, 1.0)


def test_em_monotone_and_recovers_means():
    """50 seeded well-separated mixtures: monotone LL, means within 0.5."""
    start = time.perf_counter()
    monotone = True
    recovered = 0
    n_runs = 50
    for seed in range(n_runs):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 3
        true_means = rng.uniform(-100, 100, size=(k, 2))
        while np.min(
            np.linalg.norm(true_means[:, None] - true_means[None, :], axis=-1)
            + np.eye(k) * 1e9
        ) < 30:
            true_means = rng.uniform(-100, 100, size=(k, 2))
        x = np.concatenate(
            [rng.normal(m, 1.0, size=(100, 2)) for m in true_means]
        )
        model = fit_em(x, k, EmConfig(rng_seed=seed))
        diffs = np.diff(model.ll_history)
        if len(diffs) and diffs.min() < -1e-8:
            monotone = False
        # greedy-match fitted means to the ground-truth centers
        dists = np.linalg.norm(model.means[:, None] - true_means[None, :], axis=-1)
        if np.max(np.min(dists, axis=0)) < 0.5:
            recovered += 1
    ok = monotone and recovered >= 0.9 * n_runs
    report(
        f"EM log-likelihood monotone, means recovered in {recovered}/{n_runs} runs",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_posterior_normalization():
    """10^4 random (model, point) pairs: posterior sums to 1 within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        k, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, k)
        model = MixtureModel(
            weights=w / w.sum(),
            means=rng.uniform(-50, 50, (k, dim)),
            variances=rng.uniform(1.0, 20.0, (k, dim)),
        )
        for _ in range(100):
            p = posterior(model, rng.uniform(-100, 100, dim))
            if abs(float(p.probs.sum()) - 1.0) > 1e-9:
                ok = False
    report("posterior sums to 1 within 1e-9 on 10^4 pairs", ok, time.perf_counter() - start, 1.0)


def test_geometry_matches_pixel_enumeration():
    """area/intersect/IoU/clip agree exactly with lattice enumeration."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    xs = np.arange(-8, 200)
    frame = Box(10, 10, 120, 120)
    in_fx = (xs >= frame.x1) & (xs < frame.x2)
    in_fy = (xs >= frame.y1) & (xs < frame.y2)
    ok = True
    for _ in range(10_000):
        ax, ay, bx, by = rng.integers(0, 64, 4)
        aw, ah, bw, bh = rng.integers(0, 65, 4)
        a = Box(ax, ay, ax + aw, ay + ah)
        b = Box(bx, by, bx + bw, by + bh)
        in_ax, in_ay = (xs >= a.x1) & (xs < a.x2), (xs >= a.y1) & (xs < a.y2)
        in_bx, in_by = (xs >= b.x1) & (xs < b.x2), (xs >= b.y1) & (xs < b.y2)
        count_a = int(in_ax.sum()) * int(in_ay.sum())
        count_b = int(in_bx.sum()) * int(in_by.sum())
        count_i = int((in_ax & in_bx).sum()) * int((in_ay & in_by).sum())
        if area(a) != count_a:
            ok = False
        inter = intersect(a, b)
        if (0 if inter is None else area(inter)) != count_i:
            ok = False
        union = count_a + count_b - count_i
        expected_iou = count_i / union if union > 0 else 0.0
        if iou(a, b) != expected_iou:
            ok = False
        c = clip(a, frame)
        want = int((in_ax & in_fx).sum()) * int((in_ay & in_fy).sum())
        if c is None:
            if want != 0:
                ok = False
        else:
            in_cx = (xs >= c.x1) & (xs < c.x2)
            in_cy = (xs >= c.y1) & (xs < c.y2)
            if not (
                np.array_equal(in_cx, in_ax & in_fx)
                and np.array_equal(in_cy, in_ay & in_fy)
            ):
                ok = False
    report("geometry matches pixel enumeration on 10^4 integer boxes", ok, time.perf_counter() - start, 5.0)


def test_nms_matches_exhaustive_reference():
    """Greedy NMS equals O(n^2) reference, identical surviving sets."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for i in range(100):
        n = int(rng.integers(1, 501)) if i >= 5 else 500
        boxes = random_scored_boxes(rng, n)
        if nms(boxes, 0.5) != reference_nms(boxes, 0.5):
            ok = False
    report("NMS identical to exhaustive reference on 100 instances", ok, time.perf_counter() - start, 10.0)


def test_ibs_suppresses_where_nms_cannot():
    """Two-region overlap: IBS removes the truncated duplicate, NMS keeps it."""
    start = time.perf_counter()
    region_a, region_b, complete, truncated = fig5_scenario()
    after_ibs = ibs(
        [RegionDetections(region_a, [complete]), RegionDetections(region_b, [truncated])],
        FuseConfig(),
    )
    after_nms = nms([complete, truncated], 0.5)
    ok = (
        after_ibs == [complete]
        and len(after_nms) == 2
        and iou(complete.box, truncated.box) < 0.5
    )
    report("IBS suppresses truncated duplicate that NMS keeps", ok, time.perf_counter() - start, 1.0)


def test_ibs_ablation_improves_ap50():
    """50 corpora: mean AP50 gain of IBS over plain NMS, one-sided sign test."""
    start = time.perf_counter()
    gains = np.asarray([ibs - plain for ibs, plain in claims.corpus_ap50(50)])
    wins = int((gains > 0).sum())
    losses = int((gains < 0).sum())
    p = claims.sign_test_p(wins, losses)
    ok = gains.mean() > 0 and p < 0.05
    report(
        f"IBS ablation: mean AP50 gain {gains.mean():+.3f}, "
        f"{wins} wins / {losses} losses, sign test p={p:.2e}",
        ok,
        time.perf_counter() - start,
        60.0,
    )


@pytest.fixture(scope="module")
def scale_cvs():
    """(raw, GMM-crop, EIP-tile) area CVs of 20 multi-scale scenes, and their run time."""
    start = time.perf_counter()
    cvs = np.array(list(claims.scene_cvs(20)))
    return cvs, time.perf_counter() - start


def test_crop_resize_lowers_area_cv(scale_cvs):
    """20 multi-scale scenes: median area CV drops after crop-and-resize."""
    cvs, elapsed = scale_cvs
    med_raw, med_cropped, _ = np.median(cvs, axis=0)
    report(
        f"crop-and-resize lowers median area CV ({med_raw:.3f} -> {med_cropped:.3f})",
        med_cropped < med_raw,
        elapsed,
        30.0,
    )


def test_gmm_crops_normalize_scale_where_eip_tiles_do_not(scale_cvs):
    """The same 20 scenes: GMM crops end with a lower median area CV than even tiles."""
    cvs, elapsed = scale_cvs
    _, med_gmm, med_eip = np.median(cvs, axis=0)
    report(
        f"GMM crops normalize scale where EIP tiles do not: median area CV "
        f"{med_gmm:.3f} < {med_eip:.3f}, GMM lower in {int((cvs[:, 1] < cvs[:, 2]).sum())}"
        f"/{len(cvs)} scenes",
        med_gmm < med_eip,
        elapsed,
        30.0,
    )


def test_evaluators_match_brute_force_reference():
    """COCO-style and VOC@0.7 within 1e-6 of the reference on 100 datasets."""
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        dets, gts = random_micro_dataset(seed)
        # production rejects detections of classes absent from ground truth;
        # drop them up front (the reference scores only ground-truth classes)
        gt_classes = {c for rows in gts.values() for _, c, _ in rows}
        dets = {
            k: [row for row in rows if row[1] in gt_classes] for k, rows in dets.items()
        }
        prod_dets, prod_gts = to_production(dets, gts)
        report_prod = coco_eval(prod_dets, prod_gts)
        ref = reference_coco(dets, gts)
        for key in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            got = getattr(report_prod, key)
            want = ref[key]
            if (got is None) != (want is None):
                ok = False
            elif got is not None and abs(got - want) > 1e-6:
                ok = False
        if abs(voc_ap_at(prod_dets, prod_gts, iou_threshold=0.7) - reference_voc(dets, gts, 0.7)) > 1e-6:
            ok = False
    report("evaluators within 1e-6 of brute-force reference on 100 datasets", ok, time.perf_counter() - start, 30.0)


def test_perfect_pipeline_scores_exactly_100():
    """Noise-free oracle on separated clusters: AP is exactly 100."""
    start = time.perf_counter()
    config = PipelineConfig()
    spec = SceneSpec(
        image_size=(2000, 1500),
        n_clusters=4,
        boxes_per_cluster=(8, 10),
        cluster_spread=40.0,
        box_size_range=(10.0, 30.0),
        rng_seed=0,
    )
    scene = generate_scene(spec)
    annotations = [GtAnnotation(b, c) for b, c in scene.annotations]
    # precondition: no same-class ground-truth pair overlaps enough for NMS
    # to collapse two distinct true detections
    assert not any(
        ca == cb and iou(a, b) > 0.5
        for i, (a, ca) in enumerate(scene.annotations)
        for b, cb in scene.annotations[i + 1:]
    )
    # regions from the generating labels: separated clusters, so regions do
    # not overlap and every box is complete inside its region
    boxes = [b for b, _ in scene.annotations]
    regions = regions_from_clusters(
        boxes, scene.labels, scene.image_size,
        margin=config.margin, detector_size=config.detector_size,
    )
    assert all(
        intersect(a.rect, b.rect) is None
        for i, a in enumerate(regions) for b in regions[i + 1:]
    )
    crops = [refine_gt(r, scene.annotations) for r in regions]
    perfect = OracleSpec(
        localization_noise=0.0, score_std=0.0, miss_rate=0.0,
        false_positive_rate=0.0, class_flip_rate_truncated=0.0, rng_seed=0,
    )
    from focalpipe.fuse import merge_pipeline

    merged = merge_pipeline(
        [oracle_detect(c, perfect) for c in crops], config.fuse_config()
    )
    result = coco_eval({"img": merged}, {"img": annotations}, max_dets=config.max_dets)
    ok = result.ap == 100.0 and result.ap50 == 100.0
    report("perfect pipeline scores AP exactly 100", ok, time.perf_counter() - start, 1.0)


def test_cli_pipeline_byte_identical(tmp_path):
    """Fixed-seed CLI pipeline runs reproduce byte-identical outputs."""
    start = time.perf_counter()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["pipeline", "--seed", "11", "--num-scenes", "3", "--out", str(out)])
        assert code == 0
        outputs.append({
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("CLI pipeline byte-identical across fixed-seed reruns", ok, time.perf_counter() - start, 30.0)
