"""Object-based reference for `focalpipe.scenes.oracle_detect`, used as the oracle in tests.

This is the oracle detector as first written: every crop box goes through
`crop_gt_to_detector` (a translated and a mapped `Box`), the jittered box is
another `Box`, and the clip to the detector frame is `intersect`. The
package's float form must give the same detections, value and type, from the
same random draws. It draws the jitter and the score with separate
`Generator.normal` calls, where the package makes one `standard_normal` call.
"""

from __future__ import annotations

from focalpipe.boxgeom import Box, ScoredBox, intersect
from focalpipe.focal import crop_gt_to_detector
from focalpipe.fuse import RegionDetections
from focalpipe.scenes import _clip, _crop_rng


def ref_oracle_detect(crop, spec):
    rng = _crop_rng(spec, crop)
    det_w, det_h = crop.region.detector_size
    frame = Box(0.0, 0.0, det_w, det_h)

    detections = []
    for box, class_id, fraction in crop_gt_to_detector(crop):
        if rng.uniform() < spec.miss_rate:
            continue
        if spec.localization_noise > 0:
            jitter = rng.normal(0.0, spec.localization_noise, size=4).tolist()
            x1 = min(box.x1 + jitter[0], box.x2 + jitter[2] - 1e-6)
            y1 = min(box.y1 + jitter[1], box.y2 + jitter[3] - 1e-6)
            box = Box(x1, y1, box.x2 + jitter[2], box.y2 + jitter[3])
        out_class = class_id
        if fraction < 1.0 and spec.n_classes > 1 and rng.uniform() < spec.class_flip_rate_truncated:
            out_class = int((class_id + 1 + rng.integers(spec.n_classes - 1)) % spec.n_classes)
        if spec.score_std > 0:
            score = _clip(rng.normal(spec.score_mean_tp, spec.score_std), 0.0, 1.0)
        else:
            score = spec.score_mean_tp
        clipped = intersect(box, frame)
        if clipped is not None:
            detections.append(ScoredBox(box=clipped, class_id=out_class, score=score))

    for _ in range(int(rng.poisson(spec.false_positive_rate))):
        fw = rng.uniform(0.02, 0.15) * det_w
        fh = rng.uniform(0.02, 0.15) * det_h
        fx = rng.uniform(0.0, det_w - fw)
        fy = rng.uniform(0.0, det_h - fh)
        score = _clip(rng.normal(0.3, 0.1), 0.0, 1.0)
        detections.append(ScoredBox(box=Box(fx, fy, fx + fw, fy + fh),
                                    class_id=int(rng.integers(spec.n_classes)), score=score))
    return RegionDetections(region=crop.region, detections=detections)
