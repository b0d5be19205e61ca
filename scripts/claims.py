#!/usr/bin/env python3
"""The paper's two claims, measured on seeded synthetic scenes run through `run_scene`.

`ibs`: AP50 of the merge stage with and without Incomplete Box Suppression over corpora
with overlapping focal regions; one merge pass per scene gives the complete merge (NMS
then IBS) and plain NMS. Reports the per-corpus AP50 gain, the win/loss record and a
one-sided sign test.

`scale`: does crop-and-resize through GMM focal regions normalize object scale? Each
cluster of a multi-scale scene carries its own size multiplier, the way altitude and
viewing angle scale aerial imagery. Compares the coefficient of variation of box areas
raw, in the detector frames of the GMM focal crops, and in those of even-partition
(EIP) tiles at the same detector size, the baseline of ClusDet and DMNet.

The acceptance tests import the specs and the functions from here.
"""

import argparse
import math
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from focalpipe import serialize
from focalpipe.config import PipelineConfig
from focalpipe.focal import eip_regions
from focalpipe.pipeline import evaluate_runs, refine_image, run_scene
from focalpipe.scenes import OracleSpec, SceneSpec, scale_stats

# about 48 boxes per image in three clusters close enough that focal regions overlap
IBS_SCENE = dict(image_size=(1200, 900), n_clusters=3, boxes_per_cluster=(12, 20),
                 cluster_spread=120.0, box_size_range=(16.0, 40.0),
                 size_multiplier_range=(0.8, 1.5))
# the box count makes the derived region count match the number of clusters; a mismatch
# splits clusters into sub-regions whose extents no longer track object scale
SCALE_SCENE = dict(image_size=(3000, 2000), n_clusters=8, boxes_per_cluster=(9, 14),
                   cluster_spread=40.0, box_size_range=(12.0, 24.0),
                   size_multiplier_range=(0.5, 3.0))


def corpus_ap50(corpora: int, scenes_per_corpus: int = 3,
                seed: int = 0) -> Iterator[tuple[float, float]]:
    """(AP50 with IBS, AP50 with plain NMS) of each corpus in turn; scene s of
    corpus c is seeded `seed + 100 c + s`."""
    config = PipelineConfig()
    for corpus in range(corpora):
        runs = []
        for s in range(scenes_per_corpus):
            scene_seed = seed + corpus * 100 + s
            runs.append(run_scene(SceneSpec(**IBS_SCENE, rng_seed=scene_seed),
                                  OracleSpec(rng_seed=scene_seed), config,
                                  image_id=f"c{corpus}s{s}"))
        yield (evaluate_runs(runs, config, use_ibs=True).ap50,
               evaluate_runs(runs, config, use_ibs=False).ap50)


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2),
    the exact sum of C(n, k) / 2^n over k >= wins (1 when there are no trials)."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def scene_cvs(scenes: int, seed: int = 0) -> Iterator[tuple[float, float, float]]:
    """(raw, GMM-crop, EIP-tile) area CV of each scene in turn, as `scale_stats` measures
    them; scene i is seeded `seed + i`."""
    config = PipelineConfig()
    tiles = eip_regions(SCALE_SCENE["image_size"], config.detector_size)
    for scene_seed in range(seed, seed + scenes):
        run = run_scene(SceneSpec(**SCALE_SCENE, rng_seed=scene_seed),
                        OracleSpec(rng_seed=scene_seed), config)
        raw = [(a.box, a.class_id) for a in run.annotations]
        gmm = scale_stats(run.crops, raw)
        eip = scale_stats(refine_image(tiles, run.annotations, config), raw)
        yield gmm.cv_raw, gmm.cv_cropped, eip.cv_cropped


def ibs(args: argparse.Namespace) -> None:
    rows = []
    for corpus, (ap_ibs, ap_plain) in enumerate(
            corpus_ap50(args.corpora, args.scenes_per_corpus, args.seed)):
        rows.append((corpus, ap_ibs, ap_plain, ap_ibs - ap_plain))
        print(f"corpus {corpus:3d}  ap50 ibs {ap_ibs:7.3f}  plain {ap_plain:7.3f}  "
              f"gain {ap_ibs - ap_plain:+7.3f}")

    gains = np.array([r[3] for r in rows])
    wins = int((gains > 0).sum())
    losses = int((gains < 0).sum())
    p = sign_test_p(wins, losses)
    print(f"\nmean ap50 with ibs    {np.mean([r[1] for r in rows]):7.3f}")
    print(f"mean ap50 without ibs {np.mean([r[2] for r in rows]):7.3f}")
    print(f"mean gain {gains.mean():+07.3f}  wins {wins}  losses {losses}  "
          f"ties {len(rows) - wins - losses}  sign test p {p:.3e}")
    if args.csv:
        serialize.write_csv_atomic(args.csv, ["corpus", "ap50_ibs", "ap50_plain", "gain"], rows)
        print(f"wrote {args.csv}")


def scale(args: argparse.Namespace) -> None:
    rows = []
    for scene_seed, cvs in enumerate(scene_cvs(args.scenes, args.seed), start=args.seed):
        rows.append((scene_seed, *cvs))
        print(f"scene {scene_seed:3d}  cv raw {cvs[0]:6.3f}  cv cropped {cvs[1]:6.3f}  "
              f"cv eip {cvs[2]:6.3f}")

    raw, cropped, eip = np.median([r[1:] for r in rows], axis=0)
    print(f"\nmedian cv raw     {raw:6.3f}")
    print(f"median cv cropped {cropped:6.3f}")
    print(f"median cv eip     {eip:6.3f}")
    print("normalized" if cropped < raw else "NOT normalized")
    print(f"gmm below eip in {sum(r[2] < r[3] for r in rows)}/{len(rows)} scenes")
    if args.csv:
        serialize.write_csv_atomic(args.csv, ["seed", "cv_raw", "cv_cropped", "cv_eip"], rows)
        print(f"wrote {args.csv}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    ibs_parser = commands.add_parser("ibs", help="AP50 with and without IBS")
    ibs_parser.add_argument("--corpora", type=int, default=50)
    ibs_parser.add_argument("--scenes-per-corpus", type=int, default=3)
    ibs_parser.add_argument("--seed", type=int, default=0)
    ibs_parser.add_argument("--csv", type=str, default=None, help="per-corpus results")
    ibs_parser.set_defaults(run=ibs)
    scale_parser = commands.add_parser("scale", help="area CV raw, GMM crops, EIP tiles")
    scale_parser.add_argument("--scenes", type=int, default=20)
    scale_parser.add_argument("--seed", type=int, default=0)
    scale_parser.add_argument("--csv", type=str, default=None, help="per-scene results")
    scale_parser.set_defaults(run=scale)
    args = parser.parse_args(argv)
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
