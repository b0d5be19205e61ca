#!/usr/bin/env python3
"""Ablation: AP50 of the merge stage with and without Incomplete Box
Suppression, over seeded synthetic corpora with overlapping focal regions.

Each corpus is a handful of dense scenes pushed through the full closed loop
(cluster, crop, oracle detect, merge, evaluate); one merge pass per scene
gives the complete merge (NMS then IBS) and plain NMS. Reports the
per-corpus AP50 gain, the win/loss record and a one-sided sign test. The
acceptance test imports `SCENE`, `corpus_ap50` and `sign_test_p` from here.
"""

import argparse
import csv
import math
import sys
from typing import Iterator

import numpy as np

from focalpipe.config import PipelineConfig
from focalpipe.pipeline import evaluate_runs, run_scene
from focalpipe.scenes import OracleSpec, SceneSpec

# about 48 boxes per image in three clusters close enough that focal regions overlap
SCENE = dict(image_size=(1200, 900), n_clusters=3, boxes_per_cluster=(12, 20),
             cluster_spread=120.0, box_size_range=(16.0, 40.0),
             size_multiplier_range=(0.8, 1.5))


def corpus_ap50(corpora: int, scenes_per_corpus: int = 3, seed: int = 0,
                config: PipelineConfig = PipelineConfig()) -> Iterator[tuple[float, float]]:
    """(AP50 with IBS, AP50 with plain NMS) of each corpus in turn; scene s of
    corpus c is seeded `seed + 100 c + s`."""
    for corpus in range(corpora):
        runs = []
        for s in range(scenes_per_corpus):
            scene_seed = seed + corpus * 100 + s
            runs.append(run_scene(SceneSpec(**SCENE, rng_seed=scene_seed),
                                  OracleSpec(rng_seed=scene_seed), config,
                                  image_id=f"c{corpus}s{s}"))
        yield (evaluate_runs(runs, config, use_ibs=True).ap50,
               evaluate_runs(runs, config, use_ibs=False).ap50)


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2),
    the exact sum of C(n, k) / 2^n over k >= wins (1 when there are no trials)."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpora", type=int, default=50)
    parser.add_argument("--scenes-per-corpus", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", type=str, default=None, help="per-corpus results")
    args = parser.parse_args()

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
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["corpus", "ap50_ibs", "ap50_plain", "gain"])
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
