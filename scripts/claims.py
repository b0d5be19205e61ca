#!/usr/bin/env python3
"""The paper's two claims, measured on seeded synthetic scenes run through `run_scene`.

`ibs`: AP50 of the merge stage with and without Incomplete Box Suppression over corpora
with overlapping focal regions; one merge pass per scene gives the complete merge (NMS
then IBS) and plain NMS. Sums up the per-corpus AP50 gains in a win/loss record and a
one-sided sign test.

`scale`: does crop-and-resize through GMM focal regions normalize object scale? Each
cluster of a multi-scale scene carries its own size multiplier, the way altitude and
viewing angle scale aerial imagery. Compares the coefficient of variation of box areas
raw, in the detector frames of the GMM focal crops, and in those of even-partition
(EIP) tiles at the same detector size, the baseline of ClusDet and DMNet.

Each subcommand prints its claim's summary as the markdown table that README quotes;
`--csv` writes the per-corpus or per-scene rows. The acceptance tests import the specs,
the runs and the summaries from here.
"""

import argparse
import math
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from focalpipe import serialize
from focalpipe.config import PipelineConfig
from focalpipe.focal import eip_regions
from focalpipe.pipeline import ImageRun, evaluate_runs, refine_image, run_scene
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


def scene_runs(spec: dict, seeds: Iterable[int],
               image_ids: Iterable[str]) -> Iterator[ImageRun]:
    """`run_scene` of `spec` at each seed in turn; the seed also seeds the oracle and EM."""
    for seed, image_id in zip(seeds, image_ids):
        yield run_scene(SceneSpec(**spec, rng_seed=seed), OracleSpec(rng_seed=seed),
                        PipelineConfig(), image_id=image_id)


def corpus_runs(corpora: int, scenes_per_corpus: int = 3,
                seed: int = 0) -> Iterator[list[ImageRun]]:
    """The runs of each `IBS_SCENE` corpus; scene s of corpus c is `c{c}s{s}`, seeded
    `seed + 100 c + s`."""
    scenes = range(scenes_per_corpus)
    for c in range(corpora):
        yield list(scene_runs(IBS_SCENE, [seed + 100 * c + s for s in scenes],
                              [f"c{c}s{s}" for s in scenes]))


def corpus_ap50(corpora: int, scenes_per_corpus: int = 3,
                seed: int = 0) -> Iterator[tuple[float, float]]:
    """(AP50 with IBS, AP50 with plain NMS) of each corpus of `corpus_runs` in turn."""
    for runs in corpus_runs(corpora, scenes_per_corpus, seed):
        yield (evaluate_runs(runs, use_ibs=True).ap50, evaluate_runs(runs, use_ibs=False).ap50)


def scene_cvs(scenes: int, seed: int = 0) -> Iterator[tuple[float, float, float]]:
    """(raw, GMM-crop, EIP-tile) area CV of each `SCALE_SCENE` in turn, as `scale_stats`
    measures them; scene i is `s{seed + i}`, seeded `seed + i`."""
    config = PipelineConfig()
    tiles = eip_regions(SCALE_SCENE["image_size"], config.detector_size)
    seeds = range(seed, seed + scenes)
    for run in scene_runs(SCALE_SCENE, seeds, (f"s{s}" for s in seeds)):
        raw = [(a.box, a.class_id) for a in run.annotations]
        gmm = scale_stats(run.crops, raw)
        eip = scale_stats(refine_image(tiles, run.annotations, config), raw)
        yield gmm.cv_raw, gmm.cv_cropped, eip.cv_cropped


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2),
    the exact sum of C(n, k) / 2^n over k >= wins (1 when there are no trials)."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def ibs_summary(pairs: Iterable[tuple[float, float]]) -> dict:
    """The IBS claim's figures over per-corpus (AP50 with IBS, AP50 with plain NMS)."""
    ap = np.array(list(pairs))
    gains = ap[:, 0] - ap[:, 1]
    wins, losses = int((gains > 0).sum()), int((gains < 0).sum())
    return {"corpora": len(ap), "mean AP50 with IBS": ap[:, 0].mean(),
            "mean AP50 with NMS only": ap[:, 1].mean(), "mean AP50 gain": gains.mean(),
            "wins": wins, "losses": losses, "ties": len(ap) - wins - losses,
            "sign test p": sign_test_p(wins, losses)}


def scale_summary(cvs: Iterable[tuple[float, float, float]]) -> dict:
    """The scale claim's figures over per-scene (raw, GMM-crop, EIP-tile) area CVs."""
    cv = np.array(list(cvs))
    raw, gmm, eip = np.median(cv, axis=0)
    return {"scenes": len(cv), "median area CV raw": raw, "median area CV in EIP tiles": eip,
            "median area CV in GMM crops": gmm,
            "scenes with GMM below EIP": int((cv[:, 1] < cv[:, 2]).sum())}


def table(summary: dict) -> str:
    """`summary` as a markdown table: counts as they are, figures to three decimals, or to
    three significant digits below 0.001."""
    cells = (v if isinstance(v, int) else f"{v:.3f}" if abs(v) >= 1e-3 else f"{v:.2e}"
             for v in summary.values())
    return "\n".join(["| figure | value |", "|---|---|",
                      *map("| {} | {} |".format, summary, cells)])


def at_least(low: int):
    """An argparse type: an integer >= `low`, else a usage error that names the flag."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return parse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=at_least(0), default=0)
    common.add_argument("--csv", type=str, default=None, help="per-corpus or per-scene rows")
    commands = parser.add_subparsers(dest="command", required=True)
    ibs_parser = commands.add_parser("ibs", parents=[common], help="AP50 with and without IBS")
    ibs_parser.add_argument("--corpora", type=at_least(1), default=50)
    ibs_parser.add_argument("--scenes-per-corpus", type=at_least(1), default=3)
    scale_parser = commands.add_parser("scale", parents=[common],
                                       help="area CV raw, GMM crops, EIP tiles")
    scale_parser.add_argument("--scenes", type=at_least(1), default=20)
    args = parser.parse_args(argv)
    if args.command == "ibs":
        pairs = list(corpus_ap50(args.corpora, args.scenes_per_corpus, args.seed))
        summary, header = ibs_summary(pairs), ["corpus", "ap50_ibs", "ap50_plain", "gain"]
        rows = [(c, ap_ibs, ap_nms, ap_ibs - ap_nms) for c, (ap_ibs, ap_nms) in enumerate(pairs)]
    else:
        cvs = list(scene_cvs(args.scenes, args.seed))
        summary, header = scale_summary(cvs), ["seed", "cv_raw", "cv_cropped", "cv_eip"]
        rows = [(s, *cv) for s, cv in enumerate(cvs, start=args.seed)]
    print(table(summary))
    if args.csv:
        serialize.write_csv_atomic(args.csv, header, rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
