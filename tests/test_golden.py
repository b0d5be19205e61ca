"""Golden digests: the SHA-256 of every output of the fixed-seed CLI runs, and of the COCO
reports of `claims.corpus_runs(5)`, against the figures committed in `golden.json`.

A change that alters an output in the same way on every rerun passes the rerun checks; it
fails here. A change that means to alter outputs re-records them and says which changed and
why:

    PYTHONPATH=src python tests/test_golden.py --update

File modes follow the umask and are not digested. The digests were recorded on one Python,
numpy and machine; a mismatch names them, so that a host difference shows as one.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from focalpipe.cli import main
from focalpipe.pipeline import evaluate_runs

from test_claims import claims

GOLDEN = Path(__file__).resolve().with_name("golden.json")
CORPUS_AP50 = "corpus_ap50(5): repr of each coco_eval report"

# (output directory, argv); `{out}` is that directory, `{root}` the directory of all runs
COMMANDS = [
    ("pipeline", ["pipeline", "--out", "{out}", "--seed", "7", "--num-scenes", "10"]),
    ("pipeline-no-ibs", ["pipeline", "--out", "{out}", "--seed", "7", "--num-scenes", "10",
                         "--no-ibs"]),
    ("merge", ["merge", "--region-detections", "{root}/pipeline/region_detections.json",
               "--out", "{out}/merged.json", "--out-visdrone", "{out}/results"]),
    ("eval-json", ["eval", "--detections", "{root}/pipeline/merged.json",
                   "--annotations", "{root}/pipeline/annotations.json", "--out",
                   "{out}/report.json", "--table", "{out}/table.txt", "--pr-csv",
                   "{out}/pr.csv", "--voc-iou", "0.5"]),
    ("eval-visdrone", ["eval", "--detections", "{root}/pipeline/results",
                       "--annotations", "{root}/pipeline/annotations", "--out",
                       "{out}/report.json", "--table", "{out}/table.txt", "--pr-csv",
                       "{out}/pr.csv", "--voc-iou", "0.5"]),
    # the `synth` corpus that `pipeline` wrote first
    ("gen-regions", ["gen-regions", "--annotations", "{root}/pipeline/annotations.json",
                     "--out", "{out}/regions.json"]),
    ("refine-gt", ["refine-gt", "--annotations", "{root}/pipeline/annotations.json",
                   "--regions", "{root}/gen-regions/regions.json", "--out", "{out}/crops.json"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def digests() -> dict[str, str]:
    """Output path (under its command's directory) -> SHA-256 of its bytes, and one entry
    for the COCO reports, with and without IBS, of each corpus of `claims.corpus_runs(5)`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, argv in COMMANDS:
            fields = {"out": root / name, "root": root}
            assert main([a.format(**fields) for a in argv]) == 0, name
            files = sorted(p for p in (root / name).rglob("*") if p.is_file())
            out.update({p.relative_to(root).as_posix(): sha256(p.read_bytes()) for p in files})

    reports = [repr(evaluate_runs(runs, use_ibs=use_ibs)) for runs in claims.corpus_runs(5)
               for use_ibs in (True, False)]
    out[CORPUS_AP50] = sha256("\n".join(reports).encode())
    return out


def test_outputs_equal_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    recorded, got = golden["digests"], digests()
    differ = sorted(k for k in recorded.keys() | got.keys() if recorded.get(k) != got.get(k))
    assert not differ, (
        f"{len(differ)} of {len(recorded)} digests differ: {differ}; recorded on "
        f"{golden['recorded_on']} at commit {golden['commit']}, run on {environment()}")


def update(commit: str) -> None:
    doc = {"commit": commit, "recorded_on": environment(), "digests": digests()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")


if __name__ == "__main__":
    import argparse
    import subprocess

    parser = argparse.ArgumentParser(description="Re-record the golden digests.")
    parser.add_argument("--update", action="store_true", required=True)
    parser.parse_args()
    update(subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                          text=True, cwd=GOLDEN.parent).stdout.strip() or "unknown")
