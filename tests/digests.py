"""Digests of the outputs of a fixed set of edgewalk runs, for checking that a
change leaves every output byte as it was.

    PYTHONPATH=<checkout>/src python tests/digests.py OUT

runs each command in ``RUNS`` from inside ``OUT`` with relative paths, so
manifests compare too, then prints ``name sha256[:16]`` for every file under
``OUT``. Two checkouts write the same bytes when ``diff`` of their printouts
is empty. The wall-time column of training reports is left out, and the
commands' standard output is kept in ``stdout.txt``.
"""

import contextlib
import hashlib
import os
import sys
from pathlib import Path

from edgewalk.cli import main

TINY_DATA = "tiny/graph.edges tiny/graph.edge_labels"
TINY = ("--walks-per-node 2 --walk-length 4 --window 2 --dim 6 --negatives 2 --hidden 6 "
        "--structural-batch 20 --relational-batch 20 --batches-per-round 6 --max-rounds 3 "
        "--seed 5")
# The acceptance suite's desk_config.
DESK = ("desk/graph.edges desk/graph.edge_labels --batches-per-round 200 "
        "--structural-batch 200 --relational-batch 200 --walks-per-node 10 --walk-length 10 "
        "--window 5 --dim 32 --negatives 5 --hidden 32 --lr 0.01 --early-stop-window 5 "
        "--max-rounds 40 --unsupervised-rounds 5 --validation-fraction 0.1 --seed 1")
# desk-0.8-float32 steps float32 classifier arrays with float64 gradients.
DESK_RUNS = {"desk-0.8": "--lambda 0.8", "desk-0.5": "--lambda 0.5", "desk-0": "--lambda 0",
             "desk-0-float32": "--lambda 0 --dtype float32",
             "desk-0.8-float32": "--lambda 0.8 --dtype float32"}

RUNS = [
    "synth --communities 3 --community-size 8 --p-in 0.5 --p-out 0.05 --label-fraction 0.5 "
    "--seed 3 --out-dir tiny",
    "synth --seed 0 --out-dir desk",
    "synth --communities 10 --community-size 200 --p-in 0.05 --p-out 0.002 --seed 7 "
    "--out-dir mid",
    # Acceptance criterion 9: a run, then its rerun from the manifest.
    f"train {TINY_DATA} {TINY} --out-dir c9/train",
    "evaluate c9/train/embeddings.vec tiny/graph.node_labels --ratios 0.5 --repeats 3 "
    "--seed 2 --out-dir c9/eval",
    f"train {TINY_DATA} --config c9/train/manifest.json --out-dir c9/rerun",
    *(f"train {DESK} {flags} --out-dir {name}" for name, flags in DESK_RUNS.items()),
    *(f"evaluate {name}/embeddings.vec desk/graph.node_labels --out-dir {name}"
      for name in DESK_RUNS),
    # The solver's unregularized path on normalized features.
    "evaluate desk-0.8/embeddings.vec desk/graph.node_labels --normalize --l2-strength 0 "
    "--out-dir desk-0.8-normalized",
    # Repeats of one ratio that skip different labels: 0 to 2 of 4, none in some.
    "evaluate desk-0.8/embeddings.vec desk/graph.node_labels --ratios 0.02 --repeats 10 "
    "--out-dir desk-0.8-uneven",
    # The benchmark's mid-joint train flags.
    "train mid/graph.edges mid/graph.edge_labels --walks-per-node 40 --max-rounds 3 --seed 7 "
    "--out-dir mid-joint",
    "evaluate mid-joint/embeddings.vec mid/graph.node_labels --seed 7 --out-dir mid-joint",
    # A float32 lambda-0 pass whose Adam steps span several row blocks.
    "train mid/graph.edges --lambda 0 --walks-per-node 1 --unsupervised-rounds 1 "
    "--dtype float32 --seed 7 --out-dir mid-0-float32",
    "evaluate mid-0-float32/embeddings.vec mid/graph.node_labels --seed 7 "
    "--out-dir mid-0-float32",
    # One corpus reused for every pass.
    f"train {TINY_DATA} {TINY} --lambda 0 --unsupervised-rounds 2 --no-regenerate-walks "
    "--out-dir single-corpus",
    f"sweep lambda {TINY_DATA} tiny/graph.node_labels {TINY} --values 0 0.5 1 "
    "--out-dir sweep-lambda",
    f"sweep label-fraction {TINY_DATA} tiny/graph.node_labels {TINY} --values 0.3 1 "
    "--out-dir sweep-label-fraction",
    "walk tiny/graph.edges --walks-per-node 2 --walk-length 5 --seed 4 --out walks.txt",
]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "training_report.txt":
        data = b"\n".join(line.rsplit(b" ", 1)[0] for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()[:16]


def run_all(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=False)
    os.chdir(out)
    with open("stdout.txt", "w") as log, contextlib.redirect_stdout(log):
        for command in RUNS:
            if main(command.split()) != 0:
                raise SystemExit(f"failed: edgewalk {command}")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(path, digest(path))


if __name__ == "__main__":
    run_all(Path(sys.argv[1]))
