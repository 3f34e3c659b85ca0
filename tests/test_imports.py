"""Each command loads only the scipy it calls into.

The package imports scipy inside the three functions that call it, so scipy
loads on first use. ``train`` and ``sweep`` load ``scipy.special`` (the
sigmoids of the skip-gram and classifier losses) and ``scipy.sparse`` (the row
sums of ``params.accumulate_rows``), but not ``scipy.optimize``. ``evaluate``,
``synth``, ``walk`` and the bare import load no scipy module at all: the
evaluation solver is numpy. Each case runs in a fresh interpreter, because
this test process has long since loaded all of them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgewalk.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import edgewalk, edgewalk.cli
if sys.argv[1:]:
    assert edgewalk.cli.main(sys.argv[1:]) == 0
print("scipy:", *(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


TRAIN = ["train", "g/graph.edges", "g/graph.edge_labels", "--lambda", "0.8", "--dim", "4",
         "--hidden", "4", "--walks-per-node", "1", "--walk-length", "3", "--window", "1",
         "--structural-batch", "8", "--relational-batch", "8", "--batches-per-round", "2",
         "--max-rounds", "1", "--validation-fraction", "0"]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    assert main(["synth", "--communities", "2", "--community-size", "6", "--p-in", "0.6",
                 "--label-fraction", "0.5", "--seed", "2", "--out-dir", str(out / "g")]) == 0
    assert main([str(out / a) if a.startswith("g/") else a for a in TRAIN]
                + ["--out-dir", str(out / "run")]) == 0
    return out


def loaded_after(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.rsplit("scipy:", 1)[1].split())


@pytest.mark.parametrize("argv, uses", [
    ([], ()),
    (["walk", "g/graph.edges", "--walks-per-node", "1", "--walk-length", "3",
      "--out", "walks.txt"], ()),
    (["synth", "--communities", "2", "--community-size", "6", "--p-in", "0.6", "--out-dir", "s"],
     ()),
    ([*TRAIN, "--out-dir", "t"], ("scipy.special", "scipy.sparse")),
    (["evaluate", "run/embeddings.vec", "g/graph.node_labels", "--ratios", "0.5",
      "--repeats", "2", "--out-dir", "e"], ()),
], ids=["import", "walk", "synth", "train", "evaluate"])
def test_command_loads_only_the_scipy_it_uses(data, argv, uses):
    loaded = loaded_after(argv, data)
    if uses:
        assert set(uses) <= loaded and "scipy.optimize" not in loaded
    else:
        assert loaded == set()


def test_no_module_level_scipy_submodule_import():
    for path in sorted((SRC / "edgewalk").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy"), f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Import):
                assert all(a.name == "scipy" or not a.name.startswith("scipy.")
                           for a in node.names), f"{path.name}:{node.lineno}"
