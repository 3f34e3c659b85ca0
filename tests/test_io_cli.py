import io
import json
import subprocess
import sys

import numpy as np
import pytest

from edgewalk.cli import main
from edgewalk.embedding_io import read_embeddings, write_embeddings
from edgewalk.errors import ParseError
from edgewalk.graph import load_edge_list
from edgewalk.params import load_checkpoint
from edgewalk.walks import read_walks


# embedding text format ---------------------------------------------------------


def test_embedding_round_trip_exact():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(5, 7)) * np.exp(rng.normal(size=(5, 7)) * 5)
    ids = [f"node{i}" for i in range(5)]
    buf = io.StringIO()
    write_embeddings(buf, ids, matrix)
    back_ids, back = read_embeddings(io.StringIO(buf.getvalue()))
    assert back_ids == ids
    assert np.array_equal(back, matrix)  # bit-for-bit through 17 digits


def test_embedding_header_errors():
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO(""))
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO("3\n"))
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO("2 2\nA 0.5 0.5\n"))  # missing row
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO("1 2\nA 0.5\n"))  # short row
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO("a b\nA 0.5 0.5\n"))  # non-numeric header
    with pytest.raises(ParseError):
        read_embeddings(io.StringIO("1 2\nA 0.5 x\n"))  # non-numeric value
    with pytest.raises(ParseError, match="99999999999"):
        read_embeddings(io.StringIO("99999999999 99999999999\nA 0.5\n"))  # unallocatable


# CLI fixtures -------------------------------------------------------------------


TINY_TRAIN_FLAGS = [
    "--walks-per-node", "2", "--walk-length", "4", "--window", "2",
    "--dim", "6", "--negatives", "2", "--hidden", "6",
    "--structural-batch", "20", "--relational-batch", "20",
    "--batches-per-round", "6", "--max-rounds", "3",
    "--unsupervised-rounds", "2", "--seed", "5",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--communities", "3", "--community-size", "8",
               "--p-in", "0.5", "--p-out", "0.05", "--label-fraction", "0.5",
               "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    return out


def run_train(synth_dir, out_dir, *extra):
    return main(["train", str(synth_dir / "graph.edges"),
                 str(synth_dir / "graph.edge_labels"),
                 "--out-dir", str(out_dir), *TINY_TRAIN_FLAGS, *extra])


def test_synth_outputs_exist(synth_dir):
    for name in ("graph.edges", "graph.edge_labels", "graph.node_labels"):
        assert (synth_dir / name).exists()
        assert (synth_dir / name).read_text().strip()


def test_train_happy_path(synth_dir, tmp_path):
    rc = run_train(synth_dir, tmp_path)
    assert rc == 0
    for name in ("embeddings.vec", "checkpoint.bin", "manifest.json",
                 "training_report.txt"):
        assert (tmp_path / name).exists()
    ids, matrix = read_embeddings(open(tmp_path / "embeddings.vec"))
    assert matrix.shape == (24, 6)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["dim"] == 6
    assert manifest["inputs"]["edges"]["sha256"]
    ckpt = load_checkpoint(tmp_path / "checkpoint.bin")
    assert ckpt.config == manifest["config"]
    assert ckpt.ids == ids
    # The embedding file carries the center table.
    assert np.array_equal(matrix, ckpt.center)


def test_train_lambda_zero_without_labels(synth_dir, tmp_path):
    rc = main(["train", str(synth_dir / "graph.edges"), "--lambda", "0",
               "--out-dir", str(tmp_path), *TINY_TRAIN_FLAGS])
    assert rc == 0
    ckpt = load_checkpoint(tmp_path / "checkpoint.bin")
    assert ckpt.mlp_weights == []


def test_train_lambda_positive_without_labels_fails(synth_dir, tmp_path, capsys):
    rc = main(["train", str(synth_dir / "graph.edges"), "--lambda", "0.5",
               "--out-dir", str(tmp_path), *TINY_TRAIN_FLAGS])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_train_unreadable_path(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "missing.edges"), "--lambda", "0",
               "--out-dir", str(tmp_path)])
    assert rc != 0
    err = capsys.readouterr().err
    assert "missing.edges" in err


def test_train_rerun_bitwise_identical(synth_dir, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_train(synth_dir, dir_a) == 0
    assert run_train(synth_dir, dir_b) == 0
    assert (dir_a / "embeddings.vec").read_bytes() == (dir_b / "embeddings.vec").read_bytes()
    assert (dir_a / "checkpoint.bin").read_bytes() == (dir_b / "checkpoint.bin").read_bytes()
    assert (dir_a / "manifest.json").read_bytes() == (dir_b / "manifest.json").read_bytes()
    # The report matches except for the wall-time column.
    strip = lambda p: [line.rsplit(" ", 1)[0] for line in p.read_text().splitlines()]
    assert strip(dir_a / "training_report.txt") == strip(dir_b / "training_report.txt")


def test_train_from_manifest_reproduces(synth_dir, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_train(synth_dir, dir_a) == 0
    rc = main(["train", str(synth_dir / "graph.edges"),
               str(synth_dir / "graph.edge_labels"),
               "--config", str(dir_a / "manifest.json"), "--out-dir", str(dir_b)])
    assert rc == 0
    assert (dir_a / "embeddings.vec").read_bytes() == (dir_b / "embeddings.vec").read_bytes()
    assert (dir_a / "checkpoint.bin").read_bytes() == (dir_b / "checkpoint.bin").read_bytes()


def test_config_file_merge_and_flag_override(synth_dir, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"dim": 4, "seed": 11, "max_rounds": 2,
                                       "walks_per_node": 2, "walk_length": 4,
                                       "window": 2, "hidden": 4,
                                       "structural_batch": 10,
                                       "relational_batch": 10,
                                       "batches_per_round": 4}))
    out = tmp_path / "out"
    rc = main(["train", str(synth_dir / "graph.edges"),
               str(synth_dir / "graph.edge_labels"),
               "--config", str(config_path), "--dim", "8", "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dim"] == 8      # flag wins
    assert manifest["config"]["seed"] == 11    # file fills the rest


def test_walk_cache_written_and_reused(synth_dir, tmp_path):
    cache = tmp_path / "walks.txt"
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_train(synth_dir, dir_a, "--walk-cache", str(cache)) == 0
    assert cache.exists()
    graph = load_edge_list(open(synth_dir / "graph.edges"))
    corpus = read_walks(open(cache), graph)
    assert corpus.num_walks == graph.num_nodes * 2
    # Second run consumes the cache and reproduces the embeddings.
    assert run_train(synth_dir, dir_b, "--walk-cache", str(cache)) == 0
    assert (dir_a / "embeddings.vec").read_bytes() == (dir_b / "embeddings.vec").read_bytes()


@pytest.mark.parametrize("flag", ["--walk-length", "--walks-per-node"])
def test_walk_cache_mismatch_refused(synth_dir, tmp_path, capsys, flag):
    cache = tmp_path / "walks.txt"
    assert run_train(synth_dir, tmp_path / "a", "--walk-cache", str(cache)) == 0
    out = tmp_path / "b"
    rc = run_train(synth_dir, out, "--walk-cache", str(cache), flag, "3")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("header", ["# walks_per_node=x walk_length=4 seed=1",
                                    "# walks_per_node=2 walk_length=4 seed=1 junk"])
def test_walk_cache_bad_header_is_an_error(synth_dir, tmp_path, capsys, header):
    cache = tmp_path / "walks.txt"
    assert run_train(synth_dir, tmp_path / "a", "--walk-cache", str(cache)) == 0
    cache.write_text(header + "\n" + cache.read_text().split("\n", 1)[1])
    rc = run_train(synth_dir, tmp_path / "b", "--walk-cache", str(cache))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", ["short", "shuffled"])
def test_walk_cache_out_of_layout_is_an_error(synth_dir, tmp_path, capsys, edit):
    # A killed writer can leave a short cache; neither it nor a reordered one
    # matches the walks-per-node layout its header claims.
    cache = tmp_path / "walks.txt"
    assert run_train(synth_dir, tmp_path / "a", "--walk-cache", str(cache)) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["walks.txt"]
    header, *rows = cache.read_text().splitlines()
    rows = rows[:1] if edit == "short" else rows[1:] + rows[:1]
    cache.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "b"
    rc = run_train(synth_dir, out, "--walk-cache", str(cache))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "walks per node" in err
    assert not (out / "manifest.json").exists()


# One-step skip-gram runs: a NaN lr let through finishes one with exit 0 and
# all-NaN embeddings, before any loss can turn non-finite.
ONE_STEP = '"lambda_": 0.0, "unsupervised_rounds": 1, "walks_per_node": 1, "walk_length": 2'


@pytest.mark.parametrize("text", ['{"dim": 4,', '{"dim": "x"}',
                                  '{"lr": NaN, %s}' % ONE_STEP,
                                  '{"noise_power": Infinity, %s}' % ONE_STEP])
def test_bad_config_file_is_an_error(synth_dir, tmp_path, capsys, text):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    rc = main(["train", str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# evaluate -----------------------------------------------------------------------


@pytest.fixture()
def embedding_files(tmp_path):
    rng = np.random.default_rng(1)
    rows, labels = [], []
    for c in range(3):
        for i in range(10):
            rows.append(np.eye(3)[c] * 2 + 0.2 * rng.normal(size=3))
            labels.append(f"v{c}_{i} community_{c}")
    vec = tmp_path / "emb.vec"
    with open(vec, "w") as fh:
        write_embeddings(fh, [lab.split()[0] for lab in labels], np.array(rows))
    nl = tmp_path / "labels.txt"
    nl.write_text("\n".join(labels) + "\n")
    return vec, nl


def test_evaluate_happy_path(embedding_files, tmp_path, capsys):
    vec, nl = embedding_files
    out = tmp_path / "eval"
    rc = main(["evaluate", str(vec), str(nl), "--ratios", "0.5",
               "--repeats", "3", "--seed", "2", "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "macro_f1_mean" in stdout
    assert (out / "eval_report.txt").exists()
    lines = (out / "eval_results.tsv").read_text().splitlines()
    assert len(lines) == 1 + 3
    assert (out / "eval_manifest.json").exists()


def test_evaluate_default_protocol_shape(embedding_files, tmp_path, capsys):
    vec, nl = embedding_files
    out = tmp_path / "eval"
    rc = main(["evaluate", str(vec), str(nl), "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "eval_results.tsv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 10  # three ratios, ten repeats


def test_evaluate_rerun_identical(embedding_files, tmp_path):
    vec, nl = embedding_files
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["evaluate", str(vec), str(nl), "--ratios", "0.5",
                     "--repeats", "2", "--out-dir", str(out)]) == 0
    for name in ("eval_report.txt", "eval_results.tsv", "eval_manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_evaluate_missing_node_non_strict_warns(embedding_files, tmp_path, caplog):
    vec, nl = embedding_files
    nl.write_text(nl.read_text() + "ghost community_0\n")
    rc = main(["evaluate", str(vec), str(nl), "--ratios", "0.5", "--repeats", "1",
               "--out-dir", str(tmp_path / "e")])
    assert rc == 0
    assert any("ghost" in rec.message for rec in caplog.records)


def test_evaluate_missing_node_strict_fails(embedding_files, tmp_path, capsys):
    vec, nl = embedding_files
    nl.write_text(nl.read_text() + "ghost community_0\n")
    rc = main(["evaluate", str(vec), str(nl), "--strict", "--ratios", "0.5",
               "--repeats", "1", "--out-dir", str(tmp_path / "e")])
    assert rc != 0
    assert "ghost" in capsys.readouterr().err


# sweep --------------------------------------------------------------------------


def test_sweep_lambda_series(synth_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "lambda",
               str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               str(synth_dir / "graph.node_labels"),
               "--values", "0", "0.8", "--eval-ratio", "0.3", "--eval-repeats", "2",
               "--out-dir", str(out), *TINY_TRAIN_FLAGS])
    assert rc == 0
    lines = (out / "sweep_lambda.tsv").read_text().splitlines()
    assert len(lines) == 3
    values = [float(line.split("\t")[0]) for line in lines[1:]]
    assert values == [0.0, 0.8]


def test_sweep_label_fraction_series(synth_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "label-fraction",
               str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               str(synth_dir / "graph.node_labels"),
               "--values", "0.5", "1.0", "--eval-ratio", "0.3", "--eval-repeats", "2",
               "--out-dir", str(out), *TINY_TRAIN_FLAGS])
    assert rc == 0
    lines = (out / "sweep_label_fraction.tsv").read_text().splitlines()
    assert len(lines) == 3


def test_sweep_dim_series(synth_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "dim",
               str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               str(synth_dir / "graph.node_labels"),
               "--values", "4", "8", "--eval-ratio", "0.3", "--eval-repeats", "2",
               "--out-dir", str(out), *TINY_TRAIN_FLAGS])
    assert rc == 0
    lines = (out / "sweep_dim.tsv").read_text().splitlines()
    assert [line.split("\t")[0] for line in lines[1:]] == ["4", "8"]


def test_sweep_unknown_parameter(synth_dir, tmp_path, capsys):
    rc = main(["sweep", "momentum",
               str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               str(synth_dir / "graph.node_labels"), "--values", "1",
               "--out-dir", str(tmp_path)])
    assert rc != 0
    assert "momentum" in capsys.readouterr().err


# walk ---------------------------------------------------------------------------


def test_walk_command(synth_dir, tmp_path):
    out = tmp_path / "corpus.txt"
    rc = main(["walk", str(synth_dir / "graph.edges"), "--walks-per-node", "2",
               "--walk-length", "5", "--seed", "4", "--out", str(out)])
    assert rc == 0
    graph = load_edge_list(open(synth_dir / "graph.edges"))
    corpus = read_walks(open(out), graph)
    assert corpus.walks.shape == (graph.num_nodes * 2, 5)
    for walk in corpus.walks:
        for u, v in zip(walk, walk[1:]):
            assert graph.has_edge(int(u), int(v))


# entry point --------------------------------------------------------------------


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "edgewalk", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "edgewalk" in proc.stdout
