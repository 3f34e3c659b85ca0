import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from edgewalk.cli import main
from edgewalk.embedding_io import read_embeddings, write_embeddings
from edgewalk.errors import ParseError
from edgewalk.graph import load_edge_list

from oracles import has_edge, load_checkpoint, walks_by_line


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


def fail_mid_write(dest, *args):
    """Write a little to ``dest`` (stream or path), then fail as a full disk does."""
    if hasattr(dest, "write"):
        dest.write("2 3\n")
    else:
        Path(dest).write_bytes(b"EWCHKPT1")
    raise OSError("No space left on device")


@pytest.mark.parametrize("target, name", [("edgewalk.cli.write_embeddings", "embeddings.vec"),
                                          ("edgewalk.cli.save_checkpoint", "checkpoint.bin")])
def test_failed_train_write_leaves_nothing_under_final_name(synth_dir, tmp_path, capsys,
                                                            monkeypatch, target, name):
    monkeypatch.setattr(target, fail_mid_write)
    assert run_train(synth_dir, tmp_path) == 2
    assert "error: No space left on device" in capsys.readouterr().err
    assert not (tmp_path / name).exists()
    assert not list(tmp_path.glob("*.tmp"))


def fail_after_writing(*args):
    """Write a line to each stream argument, then fail as a full disk does."""
    for arg in args:
        if hasattr(arg, "write"):
            arg.write("a b\n")
    raise OSError("No space left on device")


@pytest.mark.parametrize("command, target, names", [
    ("synth", "edgewalk.cli.write_dataset",
     ["graph.edges", "graph.edge_labels", "graph.node_labels"]),
    ("walk", "edgewalk.cli.write_walks", ["walks.txt"]),
])
def test_failed_synth_or_walk_write_leaves_nothing_under_final_name(
        synth_dir, tmp_path, capsys, monkeypatch, command, target, names):
    monkeypatch.setattr(target, fail_after_writing)
    if command == "synth":
        argv = ["synth", "--communities", "3", "--community-size", "8", "--p-in", "0.5",
                "--p-out", "0.05", "--out-dir", str(tmp_path)]
    else:
        argv = ["walk", str(synth_dir / "graph.edges"), "--walks-per-node", "1",
                "--walk-length", "3", "--out", str(tmp_path / "walks.txt")]
    assert main(argv) == 2
    assert "error: No space left on device" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in names)
    assert not list(tmp_path.glob("*.tmp"))


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


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_empty_edge_label_file_is_refused_before_the_manifest(synth_dir, tmp_path, capsys,
                                                               command):
    empty = tmp_path / "empty.edge_labels"
    empty.write_text("# no labeled edges\n")
    out = tmp_path / "out"
    data = [str(synth_dir / "graph.edges"), str(empty)]
    if command == "sweep":
        data = ["lambda", *data, str(synth_dir / "graph.node_labels"), "--values", "0", "0.5",
                "--eval-ratio", "0.3", "--eval-repeats", "1"]
    assert main([command, *data, "--lambda", "0.5", *TINY_TRAIN_FLAGS, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: lambda > 0 requires a non-empty labeled edge set\n"
    assert not list(out.glob("*manifest.json"))


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


# A manifest given as a config file must hold its config as a JSON object.
@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("value", ["[1, 2]", '"x"', "3", "null"],
                         ids=["list", "string", "number", "null"])
def test_manifest_config_that_is_not_an_object_is_an_error(synth_dir, tmp_path, capsys,
                                                           command, value):
    config_path = tmp_path / "cfg.json"
    config_path.write_text('{"tool_version": "0.1.0", "config": %s}' % value)
    data = [str(synth_dir / name) for name in ("graph.edges", "graph.edge_labels")]
    if command == "sweep":
        argv = ["sweep", "lambda", *data, str(synth_dir / "graph.node_labels"), "--values", "0"]
    else:
        argv = ["train", *data]
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(config_path) in err
    assert not out.exists()


# Every text input is read as strict UTF-8. A byte that is not UTF-8 ends the run in
# one error line that names the file and the byte's offset, before any manifest.
@pytest.mark.parametrize("reader", ["edges", "edge labels", "node labels", "embeddings",
                                    "config"])
def test_input_that_is_not_utf8_is_an_error(synth_dir, embedding_files, tmp_path, capsys,
                                            reader):
    vec, nl = embedding_files
    config = tmp_path / "cfg.json"
    config.write_text('{"dim": 4, "seed": 2}\n')
    inputs = {"edges": synth_dir / "graph.edges", "edge labels": synth_dir / "graph.edge_labels",
              "node labels": nl, "embeddings": vec, "config": config}
    data = inputs[reader].read_bytes()
    at = len(data) // 2
    bad = tmp_path / f"bad-{inputs[reader].name}"
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    inputs[reader] = bad
    if reader in ("node labels", "embeddings"):
        argv = ["evaluate", str(inputs["embeddings"]), str(inputs["node labels"]),
                "--ratios", "0.5", "--repeats", "1"]
    else:
        argv = ["train", str(inputs["edges"]), str(inputs["edge labels"]),
                "--config", str(inputs["config"]), *TINY_TRAIN_FLAGS]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 at byte {at}\n"
    assert not list(out.glob("*manifest.json"))


def test_leading_byte_order_mark_is_dropped(tmp_path):
    edges = tmp_path / "bom.edges"
    edges.write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\n")
    out = tmp_path / "out"
    assert main(["train", str(edges), "--lambda", "0", *TINY_TRAIN_FLAGS,
                 "--out-dir", str(out)]) == 0
    with open(out / "embeddings.vec") as fh:
        assert read_embeddings(fh)[0] == ["a", "b", "c"]


# Sizes no machine can hold. A size check refuses each one before its array
# is allocated, so these runs allocate nothing large.
HUGE = "100000000000000000"


@pytest.mark.parametrize("command, flags", [
    ("train", ["--lambda", "0", "--walks-per-node", HUGE]),
    ("train", ["--lambda", "0", "--dim", HUGE]),
    ("train", ["--lambda", "0", "--structural-batch", HUGE]),
    ("train", ["--lambda", "0", "--negatives", HUGE]),
    ("train", ["--hidden", HUGE]),
    ("train", ["--relational-batch", HUGE]),
    ("walk", ["--walks-per-node", HUGE]),
    ("synth", ["--communities", "100000000000"]),
], ids=["walks-per-node", "dim", "structural-batch", "negatives", "hidden", "relational-batch",
        "walk", "synth"])
def test_unallocatable_value_is_an_error(synth_dir, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    if command == "train":
        rc = run_train(synth_dir, out, *flags)
    elif command == "walk":
        rc = main(["walk", str(synth_dir / "graph.edges"), "--out", str(out), *flags])
    else:
        rc = main(["synth", "--out-dir", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith("needs more memory than this machine has\n")


# Values that numpy or scipy would take and fail on, or take without complaint:
# each is refused before a manifest or any other output is written.
@pytest.mark.parametrize("command, flags", [
    ("synth", ["--seed", "-1"]),
    ("walk", ["--seed", "-1"]),
    ("evaluate", ["--seed", "-1"]),
    ("evaluate", ["--l2-strength", "nan"]),
    ("evaluate", ["--l2-strength", "inf"]),
    ("sweep", ["lambda", "--values", "0", "--eval-seed", "-1"]),
    ("sweep", ["dim", "--values", "8.7"]),
    ("sweep", ["lambda", "--values", "0", "--eval-ratio", "0.999"]),
], ids=["synth-seed", "walk-seed", "evaluate-seed", "l2-nan", "l2-inf", "sweep-eval-seed",
        "sweep-dim-fraction", "sweep-eval-ratio"])
def test_bad_value_is_refused_before_any_output(synth_dir, embedding_files, tmp_path, capsys,
                                                command, flags):
    out = tmp_path / "out"
    data = [str(synth_dir / name) for name in ("graph.edges", "graph.edge_labels",
                                               "graph.node_labels")]
    if command == "synth":
        argv = ["synth", "--out-dir", str(out), *flags]
    elif command == "walk":
        argv = ["walk", data[0], "--out", str(out), *flags]
    elif command == "evaluate":
        argv = ["evaluate", *map(str, embedding_files), "--ratios", "0.5", "--repeats", "2",
                "--out-dir", str(out), *flags]
    else:
        argv = ["sweep", flags[0], *data, "--eval-ratio", "0.3",
                "--eval-repeats", "1", "--out-dir", str(out), *TINY_TRAIN_FLAGS, *flags[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_is_an_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("edgewalk.cli.generate_planted_partition", exhausted)
    assert main(["synth", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


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


def test_failed_evaluate_write_leaves_nothing_under_final_name(embedding_files, tmp_path,
                                                              capsys, monkeypatch):
    # The previous run's results go before the new manifest is written, so
    # neither they nor a partial file stand beside it.
    vec, nl = embedding_files
    argv = ["evaluate", str(vec), str(nl), "--ratios", "0.5", "--repeats", "2",
            "--out-dir", str(tmp_path / "eval")]
    assert main(argv) == 0
    monkeypatch.setattr("edgewalk.evaluation.EvalReport.write_tsv",
                        lambda self, stream: fail_mid_write(stream))
    assert main(argv) == 2
    assert "error: No space left on device" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "eval_results.tsv").exists()
    assert not list((tmp_path / "eval").glob("*.tmp"))


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


@pytest.mark.parametrize("case", ["ratio", "one-field line", "strict unknown node"])
def test_bad_label_input_is_refused_before_the_manifest(embedding_files, tmp_path, capsys,
                                                         monkeypatch, case):
    # The node labels and every ratio's split are checked before the output
    # directory is made; a ratio that cannot split fails before any fit.
    vec, nl = embedding_files
    flags = ["--ratios", "0.5", "--repeats", "1"]
    if case == "ratio":
        flags = ["--ratios", "0.05", "0.999", "--repeats", "2"]
    elif case == "one-field line":
        lines = nl.read_text().splitlines()
        nl.write_text("\n".join([lines[0], lines[1].split()[0], *lines[2:]]) + "\n")
    else:
        nl.write_text(nl.read_text() + "ghost community_0\n")
        flags.append("--strict")
    solves = []
    monkeypatch.setattr("edgewalk.evaluation.minimize", lambda *a, **k: solves.append(a))
    out = tmp_path / "e"
    assert main(["evaluate", str(vec), str(nl), *flags, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists() and solves == []


# A value that parses as a float but is not finite ends the run in one error line that
# names its line, before the manifest, instead of numpy warnings and a score.
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_embedding_value_is_an_error(embedding_files, tmp_path, capsys, value):
    vec, nl = embedding_files
    lines = vec.read_text().splitlines()
    lines[3] = " ".join([*lines[3].split()[:2], value, *lines[3].split()[3:]])
    vec.write_text("\n".join(lines) + "\n")
    out = tmp_path / "e"
    assert main(["evaluate", str(vec), str(nl), "--ratios", "0.5", "--repeats", "2",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 4: embedding value {float(value)} is not finite\n"
    assert not out.exists()


# evaluate, center table from the checkpoint -------------------------------------


def checkpoint_header(path):
    blob = Path(path).read_bytes()
    return json.loads(blob[12:12 + int.from_bytes(blob[8:12], "little")])


def rewrite_header(path, header):
    blob = Path(path).read_bytes()
    body = blob[12 + int.from_bytes(blob[8:12], "little"):]
    text = json.dumps(header, sort_keys=True).encode()
    Path(path).write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + body)


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_train(synth_dir, out) == 0
    return out


def evaluate(embeddings, node_labels, out_dir):
    rc = main(["evaluate", str(embeddings), str(node_labels), "--ratios", "0.5",
               "--repeats", "3", "--seed", "2", "--out-dir", str(out_dir)])
    manifest = json.loads((out_dir / "eval_manifest.json").read_text())
    return rc, (out_dir / "eval_results.tsv").read_bytes(), manifest


def text_only_results(vec, node_labels, tmp_path):
    """Results of the text parse: the file copied to a directory with no checkpoint."""
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "embeddings.vec").write_bytes(Path(vec).read_bytes())
    rc, results, manifest = evaluate(alone / "embeddings.vec", node_labels, alone / "eval")
    assert rc == 0 and manifest["embeddings_checkpoint"] is None
    return results


def test_train_records_embedding_digest_in_checkpoint(trained):
    manifest_digest = hashlib.sha256((trained / "embeddings.vec").read_bytes()).hexdigest()
    assert checkpoint_header(trained / "checkpoint.bin")["embeddings_sha256"] == manifest_digest


def test_evaluate_reads_center_from_matching_checkpoint(synth_dir, trained, tmp_path,
                                                        monkeypatch):
    want = text_only_results(trained / "embeddings.vec", synth_dir / "graph.node_labels",
                             tmp_path)

    def no_text(*args):
        raise AssertionError("the text was parsed")

    monkeypatch.setattr("edgewalk.cli.read_embeddings", no_text)
    rc, got, manifest = evaluate(trained / "embeddings.vec", synth_dir / "graph.node_labels",
                                 tmp_path / "eval")
    assert rc == 0 and got == want
    assert manifest["embeddings_checkpoint"] == str(trained / "checkpoint.bin")
    assert manifest["inputs"]["embeddings"]["sha256"] == hashlib.sha256(
        (trained / "embeddings.vec").read_bytes()).hexdigest()


def edit_one_digit(run):
    vec = run / "embeddings.vec"
    head, first, rest = vec.read_text().split("\n", 2)
    digit = next(i for i in range(len(first) - 1, 0, -1) if first[i].isdigit())
    first = first[:digit] + str((int(first[digit]) + 1) % 10) + first[digit + 1:]
    vec.write_text("\n".join([head, first, rest]))


def cut_in_center(run):
    ckpt = run / "checkpoint.bin"
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[:12 + int.from_bytes(blob[8:12], "little") + 20])


def drop_digest(run):
    header = checkpoint_header(run / "checkpoint.bin")
    del header["embeddings_sha256"]
    rewrite_header(run / "checkpoint.bin", header)


CHECKPOINT_FAULTS = {
    "edited_text": edit_one_digit,
    "no_checkpoint": lambda run: (run / "checkpoint.bin").unlink(),
    "bad_magic": lambda run: (run / "checkpoint.bin").write_bytes(
        b"NOTMAGIC" + (run / "checkpoint.bin").read_bytes()[8:]),
    "cut_in_header": lambda run: (run / "checkpoint.bin").write_bytes(
        (run / "checkpoint.bin").read_bytes()[:40]),
    "cut_in_center": cut_in_center,
    "old_header_without_digest": drop_digest,
    "directory": lambda run: ((run / "checkpoint.bin").unlink(),
                              (run / "checkpoint.bin").mkdir()),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_evaluate_falls_back_to_the_text(synth_dir, trained, tmp_path, caplog, fault):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("embeddings.vec", "checkpoint.bin"):
        (run / name).write_bytes((trained / name).read_bytes())
    CHECKPOINT_FAULTS[fault](run)
    want = text_only_results(run / "embeddings.vec", synth_dir / "graph.node_labels", tmp_path)
    caplog.set_level("INFO", logger="edgewalk")
    rc, got, manifest = evaluate(run / "embeddings.vec", synth_dir / "graph.node_labels",
                                 tmp_path / "eval")
    assert rc == 0 and got == want
    assert manifest["embeddings_checkpoint"] is None
    assert any("checkpoint.bin" in rec.message and "as text" in rec.message
               for rec in caplog.records)


def test_non_finite_value_in_a_matching_checkpoint_is_an_error(synth_dir, trained, tmp_path,
                                                               capsys, caplog):
    # The checkpoint reader refuses what the text reader refuses, so evaluate falls
    # back to the text and ends in the text's error.
    run = tmp_path / "run"
    run.mkdir()
    head, first, rest = (trained / "embeddings.vec").read_text().split("\n", 2)
    (run / "embeddings.vec").write_text("\n".join([head, " ".join(
        [first.split()[0], "nan", *first.split()[2:]]), rest]))
    blob = bytearray((trained / "checkpoint.bin").read_bytes())
    body = 12 + int.from_bytes(blob[8:12], "little")
    blob[body:body + 8] = np.float64(np.nan).tobytes()
    (run / "checkpoint.bin").write_bytes(blob)
    header = checkpoint_header(run / "checkpoint.bin")
    header["embeddings_sha256"] = hashlib.sha256((run / "embeddings.vec").read_bytes()).hexdigest()
    rewrite_header(run / "checkpoint.bin", header)
    caplog.set_level("INFO", logger="edgewalk")
    out = tmp_path / "eval"
    assert main(["evaluate", str(run / "embeddings.vec"), str(synth_dir / "graph.node_labels"),
                 "--ratios", "0.5", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 2: embedding value nan is not finite\n"
    assert any("non-finite" in rec.message for rec in caplog.records)
    assert not out.exists()


@pytest.mark.parametrize("target", ["regular file", "/dev/null"])
def test_train_through_symlinked_embeddings(synth_dir, tmp_path, target):
    dest = Path(target) if target.startswith("/") else tmp_path / "elsewhere.vec"
    run = tmp_path / "run"
    run.mkdir()
    (run / "embeddings.vec").symlink_to(dest)
    assert run_train(synth_dir, run) == 0
    assert (run / "embeddings.vec").is_symlink()
    recorded = checkpoint_header(run / "checkpoint.bin")["embeddings_sha256"]
    if not dest.is_file():
        assert recorded is None  # a device written through is not read back
        return
    assert recorded == hashlib.sha256(dest.read_bytes()).hexdigest()
    want = text_only_results(dest, synth_dir / "graph.node_labels", tmp_path)
    rc, got, manifest = evaluate(run / "embeddings.vec", synth_dir / "graph.node_labels",
                                 tmp_path / "eval")
    assert rc == 0 and got == want
    assert manifest["embeddings_checkpoint"] == str(run / "checkpoint.bin")


# a killed run --------------------------------------------------------------------
# Each command removes the regular files it is about to write before it writes
# its manifest, so a run killed in between leaves its manifest and nothing else.

SRC = Path(__file__).resolve().parents[1] / "src"


def kill_after_manifest(argv, manifest, seed):
    """Run ``edgewalk argv`` in a child process and SIGKILL it once ``manifest``
    records ``seed``, i.e. while it works."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "edgewalk", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while True:
            try:
                if json.loads(manifest.read_text())["config"]["seed"] == seed:
                    break
            except (OSError, ValueError, KeyError):
                pass  # not written yet, or written in part
            assert proc.poll() is None, f"ended before the kill: {proc.stderr.read()}"
            assert time.monotonic() < deadline, "no manifest"
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == -9


def test_killed_train_leaves_only_its_manifest(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert run_train(synth_dir, run) == 0
    kill_after_manifest(["train", str(synth_dir / "graph.edges"),
                         str(synth_dir / "graph.edge_labels"), "--out-dir", str(run),
                         *TINY_TRAIN_FLAGS, "--batches-per-round", "1000000", "--seed", "6"],
                        run / "manifest.json", 6)
    assert [p.name for p in run.iterdir()] == ["manifest.json"]
    rc = main(["evaluate", str(run / "embeddings.vec"), str(synth_dir / "graph.node_labels"),
               "--out-dir", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and err.count("\n") == 1


def test_killed_evaluate_leaves_only_its_manifest(embedding_files, tmp_path):
    vec, nl = embedding_files
    out = tmp_path / "eval"
    assert main(["evaluate", str(vec), str(nl), "--ratios", "0.5", "--repeats", "2",
                 "--out-dir", str(out)]) == 0
    kill_after_manifest(["evaluate", str(vec), str(nl), "--repeats", "1000000", "--seed", "9",
                         "--out-dir", str(out)], out / "eval_manifest.json", 9)
    assert [p.name for p in out.iterdir()] == ["eval_manifest.json"]


def test_failed_sweep_leaves_no_earlier_series(synth_dir, tmp_path, capsys, monkeypatch):
    argv = ["sweep", "lambda", str(synth_dir / "graph.edges"),
            str(synth_dir / "graph.edge_labels"), str(synth_dir / "graph.node_labels"),
            "--values", "0", "--eval-ratio", "0.3", "--eval-repeats", "1",
            "--out-dir", str(tmp_path), *TINY_TRAIN_FLAGS]
    assert main(argv) == 0

    def killed(*args):
        raise OSError("killed")

    monkeypatch.setattr("edgewalk.cli.train", killed)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: killed\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_lambda_manifest.json"]


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


def test_two_sweeps_into_one_dir_keep_both_manifests(synth_dir, tmp_path):
    for parameter, values in (("lambda", ["0", "0.8"]), ("label-fraction", ["0.5"])):
        assert main(["sweep", parameter,
                     str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
                     str(synth_dir / "graph.node_labels"),
                     "--values", *values, "--eval-ratio", "0.3", "--eval-repeats", "1",
                     "--out-dir", str(tmp_path), *TINY_TRAIN_FLAGS]) == 0
    for parameter in ("lambda", "label-fraction"):
        stem = "sweep_" + parameter.replace("-", "_")
        manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text())
        assert manifest["config"]["sweep_parameter"] == parameter
        assert (tmp_path / f"{stem}.tsv").exists()


# A value that fails validation ends the sweep before the manifest and any
# training, wherever it comes in the list.
@pytest.mark.parametrize("parameter, values", [("lambda", ["0", "2"]),
                                               ("label-fraction", ["0.5", "1.5"]),
                                               ("dim", ["4", "0"])])
def test_sweep_checks_every_value_before_training(synth_dir, tmp_path, capsys, monkeypatch,
                                                  parameter, values):
    trained = []
    monkeypatch.setattr("edgewalk.cli.train", lambda *args: trained.append(args))
    out = tmp_path / "sweep"
    rc = main(["sweep", parameter,
               str(synth_dir / "graph.edges"), str(synth_dir / "graph.edge_labels"),
               str(synth_dir / "graph.node_labels"),
               "--values", *values, "--eval-ratio", "0.3", "--eval-repeats", "1",
               "--out-dir", str(out), *TINY_TRAIN_FLAGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert trained == []
    stem = "sweep_" + parameter.replace("-", "_")
    assert not (out / f"{stem}_manifest.json").exists()
    assert not (out / f"{stem}.tsv").exists()


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
    with open(out) as fh:
        fields, walks = walks_by_line(fh, graph)
    assert fields == {"walks_per_node": 2, "walk_length": 5, "seed": 4}
    assert walks.shape == (graph.num_nodes * 2, 5)
    for walk in walks:
        for u, v in zip(walk, walk[1:]):
            assert has_edge(graph, u, v)


WALK_TINY = ["--walks-per-node", "1", "--walk-length", "3", "--seed", "4"]


def test_walk_out_to_fifo_is_written_through(synth_dir, tmp_path):
    fifo = tmp_path / "walks.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    rc = main(["walk", str(synth_dir / "graph.edges"), *WALK_TINY, "--out", str(fifo)])
    reader.join(timeout=10)
    assert rc == 0
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received[0].startswith(b"# walks_per_node=1")


@pytest.mark.parametrize("target", ["/dev/null", "regular file"])
def test_walk_out_through_symlink_keeps_the_link(synth_dir, tmp_path, target):
    dest = Path(target) if target.startswith("/") else tmp_path / "walks.txt"
    if not dest.exists():
        dest.write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(dest)
    rc = main(["walk", str(synth_dir / "graph.edges"), *WALK_TINY, "--out", str(link)])
    assert rc == 0
    assert link.is_symlink() and os.readlink(link) == str(dest)
    assert not list(tmp_path.glob("*.tmp"))
    if dest.is_file():
        assert dest.read_text().startswith("# walks_per_node=1")


# entry point --------------------------------------------------------------------


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "edgewalk", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "edgewalk" in proc.stdout
