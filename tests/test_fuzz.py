"""Arbitrary text into every loader, arbitrary JSON-like data into the config,
and mutated input bytes through the command line.

Malformed input must end in an ``EdgewalkError`` (which the CLI turns into
one ``error:`` line and exit 2), never in another exception. Examples are
derandomized so every run checks the same inputs.
"""

import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgewalk.cli import main
from edgewalk.embedding_io import read_embeddings
from edgewalk.errors import EdgewalkError
from edgewalk.graph import load_edge_labels, load_edge_list, load_node_labels
from edgewalk.training import TrainConfig

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Tokens that reach the parsers' branches: known nodes, label lists, numbers
# of every kind, comment marks.
TOKENS = ["a", "b", "c", "d", "#", "0", "1", "2", "3", "-1", "1.5", "nan", "inf", "-inf",
          "1e999", "x", "x,y", ",", "x,", ",y", "99999999999", "99999999999999999999",
          "=", "٣", "\x00"]
token = st.one_of(st.sampled_from(TOKENS), st.text(max_size=4))
line = st.one_of(st.lists(token, max_size=5).map(" ".join), st.text(max_size=12))
text = st.lists(line, max_size=8).map("\n".join)

TRIANGLE = load_edge_list(io.StringIO("a b\nb c\na c\n"))


def only_edgewalk_errors(call, *args):
    try:
        call(*args)
    except EdgewalkError:
        pass


@FUZZ
@given(text)
def test_edge_list_text(data):
    only_edgewalk_errors(load_edge_list, io.StringIO(data))


@FUZZ
@given(text)
def test_edge_label_text(data):
    only_edgewalk_errors(load_edge_labels, io.StringIO(data), TRIANGLE)


@FUZZ
@given(text, st.sampled_from(["error", "skip"]))
def test_node_label_text(data, on_missing):
    only_edgewalk_errors(load_node_labels, io.StringIO(data), TRIANGLE.index, on_missing)


@FUZZ
@given(text)
def test_embedding_text(data):
    only_edgewalk_errors(read_embeddings, io.StringIO(data))


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6)
FIELDS = list(TrainConfig.__dataclass_fields__)
config_values = st.one_of(json_like, st.integers(-3, 300), st.floats(-2.0, 2.0),
                          st.sampled_from(["float32", "float64", "float16"]))


@FUZZ
@given(st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=6)),
                       config_values, max_size=6))
def test_config_dict(data):
    def build(d):
        TrainConfig.from_dict(d).validate()

    only_edgewalk_errors(build, data)


# Bytes through the CLI ------------------------------------------------------------
#
# Tiny valid inputs with one mutation of their bytes, run through ``cli.main`` in
# process. A run exits 0 or 2; on 2 it writes one ``error:`` line and, since the bad
# bytes are in an input, no manifest and no output. A numpy warning fails the test.
# Bad bytes in the header of the checkpoint beside the embeddings never fail
# evaluate: it reads the text instead. (The digest in that header covers the text,
# not the header's ids, so an edited id that still parses is read as it stands.)

SIZES = ["--dim", "4", "--hidden", "4", "--walks-per-node", "1", "--walk-length", "3",
         "--window", "1", "--negatives", "2", "--structural-batch", "8",
         "--relational-batch", "8", "--batches-per-round", "2", "--max-rounds", "2",
         "--unsupervised-rounds", "1"]
# Input name -> file name; the embeddings sit beside the checkpoint written with them.
FILES = {"edges": "graph.edges", "edge_labels": "graph.edge_labels",
         "node_labels": "graph.node_labels", "config": "manifest.json",
         "embeddings": "embeddings.vec", "checkpoint": "checkpoint.bin"}
COMMANDS = {
    "train": ["train", "edges", "edge_labels", "--config", "config", *SIZES],
    "evaluate": ["evaluate", "embeddings", "node_labels", "--ratios", "0.5", "--repeats", "2"],
    "walk": ["walk", "edges", "--walks-per-node", "1", "--walk-length", "3"],
    "sweep": ["sweep", "lambda", "edges", "edge_labels", "node_labels", "--values", "0", "0.5",
              "--eval-ratio", "0.5", "--eval-repeats", "1", "--config", "config", *SIZES],
}
CASES = [*((command, arg) for command, argv in COMMANDS.items() for arg in argv if arg in FILES),
         ("evaluate", "checkpoint")]


def command_line(command, inputs, out):
    argv = [str(inputs / FILES[a]) if a in FILES else a for a in COMMANDS[command]]
    return argv + (["--out", str(out)] if command == "walk" else ["--out-dir", str(out)])


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory of tiny valid inputs."""
    root = tmp_path_factory.mktemp("cli_bytes")
    assert main(["synth", "--communities", "2", "--community-size", "6", "--p-in", "0.6",
                 "--label-fraction", "0.5", "--seed", "2", "--out-dir", str(root)]) == 0
    assert main(["train", str(root / FILES["edges"]), str(root / FILES["edge_labels"]),
                 "--lambda", "0.5", *SIZES, "--out-dir", str(root)]) == 0
    return root


def at(data, position, end=0):
    return position % (len(data) + end) if data or end else 0


MUTATIONS = st.one_of(
    st.tuples(st.integers(0, 10**6), st.integers(1, 255)).map(  # flip bits of one byte
        lambda a: lambda d: d and d[:at(d, a[0])] + bytes([d[at(d, a[0])] ^ a[1]])
        + d[at(d, a[0]) + 1:]),
    st.tuples(st.integers(0, 10**6), st.sampled_from([b"\xff", b"\x00", b"\r"])).map(
        lambda a: lambda d: d[:at(d, a[0], 1)] + a[1] + d[at(d, a[0], 1):]),
    st.integers(0, 10**6).map(lambda n: lambda d: d[:at(d, n, 1)]),  # truncate
    st.just(lambda d: b"\xef\xbb\xbf" + d),
)
NEW_CONFIG = json_like.map(
    lambda value: lambda d: json.dumps(dict(json.loads(d), config=value)).encode())


def in_header(mutate):
    """``mutate`` applied to a checkpoint's magic, header length and JSON header only."""
    def apply(d):
        end = 12 + int.from_bytes(d[8:12], "little")
        return mutate(d[:end]) + d[end:]
    return apply


@settings(FUZZ, max_examples=300, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(CASES).flatmap(lambda case: st.tuples(st.just(case), {
    "config": st.one_of(MUTATIONS, NEW_CONFIG),
    "checkpoint": MUTATIONS.map(in_header)}.get(case[1], MUTATIONS))))
def test_mutated_input_bytes_through_the_cli(valid_inputs, capsys, case_and_mutation):
    (command, target), mutate = case_and_mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in FILES.values():
            data = (valid_inputs / name).read_bytes()
            (tmp / name).write_bytes(mutate(data) if name == FILES[target] else data)
        out = tmp / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(command_line(command, tmp, out))
        err = capsys.readouterr().err
        assert rc in ((0,) if target == "checkpoint" else (0, 2)), err
        if rc == 2:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert not out.exists() or not list(out.iterdir())
