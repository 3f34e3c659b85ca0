"""Arbitrary text into every loader, arbitrary JSON-like data into the config.

Malformed input must end in an ``EdgewalkError`` (which the CLI turns into
one ``error:`` line and exit 2), never in another exception. Examples are
derandomized so every run checks the same inputs.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
