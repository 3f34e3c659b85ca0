"""The bulk loaders against the line parsers they fall back to.

Each loader parses ASCII text with array operations and re-runs its line
parser only when a check fails (or the text is not ASCII). For every input,
both paths must give the same arrays or raise the same error type with the
same message. A valid ASCII input must never reach the line parser.
"""

import io
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgewalk import graph
from edgewalk.errors import EdgewalkError
from edgewalk.graph import load_edge_labels, load_edge_list, load_node_labels

DIFF = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Mostly valid values, so that many inputs parse; "e" is not in GRAPH below.
node = st.sampled_from(["a", "b", "c", "d", "a\x00", "\x00", "#a", "a#"] * 3 + ["e"])
label = st.sampled_from(["x", "y", "x,y", "y,x,x", "#", "x\x00"] * 3
                        + ["x,,y", ",x", "x,", ","])
# ASCII whitespace as str.split() sees it, and a newline inside a list item.
space = st.sampled_from([" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", " \t ", "\n"])
margin = st.one_of(space, st.just(""))
# Non-ASCII ids, labels and spaces send the whole text to the line parser.
non_ascii = st.sampled_from(["é a", "a é", "a\u3000b", "a\x85b", "a b é", "é x", "# é"])

GRAPH = load_edge_list(["a b", "b c", "a c", "c d", "a\x00 b", "\x00 a#", "é a"])
# Graph edges either way round, then a non-edge, an unknown node and a self-loop.
pair = st.sampled_from([("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("d", "c"),
                        ("a\x00", "b"), ("a#", "\x00")] * 3
                       + [("a", "d"), ("a", "e"), ("b", "b")])


def lines_of(row):
    """Mostly well-formed data lines with the fields ``row`` draws, among
    lines of 0-4 fields, comments, blank lines and a rare non-ASCII line."""
    def join(parts):
        lead, fields, sep, trail = parts
        return lead + sep.join(fields) + trail

    good = st.tuples(margin, row, space, margin).map(join)
    wrong = st.tuples(margin, st.lists(st.one_of(node, label), max_size=4), space,
                      margin).map(join)
    comment = st.tuples(margin, st.text(st.characters(max_codepoint=127), max_size=6)).map(
        lambda t: t[0] + "#" + t[1])
    line = st.sampled_from(["good"] * 12 + ["wrong", "comment", "blank", "non-ASCII"]).flatmap(
        {"good": good, "wrong": wrong, "comment": comment, "blank": margin,
         "non-ASCII": non_ascii}.get)
    return st.lists(line, max_size=12)


def forms(lines, as_list):
    """The lines as a list of strings, or as one newline-terminated stream."""
    if as_list:
        return lambda: list(lines)
    return lambda: io.StringIO("\n".join(lines) + "\n")


def summary(result):
    """Every array and mapping a loader returns, as plain comparable values."""
    if isinstance(result, graph.Graph):
        return ("graph", result.ids, dict(result.index), result.edges.tolist(),
                result.edges.shape, result.adj_indptr.tolist(), result.adj_indices.tolist())
    first, second = result
    if isinstance(second, graph.LabeledEdgeSet):
        vocab, rows, owners = first, second, second.edges
        extra = second.num_edges
    else:
        vocab, rows, owners, extra = first.vocab, first, first.nodes, second
    return ("labels", vocab.labels, dict(vocab.index), owners.tolist(), owners.dtype,
            rows.targets.tolist(), rows.targets.shape, rows.targets.dtype, extra)


def outcome(parse, make, *args):
    try:
        return summary(parse(make(), *args))
    except EdgewalkError as exc:
        return type(exc), str(exc)


def check(loader, line_parser, lines, as_list, *args):
    make = forms(lines, as_list)
    expected = outcome(getattr(graph, line_parser), make, *args)
    parsed = isinstance(expected[0], str)
    if parsed and all(line.isascii() for line in lines):
        # Valid ASCII input: the bulk path alone must produce the result.
        with mock.patch.object(graph, line_parser, side_effect=AssertionError("line parser")):
            assert outcome(loader, make, *args) == expected
    else:
        assert outcome(loader, make, *args) == expected



@DIFF
@given(lines_of(st.tuples(node, node)), st.booleans())
def test_edge_list_matches_line_parser(lines, as_list):
    check(load_edge_list, "_edge_list_by_line", lines, as_list)


@DIFF
@given(lines_of(st.tuples(pair, label).map(lambda t: (*t[0], t[1]))), st.booleans())
def test_edge_labels_match_line_parser(lines, as_list):
    check(load_edge_labels, "_edge_labels_by_line", lines, as_list, GRAPH)


@DIFF
@given(lines_of(st.tuples(node, label)), st.booleans(), st.sampled_from(["error", "skip"]))
def test_node_labels_match_line_parser(lines, as_list, on_missing):
    check(load_node_labels, "_node_labels_by_line", lines, as_list, GRAPH.index, on_missing)


def test_trailing_nul_is_part_of_the_id():
    g = load_edge_list(io.StringIO("a b\na\x00 b\n"))
    assert g.ids == ("a", "b", "a\x00")
    assert g.num_nodes == 3 and g.num_edges == 2


def test_commented_ascii_file_takes_the_bulk_path():
    snap = ("# Undirected graph: example.txt\n# Nodes: 4 Edges: 3\n"
            "# FromNodeId\tToNodeId\n\n0\t1\n1\t2\r\n  \n2 3\n# end\n1 0\n")
    with mock.patch.object(graph, "_edge_list_by_line", side_effect=AssertionError):
        g = load_edge_list(io.StringIO(snap))
    assert g.ids == ("0", "1", "2", "3")
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_generator_of_lines():
    g = load_edge_list(f"n{i} n{i + 1}" for i in range(5))
    assert g.num_nodes == 6 and np.array_equal(g.degrees, [1, 2, 2, 2, 2, 1])
