"""The array loaders against the line parsers in ``oracles``.

For every input, a loader and its line parser must give the same arrays or
raise the same error type with the same message.
"""

import io
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgewalk import graph
from edgewalk.errors import EdgewalkError, ParseError, ValidationError
from edgewalk.graph import load_edge_labels, load_edge_list, load_node_labels
from oracles import edge_labels_by_line, edge_list_by_line, node_labels_by_line

DIFF = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Whitespace to str.split() beyond ASCII. "\x85", "\u2028" and "\u2029" also
# end a line for str.splitlines(), but the loaders split lines at "\n" only.
UNICODE_SPACE = ["\x85", "\xa0", "\u1680", *map(chr, range(0x2000, 0x200B)), "\u2028",
                 "\u2029", "\u202f", "\u205f", "\u3000"]
ASTRAL = "\U0001d538"

# Mostly valid values, so that many inputs parse; "e" is not in GRAPH below.
node = st.sampled_from(["a", "b", "c", "d", "a\x00", "\x00", "#a", "a#", "é", ASTRAL] * 3
                       + ["e"])
label = st.sampled_from(["x", "y", "x,y", "y,x,x", "#", "x\x00", "é", "x," + ASTRAL] * 3
                        + ["x,,y", ",x", "x,", ","])
# Whitespace as str.split() sees it, half of it ASCII, and a newline inside
# a list item.
space = st.one_of(
    st.sampled_from([" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", " \t ", "\n"]),
    st.sampled_from(UNICODE_SPACE))
margin = st.one_of(space, st.just(""))
# Free text over non-ASCII ids, Unicode spaces, a lone surrogate, commas and
# comment marks.
non_ascii = st.one_of(
    st.sampled_from(["é a", "a é", "a b é", "é x", "# é", f"{ASTRAL} b x", "é\u3000a\u2028x"]),
    st.text(st.sampled_from(["a", "b", "é", ASTRAL, "\ud800", "#", ",", "x", " "]
                            + UNICODE_SPACE), max_size=8))

GRAPH = load_edge_list(["a b", "b c", "a c", "c d", "a\x00 b", "\x00 a#", "é a", f"{ASTRAL} b"])
# Graph edges either way round, then a non-edge, an unknown node and a self-loop.
pair = st.sampled_from([("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("d", "c"),
                        ("a\x00", "b"), ("a#", "\x00"), ("a", "é"), ("b", ASTRAL)] * 3
                       + [("a", "d"), ("a", "e"), ("b", "b")])


def lines_of(row):
    """Mostly well-formed data lines with the fields ``row`` draws, among
    lines of 0-4 fields, comments, blank lines and non-ASCII lines."""
    def join(parts):
        lead, fields, sep, trail = parts
        return lead + sep.join(fields) + trail

    good = st.tuples(margin, row, space, margin).map(join)
    wrong = st.tuples(margin, st.lists(st.one_of(node, label), max_size=4), space,
                      margin).map(join)
    comment = st.tuples(margin, st.text(max_size=6)).map(
        lambda t: t[0] + "#" + t[1])
    line = st.sampled_from(["good"] * 12 + ["wrong", "comment", "blank"]
                           + ["non-ASCII"] * 4).flatmap(
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
    label_set, skipped = result if isinstance(result, tuple) else (result, None)
    return ("labels", label_set.labels, label_set.owners.tolist(), label_set.owners.dtype,
            label_set.targets.tolist(), label_set.targets.shape, label_set.targets.dtype, skipped)


def outcome(parse, make, *args):
    try:
        return summary(parse(make(), *args))
    except EdgewalkError as exc:
        return type(exc), str(exc)


def check(loader, line_parser, lines, as_list, *args):
    make = forms(lines, as_list)
    assert outcome(loader, make, *args) == outcome(line_parser, make, *args)


@DIFF
@given(lines_of(st.tuples(node, node)), st.booleans())
def test_edge_list_matches_line_parser(lines, as_list):
    check(load_edge_list, edge_list_by_line, lines, as_list)


@DIFF
@given(lines_of(st.tuples(pair, label).map(lambda t: (*t[0], t[1]))), st.booleans())
def test_edge_labels_match_line_parser(lines, as_list):
    check(load_edge_labels, edge_labels_by_line, lines, as_list, GRAPH)


@DIFF
@given(lines_of(st.tuples(node, label)), st.booleans(), st.sampled_from(["error", "skip"]))
def test_node_labels_match_line_parser(lines, as_list, on_missing):
    check(load_node_labels, node_labels_by_line, lines, as_list, GRAPH.index, on_missing)


def test_whitespace_table_marks_every_space():
    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert max(spaces) < len(graph._SPACE) - 1
    assert np.flatnonzero(graph._SPACE).tolist() == spaces
    assert not graph._SPACE[-1]
    # One table length above a space is no space: a lookup that wrapped
    # around instead of clipping would split this id in two.
    word = "a" + chr(len(graph._SPACE) + ord(" ")) + "b"
    assert load_edge_list([f"{word} c"]).ids == (word, "c")


def error_of(call):
    with pytest.raises(EdgewalkError) as info:
        call()
    return info.type, str(info.value)


def wrong_count(n, form, got):
    return ParseError, f"line {n}: expected {form!r}, got {got} fields"


def invalid(n, message):
    return ValidationError, f"line {n}: {message}"


# Each input has its error on its earliest bad line, and on that line the
# first check a line parser makes.
@pytest.mark.parametrize("text, error", [
    ("a b c\nb b\n", wrong_count(1, "src dst", 3)),
    ("b b\na b c\n", invalid(1, "self-loop on node 'b'")),
    ("a b\n# x\nc\nd d\n", wrong_count(3, "src dst", 1)),
    ("b b b\n", wrong_count(1, "src dst", 3)),
])
def test_edge_list_error_precedence(text, error):
    assert error_of(lambda: load_edge_list(io.StringIO(text))) == error


@pytest.mark.parametrize("text, error", [
    ("a b\nz b x\n", wrong_count(1, "src dst labels", 2)),
    ("z b x\na b\n", invalid(1, "unknown node 'z'")),
    ("a b ,\nz b x\n", invalid(1, "empty label in ','")),
    ("z b x\na b ,\n", invalid(1, "unknown node 'z'")),
    ("a b x\na d x\nb z x\n", invalid(2, "'a' 'd' is not an edge of the graph")),
    ("z y ,\n", invalid(1, "unknown node 'z'")),
    ("a y ,\n", invalid(1, "unknown node 'y'")),
    ("a d ,\n", invalid(1, "'a' 'd' is not an edge of the graph")),
])
def test_edge_labels_error_precedence(text, error):
    assert error_of(lambda: load_edge_labels(io.StringIO(text), GRAPH)) == error


def test_edge_labels_against_an_empty_graph():
    empty = load_edge_list([])
    assert error_of(lambda: load_edge_labels(["# c", "a b x"], empty)) == invalid(
        2, "unknown node 'a'")
    assert error_of(lambda: load_edge_labels(["a b"], empty)) == wrong_count(
        1, "src dst labels", 2)
    edge_set = load_edge_labels(["# c"], empty)
    assert edge_set.num_labels == 0 and edge_set.num_labeled == 0


@pytest.mark.parametrize("text, on_missing, error", [
    ("a\nz x\n", "error", wrong_count(1, "node labels", 1)),
    ("z x\na\n", "error", invalid(1, "unknown node 'z'")),
    ("z ,\n", "error", invalid(1, "unknown node 'z'")),
    ("a ,\nz x\n", "error", invalid(1, "empty label in ','")),
    ("z x\na ,\n", "error", invalid(1, "unknown node 'z'")),
    ("z ,\na x,\nb\n", "skip", invalid(2, "empty label in 'x,'")),
    ("z ,\na x\nb\n", "skip", wrong_count(3, "node labels", 1)),
])
def test_node_labels_error_precedence(text, on_missing, error):
    assert error_of(lambda: load_node_labels(io.StringIO(text), GRAPH.index,
                                             on_missing)) == error


def test_trailing_nul_is_part_of_the_id():
    g = load_edge_list(io.StringIO("a b\na\x00 b\n"))
    assert g.ids == ("a", "b", "a\x00")
    assert g.num_nodes == 3 and g.num_edges == 2


def test_commented_snap_file():
    snap = ("# Undirected graph: example.txt\n# Nodes: 4 Edges: 3\n"
            "# FromNodeId\tToNodeId\n\n0\t1\n1\t2\r\n  \n2 3\n# end\n1 0\n")
    g = load_edge_list(io.StringIO(snap))
    assert g.ids == ("0", "1", "2", "3")
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_generator_of_lines():
    g = load_edge_list(f"n{i} n{i + 1}" for i in range(5))
    assert g.num_nodes == 6 and np.array_equal(g.degrees, [1, 2, 2, 2, 2, 1])
