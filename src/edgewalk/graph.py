"""Undirected graph store plus the partially labeled edge partition.

Input formats (fields separated by arbitrary whitespace, ``#`` starts a
comment line, blank lines ignored):

* edge list:    ``src dst``
* edge labels:  ``src dst label1[,label2,...]``  (the pair must be a graph edge)
* node labels:  ``node label1[,label2,...]``     (its own, separate vocabulary)

Node ids are arbitrary tokens and are interned to dense indices in
first-seen order, so repeated loads of the same file produce identical
index assignments. All structures here are immutable after load and safe
to share across threads.

Each loader parses ASCII text in bulk with array operations; non-ASCII text
and malformed input go through a line parser, which names the bad line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, ParseError, ValidationError


def _data_lines(lines: Iterable[str]):
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    for n, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield n, line


# The ASCII characters that str.split() and str.strip() treat as whitespace.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _parse(lines, width: int, bulk, by_line, *args):
    """Parse ``lines`` with ``bulk`` when the text allows it, else with ``by_line``.

    A stream is read whole and split into lines at ``\\n``; any other
    iterable holds one line per string. ``bulk`` gets the fields of the data
    lines as one flat list, and only when the text is ASCII and every data
    line has ``width`` fields; it returns None when one of its own checks
    fails. ``by_line`` then parses the same lines, so an error keeps its
    message and line number, and non-ASCII text gets the same result.
    """
    if hasattr(lines, "read"):
        text, ends, lines = lines.read(), None, None
    else:
        lines = list(lines)
        text = "\n".join(lines)
        ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1) - 1
    fields = _data_fields(text, ends, width)
    result = None if fields is None else bulk(fields, *args)
    if result is None:
        result = by_line(text.split("\n") if lines is None else lines, *args)
    return result


def _data_fields(text: str, ends, width: int) -> list[str] | None:
    """The fields of the data lines of ``text`` in order, or None when the text
    is not ASCII or a data line has other than ``width`` fields. ``ends``
    holds the offset that ends each line; None means at each newline."""
    if not text.isascii():
        return None
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _SPACE[codes]
    is_start = ~space
    is_start[1:] &= space[:-1]
    starts = np.flatnonzero(is_start)
    line = np.searchsorted(np.flatnonzero(codes == 10) if ends is None else ends, starts)
    first = np.flatnonzero(np.diff(line, prepend=-1))
    widths = np.diff(first, append=len(starts))
    comment = codes[starts[first]] == ord("#")
    if (widths[~comment] != width).any():
        return None
    fields = text.split()
    if comment.any():
        fields = list(compress(fields, np.repeat(~comment, widths).tolist()))
    return fields


def _intern(names: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """Dense codes in first-seen order: (name -> code, the code of each name)."""
    index = dict(zip(dict.fromkeys(names), count()))
    return index, np.fromiter(map(index.__getitem__, names), np.int64, len(names))


def _lookup(index_of: Mapping[str, int], names: list[str]) -> np.ndarray:
    """The index of each name, -1 where ``index_of`` has none."""
    return np.fromiter(map(index_of.get, names, repeat(-1)), np.int64, len(names))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with dense node indices.

    ``edges[k] = (u, v)`` with ``u < v``, in first-seen order. Adjacency is
    CSR-shaped: the neighbors of ``v`` are
    ``adj_indices[adj_indptr[v]:adj_indptr[v+1]]``, sorted ascending and
    duplicate free.
    """

    ids: tuple[str, ...]
    index: Mapping[str, int]
    edges: np.ndarray
    adj_indptr: np.ndarray
    adj_indices: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj_indptr)


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered set of distinct label strings; index is stable for a run."""

    labels: tuple[str, ...]
    index: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LabeledEdgeSet:
    """The labeled edges of a graph with ``num_edges`` edges, as arrays.

    ``edges`` holds the labeled edge indices, sorted ascending (int64);
    row ``i`` of the bool multi-hot matrix ``targets`` marks the label
    indices of ``edges[i]``, one column per vocabulary entry, at least one
    set per row. Every other edge index is unlabeled.
    """

    edges: np.ndarray
    targets: np.ndarray
    num_edges: int

    @property
    def num_labeled(self) -> int:
        return len(self.edges)

    @property
    def num_labels(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class NodeLabelSet:
    """Per-node labels over their own vocabulary (evaluation only).

    ``nodes`` holds the labeled node indices, sorted ascending (int64);
    row ``i`` of the bool multi-hot matrix ``targets`` (one column per
    ``vocab`` entry) marks the labels of ``nodes[i]``.
    """

    vocab: LabelVocabulary
    nodes: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse an edge-list stream into a :class:`Graph`.

    Duplicate lines and reversed duplicates collapse to one edge.
    Raises :class:`ParseError` for lines without exactly two fields and
    :class:`ValidationError` for self-loops.
    """
    return _parse(lines, 2, _edge_list_from_fields, _edge_list_by_line)


def _edge_list_from_fields(fields: list[str]) -> Graph | None:
    index, ends = _intern(fields)
    u, v = ends[0::2], ends[1::2]
    if (u == v).any():
        return None
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # Each edge's first line, found through its sorted key lo * n + hi.
    _, first = np.unique(lo * len(index) + hi, return_index=True)
    first.sort()
    return _build_graph(index, np.stack([lo[first], hi[first]], axis=1))


def _edge_list_by_line(lines: Iterable[str]) -> Graph:
    index: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for n, line in _data_lines(lines):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {n}: expected 'src dst', got {len(fields)} fields")
        if fields[0] == fields[1]:
            raise ValidationError(f"line {n}: self-loop on node {fields[0]!r}")
        u, v = (index.setdefault(f, len(index)) for f in fields)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return _build_graph(index, np.asarray(edges, dtype=np.int64).reshape(len(edges), 2))


def _build_graph(index: dict[str, int], edge_arr: np.ndarray) -> Graph:
    num_nodes = len(index)
    # Each edge in both directions as one source-major key, sorted.
    u, v = edge_arr[:, 0], edge_arr[:, 1]
    keys = np.concatenate([u * num_nodes + v, v * num_nodes + u])
    keys.sort()
    indices = keys % num_nodes
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_arr.ravel(), minlength=num_nodes), out=indptr[1:])
    return Graph(
        ids=tuple(index),
        index=index,
        edges=_frozen(edge_arr),
        adj_indptr=_frozen(indptr),
        adj_indices=_frozen(indices),
    )


def _check_labels(field: str, n: int) -> None:
    if "" in field.split(","):
        raise ValidationError(f"line {n}: empty label in {field!r}")


def _label_arrays(owners: np.ndarray, label_fields: list[str]):
    """(vocabulary, sorted distinct owners, bool multi-hot rows) from each
    row's owner index (int64) and comma-separated label field, or None when
    a label is empty. The vocabulary is in first-seen order and repeated
    pairs collapse."""
    labels = ",".join(label_fields).split(",") if label_fields else []
    if "" in labels:
        return None
    per_row = np.fromiter(map(str.count, label_fields, repeat(",")), np.int64, len(label_fields))
    index, columns = _intern(labels)
    keys, rows = np.unique(np.repeat(owners, per_row + 1), return_inverse=True)
    targets = np.zeros((len(keys), len(index)), dtype=bool)
    targets[rows, columns] = True
    return LabelVocabulary(labels=tuple(index), index=index), _frozen(keys), _frozen(targets)


def load_edge_labels(lines: Iterable[str], graph: Graph) -> tuple[LabelVocabulary, LabeledEdgeSet]:
    """Parse an edge-label stream against ``graph``.

    Edges listed become the labeled part, with the union of all labels
    seen for an edge across lines; every other graph edge is unlabeled.
    The vocabulary is built from observed labels in first-seen order.
    """
    return _parse(lines, 3, _edge_labels_from_fields, _edge_labels_by_line, graph)


def _labeled_edges(arrays, graph: Graph):
    if arrays is None:
        return None
    vocab, edges, targets = arrays
    return vocab, LabeledEdgeSet(edges=edges, targets=targets, num_edges=graph.num_edges)


def _edge_labels_from_fields(fields: list[str], graph: Graph):
    u, v = _lookup(graph.index, fields[0::3]), _lookup(graph.index, fields[1::3])
    if (u < 0).any() or (v < 0).any():
        return None
    # Edge indices through the sorted edge keys lo * n + hi.
    n = graph.num_nodes
    keys = graph.edges[:, 0] * n + graph.edges[:, 1]
    order = np.argsort(keys)
    wanted = np.minimum(u, v) * n + np.maximum(u, v)
    at = order[np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)]
    if (keys[at] != wanted).any():
        return None
    return _labeled_edges(_label_arrays(at, fields[2::3]), graph)


def _edge_labels_by_line(lines: Iterable[str], graph: Graph):
    edge_of = {(u, v): k for k, (u, v) in enumerate(graph.edges.tolist())}
    edges: list[int] = []
    label_fields: list[str] = []
    for n, line in _data_lines(lines):
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {n}: expected 'src dst labels', got {len(fields)} fields")
        src, dst, label_field = fields
        try:
            u, v = graph.index[src], graph.index[dst]
        except KeyError as exc:
            raise ValidationError(f"line {n}: unknown node {exc.args[0]!r}") from None
        edge = edge_of.get((min(u, v), max(u, v)))
        if edge is None:
            raise ValidationError(f"line {n}: {src!r} {dst!r} is not an edge of the graph")
        _check_labels(label_field, n)
        edges.append(edge)
        label_fields.append(label_field)
    return _labeled_edges(_label_arrays(np.asarray(edges, dtype=np.int64), label_fields), graph)


def split_labeled_edges(
    edge_set: LabeledEdgeSet, train_fraction: float, seed: int
) -> tuple[LabeledEdgeSet, LabeledEdgeSet]:
    """Randomly partition the labeled edges into train and validation parts.

    The train part receives ``ceil(train_fraction * num_labeled)`` edges;
    both parts keep the ascending edge order. Deterministic for a fixed seed.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if not edge_set.num_labeled:
        raise ValidationError("cannot split an empty labeled edge set")
    perm = np.random.default_rng(seed).permutation(edge_set.num_labeled)
    n_train = math.ceil(train_fraction * edge_set.num_labeled)

    def subset(rows: np.ndarray) -> LabeledEdgeSet:
        rows = np.sort(rows)
        return LabeledEdgeSet(edges=_frozen(edge_set.edges[rows]),
                              targets=_frozen(edge_set.targets[rows]),
                              num_edges=edge_set.num_edges)

    return subset(perm[:n_train]), subset(perm[n_train:])


def load_node_labels(
    lines: Iterable[str],
    index_of: Mapping[str, int],
    on_missing: str = "error",
) -> tuple[NodeLabelSet, list[str]]:
    """Parse a node-label stream keyed by ``index_of`` (id -> dense index).

    ``on_missing`` controls what happens for ids absent from ``index_of``:
    ``"error"`` raises, ``"skip"`` collects them in the returned list and
    moves on. Labels for a node listed on several lines are unioned.
    """
    if on_missing not in ("error", "skip"):
        raise ConfigError(f"on_missing must be 'error' or 'skip', got {on_missing!r}")
    return _parse(lines, 2, _node_labels_from_fields, _node_labels_by_line, index_of,
                  on_missing)


def _labeled_nodes(arrays, skipped: list[str]):
    if arrays is None:
        return None
    vocab, nodes, targets = arrays
    return NodeLabelSet(vocab=vocab, nodes=nodes, targets=targets), skipped


def _node_labels_from_fields(fields: list[str], index_of: Mapping[str, int], on_missing: str):
    names, label_fields = fields[0::2], fields[1::2]
    nodes = _lookup(index_of, names)
    found = nodes >= 0
    skipped: list[str] = []
    if not found.all():
        if on_missing == "error":
            return None
        skipped = list(compress(names, (~found).tolist()))
        label_fields = list(compress(label_fields, found.tolist()))
    return _labeled_nodes(_label_arrays(nodes[found], label_fields), skipped)


def _node_labels_by_line(lines: Iterable[str], index_of: Mapping[str, int], on_missing: str):
    nodes: list[int] = []
    label_fields: list[str] = []
    skipped: list[str] = []
    for n, line in _data_lines(lines):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {n}: expected 'node labels', got {len(fields)} fields")
        token, label_field = fields
        node = index_of.get(token)
        if node is None:
            if on_missing == "error":
                raise ValidationError(f"line {n}: unknown node {token!r}")
            skipped.append(token)
            continue
        _check_labels(label_field, n)
        nodes.append(node)
        label_fields.append(label_field)
    return _labeled_nodes(_label_arrays(np.asarray(nodes, dtype=np.int64), label_fields), skipped)
