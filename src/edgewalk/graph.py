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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    edge_index: Mapping[tuple[int, int], int]

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj_indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[v] : self.adj_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_index


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
    ids: list[str] = []
    index: dict[str, int] = {}
    edge_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []

    def intern(token: str) -> int:
        i = index.get(token)
        if i is None:
            i = len(ids)
            index[token] = i
            ids.append(token)
        return i

    for n, line in _data_lines(lines):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {n}: expected 'src dst', got {len(fields)} fields")
        if fields[0] == fields[1]:
            raise ValidationError(f"line {n}: self-loop on node {fields[0]!r}")
        u, v = intern(fields[0]), intern(fields[1])
        key = (min(u, v), max(u, v))
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)

    return _build_graph(ids, index, edges, edge_index)


def _build_graph(ids, index, edges, edge_index) -> Graph:
    num_nodes = len(ids)
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    # Each edge in both directions as one source-major key, sorted.
    u, v = edge_arr[:, 0], edge_arr[:, 1]
    keys = np.concatenate([u * num_nodes + v, v * num_nodes + u])
    keys.sort()
    indices = keys % num_nodes
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_arr.ravel(), minlength=num_nodes), out=indptr[1:])
    return Graph(
        ids=tuple(ids),
        index=index,
        edges=_frozen(edge_arr),
        adj_indptr=_frozen(indptr),
        adj_indices=_frozen(indices),
        edge_index=edge_index,
    )


def write_edge_list(graph: Graph, stream) -> None:
    """Write the graph back out in edge-list format (first-seen edge order)."""
    for u, v in graph.edges:
        stream.write(f"{graph.ids[u]} {graph.ids[v]}\n")


def _split_labels(field: str, n: int) -> list[str]:
    labels = field.split(",")
    if any(not lab for lab in labels):
        raise ValidationError(f"line {n}: empty label in {field!r}")
    return labels


def _label_arrays(pairs: list[tuple[int, str]]) -> tuple[LabelVocabulary, np.ndarray, np.ndarray]:
    """(vocabulary, sorted distinct owners, bool multi-hot rows) from parsed
    (owner index, label) pairs; the vocabulary is in first-seen order and
    repeated pairs collapse."""
    index: dict[str, int] = {}
    columns = [index.setdefault(lab, len(index)) for _, lab in pairs]
    owners = np.fromiter((owner for owner, _ in pairs), dtype=np.int64, count=len(pairs))
    keys, rows = np.unique(owners, return_inverse=True)
    targets = np.zeros((len(keys), len(index)), dtype=bool)
    targets[rows, columns] = True
    return LabelVocabulary(labels=tuple(index), index=index), _frozen(keys), _frozen(targets)


def load_edge_labels(lines: Iterable[str], graph: Graph) -> tuple[LabelVocabulary, LabeledEdgeSet]:
    """Parse an edge-label stream against ``graph``.

    Edges listed become the labeled part, with the union of all labels
    seen for an edge across lines; every other graph edge is unlabeled.
    The vocabulary is built from observed labels in first-seen order.
    """
    pairs: list[tuple[int, str]] = []
    for n, line in _data_lines(lines):
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {n}: expected 'src dst labels', got {len(fields)} fields")
        src, dst, label_field = fields
        try:
            u, v = graph.index[src], graph.index[dst]
        except KeyError as exc:
            raise ValidationError(f"line {n}: unknown node {exc.args[0]!r}") from None
        key = (min(u, v), max(u, v))
        edge = graph.edge_index.get(key)
        if edge is None:
            raise ValidationError(f"line {n}: {src!r} {dst!r} is not an edge of the graph")
        pairs.extend((edge, lab) for lab in _split_labels(label_field, n))

    vocab, edges, targets = _label_arrays(pairs)
    return vocab, LabeledEdgeSet(edges=edges, targets=targets, num_edges=graph.num_edges)


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
    pairs: list[tuple[int, str]] = []
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
        pairs.extend((node, lab) for lab in _split_labels(label_field, n))

    vocab, nodes, targets = _label_arrays(pairs)
    return NodeLabelSet(vocab=vocab, nodes=nodes, targets=targets), skipped
