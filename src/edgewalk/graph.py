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
    """Partition of edge indices into labeled and unlabeled parts.

    ``labeled`` maps an edge index to its non-empty set of label indices;
    ``unlabeled`` is every other edge index, computed on access.
    ``num_labels`` is the size of the vocabulary the label indices refer to.
    """

    labeled: Mapping[int, frozenset[int]]
    num_edges: int
    num_labels: int

    @property
    def num_labeled(self) -> int:
        return len(self.labeled)

    @property
    def unlabeled(self) -> frozenset[int]:
        return frozenset(range(self.num_edges)) - self.labeled.keys()


@dataclass(frozen=True)
class NodeLabelSet:
    """Per-node label sets over their own vocabulary (evaluation only)."""

    vocab: LabelVocabulary
    labels: Mapping[int, frozenset[int]]

    def __len__(self) -> int:
        return len(self.labels)


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


def load_edge_labels(lines: Iterable[str], graph: Graph) -> tuple[LabelVocabulary, LabeledEdgeSet]:
    """Parse an edge-label stream against ``graph``.

    Edges listed become the labeled part, with the union of all labels
    seen for an edge across lines; every other graph edge is unlabeled.
    The vocabulary is built from observed labels in first-seen order.
    """
    vocab_index: dict[str, int] = {}
    labeled: dict[int, set[int]] = {}

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
        for lab in _split_labels(label_field, n):
            labeled.setdefault(edge, set()).add(vocab_index.setdefault(lab, len(vocab_index)))

    vocab = LabelVocabulary(labels=tuple(vocab_index), index=vocab_index)
    labeled_frozen = {e: frozenset(labs) for e, labs in sorted(labeled.items())}
    return vocab, LabeledEdgeSet(
        labeled=labeled_frozen,
        num_edges=graph.num_edges,
        num_labels=len(vocab),
    )


def split_labeled_edges(
    edge_set: LabeledEdgeSet, train_fraction: float, seed: int
) -> tuple[LabeledEdgeSet, LabeledEdgeSet]:
    """Randomly partition the labeled edges into train and validation parts.

    The train part receives ``ceil(train_fraction * num_labeled)`` edges.
    Deterministic for a fixed seed.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if not edge_set.labeled:
        raise ValidationError("cannot split an empty labeled edge set")
    keys = sorted(edge_set.labeled)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(keys))
    n_train = math.ceil(train_fraction * len(keys))
    train_keys = sorted(keys[i] for i in perm[:n_train])
    val_keys = sorted(keys[i] for i in perm[n_train:])

    def subset(selected: list[int]) -> LabeledEdgeSet:
        return LabeledEdgeSet(
            labeled={e: edge_set.labeled[e] for e in selected},
            num_edges=edge_set.num_edges,
            num_labels=edge_set.num_labels,
        )

    return subset(train_keys), subset(val_keys)


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
    vocab_index: dict[str, int] = {}
    labels: dict[int, set[int]] = {}
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
        for lab in _split_labels(label_field, n):
            labels.setdefault(node, set()).add(vocab_index.setdefault(lab, len(vocab_index)))

    vocab = LabelVocabulary(labels=tuple(vocab_index), index=vocab_index)
    frozen = {v: frozenset(labs) for v, labs in sorted(labels.items())}
    return NodeLabelSet(vocab=vocab, labels=frozen), skipped
