"""Undirected graph store plus the label sets of its edges and nodes.

Input formats (fields separated by any run of whitespace, which is what
``str.split()`` sees, Unicode included; ``#`` starts a comment line, blank
lines ignored):

* edge list:    ``src dst``
* edge labels:  ``src dst label1[,label2,...]``  (the pair must be a graph edge)
* node labels:  ``node label1[,label2,...]``     (its own, separate vocabulary)

Node ids are arbitrary tokens and are interned to dense indices in
first-seen order, so repeated loads of the same file produce identical
index assignments. Each label file loads as one :class:`LabelSet`: the
sorted labeled edge or node indices with a multi-hot row over the file's
labels. All structures here are immutable after load and safe to share
across threads.

Each loader parses its whole input with array operations in one path. A
malformed input raises the error of its earliest bad line, named by number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, ParseError, ValidationError


# Whether each code point is whitespace to str.split() and str.strip(). None
# lies above U+3000, so higher codes clip to the last entry, which is not.
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


def _data_fields(lines, form: str):
    """Split the data lines of ``lines`` into fields, as str.split() does.

    A stream is read whole and split into lines at ``\\n``; any other
    iterable holds one line per string. Blank lines and lines whose first
    field starts with ``#`` hold no data. Returns the fields of the data
    lines that have as many fields as ``form`` names, as one flat list; the
    number of each such line; and, for the first data line with another
    count, its number and the :class:`ParseError` it raises (else None).
    """
    if hasattr(lines, "read"):
        text, ends = lines.read(), None
    else:
        lines = list(lines)
        text = "\n".join(lines)
        ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1) - 1
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    space = _SPACE.take(codes, mode="clip")
    is_start = ~space
    is_start[1:] &= space[:-1]
    starts = np.flatnonzero(is_start)
    line = np.searchsorted(np.flatnonzero(codes == 10) if ends is None else ends, starts) + 1
    first = np.flatnonzero(np.diff(line, prepend=0))
    widths = np.diff(first, append=len(starts))
    data = codes[starts[first]] != ord("#")
    good = data & (widths == len(form.split()))
    fields, bad = text.split(), None
    if not good.all():
        fields = list(compress(fields, np.repeat(good, widths).tolist()))
        wrong = np.flatnonzero(data & ~good)
        if len(wrong):
            n, got = line[first[wrong[0]]], widths[wrong[0]]
            bad = n, ParseError(f"line {n}: expected {form!r}, got {got} fields")
    return fields, line[first[good]], bad


def _first(failed: np.ndarray) -> int:
    """The first row where ``failed`` is set, or the row count if none is."""
    return int(failed.argmax()) if failed.any() else len(failed)


def _raise_first(line_no: np.ndarray, bad, *checks) -> None:
    """Raise the error of the earliest line that fails a check, if any.

    Each check pairs the first row that fails it (see :func:`_first`) with a
    function giving that row's message, in the order a line is checked; a
    failed check raises :class:`ValidationError`. ``bad`` is the number and
    error of the first data line with the wrong field count, or None.
    """
    row = min(r for r, _ in checks)
    if row < len(line_no) and (bad is None or line_no[row] < bad[0]):
        message = next(m for r, m in checks if r == row)
        raise ValidationError(f"line {line_no[row]}: {message(row)}")
    if bad is not None:
        raise bad[1]


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
class LabelSet:
    """The labeled edges or nodes of a graph, as arrays: the ``labels`` in
    first-seen order, the labeled indices ``owners`` (sorted, int64), and
    the bool multi-hot ``targets``, whose row ``i`` marks the labels of
    ``owners[i]``, at least one. Every other index is unlabeled."""

    labels: tuple[str, ...]
    owners: np.ndarray
    targets: np.ndarray

    @property
    def num_labeled(self) -> int:
        return len(self.owners)

    @property
    def num_labels(self) -> int:
        return len(self.labels)


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse an edge-list stream into a :class:`Graph`.

    Duplicate lines and reversed duplicates collapse to one edge.
    Raises :class:`ParseError` for lines without exactly two fields and
    :class:`ValidationError` for self-loops.
    """
    fields, line_no, bad = _data_fields(lines, "src dst")
    index, ends = _intern(fields)
    # The graph keeps fresh copies of its ids, not the first-seen tokens of
    # the split: those are spread over every arena of the parse, and holding
    # them would keep all those arenas once the other tokens are freed.
    index = dict(zip(" ".join(index).split(" "), index.values()))
    u, v = ends[0::2], ends[1::2]
    _raise_first(line_no, bad, (_first(u == v), lambda r: f"self-loop on node {fields[2 * r]!r}"))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # Each edge's first line, found through its sorted key lo * n + hi.
    _, first = np.unique(lo * len(index) + hi, return_index=True)
    first.sort()
    return _build_graph(index, np.stack([lo[first], hi[first]], axis=1))


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


def _label_set(owners: np.ndarray, label_fields: list[str]) -> tuple[LabelSet | None, int]:
    """The :class:`LabelSet` of each row's owner index (int64) and
    comma-separated label field, with the row count; or None with the first
    row that holds an empty label. Repeated pairs collapse."""
    labels = ",".join(label_fields).split(",") if label_fields else []
    per_row = np.fromiter(map(str.count, label_fields, repeat(",")), np.int64, len(label_fields))
    if "" in labels:
        return None, int(np.searchsorted(np.cumsum(per_row + 1), labels.index(""), side="right"))
    index, columns = _intern(labels)
    keys, rows = np.unique(np.repeat(owners, per_row + 1), return_inverse=True)
    targets = np.zeros((len(keys), len(index)), dtype=bool)
    targets[rows, columns] = True
    return LabelSet(tuple(index), _frozen(keys), _frozen(targets)), len(label_fields)


def load_edge_labels(lines: Iterable[str], graph: Graph) -> LabelSet:
    """Parse an edge-label stream against ``graph`` into a :class:`LabelSet`.

    Edges listed become the labeled part, with the union of all labels
    seen for an edge across lines; every other graph edge is unlabeled.
    The labels are the observed ones, in first-seen order.
    """
    fields, line_no, bad = _data_fields(lines, "src dst labels")
    src, dst, label_fields = fields[0::3], fields[1::3], fields[2::3]
    u, v = _lookup(graph.index, src), _lookup(graph.index, dst)
    # Edge indices through the sorted edge keys lo * n + hi. The last key,
    # n * n, belongs to no pair and keeps every search inside the array.
    n = graph.num_nodes
    keys = np.append(graph.edges[:, 0] * n + graph.edges[:, 1], n * n)
    order = np.argsort(keys)
    wanted = np.minimum(u, v) * n + np.maximum(u, v)
    at = order[np.searchsorted(keys[order], wanted)]
    label_set, empty = _label_set(at, label_fields)
    _raise_first(
        line_no, bad,
        (_first(u < 0), lambda r: f"unknown node {src[r]!r}"),
        (_first(v < 0), lambda r: f"unknown node {dst[r]!r}"),
        (_first(keys[at] != wanted),
         lambda r: f"{src[r]!r} {dst[r]!r} is not an edge of the graph"),
        (empty, lambda r: f"empty label in {label_fields[r]!r}"))
    return label_set


def split_labeled_edges(edge_set: LabelSet, train_fraction: float,
                        seed: int) -> tuple[LabelSet, LabelSet]:
    """Randomly partition the labeled edges into train and validation parts.

    The train part receives ``ceil(train_fraction * num_labeled)`` edges;
    both parts keep the ascending edge order and all of ``edge_set``'s
    labels. Deterministic for a fixed seed.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if not edge_set.num_labeled:
        raise ValidationError("cannot split an empty labeled edge set")
    perm = np.random.default_rng(seed).permutation(edge_set.num_labeled)
    n_train = math.ceil(train_fraction * edge_set.num_labeled)

    def subset(rows: np.ndarray) -> LabelSet:
        rows = np.sort(rows)
        return LabelSet(edge_set.labels, _frozen(edge_set.owners[rows]),
                        _frozen(edge_set.targets[rows]))

    return subset(perm[:n_train]), subset(perm[n_train:])


def load_node_labels(lines: Iterable[str], index_of: Mapping[str, int],
                     on_missing: str = "error") -> tuple[LabelSet, list[str]]:
    """Parse a node-label stream keyed by ``index_of`` (id -> dense index).

    Returns the :class:`LabelSet` of the known nodes and the skipped ids.
    ``on_missing`` controls what happens for ids absent from ``index_of``:
    ``"error"`` raises, ``"skip"`` collects them in the returned list and
    moves on. Labels for a node listed on several lines are unioned.
    """
    if on_missing not in ("error", "skip"):
        raise ConfigError(f"on_missing must be 'error' or 'skip', got {on_missing!r}")
    fields, line_no, bad = _data_fields(lines, "node labels")
    names, label_fields = fields[0::2], fields[1::2]
    nodes = _lookup(index_of, names)
    found = nodes >= 0
    kept = np.flatnonzero(found)
    # A skipped node's labels are not checked.
    label_set, empty = _label_set(nodes[kept], list(compress(label_fields, found.tolist())))
    _raise_first(
        line_no, bad,
        (_first(~found) if on_missing == "error" else len(names),
         lambda r: f"unknown node {names[r]!r}"),
        (kept[empty] if label_set is None else len(names),
         lambda r: f"empty label in {label_fields[r]!r}"))
    return label_set, list(compress(names, (~found).tolist()))
