"""Independent numeric oracles shared by the test modules.

These stay deliberately naive (elementwise loops, textbook formulas) so
they check the vectorized implementations from outside.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse

from edgewalk.errors import ConfigError, NumericsError, ParseError, ValidationError
from edgewalk.evaluation import (C1, C2, MAX_LINE_EVALS, MEMORY, SOLVER_F_TOL, SOLVER_GRAD_TOL,
                                 SOLVER_MAX_ITER, _cubic_min)
from edgewalk.graph import Graph, LabelSet
from edgewalk.params import _read_exact, _read_header
from edgewalk.relational import _clamped_bce

FD_STEP = 1e-5


def finite_difference(loss_fn, arrays, step=FD_STEP):
    """Central finite differences of loss_fn() w.r.t. each array (in place)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_fn()
            arr[idx] = orig - step
            down = loss_fn()
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(analytic, numeric, floor=1e-10):
    """Norm-wise relative disagreement between two gradient blocks."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / denom


def scatter_rows(rows, grads, shape):
    """Expand a sparse row gradient into a dense zero-filled array."""
    dense = np.zeros(shape)
    dense[rows] = grads
    return dense


def macro_f1_brute_force(true_sets, pred_sets):
    """Macro-F1 from explicit dense confusion matrices."""
    labels = sorted(set().union(*true_sets)) if true_sets else []
    if not labels:
        return 0.0
    n = len(true_sets)
    truth = np.zeros((n, len(labels)), dtype=int)
    pred = np.zeros((n, len(labels)), dtype=int)
    for i, (t, p) in enumerate(zip(true_sets, pred_sets)):
        for j, lab in enumerate(labels):
            truth[i, j] = lab in t
            pred[i, j] = lab in p
    tp = (truth & pred).sum(axis=0)
    fp = ((1 - truth) & pred).sum(axis=0)
    fn = (truth & (1 - pred)).sum(axis=0)
    f1 = np.zeros(len(labels))
    for j in range(len(labels)):
        p_j = tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0
        r_j = tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0
        f1[j] = 2 * p_j * r_j / (p_j + r_j) if p_j + r_j else 0.0
    return float(f1.mean())


# Reference implementations of formulas the package computes only in
# vectorized form; the tests check the vectorized paths against these.


def softmax_distribution(v, tables):
    """Full softmax over all context rows for center node v (O(num_nodes))."""
    scores = tables.context @ tables.center[v]
    scores = scores - scores.max()
    e = np.exp(scores)
    return e / e.sum()


def softmax_prob(u, v, tables):
    """Probability of context u given center v under the full softmax."""
    return float(softmax_distribution(v, tables)[u])


def extract_pairs(walk, window):
    """Enumerate every (center, context) pair of a walk within ``window``.

    For each position i, all (walk[i], walk[j]) with j != i and
    |i - j| <= window, truncated at the ends of the walk.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    length = len(walk)
    pairs = []
    for i in range(length):
        for j in range(max(i - window, 0), min(i + window, length - 1) + 1):
            if j != i:
                pairs.append((int(walk[i]), int(walk[j])))
    return pairs


def neighbors(graph, v):
    """The adjacency row of node ``v``."""
    return graph.adj_indices[graph.adj_indptr[v] : graph.adj_indptr[v + 1]]


def has_edge(graph, u, v):
    return int(v) in neighbors(graph, u).tolist()


def write_edge_list(graph, stream):
    """Write the graph back out in edge-list format (first-seen edge order)."""
    for u, v in graph.edges:
        stream.write(f"{graph.ids[u]} {graph.ids[v]}\n")


def write_embeddings_by_line(stream, ids, matrix):
    """The embedding file with one ``%.17g`` format per row, each value widened
    to a Python float: the bytes ``embedding_io.write_embeddings`` must give."""
    matrix = np.asarray(matrix)
    stream.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
    line = " ".join(["%.17g"] * matrix.shape[1]) + "\n"
    for name, row in zip(ids, matrix):
        stream.write(name + " " + line % tuple(row.tolist()))


def bce_loss(y, y_hat):
    """Multi-label binary cross-entropy, summed over labels, through the
    package's clamped formula."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValidationError(f"target shape {y.shape} != prediction shape {y_hat.shape}")
    return float(_clamped_bce(y, y_hat).sum())


def walks_reference(graph, walks_per_node, walk_length, seed):
    """Uniform walks stepped one walk and one node at a time.

    Consumes the draws ``generate_walks`` documents: one generator from
    ``SeedSequence(seed)``, and for each step one uniform per walk in row
    order, so walk ``row`` takes ``draws[step - 1][row]`` at ``step``.
    """
    num_walks = graph.num_nodes * walks_per_node
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = [rng.random(num_walks) for _ in range(walk_length - 1)]
    walks = []
    for row in range(num_walks):
        cur = row // walks_per_node
        walk = [cur]
        for step in range(1, walk_length):
            row_nbrs = neighbors(graph, cur)
            cur = int(row_nbrs[int(draws[step - 1][row] * len(row_nbrs))])
            walk.append(cur)
        walks.append(walk)
    return np.array(walks, dtype=np.int64)


def walks_by_line(stream, graph):
    """Reference reader for ``write_walks`` output: the header's fields as
    ints (walks_per_node, walk_length, seed) and the walks as node indices."""
    header, *rows = stream.read().splitlines()
    assert header.startswith("# "), header
    fields = {key: int(value) for key, value in (part.split("=") for part in header[2:].split())}
    return fields, np.array([[graph.index[t] for t in row.split()] for row in rows],
                            dtype=np.int64)


def compose_edge_embedding(u, v, tables):
    """Concatenate the center rows of min(u, v) and max(u, v)."""
    lo, hi = (u, v) if u < v else (v, u)
    return np.concatenate([tables.center[lo], tables.center[hi]])


def combined_loss(structural, relational_, lambda_):
    """Weighted total (1 - lambda) * structural + lambda * relational."""
    return (1.0 - lambda_) * structural + lambda_ * relational_


def top_k_reference(scores, k_per_node):
    """Per row, the k labels with the highest scores, ties to the lower index."""
    picks = []
    for row, k in zip(scores, k_per_node):
        ranked = sorted(range(len(row)), key=lambda j: (-row[j], j))
        picks.append(frozenset(ranked[:k]))
    return picks


def top_k_by_ranks(scores, k_per_node):
    """Bool top-k matrix from each label's rank, the rank found by argsorting
    the stable descending order; ties go to the lower index."""
    ranks = np.argsort(-scores, axis=1, kind="stable").argsort(axis=1)
    return ranks < np.asarray(k_per_node).reshape(-1, 1)


def accumulate_rows_reference(rows, grads, weights=None, sources=None):
    """Duplicate-row sums by ``np.unique`` and ``np.add.at`` into zeros.

    With ``weights`` and ``sources``, contribution i is first built as the
    row ``weights[i] * grads[sources[i]]``, as an (n, d) array.
    """
    if sources is not None:
        grads = weights[:, None] * grads[sources]
    unique, inverse = np.unique(rows, return_inverse=True)
    acc = np.zeros((len(unique), grads.shape[1]), dtype=grads.dtype)
    np.add.at(acc, inverse, grads)
    return unique, acc


def accumulate_rows_csr_product(rows, grads, weights=None, sources=None):
    """Duplicate-row sums through scipy's public ``csr_matrix(...) @ grads``: one
    matrix row per distinct row index, holding its contributions in order."""
    if sources is None:
        weights, sources = np.ones(len(rows), dtype=grads.dtype), np.arange(len(rows))
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    first = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    pick = scipy.sparse.csr_matrix((weights[order], sources[order], np.append(first, len(rows))),
                                   shape=(len(first), len(grads)))
    return ordered[first], pick @ grads


def update_rows_reference(optimizer, param, m, v, rows, grads, bc1, bc2, block):
    """Lazy Adam row update written out one formula per line; it stands in
    for ``AdamOptimizer._update_rows`` (same arguments, ``optimizer`` as self).
    ``rows`` None updates the whole array, of any shape."""
    if not np.isfinite(grads).all():
        raise NumericsError(f"non-finite gradient in parameter block {block!r}")
    at = slice(None) if rows is None else rows
    m[at] = optimizer.beta1 * m[at] + (1.0 - optimizer.beta1) * grads
    v[at] = optimizer.beta2 * v[at] + (1.0 - optimizer.beta2) * grads * grads
    m_hat = m[at] / bc1
    v_hat = v[at] / bc2
    param[at] -= optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)


# Line-at-a-time parsers for the three graph input formats. They read one
# stripped line after another, check it in a fixed order and raise at the
# first line that fails, so they give the result and the error message that
# the array-based loaders in ``edgewalk.graph`` must reproduce.


def _data_lines(lines):
    """Yield (line_number, fields) of each data line. A stream is split into
    lines at newlines only; any other iterable holds one line per string."""
    if hasattr(lines, "read"):
        lines = lines.read().split("\n")
    for n, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield n, line.split()


def _graph_of(index, edges):
    """A Graph from interned ids and (lo, hi) edges, with CSR rows built one
    node at a time."""
    nbrs = [[] for _ in index]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(ids=tuple(index), index=index,
                 edges=np.array(edges, dtype=np.int64).reshape(len(edges), 2),
                 adj_indptr=np.cumsum([0] + [len(row) for row in nbrs], dtype=np.int64),
                 adj_indices=np.array([w for row in nbrs for w in sorted(row)], dtype=np.int64))


def _check_labels(field, n):
    if "" in field.split(","):
        raise ValidationError(f"line {n}: empty label in {field!r}")


def _label_rows(rows):
    """The LabelSet of (owner, label field) pairs, labels in first-seen
    order."""
    vocab, per_owner = {}, {}
    for owner, field in rows:
        for name in field.split(","):
            per_owner.setdefault(owner, set()).add(vocab.setdefault(name, len(vocab)))
    owners = sorted(per_owner)
    targets = np.zeros((len(owners), len(vocab)), dtype=bool)
    for row, owner in enumerate(owners):
        targets[row, sorted(per_owner[owner])] = True
    return LabelSet(tuple(vocab), np.array(owners, dtype=np.int64), targets)


def edge_list_by_line(lines):
    """Reference for ``load_edge_list``."""
    index, edges = {}, []
    for n, fields in _data_lines(lines):
        if len(fields) != 2:
            raise ParseError(f"line {n}: expected 'src dst', got {len(fields)} fields")
        if fields[0] == fields[1]:
            raise ValidationError(f"line {n}: self-loop on node {fields[0]!r}")
        u, v = (index.setdefault(f, len(index)) for f in fields)
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges.append(key)
    return _graph_of(index, edges)


def edge_labels_by_line(lines, graph):
    """Reference for ``load_edge_labels``."""
    edge_of = {(u, v): k for k, (u, v) in enumerate(graph.edges.tolist())}
    rows = []
    for n, fields in _data_lines(lines):
        if len(fields) != 3:
            raise ParseError(f"line {n}: expected 'src dst labels', got {len(fields)} fields")
        src, dst, label_field = fields
        for name in (src, dst):
            if name not in graph.index:
                raise ValidationError(f"line {n}: unknown node {name!r}")
        u, v = graph.index[src], graph.index[dst]
        edge = edge_of.get((min(u, v), max(u, v)))
        if edge is None:
            raise ValidationError(f"line {n}: {src!r} {dst!r} is not an edge of the graph")
        _check_labels(label_field, n)
        rows.append((edge, label_field))
    return _label_rows(rows)


def node_labels_by_line(lines, index_of, on_missing="error"):
    """Reference for ``load_node_labels``."""
    rows, skipped = [], []
    for n, fields in _data_lines(lines):
        if len(fields) != 2:
            raise ParseError(f"line {n}: expected 'node labels', got {len(fields)} fields")
        token, label_field = fields
        if token not in index_of:
            if on_missing == "error":
                raise ValidationError(f"line {n}: unknown node {token!r}")
            skipped.append(token)
            continue
        _check_labels(label_field, n)
        rows.append((index_of[token], label_field))
    return _label_rows(rows), skipped


def minimize_reference(fun, x0, args=(), gtol=SOLVER_GRAD_TOL, maxiter=SOLVER_MAX_ITER,
                       events=None):
    """Reference for ``evaluation.minimize``: the same L-BFGS on one problem
    ``fun(x, *args) -> (value, gradient)`` of a vector ``x``, with its pairs in a
    deque. Adds to the Counter ``events`` the branches it takes."""
    note = (lambda name: None) if events is None else (lambda name: events.update([name]))
    x, pairs, nit = np.array(x0, dtype=np.float64), deque(maxlen=MEMORY), 0
    f, g = fun(x, *args)
    while nit < maxiter and np.abs(g).max() > gtol:
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        d *= 1.0 / (pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1])) if pairs else 1.0
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        slope = float(g @ d)
        if not slope < 0:                     # not a descent direction: restart
            note("restart")
            pairs.clear()
            d, slope = -g, -float(g @ g)
        step = 1.0 if nit else 1.0 / math.sqrt(-slope)
        lo, hi, widths = (0.0, float(f), slope), None, [math.inf, math.inf]
        for _ in range(MAX_LINE_EVALS):
            f_new, g_new = fun(x + step * d, *args)
            trial = (step, float(f_new), float(g_new @ d))
            if not trial[1] <= f + C1 * step * slope or trial[1] >= lo[1]:
                hi = trial
            elif abs(trial[2]) <= -C2 * slope:
                break
            else:
                if trial[2] * ((math.inf if hi is None else hi[0]) - step) >= 0:
                    hi = lo
                prev, lo = lo, trial
            if hi is None:                    # extrapolate by 1.1 to 4 times the last gain
                gain = step - prev[0]
                step = max(step + 1.1 * gain, min(step + 4.0 * gain, _cubic_min(*prev, *lo)))
            else:
                a, b = sorted((lo[0], hi[0]))
                step = _cubic_min(*lo, *hi)
                if not a < step < b or b - a > 0.66 * widths[-2]:
                    step = (a + b) / 2
                widths.append(b - a)
        else:
            note("line search exhausted")
            break                             # no step found; x is the best point seen
        s, y = trial[0] * d, g_new - g
        if s @ y > -np.finfo(np.float64).eps * trial[0] * slope:
            note("memory wrapped" if len(pairs) == MEMORY else "pair kept")
            pairs.append((s, y, 1.0 / (s @ y)))
        else:
            note("pair rejected")
        f_old, x, f, g, nit = f, x + s, trial[1], g_new, nit + 1
        if f_old - f <= SOLVER_F_TOL * max(abs(f_old), abs(f), 1.0):
            note("decrease stop")
            break
    if nit == 0 and not np.abs(g).max() > gtol:
        note("start meets gtol")
    return SimpleNamespace(x=x, fun=f, nit=nit)


# The whole-file checkpoint reader. The package reads only the center table
# back (``params.load_center``); this reader checks every array that
# ``params.save_checkpoint`` writes.


@dataclass
class Checkpoint:
    """Deserialized checkpoint contents."""

    center: np.ndarray
    context: np.ndarray
    mlp_weights: list[np.ndarray]
    mlp_biases: list[np.ndarray]
    adam: dict[str, np.ndarray]
    adam_t: int
    config: dict
    ids: list[str] = field(default_factory=list)


def load_checkpoint(path) -> Checkpoint:
    """Every array of the checkpoint at ``path``, in the header's order."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        loaded: dict[str, np.ndarray] = {}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            dtype = np.dtype(meta["dtype"])
            count = int(np.prod(shape)) if shape else 1
            data = _read_exact(fh, count * dtype.itemsize, path)
            loaded[meta["name"]] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    weights = [loaded[k] for k in sorted(loaded) if k.startswith("mlp_w")]
    biases = [loaded[k] for k in sorted(loaded) if k.startswith("mlp_b")]
    adam = {k: v for k, v in loaded.items() if k.startswith("adam_")}
    return Checkpoint(
        center=loaded["center"],
        context=loaded["context"],
        mlp_weights=weights,
        mlp_biases=biases,
        adam=adam,
        adam_t=header["adam_t"],
        config=header["config"],
        ids=header["ids"],
    )
