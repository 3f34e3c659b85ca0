"""Independent numeric oracles shared by the test modules.

These stay deliberately naive (elementwise loops, textbook formulas) so
they check the vectorized implementations from outside.
"""

import numpy as np

from edgewalk.errors import ConfigError

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
            neighbors = graph.neighbors(cur)
            cur = int(neighbors[int(draws[step - 1][row] * len(neighbors))])
            walk.append(cur)
        walks.append(walk)
    return np.array(walks, dtype=np.int64)


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
