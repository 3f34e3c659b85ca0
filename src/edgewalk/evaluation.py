"""Multi-label node-classification harness.

Protocol: sample a fraction of the nodes as training data, fit one-vs-rest
L2-regularized logistic regression on their embeddings (numpy L-BFGS over all
labels of all repeats of a train ratio at once, ``minimize``), predict labels
for the remaining nodes, and report Macro-F1.
Each node's prediction keeps the top-k scoring labels where k is that node's
true label count (ties broken toward the lower label index), which makes
scores comparable across methods that produce probabilities on different
scales. The split/fit/score cycle is repeated with fresh seeded splits and
the per-ratio mean and standard deviation are reported.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, ValidationError
from .numerics import softplus

log = logging.getLogger(__name__)

SOLVER_GRAD_TOL = 1e-6
SOLVER_MAX_ITER = 1000
SOLVER_F_TOL = 1e7 * np.finfo(np.float64).eps   # L-BFGS-B's default factr times eps
MEMORY = 10                                      # correction pairs kept (L-BFGS-B's maxcor)
C1, C2 = 1e-4, 0.9                               # strong Wolfe constants
MAX_LINE_EVALS = 20                              # objective evaluations per line search


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic with values and slopes at steps a and b, or nan."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b) if a != b else math.nan
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    den = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / den if den else math.nan


def _line_search(f, slope, step):
    """Strong Wolfe search of one row from value ``f`` and ``slope`` at step 0: yields each
    trial step, is sent the value and slope there, returns the accepted step or None. It
    extrapolates until a bracket [lo, hi] holds a minimum, then shrinks it by cubic
    interpolation, bisecting when it shrinks slowly (Nocedal & Wright, Alg. 3.5/3.6)."""
    lo, hi, widths = (0.0, f, slope), None, [math.inf, math.inf]
    for _ in range(MAX_LINE_EVALS):
        trial = (step, *(yield step))
        if not trial[1] <= f + C1 * step * slope or trial[1] >= lo[1]:
            hi = trial
        elif abs(trial[2]) <= -C2 * slope:
            return step
        else:
            if trial[2] * ((math.inf if hi is None else hi[0]) - step) >= 0:
                hi = lo
            prev, lo = lo, trial
        if hi is None:                        # extrapolate by 1.1 to 4 times the last gain
            gain = step - prev[0]
            step = max(step + 1.1 * gain, min(step + 4.0 * gain, _cubic_min(*prev, *lo)))
        else:
            a, b = sorted((lo[0], hi[0]))
            step = _cubic_min(*lo, *hi)
            if not a < step < b or b - a > 0.66 * widths[-2]:
                step = (a + b) / 2
            widths.append(b - a)
    return None


def _dot(a, b):
    """Dot products of the last axes of ``a`` and ``b``: stacked ``np.matmul`` runs, per row,
    the BLAS dot that ``a[i] @ b[i]`` runs, so each row gets the bits it gets alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _direction(g, s_mem, y_mem, rho, count):
    """-H g for each row, by the two-loop recursion over its ``count`` newest pairs
    (newest first in ``s_mem``/``y_mem``), H scaled by s'y / y'y of the newest pair."""
    counts = count.tolist()
    lanes = [slice(None) if j < min(counts) else np.flatnonzero(count > j)
             for j in range(max(counts))]           # lanes[j]: the rows that hold pair j
    d, alphas = -g, []
    for j, r in enumerate(lanes):
        alphas.append(rho[r, j] * _dot(s_mem[r, j], d[r]))
        d[r] -= alphas[j][:, None] * y_mem[r, j]
    if lanes:
        r = lanes[0]
        d[r] *= (1.0 / (rho[r, 0] * _dot(y_mem[r, 0], y_mem[r, 0])))[:, None]
    for j, r in reversed(list(enumerate(lanes))):
        d[r] += (alphas[j] - rho[r, j] * _dot(y_mem[r, j], d[r]))[:, None] * s_mem[r, j]
    return d


def minimize(fun, x0, gtol=SOLVER_GRAD_TOL, maxiter=SOLVER_MAX_ITER):
    """L-BFGS (Liu & Nocedal 1989) of every row of the (B, D) ``x0``, in lockstep.

    ``fun(x, rows)`` gives the values and gradients of problems ``rows`` (of ``x0``) at
    iterates ``x``; one call covers every row still searching. Each row takes its own
    directions (over its last ``MEMORY`` pairs), line search (first trial 1 / ||g|| on
    iteration 0, else 1) and stops, in the order it takes them alone, so it gets the
    bits it gets alone when ``fun`` computes rows apart. A row stops as L-BFGS-B does
    (max |g_i| <= gtol, a relative decrease <= ``SOLVER_F_TOL``, ``maxiter``
    iterations) or when its line search fails. Returns ``x`` (B, D), ``fun`` (B,), the
    iteration counts ``nits`` (B,) and their total ``nit``, a Python int."""
    x = np.array(x0, dtype=np.float64)
    rows = np.arange(len(x))
    f, g = fun(x, rows)
    res = SimpleNamespace(x=np.empty_like(x), fun=np.empty(len(x)), nits=np.zeros(len(x), int))
    nit, count = np.zeros(len(x), int), np.zeros(len(x), int)
    (s_mem, y_mem), rho = np.zeros((2, len(x), MEMORY, x.shape[1])), np.zeros((len(x), MEMORY))
    go = (nit < maxiter) & (np.abs(g).max(axis=1) > gtol)
    while True:
        if not go.all():
            out = rows[~go]
            res.x[out], res.fun[out], res.nits[out] = x[~go], f[~go], nit[~go]
            rows, x, f, g, nit, count, s_mem, y_mem, rho = (
                a[go] for a in (rows, x, f, g, nit, count, s_mem, y_mem, rho))
        if not len(rows):
            break
        d = _direction(g, s_mem, y_mem, rho, count)
        slope = _dot(g, d)
        if not (slope < 0).all():                   # not a descent direction: restart
            restart = ~(slope < 0)
            count[restart], d[restart] = 0, -g[restart]
            slope[restart] = -_dot(g[restart], g[restart])
        searches = [_line_search(fi, sl, 1.0 if n else 1.0 / math.sqrt(-sl))
                    for fi, sl, n in zip(f.tolist(), slope.tolist(), nit.tolist())]
        step = np.array([next(search) for search in searches])
        f_new, g_new, found = np.empty_like(f), np.empty_like(g), np.zeros(len(rows), bool)
        live = np.arange(len(rows))
        while len(live):
            at = live if len(live) < len(rows) else slice(None)
            f_new[at], g_new[at] = fun(x[at] + step[at, None] * d[at], rows[at])
            searching = []
            for i, value, slope_i in zip(live.tolist(), f_new[at].tolist(),
                                         _dot(g_new[at], d[at]).tolist()):
                try:
                    step[i] = searches[i].send((value, slope_i))
                    searching.append(i)
                except StopIteration as stop:
                    found[i] = stop.value is not None
            live = np.array(searching, dtype=int)
        if not found.all():                         # no step: these rows stop where they are
            stay = ~found
            step[stay], f_new[stay], g_new[stay] = 0.0, f[stay], g[stay]
        s, y = step[:, None] * d, g_new - g
        sy = _dot(s, y)
        new = sy > -np.finfo(np.float64).eps * step * slope
        kept = slice(None) if new.all() else np.flatnonzero(new)   # newest pair goes first
        s_mem[kept, 1:], y_mem[kept, 1:], rho[kept, 1:] = (
            s_mem[kept, :-1], y_mem[kept, :-1], rho[kept, :-1])
        s_mem[kept, 0], y_mem[kept, 0], rho[kept, 0] = s[kept], y[kept], 1.0 / sy[kept]
        count[kept] = np.minimum(count[kept] + 1, MEMORY)
        f_old, x, f, g, nit = f, np.where(found[:, None], x + s, x), f_new, g_new, nit + found
        scale = np.maximum(np.maximum(abs(f_old), abs(f)), 1.0)
        go = (found & ~(f_old - f <= SOLVER_F_TOL * scale) & (nit < maxiter)
              & (np.abs(g).max(axis=1) > gtol))
    res.nit = int(res.nits.sum())
    return res


@dataclass
class EvalConfig:
    """Evaluation protocol knobs."""

    train_ratios: tuple[float, ...] = (0.05, 0.10, 0.20)
    repeats: int = 10
    l2_strength: float = 1.0
    normalize: bool = False
    seed: int = 1

    def validate(self) -> None:
        if not self.train_ratios:
            raise ConfigError("train_ratios must be non-empty")
        if any(not 0.0 < r < 1.0 for r in self.train_ratios):
            raise ConfigError(f"train ratios must lie in (0, 1), got {self.train_ratios}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if not 0.0 <= self.l2_strength < math.inf:
            raise ConfigError(f"l2_strength must be finite and >= 0, got {self.l2_strength}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class OvrClassifier:
    """One weight vector and bias per label; untrained labels score -inf. Fitted on
    stacked splits, each array has a leading repeat axis, and ``scores`` takes one
    repeat's arrays."""

    weights: np.ndarray          # ([repeats,] num_labels, num_features)
    biases: np.ndarray           # ([repeats,] num_labels)
    trained: np.ndarray          # ([repeats,] num_labels) bool
    skipped_labels: list = field(default_factory=list)

    def scores(self, features: np.ndarray) -> np.ndarray:
        s = features @ self.weights.T + self.biases
        s[:, ~self.trained] = -np.inf
        return s


def _logreg_objective(theta, x, sign, l2):
    """Objective and gradient of sum log(1 + exp(-sign * (x.w + b))) + l2/2 ||w||^2 for each
    row of ``theta`` (B, F + 1) and ``sign`` (B, N) of +-1, or for one vector of each.

    The bias (last coordinate) is not regularized. exp(-z - loss) = expit(-z) cannot overflow.
    Stacked ``np.matmul`` and ``_dot`` give each row the bits it gets alone; ``x @ w.T``
    would not. A +-1 ``sign`` of any numeric dtype gives the same bits.
    """
    w, b = theta[..., :-1], theta[..., -1:]
    z = sign * (np.matmul(x, w[..., None])[..., 0] + b)
    loss = softplus(-z)
    value = loss.sum(axis=-1) + 0.5 * l2 * _dot(w, w)
    coef = -sign * np.exp(-z - loss)
    grad = np.empty_like(theta)
    grad[..., :-1] = np.matmul(x.T, coef[..., None])[..., 0] + l2 * w
    grad[..., -1] = coef.sum(axis=-1)
    return value, grad


def fit_binary_logreg(features: np.ndarray, positive, l2_strength: float,
                      max_iter: int = SOLVER_MAX_ITER) -> tuple[np.ndarray, np.ndarray]:
    """L-BFGS solves of binary L2-regularized logistic regressions, one per column of the
    (N, B) bool ``positive`` (a vector is one column) on the (N, F) ``features``, all in one
    lockstep ``minimize``. Stacked, ``features`` is (R, N, F) and ``positive`` holds R
    (N, B_r) matrices, one per repeat; the problems then go repeat by repeat.

    Returns (weights (B, F), biases (B,)), B the problem count. Each problem is convex;
    ``minimize`` stops it on a gradient tolerance, a relative decrease tolerance or the
    iteration cap. It sees only its own repeat's features, through the product it gets
    alone, so it gets the bits it gets alone.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 2:
        x, positive = x[None], [positive]
    signs = [np.where(np.atleast_2d(np.transpose(p)), np.int8(1), np.int8(-1))
             for p in positive]
    sign = np.concatenate(signs)
    repeat = np.repeat(np.arange(len(x)), [len(s) for s in signs])

    def objective(theta, rows):
        # minimize keeps ``rows`` ascending, so each repeat's problems are one run.
        bounds = np.searchsorted(repeat[rows], np.arange(len(x) + 1)).tolist()
        value, grad = np.empty(len(rows)), np.empty_like(theta)
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                value[a:b], grad[a:b] = _logreg_objective(theta[a:b], x[r], sign[rows[a:b]],
                                                          l2_strength)
        return value, grad

    res = minimize(objective, np.zeros((len(sign), x.shape[2] + 1)), maxiter=max_iter)
    return res.x[:, :-1], res.x[:, -1]


def train_ovr_logreg(features: np.ndarray, targets: np.ndarray,
                     l2_strength: float = 1.0) -> OvrClassifier:
    """Fit one binary classifier per column of the (N, L) bool ``targets``, all together;
    stacked, per repeat and column of the (R, N, L) ``targets`` on (R, N, F) ``features``.

    Labels with no positive or no negative training example cannot be fit;
    they are skipped with a warning and recorded on the classifier, as labels or,
    stacked, as (repeat, label) pairs in repeat order.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[:-1] != targets.shape[:-1]:
        raise ValidationError(f"{x.shape[-2]} feature rows for {targets.shape[-2]} label rows")
    n = targets.shape[-2]
    positives = targets.sum(axis=-2)
    trained = (positives > 0) & (positives < n)
    skipped = np.argwhere(~trained)
    for where in skipped:
        log.warning("label %d skipped: %s training examples", where[-1],
                    "no positive" if positives[tuple(where)] == 0 else "no negative")
    weights = np.zeros(trained.shape + x.shape[-1:])
    biases = np.zeros(trained.shape)
    positive = ([t[:, fit] for t, fit in zip(targets, trained)] if x.ndim == 3
                else targets[:, trained])
    weights[trained], biases[trained] = fit_binary_logreg(x, positive, l2_strength)
    return OvrClassifier(weights=weights, biases=biases, trained=trained,
                         skipped_labels=[tuple(w) for w in skipped.tolist()] if x.ndim == 3
                         else skipped[:, 0].tolist())


def predict_top_k(classifier: OvrClassifier, features: np.ndarray,
                  k_per_node: np.ndarray) -> np.ndarray:
    """Bool (N, L) matrix of each node's k top-scoring labels; ties to the lower index, and
    -inf (untrained) then NaN scores last: the first k of a stable descending sort.

    Pass j keeps each row's ``argmax`` over the labels not yet kept, for the rows with
    k > j, and sets the kept label's score to -inf.
    """
    scores = classifier.scores(np.asarray(features, dtype=np.float64))
    nan = np.isnan(scores)
    scores[nan] = -np.inf
    k = np.broadcast_to(np.ravel(k_per_node), len(scores))
    pred = np.zeros(scores.shape, dtype=bool)
    rows = np.arange(len(scores))
    for j in range(min(int(k.max(initial=0)), scores.shape[1])):
        live = k[rows] > j
        if not live.all():
            rows, scores = rows[live], scores[live]
        at = np.arange(len(rows))
        best = scores.argmax(axis=1)
        # Where every label left scores -inf, argmax may return a kept one: take the
        # lowest-index label not kept, and a NaN one only when no other is left.
        tied = scores[at, best] == -np.inf
        if tied.any():
            best[tied] = np.argmax(~pred[rows[tied]] * (2 - nan[rows[tied]]), axis=1)
        pred[rows, best] = True
        scores[at, best] = -np.inf
    return pred


def macro_f1(truth: np.ndarray, pred: np.ndarray) -> float:
    """Unweighted mean of per-label F1 over the labels (columns) set in ``truth``.

    ``truth`` and ``pred`` are bool (N, L) multi-hot matrices. Per label:
    F1 = 2PR / (P + R), taken as 0 when P + R = 0.
    """
    if truth.shape != pred.shape:
        raise ValidationError("truth and prediction cover different node counts")
    present = truth.any(axis=0)
    if not present.any():
        return 0.0
    truth, pred = truth[:, present], pred[:, present]
    tp = (truth & pred).sum(axis=0)
    fp = (pred & ~truth).sum(axis=0)
    fn = (truth & ~pred).sum(axis=0)
    # tp = 0 wherever a denominator is 0, so dividing by 1 there gives the 0.
    precision = tp / np.maximum(tp + fp, 1)
    recall = tp / np.maximum(tp + fn, 1)
    both = precision + recall
    return float(np.mean(2 * precision * recall / np.where(both > 0, both, 1.0)))


@dataclass
class EvalReport:
    """Per-ratio Macro-F1 summary plus the individual repeat scores."""

    ratios: tuple[float, ...]
    means: list[float]
    stds: list[float]
    scores: list[list[float]]    # scores[i][j]: ratio i, repeat j

    def format_table(self) -> str:
        lines = ["train_ratio  macro_f1_mean  macro_f1_std  repeats"]
        for ratio, mean, std, rep in zip(self.ratios, self.means, self.stds, self.scores):
            lines.append(f"{ratio:>11.2%}  {mean:>13.4f}  {std:>12.4f}  {len(rep):>7d}")
        return "\n".join(lines) + "\n"

    def write_tsv(self, stream) -> None:
        stream.write("ratio\trepeat\tmacro_f1\n")
        for ratio, rep in zip(self.ratios, self.scores):
            for j, score in enumerate(rep):
                stream.write(f"{ratio:.17g}\t{j}\t{score:.17g}\n")


def check_splits(n: int, ratios) -> None:
    """Raise ConfigError unless every ratio's ceil(ratio * n) training nodes leave both sides
    of an ``n``-node split non-empty."""
    for ratio in ratios:
        if not 0 < math.ceil(ratio * n) < n:
            raise ConfigError(f"ratio {ratio} leaves an empty train or test set for {n} nodes")


def split_nodes(n: int, ratio: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train, test) index split with ceil(ratio * n) training nodes."""
    check_splits(n, (ratio,))
    n_train = math.ceil(ratio * n)
    perm = rng.permutation(n)
    return perm[:n_train], perm[n_train:]


def node_classification_experiment(features: np.ndarray, targets: np.ndarray,
                                   config: EvalConfig) -> EvalReport:
    """Repeated random-split evaluation over every configured train ratio.

    ``targets`` is the bool (N, L) multi-hot label matrix of the N feature rows.
    """
    config.validate()
    n = len(targets)
    check_splits(n, config.train_ratios)
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] != n:
        raise ValidationError(f"{x.shape[0]} feature rows for {n} label rows")
    if not targets.any(axis=1).all():
        raise ValidationError("every evaluated node needs at least one label")
    if config.normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms > 0, norms, 1.0)

    means, stds, all_scores = [], [], []
    for ratio_idx, ratio in enumerate(config.train_ratios):
        # Every repeat's split first, then one fit of all their problems.
        rngs = (np.random.default_rng(np.random.SeedSequence([config.seed, ratio_idx, repeat]))
                for repeat in range(config.repeats))
        train_idx, test_idx = map(np.array, zip(*(split_nodes(n, ratio, rng) for rng in rngs)))
        fitted = train_ovr_logreg(x[train_idx], targets[train_idx], config.l2_strength)
        repeat_scores = []
        for weights, biases, trained, test in zip(fitted.weights, fitted.biases,
                                                  fitted.trained, test_idx):
            truth = targets[test]
            preds = predict_top_k(OvrClassifier(weights, biases, trained), x[test],
                                  truth.sum(axis=1))
            repeat_scores.append(macro_f1(truth, preds))
        means.append(float(np.mean(repeat_scores)))
        stds.append(float(np.std(repeat_scores, ddof=1)) if len(repeat_scores) > 1 else 0.0)
        all_scores.append(repeat_scores)
    return EvalReport(ratios=tuple(config.train_ratios), means=means, stds=stds,
                      scores=all_scores)
