"""Alternating-batch joint training loop.

Each round runs ``n_structural`` skip-gram batches followed by
``n_relational`` edge-label batches, where the split of the round's
``batches_per_round`` total follows the mixing weight: the structural side
gets round((1 - lambda) * T) batches, the relational side the remainder.
After every round the relational loss on a held-out slice of the labeled
edges is evaluated, and training stops once that loss has not decreased
for ``early_stop_window`` consecutive rounds (or at ``max_rounds``).

With ``lambda_ = 0`` there is nothing to validate against, so the run
degenerates to pure skip-gram training for a fixed budget: one full pass
over the walk-pair corpus per round, ``unsupervised_rounds`` rounds. No
relational state is created or touched on that path.

Everything is driven by named substreams of the run seed, so a config plus
seed reproduces checkpoints bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import relational, structural, walks
from .errors import ConfigError, NumericsError, check_allocatable
from .graph import Graph, LabelSet, split_labeled_edges
from .params import AdamOptimizer, EmbeddingTables, init_embeddings

# Substream tags: keep these stable or saved seeds stop reproducing runs.
_S_INIT, _S_WALKS, _S_PAIRS, _S_NEGATIVES, _S_EDGES, _S_MLP, _S_SPLIT = range(7)


def _derive_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, dtype=np.uint64)[0])


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


@dataclass
class TrainConfig:
    """All training hyperparameters, with library defaults."""

    lambda_: float = 0.8            # relational share of each round's batches
    batches_per_round: int = 50     # T
    structural_batch: int = 400     # pairs per skip-gram batch
    relational_batch: int = 400     # edges per relational batch
    walks_per_node: int = 80
    walk_length: int = 10
    window: int = 10
    dim: int = 128
    negatives: int = 5
    hidden: int = 128
    lr: float = 0.01
    early_stop_window: int = 5
    max_rounds: int = 200
    unsupervised_rounds: int = 5    # round budget when lambda_ == 0
    validation_fraction: float = 0.1
    noise_power: float = 0.75
    regenerate_walks: bool = True
    dtype: str = "float64"
    seed: int = 1

    def validate(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lambda_}")
        for name in ("batches_per_round", "structural_batch", "relational_batch",
                     "walks_per_node", "window", "dim", "negatives", "hidden",
                     "early_stop_window", "max_rounds", "unsupervised_rounds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.walk_length < 2:
            raise ConfigError(f"walk_length must be >= 2, got {self.walk_length}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}")
        if not 0.0 <= self.noise_power < math.inf:
            raise ConfigError(f"noise_power must be finite and >= 0, got {self.noise_power}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        kinds = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            kind = kinds[name]
            allowed = (int, float) if kind is float else kind
            if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        return cls(**data)


@dataclass
class RoundStats:
    round: int
    structural_loss: float
    relational_loss: float
    validation_loss: float
    seconds: float


@dataclass
class TrainReport:
    rounds: list[RoundStats] = field(default_factory=list)
    stop_reason: str = ""

    def write(self, stream) -> None:
        stream.write("# round structural_loss relational_loss validation_loss seconds\n")
        for r in self.rounds:
            stream.write(
                f"{r.round} {r.structural_loss:.17g} {r.relational_loss:.17g} "
                f"{r.validation_loss:.17g} {r.seconds:.3f}\n"
            )


@dataclass
class TrainResult:
    tables: EmbeddingTables
    mlp: relational.MlpParams | None
    report: TrainReport
    optimizer: AdamOptimizer | None = None


class EarlyStopTracker:
    """Stops after ``window`` consecutive rounds without a new best loss."""

    def __init__(self, window: int):
        self.window = window
        self.best = math.inf
        self.stale = 0

    def update(self, loss: float) -> bool:
        if loss < self.best:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.window


def schedule_counts(batches_per_round: int, lambda_: float) -> tuple[int, int]:
    """Split a round's batch budget; structural gets the (1 - lambda) share.

    Rounds half up, remainder to the relational side. ``batches_per_round``
    is at least 1, as ``TrainConfig.validate`` checks.
    """
    n_structural = math.floor((1.0 - lambda_) * batches_per_round + 0.5)
    return n_structural, batches_per_round - n_structural


def check_inputs(labeled_edges: LabelSet | None, config: TrainConfig) -> None:
    """Raise ConfigError unless ``config`` is valid and has the labeled edges it needs.
    ``train`` checks this first; the CLI checks it before it writes a manifest."""
    config.validate()
    if config.lambda_ > 0.0 and (labeled_edges is None or not labeled_edges.num_labeled):
        raise ConfigError("lambda > 0 requires a non-empty labeled edge set")


def train(graph: Graph, labeled_edges: LabelSet | None, config: TrainConfig) -> TrainResult:
    """Run the joint training loop and return tables, classifier and report."""
    check_inputs(labeled_edges, config)
    seed = config.seed
    supervised = config.lambda_ > 0.0

    dtype = np.dtype(config.dtype)
    tables = init_embeddings(graph.num_nodes, config.dim, _derive_seed(seed, _S_INIT), dtype)
    report = TrainReport()

    mlp = None
    train_edges = train_targets = val_edges = val_targets = None
    if supervised:
        mlp = relational.init_mlp(2 * config.dim, config.hidden, labeled_edges.num_labels,
                                  _stream(seed, _S_MLP), dtype)
        if config.validation_fraction > 0.0 and labeled_edges.num_labeled > 1:
            train_set, val_set = split_labeled_edges(
                labeled_edges, 1.0 - config.validation_fraction, _derive_seed(seed, _S_SPLIT))
        else:
            train_set, val_set = labeled_edges, None
        train_edges, train_targets = graph.edges[train_set.owners], train_set.targets.astype(dtype)
        if val_set is not None and val_set.num_labeled:
            val_edges, val_targets = graph.edges[val_set.owners], val_set.targets.astype(dtype)

    optimizer = AdamOptimizer(tables, mlp=mlp, lr=config.lr)
    n_structural, n_relational = schedule_counts(config.batches_per_round, config.lambda_)

    pair_rng = _stream(seed, _S_PAIRS)
    neg_rng = _stream(seed, _S_NEGATIVES)
    edge_rng = _stream(seed, _S_EDGES)
    noise = structural.NoiseDistribution(graph.degrees, config.noise_power)

    capacity = 0
    if n_structural > 0:
        corpus = walks.generate_walks(graph, config.walks_per_node, config.walk_length,
                                      _derive_seed(seed, _S_WALKS, 0))
        capacity = corpus.pair_capacity(config.window)

    max_rounds = config.max_rounds
    if not supervised:
        # Pure skip-gram: one corpus pass per round, fixed round budget.
        n_structural = max(1, math.ceil(capacity / config.structural_batch))
        max_rounds = config.unsupervised_rounds
    # The largest arrays of a step: negatives' context rows, edge vectors.
    if n_structural:
        check_allocatable("skip-gram batch", config.structural_batch, config.negatives, config.dim)
    if n_relational:
        check_allocatable("relational batch", config.relational_batch, 2 * config.dim)

    stopper = EarlyStopTracker(config.early_stop_window)
    stop_reason = "max_rounds"
    consumed = generation = 0
    for round_no in range(1, max_rounds + 1):
        t0 = time.perf_counter()
        s_losses = []
        for _ in range(n_structural):
            if config.regenerate_walks and consumed >= capacity:
                generation += 1
                corpus = walks.generate_walks(graph, config.walks_per_node, config.walk_length,
                                              _derive_seed(seed, _S_WALKS, generation))
                consumed = 0
            batch = walks.sample_pair_batch(corpus, config.window, config.structural_batch,
                                            pair_rng)
            consumed += config.structural_batch
            negatives = structural.sample_negatives(batch[:, 1], config.negatives, noise,
                                                    neg_rng)
            loss, grads = structural.loss_and_grads(batch, negatives, tables)
            if not math.isfinite(loss):
                raise NumericsError(f"structural loss diverged in round {round_no}")
            optimizer.step(grads)
            s_losses.append(loss)

        r_losses = []
        for _ in range(n_relational):
            idx = edge_rng.integers(0, len(train_edges), size=config.relational_batch)
            loss, grads = relational.relational_backward(train_edges[idx], train_targets[idx],
                                                         tables, mlp)
            if not math.isfinite(loss):
                raise NumericsError(f"relational loss diverged in round {round_no}")
            optimizer.step(grads)
            r_losses.append(loss)

        s_mean = float(np.mean(s_losses)) if s_losses else math.nan
        r_mean = float(np.mean(r_losses)) if r_losses else math.nan
        if not supervised:
            val_loss = math.nan
        elif val_edges is not None:
            val_loss = relational.relational_loss(val_edges, val_targets, tables, mlp)
        else:
            val_loss = r_mean  # empty validation split: fall back to train loss

        report.rounds.append(RoundStats(round_no, s_mean, r_mean, val_loss,
                                        time.perf_counter() - t0))
        if supervised and stopper.update(val_loss):
            stop_reason = "early_stop"
            break

    report.stop_reason = stop_reason
    return TrainResult(tables=tables, mlp=mlp, report=report, optimizer=optimizer)
