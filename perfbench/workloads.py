"""The benchmark's three workloads.

Every input comes from the workload seed: the graph, the training seed and
the evaluation splits. Sizes and flags are fixed here, so two commits run
identical work for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

LABEL_FRACTION = 0.1  # share of edges whose labels the inputs keep


@dataclass(frozen=True)
class Workload:
    name: str
    communities: int
    community_size: int
    p_in: float
    p_out: float
    sparse_inputs: bool        # use sparse_synth instead of `edgewalk synth`
    train_flags: tuple[str, ...]
    eval_flags: tuple[str, ...]
    dim: int
    f1_floor: float            # macro_f1_5pct must stay above this

    @property
    def nodes(self) -> int:
        return self.communities * self.community_size

    @property
    def joint(self) -> bool:
        """Lambda keeps its default 0.8 unless the flags set it (to 0 here)."""
        return "--lambda" not in self.train_flags

    def synth_argv(self, seed: int, out_dir) -> list[str]:
        return ["synth", "--communities", str(self.communities),
                "--community-size", str(self.community_size),
                "--p-in", repr(self.p_in), "--p-out", repr(self.p_out),
                "--label-fraction", repr(LABEL_FRACTION),
                "--seed", str(seed), "--out-dir", str(out_dir)]

    def train_argv(self, seed: int, inputs, out_dir) -> list[str]:
        files = [str(inputs / "graph.edges")]
        if self.joint:
            files.append(str(inputs / "graph.edge_labels"))
        return ["train", *files, *self.train_flags, "--seed", str(seed),
                "--out-dir", str(out_dir)]

    def eval_argv(self, seed: int, inputs, run_dir) -> list[str]:
        return ["evaluate", str(run_dir / "embeddings.vec"),
                str(inputs / "graph.node_labels"), *self.eval_flags,
                "--seed", str(seed), "--out-dir", str(run_dir)]


# The acceptance suite's desk_config, except that early stopping is pinned
# to exactly 8 rounds: with early_stop_window 5 the round count ranged from
# 7 to 17 over graph seeds 0-9, which made train_s a property of the seed.
DESK_FLAGS = ("--batches-per-round", "200", "--structural-batch", "200",
              "--relational-batch", "200", "--walks-per-node", "10", "--walk-length", "10",
              "--window", "5", "--dim", "32", "--negatives", "5", "--hidden", "32",
              "--lr", "0.01", "--early-stop-window", "8", "--max-rounds", "8",
              "--validation-fraction", "0.1")

WORKLOADS = {
    w.name: w for w in (
        # Desk scale, joint training, full 3-ratio x 10-repeat evaluation.
        Workload("desk-joint", 4, 50, 0.2, 0.01, False, DESK_FLAGS, (), 32, 0.5),
        # ROADMAP's W-mid graph (10 x 200 nodes) at library defaults, except
        # 40 walks per node and 3 rounds, which keep a pipeline short enough
        # to repeat within one run. Walk generation is still the largest
        # part of train.
        Workload("mid-joint", 10, 200, 0.05, 0.002, False,
                 ("--walks-per-node", "40", "--max-rounds", "3"), (), 128, 0.4),
        # 20,000 nodes (20 x 1,000, mean degree about 11) at lambda = 0 and
        # dim 64: one pass over one 3-node walk per node with window 1, i.e.
        # 200 skip-gram steps on tables 5x the bytes of mid-joint's. Dim 64
        # halves the embedding file, so a pipeline repeats within one run.
        # One short pass leaves the classes barely separable, so the floor
        # only rules out degenerate embeddings (chance is about 0.05 with 20
        # labels). Vectors are L2-normalized for evaluation: at their initial
        # scale (norm about 0.04) the L2 penalty leaves every classifier at
        # its bias.
        Workload("large-unsup", 20, 1000, 0.01, 5.8e-5, True,
                 ("--lambda", "0", "--walks-per-node", "1", "--walk-length", "3",
                  "--window", "1", "--unsupervised-rounds", "1", "--dim", "64"),
                 ("--repeats", "2", "--normalize"), 64, 0.03),
    )
}


def pairs_per_walk(length: int, window: int) -> int:
    return sum(min(i + window, length - 1) - max(i - window, 0) for i in range(length))


def steps_per_round(config: dict, nodes: int) -> int:
    """Adam steps in one training round, from the resolved run config."""
    if config["lambda_"] > 0:
        return config["batches_per_round"]
    capacity = nodes * config["walks_per_node"] * pairs_per_walk(config["walk_length"],
                                                                  config["window"])
    return max(1, -(-capacity // config["structural_batch"]))
