"""Node embeddings from random walks plus multi-label edge-type supervision.

Train: skip-gram with negative sampling over random-walk co-occurrences,
jointly with a feed-forward classifier predicting each labeled edge's
relation types from the concatenated endpoint embeddings. Evaluate: the
standard repeated-split multi-label node-classification protocol with
one-vs-rest logistic regression and Macro-F1.
"""

import os

# BLAS thread caps only take effect before numpy loads, so honor the
# package-level env var first thing. Explicit per-library settings win.
_threads = os.environ.get("EDGEWALK_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
del _threads

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    ConfigError,
    EdgewalkError,
    NumericsError,
    ParseError,
    ValidationError,
)
from .graph import (  # noqa: E402
    Graph,
    LabelSet,
    load_edge_labels,
    load_edge_list,
    load_node_labels,
    split_labeled_edges,
)
from .walks import WalkCorpus, generate_walks, sample_pair_batch  # noqa: E402
from .params import AdamOptimizer, EmbeddingTables, SparseGrad, init_embeddings  # noqa: E402
from .structural import NoiseDistribution  # noqa: E402
from .relational import (  # noqa: E402
    MlpParams,
    init_mlp,
    mlp_forward,
    relational_backward,
)
from .training import (  # noqa: E402
    TrainConfig,
    TrainReport,
    TrainResult,
    schedule_counts,
    train,
)
from .evaluation import (  # noqa: E402
    EvalConfig,
    EvalReport,
    macro_f1,
    node_classification_experiment,
    predict_top_k,
    train_ovr_logreg,
)
from .synth import SynthDataset, generate_planted_partition  # noqa: E402

__all__ = [
    "AdamOptimizer",
    "ConfigError",
    "EdgewalkError",
    "EmbeddingTables",
    "EvalConfig",
    "EvalReport",
    "Graph",
    "LabelSet",
    "MlpParams",
    "NoiseDistribution",
    "NumericsError",
    "ParseError",
    "SparseGrad",
    "SynthDataset",
    "TrainConfig",
    "TrainReport",
    "TrainResult",
    "ValidationError",
    "WalkCorpus",
    "generate_planted_partition",
    "generate_walks",
    "init_embeddings",
    "init_mlp",
    "load_edge_labels",
    "load_edge_list",
    "load_node_labels",
    "macro_f1",
    "mlp_forward",
    "node_classification_experiment",
    "predict_top_k",
    "relational_backward",
    "sample_pair_batch",
    "schedule_counts",
    "split_labeled_edges",
    "train",
    "train_ovr_logreg",
]
