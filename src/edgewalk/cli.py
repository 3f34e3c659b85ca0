"""Command-line entry point.

Subcommands:

* ``train``     learn embeddings from an edge list (plus optional edge labels)
* ``evaluate``  score an embedding file on multi-label node classification
* ``synth``     generate a planted-partition test bed (edges + labels)
* ``sweep``     train/evaluate across values of one hyperparameter
* ``walk``      dump a random-walk corpus

Every run writes a manifest (resolved config, input digests, seed, tool
version) before doing work, so a finished run can be reproduced exactly by
pointing ``--config`` at the manifest. Training flags mirror the config
field names; a JSON config file may set any of them and explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import __version__
from .errors import ConfigError, EdgewalkError, ParseError
from .evaluation import EvalConfig, check_splits, node_classification_experiment
from .graph import load_edge_labels, load_edge_list, load_node_labels, split_labeled_edges
from .params import config_hash, load_center, save_checkpoint
from .synth import generate_planted_partition, write_dataset
from .training import TrainConfig, check_inputs, train
from .walks import generate_walks, write_walks
from .embedding_io import read_embeddings, write_embeddings

log = logging.getLogger("edgewalk")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _replacing(path: Path):
    """Yield a temporary path beside ``path`` that replaces ``path`` once the
    block ends without an exception; otherwise the temporary file is removed
    and ``path`` is left as it was. A symlink, FIFO or device at ``path`` is
    yielded itself and written through, since a rename would replace it."""
    if path.is_symlink() or (path.exists() and not path.is_file()):
        yield path
        return
    partial = path.with_name(path.name + ".tmp")
    try:
        yield partial
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


@contextmanager
def _reading(path):
    """The text input at ``path``, opened as strict UTF-8 with a leading byte-order mark
    dropped. A byte sequence that is not UTF-8 raises ParseError naming the file and the
    byte offset of the first such sequence."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            try:  # the decoder's offset is within its chunk; the whole file's is wanted
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None


def _write_manifest(path: Path, command: str, config_dict: dict, inputs: dict,
                    digests: dict | None = None, outputs: tuple[str, ...] = (),
                    **fields) -> None:
    """``inputs`` maps names to paths or None; ``digests`` holds sha256 digests
    the caller already took, by input name; ``fields`` are added as they are. The regular
    files named in ``outputs`` go first, so that a killed run leaves no older outputs beside
    its manifest; ``_replacing`` writes through symlinks, FIFOs and devices, which stay."""
    for stale in (path.with_name(name) for name in outputs):
        if stale.is_file() and not stale.is_symlink():
            stale.unlink()
    digests = digests or {}
    manifest = {
        "tool": "edgewalk",
        "tool_version": __version__,
        "command": command,
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "inputs": {
            name: ({"path": str(p), "sha256": digests.get(name) or _sha256(Path(p))}
                   if p is not None else None)
            for name, p in inputs.items()
        },
        "threads": os.environ.get("EDGEWALK_THREADS"),
        **fields,
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_config_file(path: str) -> dict:
    with _reading(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(data, dict) and "config" in data and "tool_version" in data:
        data = data["config"]  # a manifest doubles as a config file
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _collect_train_config(args: argparse.Namespace) -> TrainConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data.update(_load_config_file(args.config))
    for f in dataclasses.fields(TrainConfig):
        if hasattr(args, f.name):
            data[f.name] = getattr(args, f.name)
    config = TrainConfig.from_dict(data)
    config.validate()
    return config


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, named after it; unset flags stay off ``args``."""
    sup = argparse.SUPPRESS
    parser.add_argument("--config", help="JSON config file or a previous run's manifest")
    for f in dataclasses.fields(TrainConfig):
        if f.name == "lambda_":
            parser.add_argument("--lambda", dest="lambda_", type=float, default=sup,
                                help="relational share of each round's batches, in [0, 1]")
        elif f.name == "regenerate_walks":
            parser.add_argument("--no-regenerate-walks", dest="regenerate_walks",
                                action="store_false", default=sup,
                                help="reuse one walk corpus instead of redrawing per pass")
        elif f.name == "dtype":
            parser.add_argument("--dtype", choices=("float64", "float32"), default=sup)
        else:
            parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=sup)


def _load_graph(edges: str, edge_labels: str | None):
    """The edge list's graph, and its labeled edges when a file is named."""
    with _reading(edges) as fh:
        graph = load_edge_list(fh)
    if edge_labels is None:
        return graph, None
    with _reading(edge_labels) as fh:
        return graph, load_edge_labels(fh, graph)


def _load_node_labels(path: str, index_of: dict, strict: bool = False):
    """Node labels of the nodes ``index_of`` maps to rows; another labeled node
    is an error when ``strict``, and is otherwise left out with a warning."""
    with _reading(path) as fh:
        label_set, skipped = load_node_labels(fh, index_of,
                                              on_missing="error" if strict else "skip")
    for name in skipped:
        log.warning("node %r has labels but no embedding; excluded", name)
    return label_set


def cmd_train(args: argparse.Namespace) -> int:
    config = _collect_train_config(args)
    if config.lambda_ > 0 and not args.edge_labels:
        raise ConfigError("lambda > 0 needs an edge-label file")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, labeled = _load_graph(args.edges, args.edge_labels or None)
    check_inputs(labeled, config)

    _write_manifest(out_dir / "manifest.json", "train", config.to_dict(),
                    {"edges": args.edges, "edge_labels": args.edge_labels},
                    outputs=("embeddings.vec", "checkpoint.bin", "training_report.txt"))
    result = train(graph, labeled, config)

    with _replacing(out_dir / "embeddings.vec") as partial:
        with open(partial, "w") as fh:
            write_embeddings(fh, graph.ids, result.tables.center)
        # Recorded in the checkpoint, so that evaluate can read the center
        # table from there; a FIFO or device written through is not read back.
        embeddings_sha256 = _sha256(partial) if partial.is_file() else None
    with _replacing(out_dir / "checkpoint.bin") as partial:
        save_checkpoint(partial, result.tables, result.mlp, result.optimizer,
                        config.to_dict(), graph.ids, embeddings_sha256)
    with _replacing(out_dir / "training_report.txt") as partial, open(partial, "w") as fh:
        result.report.write(fh)
    log.info("stopped after %d rounds (%s)", len(result.report.rounds),
             result.report.stop_reason)
    return 0


def _embedding_table(path: Path, digest: str):
    """Ids and table of the embedding file at ``path`` whose sha256 is
    ``digest``, and the checkpoint they were read from, or None.

    The ``checkpoint.bin`` beside the file holds the same table in binary when
    its header records ``digest``, and is then read instead of the text. Any
    other checkpoint, or none, leaves the text to be parsed.
    """
    checkpoint = path.with_name("checkpoint.bin")
    try:
        return *load_center(checkpoint, digest), checkpoint
    except (OSError, ParseError) as exc:
        log.info("%s; reading %s as text", exc, path)
    with _reading(path) as fh:
        return *read_embeddings(fh), None


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = EvalConfig(
        train_ratios=tuple(args.ratios),
        repeats=args.repeats,
        l2_strength=args.l2_strength,
        normalize=args.normalize,
        seed=args.seed,
    )
    config.validate()
    digest = _sha256(Path(args.embeddings))
    ids, matrix, checkpoint = _embedding_table(Path(args.embeddings), digest)
    labels = _load_node_labels(args.node_labels, dict(zip(ids, range(len(ids)))),
                               args.strict)
    check_splits(labels.num_labeled, config.train_ratios)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir / "eval_manifest.json", "evaluate",
                    dataclasses.asdict(config) | {"strict": args.strict},
                    {"embeddings": args.embeddings, "node_labels": args.node_labels},
                    {"embeddings": digest}, outputs=("eval_report.txt", "eval_results.tsv"),
                    embeddings_checkpoint=None if checkpoint is None else str(checkpoint))

    report = node_classification_experiment(matrix[labels.owners], labels.targets, config)
    table = report.format_table()
    sys.stdout.write(table)
    with _replacing(out_dir / "eval_report.txt") as partial:
        partial.write_text(table)
    with _replacing(out_dir / "eval_results.tsv") as partial, open(partial, "w") as fh:
        report.write_tsv(fh)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    dataset = generate_planted_partition(args.communities, args.community_size,
                                         args.p_in, args.p_out, args.label_fraction,
                                         args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        partials = [stack.enter_context(_replacing(out_dir / name))
                    for name in ("graph.edges", "graph.edge_labels", "graph.node_labels")]
        write_dataset(dataset, *(stack.enter_context(open(p, "w")) for p in partials))
    print(f"{len(dataset.node_names)} nodes, {len(dataset.edges)} edges, "
          f"{len(dataset.labeled_edges)} labeled edges -> {out_dir}")
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    with _reading(args.edges) as fh:
        graph = load_edge_list(fh)
    corpus = generate_walks(graph, args.walks_per_node, args.walk_length, args.seed)
    with _replacing(Path(args.out)) as partial, open(partial, "w") as fh:
        write_walks(corpus, graph, fh)
    print(f"{corpus.num_walks} walks of length {corpus.walk_length} -> {args.out}")
    return 0


SWEEP_PARAMS = ("label-fraction", "lambda", "dim")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.parameter not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.parameter!r}; "
                          f"choose from {', '.join(SWEEP_PARAMS)}")
    if args.parameter == "dim" and not all(v.is_integer() for v in args.values):
        raise ConfigError(f"dim values must be integers, got {args.values}")
    base = _collect_train_config(args)
    configs = []
    for value in args.values:
        config = dataclasses.replace(base)
        if args.parameter == "lambda":
            config.lambda_ = float(value)
        elif args.parameter == "dim":
            config.dim = int(value)
        config.validate()
        configs.append(config)
    eval_config = EvalConfig(train_ratios=(args.eval_ratio,), repeats=args.eval_repeats,
                             seed=args.eval_seed)
    eval_config.validate()

    graph, full_labels = _load_graph(args.edges, args.edge_labels)
    node_label_set = _load_node_labels(args.node_labels, graph.index)
    # Every value is checked before any output, so a bad one writes nothing.
    check_splits(node_label_set.num_labeled, eval_config.train_ratios)
    if args.parameter == "label-fraction":
        labeled_sets = [split_labeled_edges(full_labels, float(value), base.seed)[0]
                        for value in args.values]
    else:
        labeled_sets = [full_labels] * len(args.values)
    for config, labeled in zip(configs, labeled_sets):
        check_inputs(labeled, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"sweep_{args.parameter.replace('-', '_')}"
    _write_manifest(out_dir / f"{stem}_manifest.json", "sweep",
                    base.to_dict() | {"sweep_parameter": args.parameter,
                                      "sweep_values": list(args.values),
                                      "eval_ratio": args.eval_ratio,
                                      "eval_repeats": args.eval_repeats,
                                      "eval_seed": args.eval_seed},
                    {"edges": args.edges, "edge_labels": args.edge_labels,
                     "node_labels": args.node_labels}, outputs=(f"{stem}.tsv",))

    series = []
    for value, config, labeled in zip(args.values, configs, labeled_sets):
        result = train(graph, labeled if config.lambda_ > 0 else None, config)
        report = node_classification_experiment(result.tables.center[node_label_set.owners],
                                                node_label_set.targets, eval_config)
        series.append((value, report.means[0], report.stds[0]))
        log.info("%s=%s -> macro_f1 %.4f (+/- %.4f)", args.parameter, value,
                 report.means[0], report.stds[0])

    with _replacing(out_dir / f"{stem}.tsv") as partial, open(partial, "w") as fh:
        fh.write(f"{args.parameter}\tmacro_f1_mean\tmacro_f1_std\n")
        for value, mean, std in series:
            fh.write(f"{value:.17g}\t{mean:.17g}\t{std:.17g}\n")
    for value, mean, std in series:
        print(f"{args.parameter}={value:g} macro_f1={mean:.4f} std={std:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgewalk",
        description="Network embeddings from random walks and multi-label edge types.")
    parser.add_argument("--version", action="version", version=f"edgewalk {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="learn node embeddings")
    p_train.add_argument("edges", help="edge-list file: 'src dst' per line")
    p_train.add_argument("edge_labels", nargs="?", default=None,
                         help="edge-label file: 'src dst label1[,label2,...]' per line")
    p_train.add_argument("--out-dir", default=".", help="where outputs are written")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="multi-label node classification score")
    p_eval.add_argument("embeddings", help="embedding file produced by train")
    p_eval.add_argument("node_labels", help="node-label file: 'node label1[,...]' per line")
    p_eval.add_argument("--ratios", type=float, nargs="+", default=[0.05, 0.10, 0.20])
    p_eval.add_argument("--repeats", type=int, default=10)
    p_eval.add_argument("--l2-strength", type=float, default=1.0)
    p_eval.add_argument("--normalize", action="store_true",
                        help="L2-normalize embeddings before classification")
    p_eval.add_argument("--seed", type=int, default=1)
    p_eval.add_argument("--strict", action="store_true",
                        help="fail on labeled nodes missing from the embedding file")
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="planted-partition synthetic data")
    p_synth.add_argument("--communities", type=int, default=4)
    p_synth.add_argument("--community-size", type=int, default=50)
    p_synth.add_argument("--p-in", type=float, default=0.2)
    p_synth.add_argument("--p-out", type=float, default=0.01)
    p_synth.add_argument("--label-fraction", type=float, default=0.1,
                         help="fraction of edges whose labels are kept")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--out-dir", default=".")
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="hyperparameter sensitivity series")
    p_sweep.add_argument("parameter", help=f"one of: {', '.join(SWEEP_PARAMS)}")
    p_sweep.add_argument("edges")
    p_sweep.add_argument("edge_labels")
    p_sweep.add_argument("node_labels")
    p_sweep.add_argument("--values", type=float, nargs="+", required=True)
    p_sweep.add_argument("--eval-ratio", type=float, default=0.05)
    p_sweep.add_argument("--eval-repeats", type=int, default=10)
    p_sweep.add_argument("--eval-seed", type=int, default=1)
    p_sweep.add_argument("--out-dir", default=".")
    _add_train_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_walk = sub.add_parser("walk", help="dump a random-walk corpus")
    p_walk.add_argument("edges")
    p_walk.add_argument("--walks-per-node", type=int, default=80)
    p_walk.add_argument("--walk-length", type=int, default=10)
    p_walk.add_argument("--seed", type=int, default=1)
    p_walk.add_argument("--out", default="walks.txt")
    p_walk.set_defaults(func=cmd_walk)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (EdgewalkError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
