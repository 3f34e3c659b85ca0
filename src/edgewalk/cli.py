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
from pathlib import Path

from . import __version__
from .errors import ConfigError, EdgewalkError
from .evaluation import EvalConfig, node_classification_experiment
from .graph import load_edge_labels, load_edge_list, load_node_labels, split_labeled_edges
from .params import config_hash, save_checkpoint
from .synth import generate_planted_partition, write_dataset
from .training import TrainConfig, train, walk_seed
from .walks import generate_walks, read_walks, write_walks
from .embedding_io import read_embeddings, write_embeddings

log = logging.getLogger("edgewalk")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: Path, command: str, config_dict: dict, inputs: dict) -> None:
    manifest = {
        "tool": "edgewalk",
        "tool_version": __version__,
        "command": command,
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "inputs": {
            name: ({"path": str(p), "sha256": _sha256(Path(p))} if p is not None else None)
            for name, p in inputs.items()
        },
        "threads": os.environ.get("EDGEWALK_THREADS"),
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    if "config" in data and "tool_version" in data:
        data = data["config"]  # a manifest doubles as a config file
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


def cmd_train(args: argparse.Namespace) -> int:
    config = _collect_train_config(args)
    if config.lambda_ > 0 and not args.edge_labels:
        raise ConfigError("lambda > 0 needs an edge-label file")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(args.edges) as fh:
        graph = load_edge_list(fh)
    labeled = None
    if args.edge_labels:
        with open(args.edge_labels) as fh:
            _, labeled = load_edge_labels(fh, graph)

    corpus = None
    cache = Path(args.walk_cache) if args.walk_cache else None
    if cache is not None and cache.exists():
        with open(cache) as fh:
            corpus = read_walks(fh, graph)
        if (corpus.walk_length, corpus.walks_per_node) != (config.walk_length,
                                                           config.walks_per_node):
            raise ConfigError(
                f"{cache}: walks of length {corpus.walk_length}, {corpus.walks_per_node} per "
                f"node; config asks for {config.walk_length}, {config.walks_per_node}")

    _write_manifest(out_dir / "manifest.json", "train", config.to_dict(),
                    {"edges": args.edges, "edge_labels": args.edge_labels,
                     "walk_cache": str(cache) if corpus is not None else None})

    if cache is not None and corpus is None:
        corpus = generate_walks(graph, config.walks_per_node, config.walk_length,
                                walk_seed(config.seed))
        partial = cache.with_name(cache.name + ".tmp")
        with open(partial, "w") as fh:
            write_walks(corpus, graph, fh)
        os.replace(partial, cache)
        log.info("walk corpus cached to %s", cache)

    result = train(graph, labeled, config, corpus=corpus)

    with open(out_dir / "embeddings.vec", "w") as fh:
        write_embeddings(fh, graph.ids, result.tables.center)
    save_checkpoint(out_dir / "checkpoint.bin", result.tables, result.mlp,
                    result.optimizer, config.to_dict(), graph.ids)
    with open(out_dir / "training_report.txt", "w") as fh:
        result.report.write(fh)
    log.info("stopped after %d rounds (%s)", len(result.report.rounds),
             result.report.stop_reason)
    return 0


def _aligned_eval_inputs(embedding_path: str, node_label_path: str, strict: bool):
    with open(embedding_path) as fh:
        ids, matrix = read_embeddings(fh)
    index_of = {name: i for i, name in enumerate(ids)}
    with open(node_label_path) as fh:
        label_set, skipped = load_node_labels(fh, index_of,
                                              on_missing="error" if strict else "skip")
    for name in skipped:
        log.warning("node %r has labels but no embedding; excluded", name)
    return matrix[label_set.nodes], label_set.targets


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = EvalConfig(
        train_ratios=tuple(args.ratios),
        repeats=args.repeats,
        l2_strength=args.l2_strength,
        normalize=args.normalize,
        seed=args.seed,
    )
    config.validate()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir / "eval_manifest.json", "evaluate",
                    dataclasses.asdict(config) | {"strict": args.strict},
                    {"embeddings": args.embeddings, "node_labels": args.node_labels})

    features, targets = _aligned_eval_inputs(args.embeddings, args.node_labels, args.strict)
    report = node_classification_experiment(features, targets, config)
    table = report.format_table()
    sys.stdout.write(table)
    (out_dir / "eval_report.txt").write_text(table)
    with open(out_dir / "eval_results.tsv", "w") as fh:
        report.write_tsv(fh)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    dataset = generate_planted_partition(args.communities, args.community_size,
                                         args.p_in, args.p_out, args.label_fraction,
                                         args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / "graph.edges", out_dir / "graph.edge_labels",
             out_dir / "graph.node_labels"]
    with open(paths[0], "w") as e, open(paths[1], "w") as el, open(paths[2], "w") as nl:
        write_dataset(dataset, e, el, nl)
    print(f"{len(dataset.node_names)} nodes, {len(dataset.edges)} edges, "
          f"{len(dataset.labeled_edges)} labeled edges -> {out_dir}")
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    with open(args.edges) as fh:
        graph = load_edge_list(fh)
    corpus = generate_walks(graph, args.walks_per_node, args.walk_length, args.seed)
    with open(args.out, "w") as fh:
        write_walks(corpus, graph, fh)
    print(f"{corpus.num_walks} walks of length {corpus.walk_length} -> {args.out}")
    return 0


SWEEP_PARAMS = ("label-fraction", "lambda", "dim")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.parameter not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.parameter!r}; "
                          f"choose from {', '.join(SWEEP_PARAMS)}")
    base = _collect_train_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(args.edges) as fh:
        graph = load_edge_list(fh)
    with open(args.edge_labels) as fh:
        _, full_labels = load_edge_labels(fh, graph)
    with open(args.node_labels) as fh:
        node_label_set, skipped = load_node_labels(fh, graph.index, on_missing="skip")
    for name in skipped:
        log.warning("node %r has labels but is not in the graph; excluded", name)

    _write_manifest(out_dir / "sweep_manifest.json", "sweep",
                    base.to_dict() | {"sweep_parameter": args.parameter,
                                      "sweep_values": list(args.values),
                                      "eval_ratio": args.eval_ratio,
                                      "eval_repeats": args.eval_repeats,
                                      "eval_seed": args.eval_seed},
                    {"edges": args.edges, "edge_labels": args.edge_labels,
                     "node_labels": args.node_labels})

    eval_config = EvalConfig(train_ratios=(args.eval_ratio,), repeats=args.eval_repeats,
                             seed=args.eval_seed)
    series = []
    for value in args.values:
        config = dataclasses.replace(base)
        labeled = full_labels
        if args.parameter == "lambda":
            config.lambda_ = float(value)
        elif args.parameter == "dim":
            config.dim = int(value)
        else:
            labeled, _ = split_labeled_edges(full_labels, float(value), base.seed)
        config.validate()
        result = train(graph, labeled if config.lambda_ > 0 else None, config)
        report = node_classification_experiment(result.tables.center[node_label_set.nodes],
                                                node_label_set.targets, eval_config)
        series.append((value, report.means[0], report.stds[0]))
        log.info("%s=%s -> macro_f1 %.4f (+/- %.4f)", args.parameter, value,
                 report.means[0], report.stds[0])

    out_path = out_dir / f"sweep_{args.parameter.replace('-', '_')}.tsv"
    with open(out_path, "w") as fh:
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
    p_train.add_argument("--walk-cache", default=None,
                         help="walk corpus file: loaded if present, else written; "
                              "implies a single reused corpus")
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
    except (EdgewalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
