"""The program's layers as the traced run sees them.

Each wrap point replaces one public function of ``edgewalk`` with a
:class:`spans.Tracer` wrapper, under the module attribute its caller looks
it up through. A function that callers import by name is patched at each of
those call sites, under one span name. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import importlib
import os

from spans import self_times, summarize


def _walks_made(tr, args, corpus):
    tr.count("walks.walks_generated", corpus.num_walks)


def _rows_accumulated(tr, args, result):
    tr.count("params.accumulate_rows.rows_in", len(args[0]))
    tr.count("params.accumulate_rows.rows_unique", len(result[0]))


def _rows_stepped(tr, args, result):
    grad = args[1]
    for rows in (grad.center_rows, grad.context_rows):
        if rows is not None:
            tr.count("params.AdamOptimizer.step.rows", len(rows))


def _checkpoint_size(tr, args, result):
    tr.count("params.checkpoint_bytes", os.path.getsize(args[0]))


def _embedding_size(tr, args, result):
    tr.count("embedding_io.write_embeddings.bytes", args[0].tell())


def _graph_size(tr, args, graph):
    tr.notes["graph.nodes"] = graph.num_nodes
    tr.notes["graph.edges"] = graph.num_edges


def _trained(tr, args, result):
    tr.count("training.rounds", len(result.report.rounds))
    tr.count("training.steps", result.optimizer.t)
    tr.notes["training.stop_reason"] = result.report.stop_reason


def _lbfgs(tr, args, res):
    tr.count("evaluation.lbfgs_iterations", res.nit)


def _skipped(tr, args, classifier):
    tr.count("evaluation.skipped_labels", len(classifier.skipped_labels))


# (span name, patched call sites as "module:attribute", hook after the call)
WRAP_POINTS = [
    ("cli.synth", ["edgewalk.cli:cmd_synth"], None),
    ("cli.train", ["edgewalk.cli:cmd_train"], None),
    ("cli.evaluate", ["edgewalk.cli:cmd_evaluate"], None),
    ("graph.load_edge_list", ["edgewalk.cli:load_edge_list", "edgewalk.graph:load_edge_list"],
     _graph_size),
    ("graph.load_edge_labels",
     ["edgewalk.cli:load_edge_labels", "edgewalk.graph:load_edge_labels"], None),
    ("graph.load_node_labels",
     ["edgewalk.cli:load_node_labels", "edgewalk.graph:load_node_labels"], None),
    ("graph.split_labeled_edges", ["edgewalk.training:split_labeled_edges"], None),
    ("synth.generate_planted_partition", ["edgewalk.cli:generate_planted_partition"], None),
    ("walks.generate_walks", ["edgewalk.walks:generate_walks", "edgewalk.cli:generate_walks"],
     _walks_made),
    ("walks.sample_pair_batch", ["edgewalk.walks:sample_pair_batch"], None),
    ("structural.sample_negatives", ["edgewalk.structural:sample_negatives"], None),
    ("structural.NoiseDistribution.sample", ["edgewalk.structural:NoiseDistribution.sample"],
     None),
    ("structural.loss_and_grads", ["edgewalk.structural:loss_and_grads"], None),
    ("params.accumulate_rows",
     ["edgewalk.structural:accumulate_rows", "edgewalk.relational:accumulate_rows"],
     _rows_accumulated),
    ("params.AdamOptimizer.step", ["edgewalk.params:AdamOptimizer.step"], _rows_stepped),
    ("params.save_checkpoint", ["edgewalk.cli:save_checkpoint"], _checkpoint_size),
    ("relational.init_mlp", ["edgewalk.relational:init_mlp"], None),
    ("relational.relational_backward", ["edgewalk.relational:relational_backward"], None),
    ("relational.mlp_forward", ["edgewalk.relational:mlp_forward"], None),
    ("relational.relational_loss", ["edgewalk.relational:relational_loss"], None),
    ("training.train", ["edgewalk.cli:train"], _trained),
    ("evaluation.node_classification_experiment",
     ["edgewalk.cli:node_classification_experiment"], None),
    ("evaluation.train_ovr_logreg", ["edgewalk.evaluation:train_ovr_logreg"], _skipped),
    ("evaluation.fit_binary_logreg", ["edgewalk.evaluation:fit_binary_logreg"], None),
    ("evaluation.minimize", ["edgewalk.evaluation:minimize"], _lbfgs),
    ("evaluation.predict_top_k", ["edgewalk.evaluation:predict_top_k"], None),
    ("evaluation.macro_f1", ["edgewalk.evaluation:macro_f1"], None),
    ("embedding_io.write_embeddings", ["edgewalk.cli:write_embeddings"], _embedding_size),
    ("embedding_io.read_embeddings", ["edgewalk.cli:read_embeddings"], None),
]


def install(tracer) -> None:
    """Patch every wrap point; ``edgewalk.cli`` must already be imported."""
    for name, sites, hook in WRAP_POINTS:
        for site in sites:
            module_name, attr_path = site.split(":")
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))


# Per-layer metrics: (metric, unit, how it is computed from the merged trace).
# "median:<span>" is the median call duration, "self:<span>" the median self
# time, "calls:<span>" the calls per pipeline, "counter:<name>" a counter per
# pipeline and "note:<name>" a recorded value; the rules without a colon are
# derived values, computed in layer_metrics.
LAYER_METRICS = [
    ("graph.load_edge_list.s", "s", "median:graph.load_edge_list"),
    ("graph.load_edge_labels.s", "s", "median:graph.load_edge_labels"),
    ("graph.load_node_labels.s", "s", "median:graph.load_node_labels"),
    ("graph.split_labeled_edges.s", "s", "median:graph.split_labeled_edges"),
    ("graph.nodes", "count", "note:graph.nodes"),
    ("graph.edges", "count", "note:graph.edges"),
    ("synth.generate_planted_partition.s", "s", "median:synth.generate_planted_partition"),
    ("walks.generate_walks.s", "s", "median:walks.generate_walks"),
    ("walks.generate_walks.calls", "count", "calls:walks.generate_walks"),
    ("walks.walks_generated", "count", "counter:walks.walks_generated"),
    ("walks.sample_pair_batch.s", "s", "median:walks.sample_pair_batch"),
    ("walks.sample_pair_batch.calls", "count", "calls:walks.sample_pair_batch"),
    ("structural.sample_negatives.s", "s", "median:structural.sample_negatives"),
    ("structural.negative_redraw_rounds", "count", "redraws"),
    ("structural.loss_and_grads.self_s", "s", "self:structural.loss_and_grads"),
    ("params.accumulate_rows.s", "s", "median:params.accumulate_rows"),
    ("params.accumulate_rows.rows_in", "count", "counter:params.accumulate_rows.rows_in"),
    ("params.accumulate_rows.rows_unique", "count",
     "counter:params.accumulate_rows.rows_unique"),
    ("params.unique_ratio", "ratio", "unique_ratio"),
    ("params.AdamOptimizer.step.s", "s", "median:params.AdamOptimizer.step"),
    ("params.AdamOptimizer.step.calls", "count", "calls:params.AdamOptimizer.step"),
    ("params.AdamOptimizer.step.rows", "count", "counter:params.AdamOptimizer.step.rows"),
    ("params.save_checkpoint.s", "s", "median:params.save_checkpoint"),
    ("params.checkpoint_bytes", "bytes", "counter:params.checkpoint_bytes"),
    ("relational.relational_backward.self_s", "s", "self:relational.relational_backward"),
    ("relational.relational_backward.calls", "count", "calls:relational.relational_backward"),
    ("relational.mlp_forward.s", "s", "median:relational.mlp_forward"),
    ("relational.relational_loss.s", "s", "median:relational.relational_loss"),
    ("relational.relational_loss.calls", "count", "calls:relational.relational_loss"),
    ("training.train.self_s", "s", "self:training.train"),
    ("training.rounds", "count", "counter:training.rounds"),
    ("training.steps", "count", "counter:training.steps"),
    ("evaluation.fit_binary_logreg.s", "s", "median:evaluation.fit_binary_logreg"),
    ("evaluation.fit_binary_logreg.calls", "count", "calls:evaluation.fit_binary_logreg"),
    ("evaluation.lbfgs_iterations", "iter/fit", "lbfgs_per_fit"),
    ("evaluation.predict_top_k.s", "s", "median:evaluation.predict_top_k"),
    ("evaluation.macro_f1.s", "s", "median:evaluation.macro_f1"),
    ("evaluation.skipped_labels", "count", "counter:evaluation.skipped_labels"),
    ("embedding_io.write_embeddings.s", "s", "median:embedding_io.write_embeddings"),
    ("embedding_io.write_embeddings.bytes", "bytes",
     "counter:embedding_io.write_embeddings.bytes"),
    ("embedding_io.read_embeddings.s", "s", "median:embedding_io.read_embeddings"),
    ("cli.import_s", "s", "import"),
    ("cli.synth.self_s", "s", "self:cli.synth"),
    ("cli.train.self_s", "s", "self:cli.train"),
    ("cli.evaluate.self_s", "s", "self:cli.evaluate"),
]


def merge(dumps) -> dict:
    """Pool the span dumps of several traced processes.

    Returns per span name the list of durations and of self times, the
    summed counters and call counts, the last value of each note, and the
    import times.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    notes: dict[str, object] = {}
    imports = []
    for dump in dumps:
        own = self_times(dump["spans"])
        for span_id, _, name, start, end in dump["spans"]:
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(own[span_id])
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        notes.update(dump["notes"])
        imports.append(dump["import_s"])
    return {"durations": durations, "selfs": selfs, "counters": counters,
            "notes": notes, "imports": imports}


def layer_metrics(merged: dict, pipelines: int) -> dict[str, float]:
    """Evaluate :data:`LAYER_METRICS` on a merged trace of ``pipelines`` runs."""
    durations, counters = merged["durations"], merged["counters"]

    def calls(name):
        return len(durations.get(name, ()))

    out = {}
    for metric, _, rule in LAYER_METRICS:
        kind, _, arg = rule.partition(":")
        if kind == "median":
            value = summarize(durations.get(arg, ()))["median"]
        elif kind == "self":
            value = summarize(merged["selfs"].get(arg, ()))["median"]
        elif kind == "calls":
            value = calls(arg) / pipelines
        elif kind == "counter":
            value = counters.get(arg, 0.0) / pipelines
        elif kind == "note":
            value = merged["notes"].get(arg, 0)
        elif kind == "redraws":
            value = (calls("structural.NoiseDistribution.sample")
                     - calls("structural.sample_negatives")) / pipelines
        elif kind == "unique_ratio":
            rows_in = counters.get("params.accumulate_rows.rows_in", 0.0)
            value = counters.get("params.accumulate_rows.rows_unique", 0.0) / rows_in \
                if rows_in else 0.0
        elif kind == "lbfgs_per_fit":
            fits = calls("evaluation.minimize")
            value = counters.get("evaluation.lbfgs_iterations", 0.0) / fits if fits else 0.0
        elif kind == "import":
            value = summarize(merged["imports"])["median"]
        else:
            raise ValueError(f"unknown metric rule {rule!r}")
        out[metric] = value
    return out


def span_table(merged: dict) -> list[dict]:
    """Median, tail percentile and n of every span's duration and self time."""
    rows = []
    for name in sorted(merged["durations"]):
        total = summarize(merged["durations"][name])
        own = summarize(merged["selfs"][name])
        rows.append({"span": name, "n": total["n"], "median_s": total["median"],
                     "tail_pct": total["tail_pct"], "tail_s": total["tail"],
                     "self_median_s": own["median"], "self_tail_s": own["tail"],
                     "total_s": sum(merged["durations"][name])})
    return rows
