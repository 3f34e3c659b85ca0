"""End-to-end and per-layer benchmark: inputs -> `edgewalk train` -> `edgewalk evaluate`.

    python3 perfbench/run.py --workload desk-joint --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to this
directory. The load is a closed loop: one pipeline at a time, from this
process. Each CLI command runs as its own process, with one BLAS thread
(``EDGEWALK_THREADS=1``).

``--trace 0`` repeats the untraced pipeline for ``--seconds`` (at least
twice) and reports the end-to-end metrics as medians over pipelines.
``--trace 1`` alternates untraced and traced pipelines (``child.py`` wraps
each layer's public functions) and reports the per-layer metrics. Either
way the outputs are checked, the last stdout line is one JSON object, and
a fuller record is written under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
from sparse_synth import write_planted_partition
from spans import check_name
from workloads import LABEL_FRACTION, WORKLOADS, steps_per_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5          # fewest set-up samples per run; setup_s is their median
COMMAND_TIMEOUT_S = 60.0
BUDGET_CAP_S = 120.0      # never start a pipeline that would end past this

END_TO_END = [
    ("pipeline_s", "s"), ("setup_s", "s"), ("train_s", "s"), ("evaluate_s", "s"),
    ("train_steps_per_s", "steps/s"), ("peak_rss_mb", "MB"), ("macro_f1_5pct", "F1"),
]


@dataclass
class Pipeline:
    traced: bool
    seconds: dict = field(default_factory=dict)   # phase -> wall seconds
    peak_rss_mb: float = 0.0
    steps: int = 0
    f1_5pct: float = math.nan
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    trace_files: list = field(default_factory=list)
    trace_dumps: list = field(default_factory=list)


def child_env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["EDGEWALK_THREADS"] = threads
    return env


def run_command(argv, env, log_path) -> tuple[float, int, float]:
    """Run one process; returns (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def edgewalk_argv(args, trace_file=None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "edgewalk", *args]
    return [sys.executable, str(HERE / "child.py"), "--trace", str(trace_file), "cli", *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_embeddings(path: Path, nodes: int, dim: int) -> str | None:
    """Shape and finiteness of an embedding file, read in small chunks.

    Chunked so this process stays small: a forked child's peak RSS counts
    the parent's size at fork time.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if header != [str(nodes), str(dim)]:
            return f"embeddings.vec header {header}, expected {nodes} x {dim}"
        rows = 0
        while chunk := list(itertools.islice(fh, 1024)):
            try:
                values = np.array([line.split()[1:] for line in chunk], dtype=np.float64)
            except ValueError:  # ragged rows or a value that is not a number
                values = np.empty(0)
            if values.shape != (len(chunk), dim):
                return f"embeddings.vec rows {rows}+ do not hold {dim} numbers each"
            if not np.isfinite(values).all():
                return "embeddings.vec holds non-finite values"
            rows += len(chunk)
    return None if rows == nodes else f"embeddings.vec holds {rows} rows, expected {nodes}"


def checkpoint_has_mlp(path: Path) -> bool:
    with open(path, "rb") as fh:
        fh.read(8)
        header = json.loads(fh.read(int.from_bytes(fh.read(4), "little")))
    return any(a["name"].startswith("mlp_") for a in header["arrays"])


def f1_at_5pct(path: Path) -> float:
    scores = [float(line.split("\t")[2]) for line in path.read_text().splitlines()[1:]
              if float(line.split("\t")[0]) == 0.05]
    return statistics.fmean(scores) if scores else math.nan


def make_inputs(wl, seed, inputs: Path, env, trace_file=None) -> tuple[float, int, float]:
    """Generate the workload's input files; returns (seconds, exit code, RSS MB)."""
    inputs.mkdir(parents=True)
    if wl.sparse_inputs:
        start = time.perf_counter()
        write_planted_partition(inputs, wl.communities, wl.community_size, wl.p_in,
                                wl.p_out, LABEL_FRACTION, seed)
        return time.perf_counter() - start, 0, 0.0
    return run_command(edgewalk_argv(wl.synth_argv(seed, inputs), trace_file), env,
                       inputs.parent / "synth.log")


def run_pipeline(wl, seed, pdir: Path, env, traced: bool) -> Pipeline:
    p = Pipeline(traced=traced)
    pdir.mkdir(parents=True)
    inputs, out = pdir / "in", pdir / "run"

    def trace_file(phase):
        if not traced:
            return None
        path = pdir / f"trace-{phase}.json"
        p.trace_files.append(path)
        return path

    start = time.perf_counter()
    synth_trace = None if wl.sparse_inputs else trace_file("synth")
    steps = [("inputs", lambda: make_inputs(wl, seed, inputs, env, synth_trace)),
             ("train", lambda: run_command(
                 edgewalk_argv(wl.train_argv(seed, inputs, out), trace_file("train")),
                 env, pdir / "train.log")),
             ("evaluate", lambda: run_command(
                 edgewalk_argv(wl.eval_argv(seed, inputs, out), trace_file("evaluate")),
                 env, pdir / "evaluate.log"))]
    for phase, step in steps:
        wall, code, rss = step()
        p.seconds[phase] = wall
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        if code != 0:
            p.problems.append(f"{phase} exited {code}")
            return p
    p.seconds["pipeline"] = time.perf_counter() - start

    problem = check_embeddings(out / "embeddings.vec", wl.nodes, wl.dim)
    if problem:
        p.problems.append(problem)
    config = json.loads((out / "manifest.json").read_text())["config"]
    report = (out / "training_report.txt").read_text().splitlines()
    rounds = sum(1 for line in report if line and not line.startswith("#"))
    p.steps = rounds * steps_per_round(config, wl.nodes)
    p.f1_5pct = f1_at_5pct(out / "eval_results.tsv")
    if not p.f1_5pct > wl.f1_floor:
        p.problems.append(f"macro_f1_5pct {p.f1_5pct:.4f} not above {wl.f1_floor}")
    if not wl.joint and checkpoint_has_mlp(out / "checkpoint.bin"):
        p.problems.append("lambda=0 checkpoint holds classifier arrays")
    for name in ("graph.edges", "graph.edge_labels", "graph.node_labels"):
        p.digests[name] = sha256(inputs / name)
    for name in ("embeddings.vec", "checkpoint.bin", "eval_results.tsv"):
        p.digests[name] = sha256(out / name)
    return p


def setup_probe(inputs: Path, env, log_path, trace_file=None) -> tuple[float, int]:
    files = [str(inputs / n) for n in ("graph.edges", "graph.edge_labels",
                                       "graph.node_labels")]
    trace = ["--trace", str(trace_file)] if trace_file is not None else []
    wall, code, _ = run_command([sys.executable, str(HERE / "child.py"), *trace,
                                 "setup", *files], env, log_path)
    return wall, code


def environment(threads: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "EDGEWALK_THREADS": threads, "seed": seed}


def end_to_end(good, setup_times) -> dict:
    """End-to-end metrics: medians over the run's good untraced pipelines
    and over its set-up probes."""
    def median(key):
        return statistics.median(key(p) for p in good)

    return {
        "pipeline_s": median(lambda p: p.seconds["pipeline"]),
        "setup_s": statistics.median(setup_times),
        "train_s": median(lambda p: p.seconds["train"]),
        "evaluate_s": median(lambda p: p.seconds["evaluate"]),
        "train_steps_per_s": median(lambda p: p.steps / p.seconds["train"]),
        "peak_rss_mb": median(lambda p: p.peak_rss_mb),
        "macro_f1_5pct": median(lambda p: p.f1_5pct),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgewalk" / "cli.py").is_file():
        print(f"error: no edgewalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    threads = "1"  # two BLAS threads on two cores stalled for seconds under load
    env = child_env(threads)
    work = HERE / "work"
    run_dir = work / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    info = environment(threads, args.seed)
    print("environment " + json.dumps(info, sort_keys=True), flush=True)

    try:
        record = measure(wl, args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["environment"] = info
    record["workload"] = wl.name
    (work / "results").mkdir(parents=True, exist_ok=True)
    result_path = work / "results" / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record written to {result_path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


def measure(wl, args, env, run_dir: Path) -> dict:
    """Run pipelines for ``args.seconds`` (at least two), each followed by one
    set-up probe on its inputs; with tracing on, every other pipeline and
    probe is traced."""
    started = time.perf_counter()
    pipelines: list[Pipeline] = []
    setup_times, setup_failures, probe_traces = [], 0, []
    while True:
        traced = args.trace == 1 and len(pipelines) % 2 == 1
        pdir = run_dir / f"p{len(pipelines)}"
        p = run_pipeline(wl, args.seed, pdir, env, traced)
        pipelines.append(p)
        p.trace_dumps = [json.loads(f.read_text()) for f in p.trace_files if f.is_file()]
        reference = next(q for q in pipelines if not q.problems or q is p)
        if reference is not p and not p.problems and p.digests != reference.digests:
            p.problems.append("outputs differ from the first good pipeline of this seed "
                              + ("(tracing is not transparent)" if traced
                                 else "(not deterministic)"))
        print(f"pipeline {len(pipelines)}{' traced' if traced else ''}: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in p.seconds.items())
              + f", peak {p.peak_rss_mb:.0f} MB, macro_f1_5pct {p.f1_5pct:.4f}"
              + (f", PROBLEMS {p.problems}" if p.problems else ""), flush=True)
        shutil.rmtree(pdir / "run", ignore_errors=True)
        inputs = pdir / "in"
        if (inputs / "graph.node_labels").is_file():
            probe_trace = pdir / "trace-setup.json" if traced else None
            wall, code = setup_probe(inputs, env, pdir / "setup.log", probe_trace)
            setup_times.append(wall)
            setup_failures += code != 0
            if probe_trace is not None and code == 0:
                probe_traces.append(json.loads(probe_trace.read_text()))
        elapsed = time.perf_counter() - started
        typical = elapsed / len(pipelines)
        if len(pipelines) >= 2 and (elapsed + typical > min(args.seconds, BUDGET_CAP_S)):
            break
    while setup_times and len(setup_times) < SETUP_PROBES:
        wall, code = setup_probe(inputs, env, pdir / "setup.log")
        setup_times.append(wall)
        setup_failures += code != 0

    failed = [p for p in pipelines if p.problems]
    correct = not failed and setup_failures == 0
    record = {"setup_seconds": setup_times,
              "pipelines": [{"traced": p.traced, "seconds": p.seconds, "steps": p.steps,
                             "peak_rss_mb": p.peak_rss_mb, "macro_f1_5pct": p.f1_5pct,
                             "problems": p.problems} for p in pipelines]}
    untraced = [p for p in pipelines if not p.traced and not p.problems]
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        values = end_to_end(untraced, setup_times) if untraced else {}
        for name, unit in END_TO_END:
            metrics[check_name(name)] = {"value": values.get(name), "unit": unit}
    else:
        traced = [p for p in pipelines if p.traced]
        dumps = [d for p in traced for d in p.trace_dumps] + probe_traces
        merged = layers.merge(dumps)
        values = layers.layer_metrics(merged, len(traced))
        if not wl.joint:
            calls = {n: len(v) for n, v in merged["durations"].items()
                     if n.startswith("relational.")}
            if any(calls.values()):
                for p in traced:
                    p.problems.append(f"relational layer ran with lambda=0: {calls}")
                failed = [p for p in pipelines if p.problems]
                correct = False
        for name, unit, _ in layers.LAYER_METRICS:
            metrics[check_name(name)] = {"value": values[name], "unit": unit}
        good_traced = [p for p in traced if not p.problems]
        if untraced and good_traced:
            base = statistics.median(p.seconds["pipeline"] for p in untraced)
            overhead = statistics.median(p.seconds["pipeline"] for p in good_traced) - base
            record["tracing_overhead_s"] = overhead
            record["tracing_overhead_share"] = overhead / base
        record["stop_reason"] = merged["notes"].get("training.stop_reason")
        record["span_table"] = layers.span_table(merged)
        for row in record["span_table"]:
            tail = (f"p{row['tail_pct']:g} {row['tail_s']:.6f}" if row["tail_pct"] is not None
                    else "no tail (n < 20)")
            print(f"span {row['span']:<45} n {row['n']:>6}  median {row['median_s']:.6f} s  "
                  f"{tail}  self median {row['self_median_s']:.6f} s  "
                  f"total {row['total_s']:.3f} s")
        print(f"stop reason {record['stop_reason']}; tracing overhead "
              f"{record.get('tracing_overhead_s', math.nan):+.3f} s")

    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"error_rate {len(failed) / len(pipelines):.4f} fraction "
          f"({len(failed)} of {len(pipelines)} pipelines)")
    record["result"] = {"correct": correct, "attempted": len(pipelines),
                        "failed": len(failed), "metrics": metrics}
    return record


if __name__ == "__main__":
    sys.exit(main())
