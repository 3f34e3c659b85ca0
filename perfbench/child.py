"""One benchmark child process: the set-up probe or one traced CLI command.

    python3 perfbench/child.py [--trace OUT] setup EDGES EDGE_LABELS NODE_LABELS
    python3 perfbench/child.py [--trace OUT] cli ARGV...

``setup`` imports ``edgewalk.cli`` and parses the three input files with the
public loaders, which is all the work a run pays before any compute.
``cli`` calls ``edgewalk.cli.main(ARGV)`` in this process. With ``--trace``
the public functions of every layer are wrapped first (see ``layers.py``),
and the spans are written to OUT as JSON when the command ends.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    import_start = time.perf_counter()
    import edgewalk.cli
    import_s = time.perf_counter() - import_start

    tracer = None
    if trace_out is not None:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    from edgewalk import graph

    if mode == "setup":
        edges, edge_labels, node_labels = rest
        with open(edges) as fh:
            g = graph.load_edge_list(fh)
        with open(edge_labels) as fh:
            graph.load_edge_labels(fh, g)
        with open(node_labels) as fh:
            graph.load_node_labels(fh, g.index)
        code = 0
    elif mode == "cli":
        code = edgewalk.cli.main(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if tracer is not None:
        tracer.dump(trace_out, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
