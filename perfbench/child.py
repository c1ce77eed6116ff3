"""One measured process: a single `orbitroles pipeline` call, or the census
oracle cross-check. Started fresh by run.py for every measurement.

    python3 perfbench/child.py pipeline --result R.json [--trace] -- <pipeline args>
    python3 perfbench/child.py oracle --result R.json --seed S [--tiny]

Writes one JSON object to --result. The child imports orbitroles from
the ``src`` directory named on PYTHONPATH by run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def run_pipeline(cli_args: list, trace: bool) -> dict:
    from orbitroles import cli

    tracer = None
    if trace:
        from tracing import Tracer, install, layer_metrics

        tracer = Tracer(run_id=str(cli_args[cli_args.index("--out") + 1]))
        install(tracer)
    with redirect_stdout(io.StringIO()):
        cpu_start = time.process_time()
        start = time.perf_counter()
        rc = cli.main(["pipeline"] + cli_args)
        end = time.perf_counter()
        cpu_end = time.process_time()
    result = {
        "rc": rc,
        "pipeline_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, end - start, (start, end))
        result["spans"] = tracer.spans
    return result


def er_graph(n, p, seed):
    import numpy as np
    from orbitroles.graph import Graph

    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def run_oracle(seed: int, tiny: bool) -> dict:
    """count_orbits against the brute-force oracle on seeded ER graphs."""
    import numpy as np
    from orbitroles.graphlets import count_orbits_bruteforce
    from orbitroles.orbits import count_orbits

    configs = [(24, 0.15), (40, 0.08)] if tiny else [(30, 0.2), (60, 0.08), (90, 0.05)]
    checks = []
    for i, (n, p) in enumerate(configs):
        g = er_graph(n, p, seed * 1000 + i)
        same = bool(np.array_equal(count_orbits(g).counts, count_orbits_bruteforce(g).counts))
        checks.append({"n": n, "p": p, "m": g.edge_count, "agree": same})
    return {"checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["pipeline", "oracle"])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    if args.mode == "pipeline":
        result = run_pipeline(argv[cut + 1 :], args.trace)
    else:
        result = run_oracle(args.seed, args.tiny)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
