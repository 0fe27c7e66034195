"""Set-up probe: import qgraph from a source tree, parse scenario documents
and build their splits, then print the seconds that took.

Reads {"src": <source directory>, "scenarios": [<scenario document>, ...]}
as JSON on standard input.  run.py starts it once per set-up sample, so
every sample pays the imports a fresh `qgraph` process pays.
"""
import json
import os
import sys
from time import perf_counter


def main():
    job = json.load(sys.stdin)
    t0 = perf_counter()
    sys.path.insert(0, job["src"])
    import qgraph.cli
    from qgraph.graphs import split_graph
    for doc in job["scenarios"]:
        sc = qgraph.cli.parse_scenario(doc)
        split_graph(sc.graph, sc.bc, sc.splits)
    elapsed = perf_counter() - t0
    if not os.path.abspath(qgraph.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        sys.exit(f"imported qgraph from {qgraph.__file__}, not from {job['src']}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
