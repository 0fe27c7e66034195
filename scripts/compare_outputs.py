"""Compare the outputs of two source trees on the benchmark's documents.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 7]

Builds the scenario documents of every perfbench workload once per seed,
in this process (perfbench is imported read-only).  Both trees then get
the same documents: perfbench/fe.py's eigsh has no start vector, so a
document built in another process can have a different counting interval.
Each tree runs in its own subprocess, which imports qgraph from the given
src directory, and evaluates, for every distinct document: the count
report (text and JSON), evans_csv with the map column, and every verify
suite that applies, at rounds 4 and at the default.  An output that raises
is compared as its error.  Prints each output that differs, with its first
differing line, and exits 1 if any does.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
VERIFY_ROUNDS = (4, None)  # None: the suite's default


def documents(seeds):
    """(key, document, seed, split mode) for every distinct document of
    every workload at each seed; the seed also seeds the verify draws."""
    sys.path.insert(0, PERFBENCH)
    import workloads

    out, seen = [], set()
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            for label, star, doc in workload(seed).cases:
                text = json.dumps(doc, sort_keys=True)
                if (seed, text) not in seen:
                    seen.add((seed, text))
                    out.append((f"seed{seed}/{name}/{label}", doc, seed, star.mode))
    return out


def _tasks(docs):
    for key, doc, seed, mode in docs:
        yield f"{key}/count", doc, ("count",)
        yield f"{key}/evans", doc, ("evans",)
        for which in ("single" if mode == "single" else "double", "minors", "resolvent",
                      "ugamma", "projections"):
            for rounds in VERIFY_ROUNDS:
                yield f"{key}/verify-{which}-{rounds or 'default'}", doc, ("verify", which, seed, rounds)


def worker(src, path):
    """Every task of the documents in path, on the tree at src: prints one
    JSON object of output text by key."""
    sys.path[:] = [src] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    import numpy as np
    from qgraph import cli

    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    out = {}
    for key, doc, task in _tasks(docs):
        sc = cli.parse_scenario(doc)
        try:
            with np.errstate(all="ignore"):
                if task[0] == "count":
                    text, machine, ok = cli.count_report(sc)
                    out[key + ".txt"] = f"{text}holds: {ok}\n"
                    out[key + ".json"] = json.dumps(machine, sort_keys=True)
                    continue
                if task[0] == "evans":
                    out[key] = cli.evans_csv(sc, with_map=True)
                    continue
                _, which, seed, rounds = task
                text, ok = cli.verify_table(sc, which, seed=seed, rounds=rounds)
                out[key] = f"{text}passed: {ok}\n"
        except Exception as exc:  # compared as output
            out[key] = f"raised {type(exc).__name__}: {exc}\n"
    json.dump(out, sys.stdout)


def _first_difference(a, b):
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}:\n    - {x}\n    + {y}"
    return f"line counts {len(la)} and {len(lb)}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = p.parse_args(argv)
    docs = documents(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "documents.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)
        runs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker",
                                  os.path.abspath(src), path], stdout=subprocess.PIPE)
                for src in (args.parent_src, args.change_src)]
        outputs = []
        for run in runs:
            stdout, _ = run.communicate()
            if run.returncode:
                sys.exit(f"a worker exited with {run.returncode}")
            outputs.append(json.loads(stdout))
    parent, change = outputs
    differ = [k for k in parent if parent[k] != change.get(k)] + [k for k in change if k not in parent]
    for key in differ:
        if key in parent and key in change:
            print(f"DIFFERS {key}: {_first_difference(parent[key], change[key])}")
        else:
            print(f"DIFFERS {key}: only in one tree")
    keys = set(parent) | set(change)
    print(f"{len(keys) - len(differ)} of {len(keys)} outputs identical "
          f"({len(docs)} documents, seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
