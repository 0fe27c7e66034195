"""Compare the outputs of two source trees on the benchmark's documents.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 7]

Builds the scenario documents of every perfbench workload once per seed,
in this process (perfbench is imported read-only).  Both trees then get
the same documents: perfbench/fe.py's eigsh has no start vector, so a
document built in another process can have a different counting interval.
Each tree runs in its own subprocess, which imports qgraph from the given
src directory, and evaluates, for every distinct document: the count
report (text and JSON), evans_csv with the map column, and every verify
suite that applies, at rounds 4 and at the default.  A second pass makes
the verify tables take their failure path, which the benchmark's draws
never reach: on each `qgraph example` reference, with seeds 1 to 3 and 6
draws, the first and third draws are set onto eigenvalues of the first
split piece (map poles) for the single or double and minors tables, and
onto eigenvalues of the graph (on the spectrum) for the resolvent and
ugamma tables.  A third pass calls library functions that no command
reaches, on the same references: count_eigenvalues of the graph and of
each Dirichlet piece over the sweep span, u_gamma at every slot at the
projections suite's lambda, and at slot 0 with random Cayley (complex)
vertex data in place of the reference's, inner_product_check at that
lambda with a complex source, and the z, z' and solve_trace of the identity of a
FrameBundle of that lambda and of one of 9 lambdas across the sweep;
and, at that real lambda, at it plus 0.5i and at 5 lambdas inside the
sweep, the public split functions: split_evans_factors, two_sided_value,
m1 and m2 of the 2 x 2 builder of a two-cut split, verify_single_split
or verify_double_split, and minor_identity_check; and the summary, the
vertex cut's count and every zero and pole of verify_counting on three
splits whose pieces have eigenfunctions with no flux at the cut (removable
map poles), on three two-wire splits whose map poles lie about 4e-10 to
4e-8 apart relative to lambda, and on four single cuts of Kirchhoff stars
of equal wires, whose eigenvalues (m pi)^2 have multiplicity n - 1; every
float at repr precision.  An output that raises is compared as its error.  Prints
each output that differs, with its first differing line; the largest
relative and the largest absolute difference between its numeric tokens
(paired in order) and how many of them moved, since a residual that
moves from 0 to 1e-18 has relative difference 1; and whether its
PASS/FAIL words match.
Exits 1 if any output differs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
VERIFY_ROUNDS = (4, None)  # None: the suite's default
FORCED_SEEDS, FORCED_ROUNDS = (1, 2, 3), 6


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


def _forced_tasks(qgraph, cli):
    """(key, scenario, suite, seed, the two lambdas for the first and third
    draws) of the failure-path pass, on the three reference scenarios."""
    for name in sorted(cli._EXAMPLES):
        sc = cli.parse_scenario(cli._EXAMPLES[name])
        span = sc.sweep[:2]
        piece = qgraph.split_graph(sc.graph, sc.bc, sc.splits)[sc.splits.pieces[0].factor_key]
        poles = [z for z, _ in qgraph.count_eigenvalues(*piece, span).zeros]
        eigs = [z for z, _ in qgraph.count_eigenvalues(sc.graph, sc.bc, span).zeros]
        split = "single" if sc.splits.mode == "single" else "double"
        for which, onto in ((split, poles), ("minors", poles), ("resolvent", eigs),
                            ("ugamma", eigs)):
            for seed in FORCED_SEEDS:
                yield (f"forced/{name}/verify-{which}-seed{seed}", sc, which, seed,
                       (onto[0], onto[1 % len(onto)]))


def _text(*values):
    """Every entry of each value at repr precision, one value a line."""
    import numpy as np
    return "".join(" ".join(map(repr, np.ravel(v).tolist())) + "\n" for v in values)


def _located(pairs):
    """(location, multiplicity) pairs as location:multiplicity, locations at repr precision."""
    return " ".join(f"{float(z)!r}:{m}" for z, m in pairs)


def _library_tasks(qgraph, cli):
    """(key, function giving the output text) of the library pass."""
    import numpy as np
    bundle = qgraph.FrameBundle
    for name in sorted(cli._EXAMPLES):
        sc = cli.parse_scenario(cli._EXAMPLES[name])
        g, bc, span = sc.graph, sc.bc, sc.sweep[:2]
        parts = qgraph.split_graph(g, bc, sc.splits)
        problems = [("graph", (g, bc))] + [(p.factor_key, parts[p.factor_key])
                                           for p in sc.splits.pieces]
        for key, problem in problems:
            yield (f"library/{name}/count-{key}",
                   lambda problem=problem: repr(qgraph.count_eigenvalues(*problem, span)) + "\n")
        lam = 0.5 * (sc.sweep[0] + sc.sweep[1]) + 0.05  # the projections suite's lambda
        for i in range(2 * g.n):
            def paths(g=g, bc=bc, lam=lam, i=i):
                ug = qgraph.u_gamma(g, bc, lam, i)
                return _text(ug.lam, ug.index, ug.sup_discrepancy, ug.trace_residual,
                             ug.coefficients, *ug.direct, *ug.formula)
            yield f"library/{name}/u_gamma-e{i}", paths
        cayley = _cayley(qgraph, g.n, np.random.default_rng(3))

        def complex_paths(g=g, bc=cayley, lam=lam):
            ug = qgraph.u_gamma(g, bc, lam, 0)
            return _text(ug.sup_discrepancy, ug.trace_residual, ug.coefficients, *ug.formula)
        yield f"library/{name}/u_gamma-cayley-e0", complex_paths
        yield (f"library/{name}/inner_product-complex-source",
               lambda g=g, bc=bc, lam=lam: _text(qgraph.inner_product_check(
                   g, bc, lam, np.arange(1.0, 2 * g.n + 1) * (1.0 - 0.5j),
                   [(1.0 + 2.0j) / (j + 1) for j in range(g.n)])))
        for key, make, lams in (("one", bundle, lam), ("array", bundle, np.linspace(*span, 9))):
            def frames(make=make, g=g, bc=bc, lams=lams):
                b = make(g, bc, lams)
                return _text(b.z, b.zp, b.solve_trace(np.eye(2 * g.n)))
            yield f"library/{name}/bundle-{key}", frames
        yield from _split_tasks(qgraph, name, sc, lam)
    yield from _identity_tasks(qgraph)


def _cayley(qgraph, n, rng):
    """Random complex self-adjoint vertex data from a unitary, i (I - U) u(0)
    + (I + U) u'(0) = 0, with random real outer pairs."""
    import numpy as np
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    tg = rng.uniform(0, np.pi, n)
    return qgraph.BoundaryConditions(1j * (np.eye(n) - u), np.eye(n) + u, np.cos(tg), np.sin(tg))


def _split_tasks(qgraph, name, sc, lam):
    """(key, function giving the output text) of the public split functions
    of one reference at lam, at lam + 0.5i and at 5 lambdas inside the sweep."""
    import numpy as np
    g, bc, spec = sc.graph, sc.bc, sc.splits
    if spec.mode == "single":
        check = lambda at: qgraph.verify_single_split(g, bc, spec.cuts[0], at)
        build = None
    else:
        check = lambda at: qgraph.verify_double_split(g, bc, spec, at)
        build = (qgraph.two_sided_2x2_same_wire if spec.mode == "same_wire"
                 else qgraph.two_sided_2x2_two_wires)
    for where, at in (("real", lam), ("complex", lam + 0.5j),
                      ("array", np.linspace(*sc.sweep[:2], 7)[1:-1])):
        def factors(at=at):
            fs = qgraph.split_evans_factors(g, bc, spec, at)
            return " ".join(fs) + "\n" + _text(*fs.values())
        tasks = [("factors", factors),
                 ("two_sided", lambda at=at: _text(qgraph.two_sided_value(g, bc, spec, at))),
                 ("split_check", lambda at=at: _text(check(at))),
                 ("minors", lambda at=at: _text(qgraph.minor_identity_check(g, bc, at)))]
        if build is not None:
            def builder(at=at):
                two = build(g, bc, spec, at)
                return _text(two.m1, two.m2)
            tasks.append(("builder", builder))
        for key, fn in tasks:
            yield f"library/{name}/{key}-{where}", fn


def _identity_tasks(qgraph):
    """(key, function giving the output text) of verify_counting on the
    Kirchhoff star of wires 1, 1.3, 1.3 with Dirichlet ends, cut once and
    twice on wire 0, on the decoupled robin star of wires 1, 1.5, on the
    Kirchhoff stars of wires 1, 1 + eps cut at the middle of both wires,
    whose map poles lie about 4 eps lambda apart, and on the Kirchhoff
    stars of n = 3, 4 and 5 unit wires with Dirichlet ends cut on wire 0 at
    0.5, and of 4 at 0.3: the identity's summary, the vertex cut's count
    (None from a tree without it), the zeros of every term and the map's
    poles."""
    free = qgraph.free_edge
    kirchhoff = (qgraph.StarGraph((free(1.0), free(1.3), free(1.3))),
                 qgraph.build_preset("kirchhoff", 3))
    robin = (qgraph.StarGraph((free(1.0), free(1.5))),
             qgraph.build_preset("robin", 2, theta=[-3.0, 0.0, 0.0]))
    cases = [("removable-poles/kirchhoff-single", kirchhoff, ((0, 0.5),), qgraph.SINGLE,
              (1.0, 60.0)),
             ("removable-poles/kirchhoff-same-wire", kirchhoff, ((0, 0.7), (0, 0.3)),
              qgraph.SAME_WIRE, (1.0, 60.0)),
             ("removable-poles/robin-single", robin, ((0, 0.4),), qgraph.SINGLE, (-20.0, 30.0))]
    for eps, interval in ((2e-10, (10000.0, 10300.0)), (2e-9, (10000.0, 10300.0)),
                          (2e-8, (5.0, 60.0))):
        near = (qgraph.StarGraph((free(1.0), free(1.0 + eps))), qgraph.build_preset("kirchhoff", 2))
        cases.append((f"near-coincident-poles/eps-{eps!r}", near, ((0, 0.5), (1, 0.5)),
                      qgraph.TWO_WIRES, interval))
    for n, cut in ((3, 0.5), (4, 0.5), (5, 0.5), (4, 0.3)):
        equal = (qgraph.StarGraph((free(1.0),) * n), qgraph.build_preset("kirchhoff", n))
        cases.append((f"equal-wires/n-{n}-cut-{cut!r}", equal, ((0, cut),), qgraph.SINGLE,
                      (5.0, 60.0)))
    for name, problem, cuts, mode, interval in cases:
        def identity(problem=problem, spec=qgraph.SplitSpec(cuts, mode), interval=interval):
            rep = qgraph.verify_counting(*problem, spec, interval)
            terms = [("full", rep.full), *rep.pieces.items(), ("map", rep.map_report)]
            lines = [rep.summary(), f"vertex cut: {getattr(rep, 'vertex_count', None)}"]
            lines += [f"{key} zeros: {_located(r.zeros)}" for key, r in terms]
            return "\n".join(lines + [f"map poles: {_located(rep.map_report.poles)}"]) + "\n"
        yield f"library/{name}", identity


def worker(src, path):
    """Every task of the documents in path and of the failure-path pass, on
    the tree at src: prints one JSON object of output text by key."""
    sys.path[:] = [src] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    import numpy as np
    import qgraph
    from qgraph import cli

    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    out = {}

    def run(key, sc, task):
        try:
            with np.errstate(all="ignore"):
                if task[0] == "count":
                    text, machine, ok = cli.count_report(sc)
                    out[key + ".txt"] = f"{text}holds: {ok}\n"
                    out[key + ".json"] = json.dumps(machine, sort_keys=True)
                elif task[0] == "evans":
                    out[key] = cli.evans_csv(sc, with_map=True)
                elif task[0] == "call":
                    out[key] = task[1]()
                else:
                    _, which, seed, rounds = task
                    text, ok = cli.verify_table(sc, which, seed=seed, rounds=rounds)
                    out[key] = f"{text}passed: {ok}\n"
        except Exception as exc:  # compared as output
            out[key] = f"raised {type(exc).__name__}: {exc}\n"

    for key, doc, task in _tasks(docs):
        run(key, cli.parse_scenario(doc), task)
    sample = cli._sample_lambdas
    for key, sc, which, seed, (first, third) in _forced_tasks(qgraph, cli):
        def forced(rng, sweep, rounds, first=first, third=third):
            lams = sample(rng, sweep, rounds)
            lams[[0, 2]] = first, third
            return lams
        cli._sample_lambdas = forced
        run(key, sc, ("verify", which, seed, FORCED_ROUNDS))
    cli._sample_lambdas = sample
    for key, fn in _library_tasks(qgraph, cli):
        run(key, None, ("call", fn))
    json.dump(out, sys.stdout)


def _first_difference(a, b):
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}:\n    - {x}\n    + {y}"
    return f"line counts {len(la)} and {len(lb)}"


_NUMBER = re.compile(r"[-+]?(?:\bnan\b|\binf\b|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_VERDICT = re.compile(r"\b(?:PASS|FAIL)\b")


def _gap(x, y, relative):
    """|x - y|, relative to the larger of |x| and |y| if relative; 0 for
    equal numbers and for two NaNs, inf where it is not finite."""
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0
    gap = abs(x - y) / (max(abs(x), abs(y)) if relative else 1.0)
    return gap if math.isfinite(gap) else math.inf


def _numeric_difference(a, b):
    """The largest relative and absolute differences between the numeric
    tokens of a and b, paired in order, how many moved, and whether their
    PASS/FAIL words match."""
    x, y = ([float(t) for t in _NUMBER.findall(text)] for text in (a, b))
    if len(x) == len(y):
        rel, diff = ([_gap(p, q, relative) for p, q in zip(x, y)] for relative in (True, False))
        gap = (f"largest relative difference {max(rel, default=0.0):.2g}, largest absolute "
               f"{max(diff, default=0.0):.2g}, {sum(d > 0 for d in diff)} of {len(x)} "
               "numeric tokens moved")
    else:
        gap = f"{len(x)} and {len(y)} numeric tokens"
    same = _VERDICT.findall(a) == _VERDICT.findall(b)
    return f"{gap}; PASS/FAIL words {'match' if same else 'differ'}"


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
            print(f"DIFFERS {key}: {_first_difference(parent[key], change[key])}\n"
                  f"    {_numeric_difference(parent[key], change[key])}")
        else:
            print(f"DIFFERS {key}: only in one tree")
    keys = set(parent) | set(change)
    forced, library = (sum(1 for k in keys if k.startswith(p)) for p in ("forced/", "library/"))
    print(f"{len(keys) - len(differ)} of {len(keys)} outputs identical "
          f"({len(docs)} documents, seeds {' '.join(map(str, args.seeds))}; "
          f"{forced} of them failure-path tables, {library} library outputs)")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
