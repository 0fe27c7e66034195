"""Scenario-file command line front end.

A scenario is a JSON document:

    {
      "graph": {"edges": [{"length": 1.0,
                           "potential": {"pieces": [[0.0, 0.5, -10.0],
                                                    [0.5, 1.0, 0.0]]}}]},
      "boundary": {"preset": "kirchhoff", "ends": "neumann"},
      "splits":   {"mode": "single", "cuts": [[0, 0.5]]},
      "sweep":    {"lambda_min": 5.0, "lambda_max": 60.0, "samples": 1024},
      "count":    {"intervals": [[5.0, 60.0]]}
    }

Boundary conditions come either from a preset (dirichlet, neumann,
kirchhoff, robin; "ends" swaps the outer-endpoint condition, "theta" feeds
robin) or as explicit matrices, row-major with every entry a [re, im]
pair; beta1/beta2 are the diagonal entries, one pair per edge.  Potentials
are piecewise constant ("pieces": [start, end, value] rows) or sampled
("xs"/"vs" arrays); omitting the key means a free edge.

Commands: evans (CSV sweep of the Evans functions), count (eigenvalue
counting identity report), verify (residual tables for the cross-check
suites), example (scenario + curve bundles for the three reference
configurations).  Exit codes: 0 success, 2 validation, 3 numerical,
4 endpoint-on-spectrum, 5 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import maps
from .counting import EndpointOnSpectrum, verify_counting
from .evans import FrameBundle, _evans_values, chunked
from .graphs import (DIRICHLET_PAIR, NEUMANN_PAIR, SAME_WIRE, SINGLE, TWO_WIRES,
                     BoundaryConditions, BoundaryData, EdgeSpec, GraphError,
                     PiecewiseConstant, Sampled, SplitSpec, StarGraph,
                     as_index, build_preset, free_edge)
from .resolvent import (QuadratureFailure, _applications, _resolvent_residuals,
                        _u_gamma_residuals, build_projections, projection_equations)


class ScenarioError(ValueError):
    pass


@contextmanager
def _reading(where):
    """Report a missing key or a wrongly shaped value of a scenario block."""
    try:
        yield
    except KeyError as e:
        raise ScenarioError(f"{where} is missing {e.args[0]!r}") from e
    except (TypeError, AttributeError) as e:
        raise ScenarioError(f"bad {where}: {e}") from e


# ------------------------------------------------------------ serialization

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _complex_from(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ScenarioError(f"matrix entries must be [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _matrix_from(rows):
    return np.array([[_complex_from(e) for e in row] for row in rows])


def _vector_from(row):
    return np.array([_complex_from(e) for e in row])


def _pairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in np.ravel(values)]


def _matrix_to(m):
    return [_pairs(row) for row in np.atleast_2d(m)]


def _parse_potential(spec, length):
    if spec is None:
        return free_edge(length).potential
    if "pieces" in spec:
        return PiecewiseConstant(tuple((float(a), float(b), float(v))
                                       for a, b, v in spec["pieces"]))
    if "xs" in spec:
        return Sampled(tuple(spec["xs"]), tuple(spec["vs"]))
    raise ScenarioError("potential needs either 'pieces' or 'xs'/'vs'")


def _potential_to(p):
    if isinstance(p, PiecewiseConstant):
        return {"pieces": [[a, b, v] for a, b, v in p.pieces]}
    return {"xs": list(p.xs), "vs": list(p.vs)}


_END_PAIRS = {"dirichlet": DIRICHLET_PAIR, "neumann": NEUMANN_PAIR}


def _parse_boundary(spec, n):
    if "preset" in spec:
        extra = {"theta": spec["theta"]} if "theta" in spec else {}
        try:
            bc = build_preset(spec["preset"], n, **extra)
        except ValueError as e:
            raise ScenarioError(str(e)) from e
        ends = spec.get("ends")
        if ends is not None:
            if ends not in _END_PAIRS:
                raise ScenarioError(f"unknown end condition {ends!r}")
            g, h = _END_PAIRS[ends]
            bc = BoundaryConditions(bc.alpha1, bc.alpha2,
                                    np.full(n, g), np.full(n, h))
        return bc
    return BoundaryConditions(_matrix_from(spec["alpha1"]), _matrix_from(spec["alpha2"]),
                              _vector_from(spec["beta1"]), _vector_from(spec["beta2"]))


def _boundary_to(block, bc):
    if "preset" in block:
        return {k: block[k] for k in ("preset", "ends", "theta") if k in block}
    return {"alpha1": _matrix_to(bc.alpha1), "alpha2": _matrix_to(bc.alpha2),
            "beta1": _pairs(bc.beta1), "beta2": _pairs(bc.beta2)}


@dataclass(frozen=True)
class Scenario:
    graph: StarGraph
    bc: BoundaryConditions
    splits: object            # SplitSpec or None
    sweep: object             # (lambda_min, lambda_max, samples) or None
    count_intervals: tuple    # ((lo, hi), ...), possibly empty
    count_grid: object        # int or None
    boundary_block: dict      # as given (preserves preset form)

    def to_dict(self):
        edges = [{"length": e.length, "potential": _potential_to(e.potential)}
                 for e in self.graph.edges]
        d = {"graph": {"edges": edges},
             "boundary": _boundary_to(self.boundary_block, self.bc)}
        if self.splits is not None:
            d["splits"] = {"mode": self.splits.mode,
                           "cuts": [[j, s] for j, s in self.splits.cuts]}
        if self.sweep is not None:
            lo, hi, m = self.sweep
            d["sweep"] = {"lambda_min": lo, "lambda_max": hi, "samples": m}
        if self.count_intervals or self.count_grid is not None:
            block = {"intervals": [[lo, hi] for lo, hi in self.count_intervals]}
            if self.count_grid is not None:
                block["grid"] = self.count_grid
            d["count"] = block
        return d


def parse_scenario(data: dict) -> Scenario:
    with _reading("scenario"):
        edge_specs, boundary = list(data["graph"]["edges"]), data["boundary"]
    edges = []
    for i, es in enumerate(edge_specs):
        with _reading(f"graph.edges[{i}]"):
            length = float(es["length"])
            edges.append(EdgeSpec(length, _parse_potential(es.get("potential"), length)))
    graph = StarGraph(tuple(edges))
    with _reading("boundary"):
        bc = _parse_boundary(boundary, graph.n)
    splits = None
    if "splits" in data:
        with _reading("splits"):
            mode, cuts = data["splits"]["mode"], data["splits"]["cuts"]
        with _reading("splits.cuts"):
            splits = SplitSpec(tuple((j, float(s)) for j, s in cuts), mode)
    sweep = None
    if "sweep" in data:
        with _reading("sweep"):
            blk = data["sweep"]
            sweep = (float(blk["lambda_min"]), float(blk["lambda_max"]),
                     as_index(blk["samples"], "sweep.samples"))
        if sweep[2] < 0:
            raise ScenarioError("samples must be >= 0")
        if not np.isfinite(sweep[:2]).all():
            raise ScenarioError(f"sweep lambda range [{sweep[0]}, {sweep[1]}] is not finite")
    with _reading("count"):
        blk = data.get("count", {})
        intervals = tuple((float(lo), float(hi)) for lo, hi in blk.get("intervals", []))
        grid = None if blk.get("grid") is None else as_index(blk["grid"], "count.grid")
        if grid is not None and grid < 1:
            raise ScenarioError(f"count grid must be at least 1, got {grid}")
    return Scenario(graph=graph, bc=bc, splits=splits, sweep=sweep,
                    count_intervals=intervals, count_grid=grid,
                    boundary_block=boundary)


def scenario_json(sc: Scenario) -> str:
    return json.dumps(sc.to_dict(), indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


# ------------------------------------------------------------------- sweeps

def evans_csv(sc: Scenario, samples=None, with_map=False) -> str:
    """CSV sweep: lambda, the full Evans function, one column pair per
    split piece, and optionally the two-sided map value."""
    if sc.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    lo, hi, m = sc.sweep
    if samples is not None:
        m = as_index(samples, "sweep samples")
        if m < 0:
            raise ScenarioError(f"sweep samples must be >= 0, got {m}")
    if with_map and sc.splits is None:
        raise ScenarioError("the map column needs a splits block")
    lams = np.linspace(lo, hi, m)
    if sc.splits is None:
        keys, columns = (), _evans_values([(sc.graph, sc.bc)])(lams)
    else:
        terms = maps.SplitTerms(sc.graph, sc.bc, sc.splits)

        def with_map_batch(ls):  # the Evans columns and the map from one stack
            t = terms.evans.plan.stack(ls)
            with np.errstate(all="ignore"):
                value = terms.value(ls, t)
            return terms.evans.values(t, ls) + [value]
        keys = terms.keys
        columns = chunked(with_map_batch, lams, terms.evans.size) if with_map else terms.evans(lams)
    header = ["lambda", "Re(E)", "Im(E)"]
    for k in keys:
        header += [f"Re(E[{k}])", f"Im(E[{k}])"]
    if with_map:
        header += ["Re(map)", "Im(map)"]
    table = np.column_stack([lams] + [p for col in columns for p in (np.real(col), np.imag(col))])
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [row % tuple(values) for values in table.tolist()]
    return "\n".join([",".join(header)] + lines) + "\n"


# ----------------------------------------------------------------- counting

def _report_dict(r):
    return {"interval": [r.interval[0], r.interval[1]],
            "zeros": [[z, m] for z, m in r.zeros],
            "poles": [[p, o] for p, o in r.poles],
            "count": r.count, "delta_N": r.delta_N}


def _locations(pairs):
    if not pairs:
        return "none"
    return ", ".join(f"{z:.9g}" + (f" (x{m})" if m > 1 else "")
                     for z, m in pairs)


def count_report(sc: Scenario, grid=None):
    """Counting identity over every requested interval.

    Returns (human-readable text, machine-readable dict, all-identities-hold).
    """
    if sc.splits is None:
        raise ScenarioError("count needs a splits block")
    intervals = sc.count_intervals
    if not intervals:
        if sc.sweep is None:
            raise ScenarioError("count needs intervals or a sweep block")
        intervals = ((sc.sweep[0], sc.sweep[1]),)
    if grid is None:
        grid = sc.count_grid
    lines = []
    machine = {"intervals": []}
    all_hold = True
    deltas = []
    terms = maps.SplitTerms(sc.graph, sc.bc, sc.splits)  # one split and one plan for every interval
    for lo, hi in intervals:
        rep = verify_counting(sc.graph, sc.bc, sc.splits, (lo, hi), grid=grid, terms=terms)
        all_hold = all_hold and rep.holds
        deltas.append((lo, hi, rep.delta_N))
        pieces = "  ".join(f"{k}={r.count}" for k, r in rep.pieces.items())
        lines += [f"interval [{lo:g}, {hi:g}]",
                  f"  full: {rep.full.count}  {pieces}  map delta N: {rep.delta_N}",
                  f"  identity: {rep.summary()}",
                  f"  eigenvalues: {_locations(rep.full.zeros)}",
                  f"  map zeros: {_locations(rep.map_report.zeros)}",
                  f"  map poles: {_locations(rep.map_report.poles)}"]
        machine["intervals"].append(
            {"interval": [lo, hi], "full": _report_dict(rep.full),
             "pieces": {k: _report_dict(r) for k, r in rep.pieces.items()},
             "map": _report_dict(rep.map_report),
             "identity": rep.summary(), "holds": rep.holds, "vertex_count": rep.vertex_count})
    if len({d for _, _, d in deltas}) > 1:
        note = "; ".join(f"[{lo:g}, {hi:g}] -> {d}" for lo, hi, d in deltas)
        lines.append(f"note: map delta N depends on the interval: {note}")
        machine["delta_N_by_interval"] = [[lo, hi, d] for lo, hi, d in deltas]
    return "\n".join(lines) + "\n", machine, all_hold


# ------------------------------------------------------------- verification

def _sample_lambdas(rng, sweep, rounds):
    lo, hi = (1.0, 80.0) if sweep is None else (sweep[0], sweep[1])
    return rng.uniform(lo, hi, rounds)


def _residual_rows(checks, fn, lams):
    """Rows for each (name, tol) of checks at each lambda, name-major; fn(ls)
    gives one residual per check and lambda of the array ls (an array or a
    broadcast scalar per check).  All draws go to one call; a call that
    raises is halved until each failing lambda stands alone, and that one is
    redrawn near itself, once for all the checks, up to 60 tries, in lambda
    order.  A batch gives each lambda its one-lambda residuals and raises
    exactly when one of them does, so the rows are those of a per-draw loop."""
    rng = np.random.default_rng(zlib.crc32(checks[0][0].encode()))

    def rows(ls, lam=None, tries=60):  # [(x, residuals)] for ls; lam: the draw ls resamples
        try:
            res = np.broadcast_to(np.array(fn(ls), dtype=float), (len(checks), ls.size))
            return list(zip(ls, res.T.tolist()))
        except (ArithmeticError, np.linalg.LinAlgError):  # poles included
            if ls.size > 1:
                return rows(ls[:ls.size // 2]) + rows(ls[ls.size // 2:])
        lam = ls[0] if lam is None else lam
        if tries == 1:
            raise QuadratureFailure(f"{checks[0][0]}: no pole-free lambda near {lam}")
        return rows(np.array([lam + rng.uniform(-0.5, 0.5)]), lam, tries - 1)

    found = rows(np.asarray(lams, dtype=float))
    return [(name, x, res[k], tol) for k, (name, tol) in enumerate(checks)
            for x, res in found]


def verify_table(sc: Scenario, which, seed=0, rounds=None):
    """Residual table for one cross-check family; returns (text, all-pass)."""
    if rounds is not None and (rounds := as_index(rounds, "rounds")) < 1:
        raise ScenarioError(f"need at least one lambda sample per check, got {rounds}")
    rng = np.random.default_rng(seed)
    g, bc = sc.graph, sc.bc
    if which != "projections":  # the draws come first, then a resolvent table's sources
        lams = _sample_lambdas(rng, sc.sweep,
                               rounds or {"resolvent": 10, "ugamma": 5}.get(which, 20))
    rows = []
    if which == "single":
        if sc.splits is None or sc.splits.mode != SINGLE:
            raise ScenarioError("verify single needs a single-cut splits block")
        checks = (("single_split", 1e-7),)
        fn = lambda t: maps.verify_single_split(g, bc, sc.splits.cuts[0], t)
    elif which == "double":
        if sc.splits is None or sc.splits.mode not in (SAME_WIRE, TWO_WIRES):
            raise ScenarioError("verify double needs a two-cut splits block")
        checks = (("double_split", 1e-7),)
        fn = lambda t: maps.verify_double_split(g, bc, sc.splits, t)
    elif which == "minors":
        if g.n < 2:
            raise ScenarioError("minor identity needs at least two wires")
        checks = (("minor_identity", 1e-8),)
        fn = lambda t: maps.minor_identity_check(g, bc, t)
    elif which == "resolvent":
        v = [float(a) for a in rng.uniform(-2.0, 2.0, g.n)]
        # both rows of a lambda from one application
        checks = (("gamma_trace", 1e-8), ("ode_defect", 1e-7))
        fn = lambda t: _resolvent_residuals(g, bc, t, v)
    elif which == "projections":
        ps = build_projections(bc)
        eye = np.eye(2 * g.n)
        static = [
            ("U_unitary", np.abs(ps.U @ ps.U.conj().T - eye).max()),
            ("partition", np.abs(ps.P_D + ps.P_N + ps.P_R - eye).max()),
            ("annihilate_D", np.abs((ps.U + eye) @ ps.P_D).max()),
            ("annihilate_N", np.abs((ps.U - eye) @ ps.P_N).max()),
            ("Lambda_selfadjoint",
             np.abs(ps.Lambda - ps.Lambda.conj().T).max() if ps.rank_R else 0.0),
        ]
        rows = [(name, np.nan, float(val), 1e-10) for name, val in static]
        lam0 = 0.5 * (sc.sweep[0] + sc.sweep[1]) if sc.sweep else 11.312
        v = [1.0] * g.n

        def fn(t):
            res = []
            for app in _applications(FrameBundle(g, bc, t), v, t):
                bd = BoundaryData([u[-1] for u in app.output], [u[-1] for u in app.output_deriv],
                                  [u[0] for u in app.output], [u[0] for u in app.output_deriv])
                res.append(max(projection_equations(ps, bd)))
            return res

        checks, lams = (("trace_relations", 1e-8),), [lam0 + 0.05]
    elif which == "ugamma":
        checks = [(f"ugamma_{kind}_e{i}", tol) for i in range(2 * g.n)
                  for kind, tol in (("sup", 1e-7), ("trace", 1e-8))]
        # every row of a lambda from one bundle
        fn = lambda t: _u_gamma_residuals(g, bc, t)
    else:
        raise ScenarioError(f"unknown verification {which!r}")
    rows += _residual_rows(checks, fn, lams)

    lines = ["check,lambda,residual,tolerance,status"]
    ok = True
    for name, lam, res, tol in rows:
        status = "PASS" if res <= tol else "FAIL"
        ok = ok and status == "PASS"
        lam_cell = "" if np.isnan(lam) else _fmt(lam)
        lines.append(f"{name},{lam_cell},{_fmt(res)},{_fmt(tol)},{status}")
    return "\n".join(lines) + "\n", ok


# ----------------------------------------------------------------- examples

_THIRD = 1.0 / 3.0

_EXAMPLES = {
    "barrier_end": {
        "graph": {"edges": [
            {"length": 1.0, "potential": {"pieces": [[0.0, _THIRD, 0.0],
                                                     [_THIRD, 1.0, -10.0]]}},
            {"length": 1.0, "potential": {"pieces": [[0.0, 1.0, 0.0]]}}]},
        "boundary": {"preset": "kirchhoff"},
        "splits": {"mode": "single", "cuts": [[0, _THIRD]]},
        "sweep": {"lambda_min": 5.0, "lambda_max": 60.0, "samples": 1024},
        "count": {"intervals": [[5.0, 60.0]]},
    },
    "barrier_interior": {
        "graph": {"edges": [
            {"length": 1.0, "potential": {"pieces": [[0.0, 0.25, 0.0],
                                                     [0.25, 0.75, -10.0],
                                                     [0.75, 1.0, 0.0]]}},
            {"length": 1.0, "potential": {"pieces": [[0.0, 1.0, 0.0]]}}]},
        "boundary": {"preset": "kirchhoff", "ends": "neumann"},
        "splits": {"mode": "same_wire", "cuts": [[0, 0.75], [0, 0.25]]},
        "sweep": {"lambda_min": 5.0, "lambda_max": 60.0, "samples": 1024},
        "count": {"intervals": [[5.0, 60.0]]},
    },
    "two_wire": {
        "graph": {"edges": [
            {"length": 1.0, "potential": {"pieces": [[0.0, 0.5, -10.0],
                                                     [0.5, 1.0, 0.0]]}},
            {"length": 1.0, "potential": {"pieces": [[0.0, 0.5, -10.0],
                                                     [0.5, 1.0, 0.0]]}}]},
        "boundary": {"preset": "kirchhoff"},
        "splits": {"mode": "two_wires", "cuts": [[0, 0.5], [1, 0.5]]},
        "sweep": {"lambda_min": 3.0, "lambda_max": 60.0, "samples": 1024},
        "count": {"intervals": [[3.0, 60.0], [5.0, 60.0]]},
    },
}

# Vertical rescaling used by the reference plots.  Metadata only: the data
# columns are never scaled.
_RESCALE = {
    "barrier_end": (("E[omega1:D]", "15"), ("E[omega2:D]", "10"),
                    ("map", "1/25"), ("E", "1")),
    "barrier_interior": (("E[omega1:D]", "20"), ("E[tilde1:DD]", "20"),
                         ("E[tilde2:D]", "1"), ("map", "1/1000"), ("E", "1/10")),
    "two_wire": (("E[omega1:D]", "100"), ("E[tilde1:D]", "100"),
                 ("E[tilde2:DD]", "100"), ("map", "10"), ("E", "1")),
}


def example_bundle(name) -> dict:
    """Scenario file and curve CSV for one reference configuration."""
    if name not in _EXAMPLES:
        raise ScenarioError(f"unknown example {name!r}")
    sc = parse_scenario(_EXAMPLES[name])
    comments = ["# plot rescale factors (presentation only; columns are unscaled)"]
    comments += [f"# rescale {col} {factor}" for col, factor in _RESCALE[name]]
    csv = evans_csv(sc, with_map=True)
    return {f"{name}.scenario.json": scenario_json(sc),
            f"{name}.curves.csv": "\n".join(comments) + "\n" + csv}


# --------------------------------------------------------------- entry point

def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="qgraph",
        description="Evans-function spectral tools for quantum star graphs")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evans", help="CSV sweep of Evans functions")
    pe.add_argument("--scenario", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("--grid", type=int, default=None,
                    help="override the sweep sample count")

    pc = sub.add_parser("count", help="eigenvalue counting identity report")
    pc.add_argument("--scenario", required=True)
    pc.add_argument("--out", default=None,
                    help="write the machine-readable JSON block here")
    pc.add_argument("--grid", type=int, default=None,
                    help="override the counting scan resolution")

    pv = sub.add_parser("verify", help="residual tables for the check suites")
    pv.add_argument("--scenario", required=True)
    pv.add_argument("--which", required=True,
                    choices=("single", "double", "minors", "resolvent",
                             "projections", "ugamma"))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--grid", type=int, default=None,
                    help="number of lambda samples per check")
    pv.add_argument("--out", default=None)

    px = sub.add_parser("example", help="emit a reference scenario bundle")
    px.add_argument("name", choices=sorted(_EXAMPLES))
    px.add_argument("--out", default=".", help="output directory")
    return p


def _dispatch(args) -> int:
    if args.command == "evans":
        sc = load_scenario(args.scenario)
        _write(args.out, evans_csv(sc, samples=args.grid))
        return 0
    if args.command == "count":
        sc = load_scenario(args.scenario)
        human, machine, ok = count_report(sc, grid=args.grid)
        sys.stdout.write(human)
        blob = json.dumps(machine, sort_keys=True)
        if args.out is not None:
            _write(args.out, blob + "\n")
        else:
            sys.stdout.write("machine: " + blob + "\n")
        return 0 if ok else 5
    if args.command == "verify":
        sc = load_scenario(args.scenario)
        text, ok = verify_table(sc, args.which, seed=args.seed,
                                rounds=args.grid)
        _write(args.out, text)
        return 0 if ok else 5
    sc_files = example_bundle(args.name)
    os.makedirs(args.out, exist_ok=True)
    for fn, text in sorted(sc_files.items()):
        _write(os.path.join(args.out, fn), text)
        print(os.path.join(args.out, fn))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except EndpointOnSpectrum as e:
        print(f"endpoint error: {e}", file=sys.stderr)
        return 4
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ScenarioError, GraphError, json.JSONDecodeError, OSError,
            ValueError) as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
