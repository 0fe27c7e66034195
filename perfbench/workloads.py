"""The four workloads: what one round runs, and how its outputs are checked.

A round is a fixed list of operations, each one call of a user-facing
command function of `qgraph.cli` on a parsed scenario.  Every round of a
run repeats the same operations on the same inputs; the inputs depend only
on the seed.
"""
from __future__ import annotations

import numpy as np

import checks
import fe
import inputs

COUNT_GRID = 256            # count_report scan points per interval
SWEEP_ROWS = 256            # evans_csv rows per wide star
WIDE_SIZES = (4, 8, 16)
WIDE_RANGE = (1.0, 60.0)
SAMPLED_ROWS = 4
SAMPLED_RANGE = (2.0, 50.0)
VERIFY_ROUNDS = 4           # lambda draws per verify check (the `rounds` argument)
STAR_WIRES = 4
STAR_ROOTS = 10             # eigenvalues of the 4-wire star and its pieces in its interval


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def count_star(seed):
    """The seeded 4-wire star that count_identity and verify_suites share,
    with its counting interval: from 1 to just past the STAR_ROOTS-th
    eigenvalue of the graph and its pieces together (about 30)."""
    star = inputs.random_star(_rng(seed, 1), STAR_WIRES, "single")
    lo, hi = inputs.star_interval(star, STAR_ROOTS)
    return star, (lo, hi, 1024), ((lo, hi),)


def _cases(seed):
    """(label, star, sweep, intervals) for the references and the seeded star."""
    out = [(name, *spec) for name, spec in inputs.REFERENCES.items()]
    out.append((f"star{STAR_WIRES}", *count_star(seed)))
    return out


class Workload:
    """cases: (label, star, scenario document).  ops(qg, parsed) gives the
    round's (label, zero-argument call) list; check(qg, outputs) the
    problems found in the outputs of one round, keyed as ops are.
    pooled: whether the operations run on the program's sweep pool."""

    pooled = False

    def __init__(self, seed):
        self.seed = seed
        self.cases = self.build(seed)

    @property
    def docs(self):
        return [doc for _, _, doc in self.cases]

    def rows_with_lambda(self, outputs):
        return 0


class CountIdentity(Workload):
    def build(self, seed):
        return [(label, star, inputs.scenario(star, sweep, intervals, COUNT_GRID))
                for label, star, sweep, intervals in _cases(seed)]

    def ops(self, qg, parsed):
        return [(label, lambda sc=sc: qg.cli.count_report(sc)[1])
                for (label, _, _), sc in zip(self.cases, parsed)]

    def check(self, qg, outputs):
        out = []
        for label, star, _ in self.cases:
            if label in outputs:
                out += [f"{label}: {p}" for p in checks.check_count(
                    outputs[label], inputs.full_problem(star), inputs.piece_problems(star))]
        return out


class Sweep(Workload):
    rows = SWEEP_ROWS
    pooled = True

    def ops(self, qg, parsed):
        return [(label, lambda sc=sc: qg.cli.evans_csv(sc))
                for (label, _, _), sc in zip(self.cases, parsed)]

    def check(self, qg, outputs):
        out = []
        for label, star, _ in self.cases:
            if label in outputs:
                out += [f"{label}: {p}" for p in checks.check_sweep(
                    outputs[label], inputs.full_problem(star),
                    inputs.piece_problems(star), self.rows)]
        return out


class WideStarSweep(Sweep):
    def build(self, seed):
        out = []
        for n in WIDE_SIZES:
            star = inputs.random_star(_rng(seed, 10 + n), n, "two_wires")
            out.append((f"n{n}", star, inputs.scenario(star, (*WIDE_RANGE, SWEEP_ROWS))))
        return out


class SampledWell(Sweep):
    rows = SAMPLED_ROWS

    def build(self, seed):
        star = inputs.sampled_well_star(_rng(seed, 2))
        problems = [inputs.full_problem(star), *inputs.piece_problems(star).values()]
        lo, hi = inputs.clear_ends(problems, *SAMPLED_RANGE)
        return [("well", star, inputs.scenario(star, (lo, hi, SAMPLED_ROWS)))]


def _suites(star):
    double = star.mode != "single"
    return ("double" if double else "single", "minors", "resolvent", "ugamma", "projections")


class VerifySuites(Workload):
    build = CountIdentity.build

    def ops(self, qg, parsed):
        return [(f"{label}/{which}",
                 lambda sc=sc, which=which: qg.cli.verify_table(
                     sc, which, seed=self.seed, rounds=VERIFY_ROUNDS)[0])
                for (label, star, _), sc in zip(self.cases, parsed)
                for which in _suites(star)]

    def rows_with_lambda(self, outputs):
        return sum(1 for text in outputs.values()
                   for row in checks.parse_table(text) if row[1] is not None)

    def check(self, qg, outputs):
        out = []
        for label, star, doc in self.cases:
            sc = qg.cli.parse_scenario(doc)
            full = inputs.full_problem(star)
            for which in _suites(star):
                text = outputs.get(f"{label}/{which}")
                if text is None:
                    continue
                tag = f"{label}/{which}"
                out += [f"{tag}: {p}" for p in checks.check_table(text)]
                out += [f"{tag}: {p}" for p in checks.check_factorizations(
                    qg, text, sc.graph, sc.bc, sc.splits)]
                if which == "resolvent":
                    out += [f"{tag}: {p}" for p in self._resolvent(qg, sc, full, text)]
        return out

    def _resolvent(self, qg, sc, full, text):
        """resolvent_apply at the suite's lambdas, with seeded per-wire
        constant sources, against the FE solve.  A lambda within 1e-3
        (relative) of an FE eigenvalue is skipped: there the FE estimate
        is no longer in its asymptotic range."""
        lams = sorted({lam for name, lam, *_ in checks.parse_table(text) if name == "gamma_trace"})
        sources = _rng(self.seed, 3).uniform(-2.0, 2.0, sc.graph.n)
        out = []
        for lam in lams:
            near = fe.count_below(full, [lam * (1 - 1e-3), lam * (1 + 1e-3)])
            if near[1] != near[0]:
                continue
            out += checks.check_resolvent(qg, sc.graph, sc.bc, full, lam, sources)
        return out


WORKLOADS = {
    "count_identity": CountIdentity,
    "wide_star_sweep": WideStarSweep,
    "verify_suites": VerifySuites,
    "sampled_well": SampledWell,
}
