"""Each output check accepts the program's output and rejects a
deliberately perturbed copy of it."""
import copy
import dataclasses

import numpy as np
import pytest

import qgraph
import qgraph.cli as cli

import checks
import inputs

STAR, SWEEP, INTERVALS = inputs.REFERENCES["barrier_end"]


@pytest.fixture(scope="module")
def scenario():
    return cli.parse_scenario(inputs.scenario(STAR, SWEEP, INTERVALS))


@pytest.fixture(scope="module")
def machine(scenario):
    return cli.count_report(scenario)[1]


def _count_problems(machine):
    return checks.check_count(machine, inputs.full_problem(STAR), inputs.piece_problems(STAR))


def test_count_accepts_program_output(machine):
    assert _count_problems(machine) == []


@pytest.mark.parametrize("part", ["full", "omega2:D"])
def test_count_off_by_one(machine, part):
    bad = copy.deepcopy(machine)
    block = bad["intervals"][0]
    report = block["full"] if part == "full" else block["pieces"][part]
    report["count"] += 1
    assert any("count" in p for p in _count_problems(bad))


def test_eigenvalue_moved_beyond_tolerance(machine):
    bad = copy.deepcopy(machine)
    zeros = bad["intervals"][0]["full"]["zeros"]
    zeros[1][0] += 1e-4   # the FE estimate there is about 1.4e-5
    problems = _count_problems(bad)
    assert any("beyond estimate" in p for p in problems)


def test_pole_moved_beyond_tolerance(machine):
    bad = copy.deepcopy(machine)
    bad["intervals"][0]["map"]["poles"][0][0] += 1e-4
    assert any("map poles" in p for p in _count_problems(bad))


def test_failing_identity_is_reported(machine):
    bad = copy.deepcopy(machine)
    bad["intervals"][0]["holds"] = False
    assert any("identity fails" in p for p in _count_problems(bad))


def _csv(cols):
    names = list(cols)
    rows = zip(*(cols[n] for n in names))
    return "\n".join([",".join(names)] + [",".join(f"{v:.17g}" for v in r) for r in rows]) + "\n"


@pytest.fixture(scope="module")
def sweep(scenario):
    return cli.evans_csv(scenario, samples=256)


def _sweep_problems(text):
    return checks.check_sweep(text, inputs.full_problem(STAR), inputs.piece_problems(STAR), 256)


def test_sweep_accepts_program_output(sweep):
    assert _sweep_problems(sweep) == []


@pytest.mark.parametrize("column", ["Re(E)", "Re(E[omega2:D])"])
def test_missing_sign_change_bracket(sweep, column):
    cols = checks.parse_csv(sweep)
    values = cols[column]
    i = int(np.nonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))[0][0])
    values[i + 1:] *= -1.0   # drops the sign change after row i, keeps the rest
    assert any("sign change False" in p for p in _sweep_problems(_csv(cols)))


def test_nonzero_imaginary_column(sweep):
    cols = checks.parse_csv(sweep)
    cols["Im(E)"][7] = 1e-300
    assert any("Im(E)" in p for p in _sweep_problems(_csv(cols)))


def test_verify_table_fail_row(scenario):
    text, ok = cli.verify_table(scenario, "single", seed=1, rounds=4)
    assert ok and checks.check_table(text) == []
    assert checks.check_factorizations(qgraph, text, scenario.graph, scenario.bc,
                                       scenario.splits) == []
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",FAIL"
    assert len(checks.check_table("\n".join(lines) + "\n")) == 1


def test_scale_aware_residual_sees_a_wrong_factor(scenario):
    g, bc, spec = scenario.graph, scenario.bc, scenario.splits
    lam = 20.0
    good = checks.factor_residual(qgraph, g, bc, spec, lam)
    original = qgraph.split_evans_factors

    def halved(*args):
        out = original(*args)
        key = next(iter(out))
        return {**out, key: out[key] / 2}

    qgraph.split_evans_factors = halved
    try:
        bad = checks.factor_residual(qgraph, g, bc, spec, lam)
    finally:
        qgraph.split_evans_factors = original
    assert good < checks.FACTOR_TOL < bad


class _Scaled:
    """qgraph with resolvent_apply's wire-0 output scaled by 1 + 1e-4."""

    @staticmethod
    def resolvent_apply(g, bc, lam, v):
        app = qgraph.resolvent_apply(g, bc, lam, v)
        out = list(app.output)
        out[0] = out[0] * (1 + 1e-4)
        return dataclasses.replace(app, output=tuple(out))


def test_resolvent_check_accepts_program_and_rejects_a_perturbation(scenario):
    g, bc = scenario.graph, scenario.bc
    problem = inputs.full_problem(STAR)
    assert checks.check_resolvent(qgraph, g, bc, problem, 17.3, [1.0, -0.5]) == []
    assert checks.check_resolvent(_Scaled, g, bc, problem, 17.3, [1.0, -0.5]) != []
