"""Command line front end: scenario round-trips, output formats, exit codes,
and determinism of the seeded and lambda-batched paths."""
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgraph
from conftest import rand_bc_cayley, wide_star
from oracle import adaptive_reference
from qgraph import cli, maps, resolvent
from qgraph.counting import EndpointOnSpectrum


def _scenario_file(tmp_path, name="barrier_end"):
    path = tmp_path / f"{name}.scenario.json"
    path.write_text(cli.scenario_json(cli.parse_scenario(cli._EXAMPLES[name])),
                    encoding="utf-8")
    return str(path)


def test_fmt_round_trips_floats(rng):
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50):
        assert float(cli._fmt(x)) == x


def test_scenario_round_trip_is_byte_identical():
    with_grid = dict(cli._EXAMPLES["barrier_end"])
    with_grid["count"] = dict(with_grid["count"], grid=300)
    for data in [cli._EXAMPLES[name] for name in sorted(cli._EXAMPLES)] + [with_grid]:
        text1 = cli.scenario_json(cli.parse_scenario(data))
        text2 = cli.scenario_json(cli.parse_scenario(json.loads(text1)))
        assert text1 == text2
    assert cli.parse_scenario(json.loads(text1)).count_grid == 300


def test_explicit_matrix_round_trip():
    # dump a known-valid boundary to the explicit matrix form, then check
    # the parse/serialize loop is the identity on bytes
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    blob = sc.to_dict()
    blob["boundary"] = {
        "alpha1": cli._matrix_to(sc.bc.alpha1),
        "alpha2": cli._matrix_to(sc.bc.alpha2),
        "beta1": cli._pairs(sc.bc.beta1),
        "beta2": cli._pairs(sc.bc.beta2)}
    text1 = cli.scenario_json(cli.parse_scenario(blob))
    text2 = cli.scenario_json(cli.parse_scenario(json.loads(text1)))
    assert text1 == text2
    assert '"alpha1"' in text1  # stays in matrix form, no preset inference


def test_verify_ugamma_passes_on_complex_vertex_data(tmp_path, capsys):
    # barrier_end with Cayley (complex) vertex data as explicit matrices:
    # the formula path of every ugamma_sup row agrees with the direct path
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    bc = rand_bc_cayley(2, np.random.default_rng(3))
    blob = sc.to_dict()
    blob["boundary"] = {"alpha1": cli._matrix_to(bc.alpha1), "alpha2": cli._matrix_to(bc.alpha2),
                        "beta1": cli._pairs(bc.beta1), "beta2": cli._pairs(bc.beta2)}
    path = tmp_path / "cayley.scenario.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert cli.main(["verify", "--scenario", str(path), "--which", "ugamma",
                     "--seed", "0", "--grid", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 24 and sum(r.startswith("ugamma_sup") for r in rows) == 12
    assert all(r.endswith(",PASS") for r in rows), rows


def test_example_bundles(tmp_path, capsys):
    assert cli.main(["example", "barrier_end", "--out", str(tmp_path)]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 2
    scen = tmp_path / "barrier_end.scenario.json"
    curves = tmp_path / "barrier_end.curves.csv"
    assert scen.exists() and curves.exists()
    text = curves.read_text(encoding="utf-8")
    assert text.startswith("# plot rescale factors")
    assert "# rescale E[omega1:D] 15" in text
    assert "# rescale map 1/25" in text
    header = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header.split(",")[:3] == ["lambda", "Re(E)", "Im(E)"]
    assert "Re(map)" in header
    json.loads(scen.read_text(encoding="utf-8"))


def test_evans_sweep_counts_sign_changes(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["evans", "--scenario", _scenario_file(tmp_path),
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header == ["lambda", "Re(E)", "Im(E)",
                      "Re(E[omega1:D])", "Im(E[omega1:D])",
                      "Re(E[omega2:D])", "Im(E[omega2:D])"]
    assert len(lines) == 1 + 1024
    re_e = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert int(np.sum(re_e[:-1] * re_e[1:] < 0)) == 4
    im_e = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.abs(im_e).max() == 0.0


def test_evans_sample_override_and_header_only(tmp_path, capsys):
    scen = _scenario_file(tmp_path)
    assert cli.main(["evans", "--scenario", scen, "--grid", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["lambda,Re(E),Im(E),Re(E[omega1:D]),"
                                "Im(E[omega1:D]),Re(E[omega2:D]),Im(E[omega2:D])"]
    assert cli.main(["evans", "--scenario", scen, "--grid", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17


def test_evans_samples_must_be_an_integer():
    # an integral float is its integer; a fraction or a bool is refused, not cut
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    assert cli.evans_csv(sc, samples=256.0) == cli.evans_csv(sc, samples=256)
    assert len(cli.evans_csv(sc, samples=256.0).splitlines()) == 257
    for bad in (2.7, True):
        with pytest.raises(TypeError, match="sweep samples must be an integer"):
            cli.evans_csv(sc, samples=bad)


def test_count_report_text_and_machine_blob(tmp_path, capsys):
    out = tmp_path / "count.json"
    code = cli.main(["count", "--scenario", _scenario_file(tmp_path),
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "identity: 4 = 1 + 3 + 0 PASS" in text
    assert "map poles:" in text
    machine = json.loads(out.read_text(encoding="utf-8"))
    block = machine["intervals"][0]
    assert block["holds"] is True
    assert block["identity"] == "4 = 1 + 3 + 0 PASS"
    assert block["full"]["count"] == 4
    assert [round(z, 5) for z, _ in block["full"]["zeros"]] == [
        6.58182, 19.47846, 36.41483, 58.12901]


@pytest.mark.parametrize("name, keys", [
    ("barrier_interior", ["omega1:D", "tilde1:DD", "tilde2:D"]),
    ("two_wire", ["omega1:D", "tilde1:D", "tilde2:DD"])])
def test_two_cut_examples_keep_the_piece_order(name, keys):
    sc = cli.parse_scenario(cli._EXAMPLES[name])
    header = cli.evans_csv(sc, samples=2, with_map=True).splitlines()[0]
    assert header.split(",") == (["lambda", "Re(E)", "Im(E)"]
                                 + [f"{part}(E[{k}])" for k in keys for part in ("Re", "Im")]
                                 + ["Re(map)", "Im(map)"])
    text, machine, _ = cli.count_report(sc)
    for line in (l for l in text.splitlines() if l.startswith("  full:")):
        assert [w.split("=")[0] for w in line.split() if "=" in w] == keys
    assert all(list(block["pieces"]) == keys for block in machine["intervals"])


def test_map_column_without_a_split_is_refused(monkeypatch):
    # refused before any leg is planned; the Evans columns alone still run
    data = {k: v for k, v in cli._EXAMPLES["barrier_end"].items() if k != "splits"}
    sc = cli.parse_scenario(data)
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("qgraph.propagate").LegPlan, "__init__",
                  lambda *a: pytest.fail("planned before the check"))
        with pytest.raises(cli.ScenarioError, match="the map column needs a splits block"):
            cli.evans_csv(sc, samples=4, with_map=True)
    csv = cli.evans_csv(sc, samples=4).splitlines()
    assert csv[0] == "lambda,Re(E),Im(E)" and len(csv) == 5


def test_count_notes_interval_dependence(tmp_path, capsys):
    code = cli.main(["count", "--scenario", _scenario_file(tmp_path, "two_wire")])
    assert code == 0
    text = capsys.readouterr().out
    assert "identity: 4 = 1 + 1 + 1 + 1 PASS" in text
    assert "identity: 3 = 1 + 1 + 1 + 0 PASS" in text
    assert "note: map delta N depends on the interval" in text


def test_verify_table_deterministic(tmp_path):
    scen = _scenario_file(tmp_path)
    sc = cli.load_scenario(scen)
    t1, ok1 = cli.verify_table(sc, "single", seed=3, rounds=4)
    t2, ok2 = cli.verify_table(sc, "single", seed=3, rounds=4)
    assert ok1 and ok2 and t1 == t2
    lines = t1.splitlines()
    assert lines[0] == "check,lambda,residual,tolerance,status"
    assert len(lines) == 5
    for row in lines[1:]:
        name, lam, res, tol, status = row.split(",")
        assert name == "single_split" and status == "PASS"
        assert float(res) <= float(tol)
    t3, _ = cli.verify_table(sc, "single", seed=4, rounds=4)
    assert t3 != t1  # different seed, different abscissae


def _draws(seed, sc, rounds):
    return list(cli._sample_lambdas(np.random.default_rng(seed), sc.sweep, rounds))


def _loop_rows(checks, fn, lams):
    """The rows of a per-draw loop: each draw alone, a one-lambda array, and
    a failing one resampled near itself from the seeded stream, up to 60
    tries; the reference that cli._residual_rows must reproduce."""
    found = []
    rng = np.random.default_rng(zlib.crc32(checks[0][0].encode()))
    for lam in lams:
        x = lam
        for _ in range(60):
            try:
                res = np.broadcast_to(np.array(fn(np.array([x])), dtype=float), (len(checks), 1))
                found.append((x, res[:, 0].tolist()))
                break
            except (ArithmeticError, np.linalg.LinAlgError):
                x = lam + rng.uniform(-0.5, 0.5)
        else:
            raise resolvent.QuadratureFailure(f"{checks[0][0]}: no pole-free lambda near {lam}")
    return [(name, x, res[k], tol) for k, (name, tol) in enumerate(checks) for x, res in found]


def _rows_or_failure(checks, fn, lams, rows):
    try:
        return repr(rows(checks, fn, lams))  # repr: a NaN residual equals itself
    except resolvent.QuadratureFailure as e:
        return f"QuadratureFailure: {e}"


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40),
       share=st.sampled_from([0.0, 0.1, 0.3, 1.0]), adjacent=st.booleans(),
       again=st.sampled_from([0, 50, 90, 100]), width=st.integers(1, 3))
@example(seed=0, size=40, share=1.0, adjacent=False, again=50, width=2)  # every draw fails
@example(seed=1, size=7, share=0.3, adjacent=True, again=100, width=1)  # 60 tries, give up
@settings(max_examples=150, deadline=None, derandomize=True)
def test_residual_rows_halve_a_failing_batch_to_the_loop_rows(seed, size, share, adjacent,
                                                              again, width):
    # fn raises a map pole or an on-spectrum error at a drawn set of draws
    # (adjacent ones, or all of them) and at `again` percent of the redraws.
    # One call serves a table whose draws all pass; a failing call is halved
    # until each failing draw stands alone, in at most 1 + 2 ceil(log2 L)
    # calls per failing draw, and the rows, the redraws and the give-up are
    # the per-draw loop's
    rng = np.random.default_rng(seed)
    lams = rng.uniform(1.0, 80.0, size)
    bad = rng.random(size) < share
    if adjacent and size > 1:
        i = int(rng.integers(size - 1))
        bad[i:i + 2] = True
    first = dict(zip(lams.tolist(), bad.tolist()))
    checks = [(f"check_{k}", 0.5) for k in range(width)]
    calls = []

    def fn(ls):
        calls.append(ls.tolist())
        for x in ls.tolist():
            if first[x] if x in first else zlib.crc32(np.float64(x).tobytes()) % 100 < again:
                raise maps.PoleAtLambda(x, 0.0) if int(x) % 2 else resolvent.OnSpectrum(str(x))
        res = np.where(ls > 75.0, np.nan, np.sin(ls))  # a non-finite residual is kept
        return res if width == 1 else [res * (k + 1) for k in range(width)]

    want = _rows_or_failure(checks, fn, lams, _loop_rows)
    loop_calls, calls[:] = calls[:], []
    assert _rows_or_failure(checks, fn, lams, cli._residual_rows) == want
    redraws = [c for c in calls if c[0] not in first]
    assert all(len(c) == 1 for c in redraws)
    assert redraws == [c for c in loop_calls if c[0] not in first]
    failing = int(bad.sum())
    if not failing:
        assert calls == [lams.tolist()]
    assert len(calls) - len(redraws) <= max(1, failing * (1 + 2 * math.ceil(math.log2(size))))


def test_verify_resolvent_applies_once_per_lambda(tmp_path, monkeypatch):
    # gamma_trace and ode_defect rows share one application per evaluated
    # lambda; every draw goes to the core in one batched call; a lambda on
    # a pole fails that call, which is halved down to that draw, and it is
    # resampled once for both rows; the rows match fresh per-lambda work
    sc = cli.load_scenario(_scenario_file(tmp_path))
    draws = _draws(2, sc, 4)
    real, calls, sources = cli._resolvent_residuals, [], []

    def counted(g, bc, lam, v):
        calls.append(np.atleast_1d(lam).tolist())
        sources.append(v)
        if fail and draws[0] in calls[-1]:
            raise qgraph.OnSpectrum("forced")
        return real(g, bc, lam, v)

    monkeypatch.setattr(cli, "_resolvent_residuals", counted)
    for fail in (False, True):
        calls.clear()
        text, ok = cli.verify_table(sc, "resolvent", seed=2, rounds=4)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        gamma = [float(r[1]) for r in rows if r[0] == "gamma_trace"]
        ode = [float(r[1]) for r in rows if r[0] == "ode_defect"]
        assert ok and len(gamma) == len(ode) == 4
        assert gamma == ode  # both rows of a lambda take the one application
        if fail:  # the batch, its failing halves down to the draw, its one retry, the rest
            assert calls == [draws, draws[:2], [draws[0]], [gamma[0]], [draws[1]], draws[2:]]
            assert gamma[0] != draws[0] and abs(gamma[0] - draws[0]) <= 0.5
            assert gamma[1:] == draws[1:]
        else:
            assert calls == [draws] and gamma == draws
        v = sources[0]
        for name, lam, res, _, _ in rows:
            app = resolvent.resolvent_apply(sc.graph, sc.bc, float(lam), v)
            fresh = (app.gamma_residual if name == "gamma_trace"
                     else resolvent.segment_residual(sc.graph, float(lam), app, v))
            assert res == cli._fmt(fresh)


def test_verify_ugamma_resamples_a_draw_near_the_spectrum(monkeypatch):
    # 1e-8 above two_wire's first eigenvalue C has lost too many digits: the
    # ugamma table resamples that draw as the resolvent table does, where
    # it used to keep it and fail 3 of its rows
    sc = cli.parse_scenario(cli._EXAMPLES["two_wire"])
    near, real = 4.247691628724768 + 1e-8, cli._sample_lambdas
    monkeypatch.setattr(cli, "_sample_lambdas",
                        lambda rng, sweep, rounds: np.r_[near, real(rng, sweep, rounds)[1:]])
    for which in ("resolvent", "ugamma"):
        text, ok = cli.verify_table(sc, which, seed=2, rounds=3)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        lams = list(dict.fromkeys(float(r[1]) for r in rows))
        assert ok and all(r[-1] == "PASS" for r in rows)
        assert len(lams) == 3 and lams[0] != near and abs(lams[0] - near) <= 0.5


class _CountedBundle(resolvent.FrameBundle):
    """Records the lambdas of every bundle the resolvent core builds."""
    built = []

    def __init__(self, g, bc, lams):
        self.built.append(np.asarray(lams).tolist())
        super().__init__(g, bc, lams)


def test_verify_ugamma_builds_one_bundle_per_lambda(tmp_path, monkeypatch):
    # every row of every draw comes from one batched call and one bundle; a
    # lambda on a pole fails that call, which is halved: the failing draw
    # alone, resampled once for every row in a bundle of its own, and one
    # bundle for the other draws; the rows match fresh per-lambda work
    sc = cli.load_scenario(_scenario_file(tmp_path))
    draws = _draws(2, sc, 3)
    real, calls, bundles = cli._u_gamma_residuals, [], _CountedBundle.built

    def forced(g, bc, lam):
        calls.append(np.atleast_1d(lam).tolist())
        if fail and draws[0] in calls[-1]:
            raise qgraph.OnSpectrum("forced")
        return real(g, bc, lam)

    monkeypatch.setattr(resolvent, "FrameBundle", _CountedBundle)
    monkeypatch.setattr(cli, "_u_gamma_residuals", forced)
    n = sc.graph.n
    for fail in (False, True):
        calls.clear()
        bundles.clear()
        text, ok = cli.verify_table(sc, "ugamma", seed=2, rounds=3)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert ok and len(rows) == 2 * 2 * n * 3
        lams = list(dict.fromkeys(float(r[1]) for r in rows))
        assert len(lams) == 3  # every row of the first lambda takes one retry
        if fail:
            assert calls == [draws, [draws[0]], [lams[0]], draws[1:]]
            assert lams[0] != draws[0] and lams[1:] == draws[1:]
            assert bundles == [[lams[0]], draws[1:]]
        else:
            assert calls == [draws] and bundles == [draws] and lams == draws
        fresh = {lam: resolvent._u_gamma(resolvent.FrameBundle(sc.graph, sc.bc, np.array([lam])),
                                         range(2 * n), [lam])[0] for lam in lams}
        for name, lam, res, _, _ in rows:
            ug = fresh[float(lam)][int(name.rsplit("_e", 1)[1])]
            assert res == cli._fmt(ug.sup_discrepancy if "_sup_" in name else ug.trace_residual)


def test_verify_ugamma_resamples_a_pole_once_for_every_row(monkeypatch):
    # the first lambda sits on an eigenvalue: the batched bundle fails, then
    # one failing bundle and one retry serve all 4n rows of that lambda, one
    # bundle serves the other draws, and their rows are the ones the batch
    # gives without the pole
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    eig = qgraph.count_eigenvalues(sc.graph, sc.bc, (5.0, 60.0)).zeros[0][0]
    real, bundles = cli._sample_lambdas, _CountedBundle.built
    bundles.clear()

    def on_eigenvalue(rng, sweep, rounds):
        lams = real(rng, sweep, rounds)
        lams[0] = eig
        return lams

    monkeypatch.setattr(resolvent, "FrameBundle", _CountedBundle)
    batched, _ = cli.verify_table(sc, "ugamma", seed=2, rounds=3)
    assert bundles == [_draws(2, sc, 3)]
    bundles.clear()
    monkeypatch.setattr(cli, "_sample_lambdas", on_eigenvalue)
    text, ok = cli.verify_table(sc, "ugamma", seed=2, rounds=3)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert ok and len(rows) == 2 * 2 * sc.graph.n * 3
    draws = [eig] + _draws(2, sc, 3)[1:]
    assert bundles[:2] == [draws, [eig]] and len(bundles) == 2 + 2
    assert len(bundles[2]) == 1 and bundles[3] == draws[1:]
    assert list(dict.fromkeys(float(r[1]) for r in rows)) == bundles[2] + bundles[3]
    def kept(table):
        return [line for line in table.splitlines()[1:] if float(line.split(",")[1]) in draws[1:]]
    assert kept(text) == kept(batched)


def test_verify_projections_and_exit_zero(tmp_path, capsys):
    code = cli.main(["verify", "--scenario", _scenario_file(tmp_path),
                     "--which", "projections"])
    assert code == 0
    text = capsys.readouterr().out
    assert "U_unitary" in text and "trace_relations" in text
    assert "FAIL" not in text


def test_lambda_batch_size_does_not_change_bytes(monkeypatch):
    # a sweep (with the map column) and a count give the same bytes whether
    # the lambdas go one a batch, seven a batch or in the default batches
    g, bc, spec = wide_star(16, 1)
    scenarios = [cli.parse_scenario(cli._EXAMPLES[name]) for name in sorted(cli._EXAMPLES)]
    scenarios.append(cli.Scenario(graph=g, bc=bc, splits=spec, sweep=(1.0, 20.0, 64),
                                  count_intervals=((1.0, 20.0),), count_grid=None,
                                  boundary_block={"preset": "kirchhoff"}))
    evans_module = importlib.import_module("qgraph.evans")

    def outputs(sc, chunk):
        with monkeypatch.context() as m:
            m.setattr(evans_module, "CHUNK", chunk)
            text, machine, _ = cli.count_report(sc, grid=256)
            return cli.evans_csv(sc, samples=64, with_map=True), text, json.dumps(machine)
    for sc in scenarios:
        default = outputs(sc, evans_module.CHUNK)
        assert outputs(sc, 1) == default and outputs(sc, 7) == default


def test_exit_2_on_bad_input(tmp_path, capsys):
    assert cli.main(["count", "--scenario", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["evans", "--scenario", str(bad)]) == 2
    # structurally valid JSON, invalid boundary data (rank-deficient pair)
    blob = json.loads((tmp_path / "barrier_end.scenario.json").read_text()
                      if (tmp_path / "barrier_end.scenario.json").exists()
                      else cli.scenario_json(cli.parse_scenario(cli._EXAMPLES["barrier_end"])))
    blob["boundary"] = {"alpha1": [[[0.0, 0.0]] * 2] * 2,
                        "alpha2": [[[0.0, 0.0]] * 2] * 2,
                        "beta1": [[1.0, 0.0], [1.0, 0.0]],
                        "beta2": [[0.0, 0.0], [0.0, 0.0]]}
    bad_bc = tmp_path / "bad_bc.json"
    bad_bc.write_text(json.dumps(blob), encoding="utf-8")
    assert cli.main(["evans", "--scenario", str(bad_bc)]) == 2
    capsys.readouterr()
    # a missing or wrongly shaped key is named, with no traceback
    for key, spoil in (("mode", lambda d: d["splits"].pop("mode")),
                       ("length", lambda d: d["graph"]["edges"][0].pop("length")),
                       ("lambda_max", lambda d: d["sweep"].pop("lambda_max")),
                       ("vs", lambda d: d["graph"]["edges"][1].update(
                           potential={"xs": [0.0, 1.0]})),
                       ("cuts", lambda d: d["splits"].update(cuts=5)),
                       ("count", lambda d: d.update(count=None))):
        doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
        spoil(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["count", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and key in err
    # json reads NaN and Infinity; a non-finite number is named where it enters
    inf, nan = float("inf"), float("nan")

    def set_piece(d):
        d["graph"]["edges"][0]["potential"]["pieces"][0][2] = nan

    for command, value, spoil in (
            ("count", "inf", lambda d: d["graph"]["edges"][0].update(length=inf)),
            ("count", "nan", set_piece),
            ("count", "inf", lambda d: d["graph"]["edges"][1].update(
                potential={"xs": [0.0, 0.5, 1.0], "vs": [0.0, inf, 0.0]})),
            ("evans", "nan", lambda d: d["sweep"].update(lambda_max=nan)),
            ("count", "inf", lambda d: d["count"].update(intervals=[[5.0, inf]])),
            ("count", "nan", lambda d: d.update(boundary={
                "alpha1": [[[nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "alpha2": [[[0.0, 0.0]] * 2] * 2, "beta1": [[1.0, 0.0]] * 2,
                "beta2": [[0.0, 0.0]] * 2}))):
        doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
        spoil(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([command, "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and value in err, err
    # a non-positive scan grid or a negative sample count is named, on the
    # command line and in the scenario's count block alike
    doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for argv, value in ((["count", "--grid", "-5"], "-5"), (["count", "--grid", "0"], "0"),
                        (["evans", "--grid", "-1"], "-1")):
        assert cli.main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and f"got {value}" in err, err
    for grid in (0, -3):
        doc["count"]["grid"] = grid
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["count", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and f"got {grid}" in err, err
    # each missing block, unsupported request or malformed entry is named
    one_wire = {"graph": {"edges": [{"length": 1.0}]}, "boundary": {"preset": "kirchhoff"},
                "sweep": {"lambda_min": 5.0, "lambda_max": 60.0, "samples": 8}}

    def spoil_boundary(**block):
        return lambda d: d.update(boundary=block)

    def drop(*keys):
        return lambda d: [d.pop(k) for k in keys]

    matrix = {"alpha2": [[[0.0, 0.0]] * 2] * 2, "beta1": [[1.0, 0.0]] * 2,
              "beta2": [[0.0, 0.0]] * 2}
    for argv, name, spoil, message in (
            (["count"], "barrier_end", drop("splits"), "count needs a splits block"),
            (["count"], "barrier_end", drop("count", "sweep"),
             "count needs intervals or a sweep block"),
            (["evans"], "barrier_end", drop("sweep"), "scenario has no sweep block"),
            (["verify", "--which", "single"], "two_wire", None,
             "verify single needs a single-cut splits block"),
            (["verify", "--which", "minors"], None, None,
             "minor identity needs at least two wires"),
            (["count"], "barrier_end", spoil_boundary(
                alpha1=[[[1.0, 0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], **matrix),
             "matrix entries must be [re, im] pairs, got [1.0, 0.0, 3.0]"),
            (["count"], "barrier_end",
             lambda d: d["graph"]["edges"][0].update(potential={"v": 3.0}),
             "potential needs either 'pieces' or 'xs'/'vs'"),
            (["count"], "barrier_end", lambda d: d["boundary"].update(ends="robin"),
             "unknown end condition 'robin'"),
            (["count"], "barrier_end", spoil_boundary(preset="robin", theta=[1.0, 2.0]),
             "robin theta must be scalar or length n+1"),
            (["evans"], "barrier_end", lambda d: d["sweep"].update(samples=-3),
             "samples must be >= 0"),
            # an integer field takes an integer or an integral float, nothing else
            *((["count"], "barrier_end", lambda d, j=j: d["splits"]["cuts"][0].__setitem__(0, j),
               f"cut wire must be an integer, got {j!r}") for j in (0.9, True, "1")),
            *((["evans"], "barrier_end", lambda d, m=m: d["sweep"].update(samples=m),
               f"sweep.samples must be an integer, got {m!r}") for m in ("12", 2.7, True)),
            *((["count"], "barrier_end", lambda d, m=m: d["count"].update(grid=m),
               f"count.grid must be an integer, got {m!r}") for m in (2.5, "300"))):
        doc = one_wire if name is None else cli.parse_scenario(cli._EXAMPLES[name]).to_dict()
        if spoil is not None:
            spoil(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and message in err, err


def test_integral_floats_read_as_integers():
    doc = cli.parse_scenario(cli._EXAMPLES["two_wire"]).to_dict()
    doc["count"]["grid"] = 256
    exact = cli.parse_scenario(doc)
    doc["splits"]["cuts"] = [[float(j), s] for j, s in doc["splits"]["cuts"]]
    doc["sweep"]["samples"] = float(doc["sweep"]["samples"])
    doc["count"]["grid"] = 256.0
    sc = cli.parse_scenario(doc)
    assert (sc.splits, sc.sweep, sc.count_grid) == (exact.splits, exact.sweep, exact.count_grid)
    assert cli.scenario_json(sc) == cli.scenario_json(exact)
    assert type(sc.count_grid) is type(sc.sweep[2]) is type(sc.splits.cuts[1][0]) is int


def test_count_without_a_count_block_uses_the_sweep_span():
    doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
    assert doc.pop("count") == {"intervals": [[5.0, 60.0]]}
    text, machine, ok = cli.count_report(cli.parse_scenario(doc))
    assert [i["interval"] for i in machine["intervals"]] == [[5.0, 60.0]]
    assert (text, machine, ok) == cli.count_report(cli.parse_scenario(cli._EXAMPLES["barrier_end"]))


def test_infinite_count_interval_is_rejected_before_any_evaluation(tmp_path, capsys):
    doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
    doc["count"]["intervals"] = [[5.0, float("inf")]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["count", "--scenario", str(bad)]) == 2
    assert "not finite" in capsys.readouterr().err


def test_exit_4_on_boundary_pole(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise EndpointOnSpectrum("map pole at lambda=5 sits on the interval boundary")
    monkeypatch.setattr(cli, "verify_counting", boom)
    code = cli.main(["count", "--scenario", _scenario_file(tmp_path)])
    assert code == 4
    assert "endpoint error" in capsys.readouterr().err


def test_exit_3_on_numerical_failure(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise ArithmeticError("synthetic blowup")
    monkeypatch.setattr(cli, "verify_counting", boom)
    code = cli.main(["count", "--scenario", _scenario_file(tmp_path)])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_exit_5_on_failing_residuals(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.maps, "verify_single_split",
                        lambda *a, **k: 1.0)
    code = cli.main(["verify", "--scenario", _scenario_file(tmp_path),
                     "--which", "single", "--grid", "2"])
    assert code == 5
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_mismatched_mode(tmp_path):
    sc = cli.load_scenario(_scenario_file(tmp_path))
    with pytest.raises(cli.ScenarioError):
        cli.verify_table(sc, "double")


@pytest.mark.parametrize("name", ["barrier_interior", "two_wire"])
def test_verify_double_table(tmp_path, capsys, name):
    code = cli.main(["verify", "--scenario", _scenario_file(tmp_path, name),
                     "--which", "double"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and len(rows) == 20
    assert all(r.startswith("double_split,") and r.endswith(",PASS") for r in rows)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n", [8, 16])
def test_verify_double_table_on_a_wide_star(tmp_path, capsys, n, seed):
    # the residual star's Evans values are ~1e-7 (n = 8) and ~1e-13 (n = 16), so an
    # absolute pole threshold would call nearly every lambda a pole
    g, bc, spec = wide_star(n, seed)
    sc = cli.Scenario(graph=g, bc=bc, splits=spec, sweep=None, count_intervals=(),
                      count_grid=None, boundary_block={"preset": "kirchhoff"})
    path = tmp_path / "wide.scenario.json"
    path.write_text(cli.scenario_json(sc), encoding="utf-8")
    code = cli.main(["verify", "--scenario", str(path), "--which", "double"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and len(rows) == 20
    assert all(r.startswith("double_split,") and r.endswith(",PASS") for r in rows)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("which", ["resolvent", "ugamma"])
def test_verify_resolvent_tables_on_a_16_wire_star(tmp_path, capsys, which, seed):
    # det C is ~1e-14 at every lambda of the 16-wire star, so an absolute
    # on-spectrum test would refuse every draw; cond(C) does not scale with C
    g, bc, spec = wide_star(16, seed)
    sc = cli.Scenario(graph=g, bc=bc, splits=spec, sweep=None, count_intervals=(),
                      count_grid=None, boundary_block={"preset": "kirchhoff"})
    path = tmp_path / "wide.scenario.json"
    path.write_text(cli.scenario_json(sc), encoding="utf-8")
    code = cli.main(["verify", "--scenario", str(path), "--which", which, "--grid", "4"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and rows and all(r.endswith(",PASS") for r in rows)


def test_verify_gives_up_when_every_lambda_is_a_pole(tmp_path, monkeypatch, capsys):
    def pole(g, bc, cut, lam):
        raise maps.PoleAtLambda(lam, 0.0)

    monkeypatch.setattr(maps, "verify_single_split", pole)
    code = cli.main(["verify", "--scenario", _scenario_file(tmp_path), "--which", "single"])
    assert code == 3
    assert "no pole-free lambda" in capsys.readouterr().err


def test_verify_needs_at_least_one_round(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    sc = cli.load_scenario(path)
    for rounds in (0, -1):
        with pytest.raises(cli.ScenarioError, match="at least one"):
            cli.verify_table(sc, "single", rounds=rounds)
    # unchecked, these failed inside numpy's draw ("expected a sequence of integers")
    for rounds in (2.7, True):
        with pytest.raises(TypeError, match="rounds must be an integer"):
            cli.verify_table(sc, "single", rounds=rounds)
    assert cli.verify_table(sc, "single", rounds=3.0) == cli.verify_table(sc, "single", rounds=3)
    assert cli.main(["verify", "--scenario", path, "--which", "single", "--grid", "0"]) == 2
    assert "at least one" in capsys.readouterr().err


def _run_help(argv, env=None):
    run = subprocess.run(argv + ["--help"], capture_output=True, text=True,
                         env=env)
    assert run.returncode == 0, run.stderr
    assert "evans" in run.stdout and "count" in run.stdout


def test_console_script_help():
    # run the entry point that pyproject.toml declares, whether or not the
    # package is installed; an installed `qgraph` executable is run as well
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qgraph"]
    env = dict(os.environ)
    pkg_parent = str(Path(qgraph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    launcher = ("import sys; from importlib.metadata import EntryPoint; "
                "main = EntryPoint('qgraph', sys.argv[1], "
                "'console_scripts').load(); "
                "sys.argv = ['qgraph'] + sys.argv[2:]; sys.exit(main())")
    _run_help([sys.executable, "-c", launcher, target], env=env)
    exe = shutil.which("qgraph")
    if exe:
        _run_help([exe])


def _sampled_star(depth=12.0, samples=9):
    """Two wires, a smooth sampled well on wire 1; the cut on wire 0 leaves
    the sampled wire in the residual star."""
    xs = np.linspace(0.0, 1.0, samples)
    return cli.parse_scenario({
        "graph": {"edges": [
            {"length": 1.0},
            {"length": 1.0, "potential": {"xs": list(xs),
                                          "vs": list(-depth * np.sin(np.pi * xs))}}]},
        "boundary": {"preset": "kirchhoff"},
        "splits": {"mode": "single", "cuts": [[0, 0.5]]},
        "sweep": {"lambda_min": 3.0, "lambda_max": 40.0, "samples": 2}})


def test_verify_resolvent_passes_on_a_steep_coarsely_sampled_well():
    # the ODE defect steps each grid interval with its linear potential, so
    # it measures the resolvent, not a midpoint model of the well
    text, ok = cli.verify_table(_sampled_star(depth=120.0, samples=5), "resolvent", rounds=3)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert ok and len(rows) == 2 * 3
    assert max(float(r[2]) for r in rows if r[0] == "ode_defect") < 1e-10


def test_sampled_star_piece_keeps_real_arithmetic():
    # no complex value of the adaptive engine is cast or dropped silently
    sc = _sampled_star()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        csv = cli.evans_csv(sc, samples=2, with_map=True)
        text, ok = cli.verify_table(sc, "single", rounds=1)
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert len(rows) == 2
    assert all(float(cell) == 0.0 for row in rows for cell in row[2::2])
    assert ok, text


def test_sampled_star_never_integrates(monkeypatch):
    # every command propagates a sampled wire by exact segment steps; only
    # the adaptive oracle integrates
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp outside the adaptive oracle")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    sc = _sampled_star()
    cli.evans_csv(sc, samples=4, with_map=True)
    for which in ("single", "minors", "resolvent", "ugamma", "projections"):
        cli.verify_table(sc, which, rounds=1)
    data = sc.to_dict()
    data["count"] = {"intervals": [[5.0, 30.0]], "grid": 200}
    cli.count_report(cli.parse_scenario(data))
    with pytest.raises(AssertionError):
        adaptive_reference(sc.graph.edges[1], 5.0, 1.0, 0.0)


_SCIPY_PROBE = """import contextlib, io, json, sys
import qgraph, qgraph.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qgraph.cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize("argv, scenario, loaded, unloaded", [
    ([], None, (), ("scipy",)),
    (["count"], "barrier_end", (), ("scipy",)),
    (["evans"], "barrier_end", (), ("scipy",)),
    (["verify", "--which", "single"], "barrier_end", (), ("scipy",)),
    (["verify", "--which", "minors"], "barrier_end", (), ("scipy",)),
    (["verify", "--which", "ugamma"], "barrier_end", (), ("scipy",)),
    (["verify", "--which", "resolvent"], "barrier_end", (), ("scipy",)),
    (["evans"], "sampled", ("scipy.special",), ("scipy.optimize",)),
], ids=["import", "count", "evans", "single", "minors", "ugamma", "resolvent", "sampled"])
def test_commands_load_scipy_only_where_used(tmp_path, argv, scenario, loaded, unloaded):
    # each scipy module is imported where it is first used: the Airy steps
    # of sloped segments load scipy.special, a dip probe scipy.optimize, and
    # the resolvent's quadrature rules none.  Module sets, not times.
    if scenario == "sampled":
        path = tmp_path / "sampled.scenario.json"
        path.write_text(cli.scenario_json(_sampled_star()), encoding="utf-8")
        argv = argv[:1] + ["--scenario", str(path)] + argv[1:]
    elif scenario:
        argv = argv[:1] + ["--scenario", _scenario_file(tmp_path, scenario)] + argv[1:]
    env = dict(os.environ, PYTHONPATH=str(Path(qgraph.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    modules = set(json.loads(run.stdout))
    assert modules >= set(loaded)
    assert not modules & set(unloaded), sorted(modules)


def test_pole_retry_is_reproducible_across_hash_seeds():
    # the retry draws must not depend on the per-process string hash salt
    script = ("from qgraph import cli, maps\n"
              "calls = []\n"
              "def check(x):\n"
              "    calls.append(x)\n"
              "    if len(calls) == 1:\n"
              "        raise maps.PoleAtLambda(x, 0.0)\n"
              "    return (x,)\n"
              "print(repr(cli._residual_rows((('single_split', 1e-7),), check, [10.0])))\n")
    pkg_parent = str(Path(qgraph.__file__).resolve().parents[1])
    outs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=pkg_parent)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert "10.0," not in outs[0]  # the retry moved off the pole


@pytest.mark.parametrize("call, error, word", [
    (lambda: cli.verify_table(cli.parse_scenario(cli._EXAMPLES["barrier_end"]), "triple"),
     cli.ScenarioError, "unknown verification"),
    (lambda: cli.example_bundle("three_wire"), cli.ScenarioError, "unknown example"),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()


def test_count_prints_none_for_a_term_without_zeros():
    doc = cli.parse_scenario(cli._EXAMPLES["barrier_end"]).to_dict()
    doc["count"]["intervals"] = [[5.0, 6.0]]
    text, machine, ok = cli.count_report(cli.parse_scenario(doc))
    assert ok and "  eigenvalues: none\n  map zeros: none\n  map poles: 5.55165248" in text
    [interval] = machine["intervals"]
    assert interval["full"]["zeros"] == interval["map"]["zeros"] == []
